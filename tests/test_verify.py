import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from elliptic_tubes import catalog
from elliptic_tubes.errors import RepresentationError
from elliptic_tubes.report import VerifierReport
from elliptic_tubes.tube import Tube
from elliptic_tubes.verify import (
    _check_line,
    _content_window,
    _fragment_links,
    _fragments_join,
    _random_line,
    connectivity_counts,
    rasterize_line,
    verify_c_convexity,
    verify_duality_identity,
    verify_exhaustion_monotone,
    verify_homeomorphism,
    verify_linear_convexity,
    verify_metric_consistency,
)


# ---------- report plumbing -------------------------------------------------------


def test_report_pass_fail_accounting():
    report = VerifierReport(name="demo", tolerance=1e-9, seed=7)
    assert report.passed
    assert report.verdict == "pass"
    report.observe(1e-12)
    report.record("something broke", 0.5)
    assert not report.passed
    assert report.verdict == "fail"
    assert report.max_error == 0.5
    assert "something broke" in report.to_text()
    assert "FAIL" in report.summary()


# ---------- rasters ---------------------------------------------------------------


def test_interval_raster_is_unit_disk(interval):
    tube = Tube(interval)
    raster = rasterize_line(tube, [0.0 + 0j], [1.0 + 0j], resolution=96)
    assert raster.resolution == (96, 96)
    assert raster.filled > 0
    assert not raster.touches_frame
    for i in range(0, 96, 7):
        for j in range(0, 96, 7):
            w = raster.w_re[j] + 1j * raster.w_im[i]
            if abs(abs(w) - 1.0) < 0.05:
                continue  # skip the pixel-boundary band
            assert bool(raster.bitmap[i, j]) == (abs(w) < 1.0)
    assert connectivity_counts(raster.bitmap) == (1, 1)


def test_raster_point_matches_grid(triangle):
    tube = Tube(triangle)
    anchor = np.array([0.25 + 0.02j, 0.3 - 0.01j])
    direction = np.array([1.0 + 0j, 0.5 + 0.25j])
    raster = rasterize_line(tube, anchor, direction, resolution=32)
    w = raster.w_re[5] + 1j * raster.w_im[20]
    np.testing.assert_allclose(raster.point(w), anchor + w * direction, atol=1e-14)


def test_raster_window_never_clips(triangle, rng):
    tube = Tube(triangle)
    for _ in range(15):
        anchor = tube.sample_points(rng, 1)[0]
        direction = rng.normal(size=2) + 1j * rng.normal(size=2)
        raster = rasterize_line(tube, anchor, direction, resolution=64)
        assert not raster.touches_frame


# Lines that `_random_line` once drew on the triangle, kept as literals so
# that the regressions they pin do not move with the sampler's streams:
# (anchor, direction).  Each is the one line `verify_c_convexity` drew for
# a seed: 915742375 for the cusp line, the keys for the sliver lines.
_CUSP_LINE = (
    np.array([0.6899559631945803 - 0.4270123387551005j, 0.19972356621486664 + 0.29366741457235634j]),
    np.array([0.41922683363759256 - 0.6569635056931028j, 0.6262050015400905 - 0.022696039121444245j]),
)
_SLIVER_LINES = {
    1127112162: (
        np.array([0.1572738296288151 + 0.2291584882675446j, 0.3121563442056522 + 0.1101395809237018j]),
        np.array([-0.0987571136398435 - 0.39014494821970225j, 0.7335772182444126 + 0.5476298172643291j]),
    ),
    1551976275: (
        np.array([0.8069756551665661 + 0.37286436059856287j, 0.15363646048641766 - 0.3145457585302427j]),
        np.array([0.005137033853744695 + 0.2871288267144139j, -0.4700949878727603 - 0.8345905284207933j]),
    ),
    1689036249: (
        np.array([0.522678565999035 - 0.47228655748651605j, 0.2721355959980485 + 0.24609283912875557j]),
        np.array([0.14043987140011005 + 0.019606123777883767j, 0.9898018579573193 + 0.01358397643421347j]),
    ),
    1059804485: (
        np.array([0.035350243201411446 - 0.12195090405243492j, 0.922537945484295 + 0.26215280521186757j]),
        np.array([-0.27533104715393764 - 0.7834470526245818j, 0.017118652847598694 - 0.5568756431481408j]),
    ),
}


def test_cusp_tip_outside_the_probed_window_is_rasterized(triangle):
    # the 256 px content probe misses a cusp tip on this line, so the 512 px
    # raster touches the fitted window; the window must widen to take it in
    violations, _ = _check_line(Tube(triangle), *_CUSP_LINE, 512, 2, None)
    assert violations == []


@pytest.mark.parametrize("seed", list(_SLIVER_LINES))
def test_sliver_fragments_are_joined(triangle, seed):
    # a sliver thinner than a pixel (toward a cusp tip; on the last line the
    # whole region) rasters as a string of fragments that one dilation
    # step does not bridge
    violations, bridged = _check_line(Tube(triangle), *_SLIVER_LINES[seed], 512, 2, None)
    assert violations == []
    assert bridged >= 1


def test_fragments_join_keeps_a_cut_region_apart(triangle):
    tube = Tube(triangle)
    anchor, direction = _SLIVER_LINES[1689036249]
    window = _content_window(tube, anchor, direction)
    raster = rasterize_line(tube, anchor, direction, resolution=512, window=window)
    assert connectivity_counts(raster.bitmap)[0] > 1
    assert _fragments_join(tube, raster)
    # the band is 8 px wide on row 30: a puncture of radius 10 px there
    # cuts the region in two
    row = 30
    col = int(np.flatnonzero(raster.bitmap[row]).mean())
    center = raster.point(raster.w_re[col] + 1j * raster.w_im[row])
    radius = 10 * (raster.w_re[1] - raster.w_re[0]) * np.linalg.norm(direction)
    cut = rasterize_line(tube, anchor, direction, resolution=512, window=window,
                         puncture=(center, radius))
    assert connectivity_counts(cut.bitmap)[0] > 1
    assert not _fragments_join(tube, cut, (center, radius))


def test_puncture_creates_hole(square):
    tube = Tube(square)
    anchor = np.array([0.0 + 0j, 0.0 + 0j])
    direction = np.array([1.0 + 0j, 0.0 + 0j])
    plain = rasterize_line(tube, anchor, direction, resolution=128)
    holed = rasterize_line(tube, anchor, direction, resolution=128,
                           puncture=(anchor, 0.2))
    assert connectivity_counts(plain.bitmap) == (1, 1)
    assert connectivity_counts(holed.bitmap) == (1, 2)
    assert holed.filled < plain.filled


def test_connectivity_on_handmade_bitmaps():
    empty = np.zeros((8, 8), dtype=np.uint8)
    assert connectivity_counts(empty) == (0, 1)
    block = empty.copy()
    block[2:5, 2:5] = 1
    assert connectivity_counts(block) == (1, 1)
    two = block.copy()
    two[6:8, 6:8] = 1
    assert connectivity_counts(two) == (2, 1)
    ring = np.zeros((9, 9), dtype=np.uint8)
    ring[2:7, 2:7] = 1
    ring[4, 4] = 0
    assert connectivity_counts(ring) == (1, 2)
    # region is 4-connected: a diagonal pair is two components, while the
    # 8-connected complement stays whole
    diag = np.zeros((4, 4), dtype=np.uint8)
    diag[1, 1] = diag[2, 2] = 1
    assert connectivity_counts(diag) == (2, 1)


# reference: the two labellings that `connectivity_counts` replaced, kept
# verbatim


_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
_EIGHT = np.ones((3, 3), dtype=int)


def _reference_counts(bitmap):
    _, n_region = ndimage.label(bitmap, structure=_FOUR)
    comp = np.pad(1 - bitmap, 1, constant_values=1)
    _, n_comp = ndimage.label(comp, structure=_EIGHT)
    return int(n_region), int(n_comp)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_connectivity_counts_match_the_labellings(data):
    shape = (data.draw(st.integers(1, 20), label="rows"),
             data.draw(st.integers(1, 20), label="cols"))
    bitmap = data.draw(arrays(np.bool_, shape), label="bitmap")
    expected = _reference_counts(bitmap)
    assert connectivity_counts(bitmap) == expected
    assert connectivity_counts(bitmap.astype(np.uint8)) == expected
    for view in (bitmap.T, bitmap[::2], bitmap[:, ::-2]):  # strided views
        assert connectivity_counts(view) == _reference_counts(view)


def test_connectivity_counts_on_edge_bitmaps():
    ones = np.ones((6, 7), dtype=bool)
    row = np.array([[1, 0, 1, 1, 0, 0, 1]], dtype=np.uint8)
    checker = (np.indices((7, 6)).sum(axis=0) % 2 == 0)
    plus = np.zeros((7, 9), dtype=bool)
    plus[3, :] = plus[:, 4] = True
    border = ones.copy()
    border[1:-1, 1:-1] = False
    # a ring in the hole of a ring: two regions, and the complement is the
    # outside, the gap between the rings and the inner hole
    rings = np.zeros((11, 11), dtype=bool)
    rings[1:10, 1:10] = True
    rings[2:9, 2:9] = False
    rings[4:7, 4:7] = True
    rings[5, 5] = False
    cases = [
        (np.zeros((5, 4), dtype=bool), (0, 1)),
        (ones, (1, 1)),
        (row, (3, 1)),
        (row.T, (3, 1)),
        (checker, (21, 1)),  # only diagonal neighbours: no two pixels join
        (plus, (1, 1)),  # touches every side, cutting four corners off
        (border, (1, 2)),  # touches every side and encloses a hole
        (rings, (2, 3)),
    ]
    for bitmap, counts in cases:
        assert _reference_counts(bitmap) == counts
        assert connectivity_counts(bitmap) == counts


@pytest.mark.parametrize("name", ["triangle", "square", "ellipse"])
def test_connectivity_counts_match_the_labellings_on_rasters(name):
    # every raster a line check counts: the final one, the stability one,
    # and their dilations
    tube = Tube(catalog.by_name(name))
    for seed in range(5):
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        anchor, direction, _ = _random_line(tube, rng)
        window = _content_window(tube, anchor, direction)
        for resolution in (512, 1024):
            bitmap = rasterize_line(tube, anchor, direction, resolution=resolution,
                                    window=window).bitmap
            fat = ndimage.binary_dilation(bitmap, structure=_EIGHT)
            for raster in (bitmap, fat):
                assert connectivity_counts(raster) == _reference_counts(raster)


def _reference_links(bitmap):
    # the links of `_fragment_links` pixel by pixel from a 4-labelling:
    # components ordered by first pixel, and on a tie the nearest pixel
    # that comes first in row-major order (argwhere lists pixels that way)
    labels, count = ndimage.label(bitmap, structure=_FOUR)
    parts = sorted((np.argwhere(labels == k) for k in range(1, count + 1)),
                   key=lambda pixels: tuple(pixels[0]))
    links = []
    for k, own in enumerate(parts):
        i, j = (int(v) for v in own[0])
        for m, other in enumerate(parts):
            if m != k:
                dist = (other[:, 0] - i) ** 2 + (other[:, 1] - j) ** 2
                b = int(np.argmin(dist))
                links.append((int(dist[b]), k, m, (i, j), tuple(int(v) for v in other[b])))
    return count, links


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fragment_links_match_a_labelling(data):
    shape = (data.draw(st.integers(1, 20), label="rows"),
             data.draw(st.integers(1, 20), label="cols"))
    bitmap = data.draw(arrays(np.bool_, shape), label="bitmap")
    count, links = _reference_links(bitmap)
    assert _fragment_links(bitmap, count) == (count, links)
    assert _fragment_links(bitmap.T, 400) == _reference_links(bitmap.T)
    if count:
        assert _fragment_links(bitmap, count - 1) is None


def test_fragment_links_on_sliver_rasters(triangle):
    tube = Tube(triangle)
    for anchor, direction in _SLIVER_LINES.values():
        window = _content_window(tube, anchor, direction)
        for resolution in (512, 1024):
            bitmap = rasterize_line(tube, anchor, direction, resolution=resolution,
                                    window=window).bitmap
            count, links = _reference_links(bitmap)
            if resolution == 512:
                assert count > 1  # every sliver line fragments at 512 px
            assert _fragment_links(bitmap, count) == (count, links)


# ---------- verifiers pass on honest domains ---------------------------------------


def test_linear_convexity_triangle(triangle):
    report = verify_linear_convexity(triangle, n_points=40, n_kernel_samples=400, seed=11)
    assert report.passed
    assert report.samples_run == 40
    assert report.max_error < 1e-10


def test_linear_convexity_square(square):
    report = verify_linear_convexity(square, n_points=30, n_kernel_samples=300, seed=3)
    assert report.passed


def test_linear_convexity_sum_variant_is_negative_control(triangle):
    report = verify_linear_convexity(
        triangle, n_points=30, n_kernel_samples=300, seed=11, variant="sum"
    )
    assert not report.passed


def test_c_convexity_triangle(triangle):
    report = verify_c_convexity(triangle, n_lines=6, resolution=128, seed=5)
    assert report.passed
    assert report.details["two_point_lines"] >= 1
    assert report.details["backend"] == "numpy"


def test_c_convexity_punctured_fails(triangle):
    report = verify_c_convexity(
        triangle,
        n_lines=6,
        resolution=128,
        seed=5,
        puncture=(np.array([0.25, 0.25]), 0.08),
    )
    assert not report.passed
    assert any("holes" in v for v in report.violations)


def test_punctured_control_sees_its_hole_on_every_seed(triangle):
    # the control's lines run through the puncture, so one line is enough
    for seed in range(10):
        report = verify_c_convexity(triangle, n_lines=1, resolution=512, seed=seed,
                                    puncture=(np.array([0.25, 0.25]), 0.08))
        assert report.samples_run == 1, seed
        assert any("holes" in v for v in report.violations), seed


def test_duality_identity_square(square):
    report = verify_duality_identity(square, n_samples=60, seed=2)
    assert report.passed
    assert report.samples_run > 0


def test_duality_identity_ellipse_skips_separator_direction(ellipse):
    report = verify_duality_identity(ellipse, n_samples=40, seed=2)
    assert report.passed
    assert "separator" in str(report.details).lower()


def test_metric_consistency_square(square):
    report = verify_metric_consistency(square, n_pairs=80, seed=9)
    assert report.passed
    assert report.max_error < 1e-10


def test_homeomorphism_simplex_with_group(simplex):
    from elliptic_tubes.projective import ProjectiveMap

    gens = [ProjectiveMap(m) for m in (np.diag([2.0, 1.0, 0.5]), np.diag([0.5, 2.0, 1.0]))]
    report = verify_homeomorphism(simplex, n_samples=50, seed=4, group_elements=gens)
    assert report.passed


def test_homeomorphism_rejects_non_symmetry(square):
    from elliptic_tubes.projective import ProjectiveMap

    shear = ProjectiveMap([[1.0, 0.4, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(RepresentationError):
        verify_homeomorphism(square, n_samples=10, group_elements=[shear])


def test_exhaustion_monotone_ellipse(ellipse):
    report = verify_exhaustion_monotone(ellipse, deltas=(0.5, 0.25, 0.1), n_samples=90, seed=6)
    assert report.passed
    assert report.details["unabsorbed"] >= 0
    absorbed = sum(v for k, v in report.details.items() if k.startswith("absorbed_at_"))
    assert absorbed + report.details["unabsorbed"] == 45


def test_exhaustion_scaled_copies_nest(square, rng):
    small = square.scaled_copy(0.4)
    t_small, t_big = Tube(small), Tube(square)
    for z in t_small.sample_points(rng, 60):
        assert t_big.contains(z)


# ---------- determinism -------------------------------------------------------------


def test_verifiers_are_deterministic(triangle):
    a = verify_linear_convexity(triangle, n_points=15, n_kernel_samples=60, seed=42)
    b = verify_linear_convexity(triangle, n_points=15, n_kernel_samples=60, seed=42)
    assert a.max_error == b.max_error
    assert a.violations == b.violations
    assert a.samples_run == b.samples_run
