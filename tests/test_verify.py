from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage, sparse
from scipy.sparse.csgraph import connected_components

from elliptic_tubes import _kernels, catalog
from elliptic_tubes._kernels import slice_topology
from elliptic_tubes.domspec import load_domain
from elliptic_tubes.errors import RepresentationError, ZeroDirectionError
from elliptic_tubes.report import VerifierReport
from elliptic_tubes.tube import Tube
from elliptic_tubes.verify import (
    _WINDOW_MARGIN,
    SliceRaster,
    _check_line,
    _line_forms,
    _random_line,
    _raster_window,
    connectivity_counts,
    rasterize_line,
    run_counts,
    verify_c_convexity,
    verify_duality_identity,
    verify_exhaustion_monotone,
    verify_homeomorphism,
    verify_linear_convexity,
    verify_metric_consistency,
)

BENCH_DOMAINS = Path(__file__).resolve().parents[1] / "perfbench"


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


def _arc_window(tube, anchor, direction, resolution=512, puncture=None):
    """The window `_check_line` rasters over: the arcs' box, padded."""
    bbox = slice_topology(*_line_forms(tube, anchor, direction, puncture))[2]
    return _raster_window(bbox, resolution)


def test_cusp_tip_outside_the_probed_window_is_rasterized(triangle):
    # a 256 px content probe missed a cusp tip on this line; the arcs' box
    # holds it, so the 512 px raster does not touch its frame
    tube = Tube(triangle)
    assert slice_topology(*_line_forms(tube, *_CUSP_LINE))[:2] == (1, 0)
    violations, _ = _check_line(tube, *_CUSP_LINE, 512, 2, None)
    assert violations == []
    window = _arc_window(tube, *_CUSP_LINE)
    assert not rasterize_line(tube, *_CUSP_LINE, resolution=512, window=window).touches_frame


@pytest.mark.parametrize("seed", list(_SLIVER_LINES))
def test_sliver_fragments_are_joined(triangle, seed):
    # a sliver thinner than a pixel (toward a cusp tip; on the last line the
    # whole region) rasters as a string of fragments in the window the
    # reference pipeline fits, while its arcs bound one region without holes
    tube = Tube(triangle)
    anchor, direction = _SLIVER_LINES[seed]
    assert slice_topology(*_line_forms(tube, anchor, direction))[:2] == (1, 0)
    violations, _ = _check_line(tube, anchor, direction, 512, 2, None)
    assert violations == []
    window = _reference_content_window(tube, anchor, direction)
    raster = rasterize_line(tube, anchor, direction, resolution=512, window=window)
    assert connectivity_counts(raster.bitmap)[0] > 1


def test_a_puncture_across_a_sliver_cuts_it_in_two(triangle):
    tube = Tube(triangle)
    anchor, direction = _SLIVER_LINES[1689036249]
    window = _reference_content_window(tube, anchor, direction)
    raster = rasterize_line(tube, anchor, direction, resolution=512, window=window)
    # the band is 8 px wide on row 30: a puncture of radius 10 px there
    # cuts the region in two
    row = 30
    col = int(np.flatnonzero(raster.bitmap[row]).mean())
    center = raster.point(raster.w_re[col] + 1j * raster.w_im[row])
    radius = 10 * (raster.w_re[1] - raster.w_re[0]) * np.linalg.norm(direction)
    puncture = (center, radius)
    assert slice_topology(*_line_forms(tube, anchor, direction, puncture))[:2] == (2, 0)
    violations, _ = _check_line(tube, anchor, direction, 512, 2, puncture)
    assert violations == ["region has 2 components"]


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
    # the puncture is one more form for the arcs
    assert slice_topology(*_line_forms(tube, anchor, direction))[:2] == (1, 0)
    assert slice_topology(*_line_forms(tube, anchor, direction, (anchor, 0.2)))[:2] == (1, 1)


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
    # the rasters a line check counts, at 512 and 1024 px over the arcs'
    # box, and their dilations
    tube = Tube(catalog.by_name(name))
    for seed in range(5):
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        anchor, direction, _ = _random_line(tube, rng)
        window = _arc_window(tube, anchor, direction)
        for resolution in (512, 1024):
            bitmap = rasterize_line(tube, anchor, direction, resolution=resolution,
                                    window=window).bitmap
            fat = ndimage.binary_dilation(bitmap, structure=_EIGHT)
            for raster in (bitmap, fat):
                assert connectivity_counts(raster) == _reference_counts(raster)


@pytest.mark.parametrize("name", ["triangle", "square", "ellipse"])
def test_run_counts_of_a_raster_are_the_counts_of_its_bitmap(name):
    # the counts the line check takes from the runs, against the bitmap's,
    # at 512 and 1024 px over the arcs' box, punctured and not
    tube = Tube(catalog.by_name(name))
    center = np.array([0.25, 0.25]) if name == "triangle" else np.zeros(2)
    for seed in range(4):
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        puncture = (center, 0.08) if seed % 2 else None
        anchor, direction, _ = _random_line(tube, rng, through=center if seed % 2 else None)
        window = _arc_window(tube, anchor, direction, puncture=puncture)
        for resolution in (512, 1024):
            raster = rasterize_line(tube, anchor, direction, resolution=resolution,
                                    window=window, puncture=puncture)
            counts = run_counts(*raster.runs, resolution + 1)
            assert counts == connectivity_counts(raster.bitmap)
            assert counts[1] == (2 if seed % 2 else 1)


# ---------- slice topology from boundary arcs --------------------------------------


def _disk(center, radius):
    """The form ``radius^2 - |w - center|^2``: > 0 inside the disk."""
    center = complex(center)
    return -1.0, 2.0 * center.conjugate(), radius * radius - abs(center) ** 2


def _outside(center, radius):
    return tuple(-v for v in _disk(center, radius))


def _half_plane(normal, offset):
    """The form ``Re(conj(normal) w) + offset``."""
    return 0.0, complex(normal).conjugate(), offset


def _topology(*forms):
    return slice_topology(*zip(*forms))


def test_slice_topology_of_a_disk():
    components, holes, bbox = _topology(_disk(0.5 + 0.25j, 2.0))
    assert (components, holes) == (1, 0)
    np.testing.assert_allclose(bbox, ((-1.5, 2.5), (-1.75, 2.25)), atol=1e-15)


def test_slice_topology_of_an_annulus():
    components, holes, bbox = _topology(_disk(0, 1.0), _outside(0.25, 0.5))
    assert (components, holes) == (1, 1)
    np.testing.assert_allclose(bbox, ((-1.0, 1.0), (-1.0, 1.0)), atol=1e-15)
    # two disjoint holes
    assert _topology(_disk(0, 5.0), _outside(2.0, 1.0), _outside(-2.0, 1.0))[:2] == (1, 2)


def test_slice_topology_of_a_strip_minus_a_disk():
    strip = (_half_plane(1j, 1.0), _half_plane(-1j, 1.0))
    assert _topology(*strip, _outside(0, 2.0), _disk(0, 10.0))[:2] == (2, 0)
    # a disk cut into two by a disk and a strip, and a disk with one side cut
    narrow = (_half_plane(1j, 0.5), _half_plane(-1j, 0.5))
    assert _topology(_disk(0, 2.0), _outside(0, 1.0), *narrow)[:2] == (2, 0)
    assert _topology(_disk(0, 2.0), _half_plane(1, -0.5), _half_plane(-1, 1.5))[:2] == (1, 0)
    # without the bounding disk the region is unbounded
    for forms in (strip, (*strip, _outside(0, 2.0)), (_outside(0, 1.0),)):
        with pytest.raises(ValueError, match="unbounded"):
            _topology(*forms)


def test_slice_topology_at_a_tangency():
    # the closed disks touch, so the holes join into one
    assert _topology(_disk(0, 5.0), _outside(1.0, 1.0), _outside(-1.0, 1.0))[:2] == (1, 1)
    # a crescent: a disk minus a disk inside it that touches its circle
    assert _topology(_disk(0, 2.0), _outside(1.0, 1.0))[:2] == (1, 0)
    # two disks that touch from outside share no point
    assert _topology(_disk(1.0, 1.0), _disk(-1.0, 1.0)) == (0, 0, None)


@pytest.mark.parametrize("name", ["triangle", "square", "simplex", "ellipse", "cube3"])
def test_slice_topology_on_complexified_real_lines(name):
    # on a real line every circle has its centre on the real axis and the
    # circles through each w_p touch there: every vertex is a tangency, and
    # the slice is the disk over the clip (a, b)
    domain = (load_domain(BENCH_DOMAINS / "cube3.dom").domain if name == "cube3"
              else catalog.by_name(name))
    tube = Tube(domain)
    rng = np.random.default_rng(np.random.SeedSequence([3]))
    x = domain.sample_interior(rng, 30)
    u = rng.normal(size=x.shape)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    a, b, _ = domain.clip_lines(x, u)
    for i in range(len(x)):
        components, holes, bbox = slice_topology(*_line_forms(tube, x[i] + 0j, u[i] + 0j))
        assert (components, holes) == (1, 0)
        half = 0.5 * (b[i] - a[i])
        np.testing.assert_allclose(bbox, ((a[i], b[i]), (-half, half)), rtol=0, atol=1e-6 * half)
        # and off the real line by 1e-9, where the touching circles cross
        shift = 1e-9j * rng.normal(size=(2, domain.n))
        forms = _line_forms(tube, x[i] + shift[0], u[i] + shift[1])
        assert slice_topology(*forms)[:2] == (1, 0)


def test_slice_topology_of_lines():
    # alpha = 0: a triangle of half-planes, and a half-plane cutting a disk
    normals = np.exp(2j * np.pi * np.arange(3) / 3)
    components, holes, bbox = _topology(*(_half_plane(v, 1.0) for v in normals))
    assert (components, holes) == (1, 0)
    np.testing.assert_allclose(bbox, ((-1.0, 2.0), (-np.sqrt(3.0), np.sqrt(3.0))), atol=1e-12)
    components, holes, bbox = _topology(_disk(0, 1.0), _half_plane(1, -0.5))
    assert (components, holes) == (1, 0)
    np.testing.assert_allclose(bbox, ((0.5, 1.0), (-np.sqrt(0.75), np.sqrt(0.75))), atol=1e-12)


def test_slice_topology_through_a_triple_point():
    # every form Re(v_q conj v_p) vanishes where v_p = 0: v_0 = w here, so
    # the circles of pairs (0, 1) and (0, 2) both pass through w = 0
    fam_a = np.array([0.0, 1.0, 1.0 + 0.3j, 1.0 - 0.3j])
    fam_b = np.array([1.0, -1.0, 0.5j, -0.5j])
    forms = _kernels.pairwise_forms(fam_a, fam_b)
    components, holes, bbox = slice_topology(*forms)
    assert (components, holes) == (1, 0)
    # the region is the open set the forms cut out: its box holds every
    # pixel centre of a fine raster inside it
    w_re = np.linspace(-4.0, 4.0, 401)
    mask = _kernels.form_mask(*forms, w_re, w_re)
    rows, cols = np.nonzero(mask)
    assert connectivity_counts(mask) == (1, 1)
    (re_lo, re_hi), (im_lo, im_hi) = bbox
    assert re_lo <= w_re[cols].min() and w_re[cols].max() <= re_hi
    assert im_lo <= w_re[rows].min() and w_re[rows].max() <= im_hi


def test_slice_topology_of_forms_without_a_curve():
    assert _topology((1.0, 0.0, 1.0), _disk(0, 1.0))[:2] == (1, 0)  # positive everywhere
    assert _topology((-1.0, 0.0, -1.0), _disk(0, 1.0)) == (0, 0, None)  # negative everywhere
    assert _topology((0.0, 0.0, 0.0), _disk(0, 1.0)) == (0, 0, None)  # zero everywhere
    # |w - 0.5|^2 vanishes at one point only, which no raster sees
    assert _topology((1.0, -1.0, 0.25), _disk(0, 1.0))[:2] == (1, 0)
    assert _topology((-1.0, 1.0, -0.25), _disk(0, 1.0)) == (0, 0, None)


def test_slice_topology_of_a_repeated_form():
    annulus = (_disk(0, 1.0), _outside(0.25, 0.5))
    assert _topology(*annulus, *annulus)[:2] == (1, 1)
    assert _topology(*annulus, _disk(0, 1.0))[:2] == (1, 1)


# reference: the raster pipeline that decided each line before the arcs,
# kept verbatim (names prefixed) as the survey's second opinion


def _reference_row_runs(bitmap):
    """The region's row runs (maximal horizontal segments of set pixels) and
    the graph that joins them.

    Returns ``(start, end, stride, graph)``.  ``start`` and ``end`` hold, in
    row-major order, the key ``row * stride + column`` of each run's first
    pixel and of the column just past its last (``stride`` is the width plus
    one).  ``graph`` is the sparse adjacency of the runs: two runs in
    consecutive rows are joined when they share a column, which is
    4-adjacency, so its components are the region's 4-components.
    """
    bitmap = np.asarray(bitmap)
    rows, width = bitmap.shape
    framed = np.zeros((rows, width + 2), dtype=bool)
    framed[:, 1:-1] = bitmap
    # a run starts and ends (exclusively) at a change along its row; the
    # flat index of a change is its row-major key, row * stride + column
    stride = width + 1
    edges = np.flatnonzero(framed[:, 1:] != framed[:, :-1])
    start, end = edges[0::2], edges[1::2]
    n_runs = len(start)
    # the runs of the next row that share a column with each run: their
    # ends lie past its start and their starts before its end, one row on
    first = np.searchsorted(end, start + stride, side="right")
    past = np.searchsorted(start, end + stride, side="left")
    joints = past - first
    n_joints = int(joints.sum())
    # run i's joints sit at offset[i] onwards in the list and reach runs
    # first[i], first[i] + 1, ...
    offset = np.cumsum(joints) - joints
    upper = np.repeat(np.arange(n_runs), joints)
    lower = np.arange(n_joints) + np.repeat(first - offset, joints)
    graph = sparse.coo_matrix((np.ones(n_joints, dtype=np.int8), (upper, lower)),
                              shape=(n_runs, n_runs))
    return start, end, stride, graph


def _reference_auto_window(tube: Tube, anchor, direction):
    """A square window certain to contain the whole slice region.

    Every tube point is coordinate-bounded; solving ``|anchor_j + w dir_j|
    <= bound_j`` for the best coordinate gives ``|w| <= W``.  The bound
    takes ``|hi - lo|``, wider than :meth:`Tube.bounding_box`'s imaginary
    half width, for every coordinate: the probes and rasters are fitted
    inside this window, so it fixes their pixel grids.
    """
    lo, hi = tube.base.bbox
    bound = np.maximum(np.abs(lo), np.abs(hi)) + float(np.linalg.norm(hi - lo))
    scale = np.linalg.norm(direction)
    best = np.inf
    for j in range(tube.n):
        dj = abs(direction[j])
        if dj > 1e-12 * scale:
            best = min(best, (abs(anchor[j]) + bound[j]) / dj)
    if not np.isfinite(best):
        raise ZeroDirectionError("direction vanishes in every coordinate")
    w = _WINDOW_MARGIN * best
    return ((-w, w), (-w, w))


def _reference_content_window(tube: Tube, anchor, direction, window=None,
                    probe_resolution=256, pad=3, rounds=2):
    """Window fitted to the slice content of a complex line.

    The conservative window (by default ``_reference_auto_window``) is
    certain to contain the region but can leave a thin slice only a
    handful of pixels wide, and pixel-level topology is meaningless at that
    scale.  Probing coarsely and refitting the frame to the detected
    content (padded by a few probe pixels) keeps rasters well conditioned
    at any resolution.  Falls back to the conservative window when the
    probe sees nothing.
    """
    if window is None:
        window = _reference_auto_window(tube, anchor, direction)
    for _ in range(rounds):
        probe = rasterize_line(tube, anchor, direction,
                               resolution=probe_resolution, window=window)
        filled_rows = np.nonzero(probe.bitmap.any(axis=1))[0]
        filled_cols = np.nonzero(probe.bitmap.any(axis=0))[0]
        if len(filled_rows) == 0:
            return window
        (re_lo, re_hi), (im_lo, im_hi) = window
        d_re = (re_hi - re_lo) / probe_resolution
        d_im = (im_hi - im_lo) / probe_resolution
        window = (
            (re_lo + (filled_cols[0] - pad) * d_re,
             re_lo + (filled_cols[-1] + 1 + pad) * d_re),
            (im_lo + (filled_rows[0] - pad) * d_im,
             im_lo + (filled_rows[-1] + 1 + pad) * d_im),
        )
    return window


def _reference_widened(window, raster, limit, step=0.25):
    """``window`` grown by ``step`` of its extent on every side where the
    raster's region touches the frame, never past the sides of ``limit``."""
    (re_lo, re_hi), (im_lo, im_hi) = window
    (lim_re_lo, lim_re_hi), (lim_im_lo, lim_im_hi) = limit
    grow_re = step * (re_hi - re_lo)
    grow_im = step * (im_hi - im_lo)
    bitmap = raster.bitmap  # rows run along w_im, columns along w_re
    if bitmap[:, 0].any():
        re_lo = max(re_lo - grow_re, lim_re_lo)
    if bitmap[:, -1].any():
        re_hi = min(re_hi + grow_re, lim_re_hi)
    if bitmap[0, :].any():
        im_lo = max(im_lo - grow_im, lim_im_lo)
    if bitmap[-1, :].any():
        im_hi = min(im_hi + grow_im, lim_im_hi)
    return ((re_lo, re_hi), (im_lo, im_hi))

def _reference_pixels_join(tube: Tube, raster: SliceRaster, here, there, puncture, pad=2, max_side=255):
    """Whether two region pixels are 8-connected in a finer raster of the
    square spanning them, padded by ``pad`` pixels.

    The finer raster has the same line and puncture at the largest odd
    refinement whose side stays within ``max_side``, so both pixel centres
    are pixel centres of the finer grid as well.  8-connectivity is enough
    there: a sliver still thinner than the finer pixels rasters as a
    diagonal chain, and one dilation step at the coarse scale already
    bridges more.
    """
    (i, j), (bi, bj) = here, there
    r0, c0 = min(i, bi) - pad, min(j, bj) - pad
    side = max(abs(i - bi), abs(j - bj)) + 2 * pad + 1
    factor = (max_side // side - 1) // 2 * 2 + 1
    if factor < 3:
        return False
    res = raster.bitmap.shape[0]
    (re_lo, re_hi), (im_lo, im_hi) = raster.window
    d_re, d_im = (re_hi - re_lo) / res, (im_hi - im_lo) / res
    window = ((re_lo + c0 * d_re, re_lo + (c0 + side) * d_re),
              (im_lo + r0 * d_im, im_lo + (r0 + side) * d_im))
    fine = rasterize_line(tube, raster.anchor, raster.direction, resolution=side * factor,
                          window=window, puncture=puncture)
    labels, _ = ndimage.label(fine.bitmap, structure=_EIGHT)
    half = factor // 2
    a = labels[(i - r0) * factor + half, (j - c0) * factor + half]
    b = labels[(bi - r0) * factor + half, (bj - c0) * factor + half]
    return bool(a) and a == b

def _reference_fragment_links(bitmap, max_parts):
    """``(count, links)`` for the 4-components of a bitmap's region, or
    None when there are more than ``max_parts`` of them.

    Components are numbered by their first pixel in row-major order.  A
    link ``(squared distance, k, m, here, there)`` runs from the first
    pixel ``here`` of component k to the pixel ``there`` of component m
    nearest it, the first in row-major order on a tie.

    Everything comes from the region's row runs (`_reference_row_runs`): the first
    pixel of a component starts its first run, and the pixel of a run
    nearest a point lies in the point's column, clipped to the run.  No
    per-pixel array is made, so a 1024 px raster costs no more memory here
    than its runs.
    """
    start, end, stride, graph = _reference_row_runs(bitmap)
    count, part = connected_components(graph, directed=False)
    if count > max_parts:
        return None
    # number the components by their first runs; SciPy promises no order
    heads = np.unique(part, return_index=True)[1]
    rank = np.empty(count, dtype=np.intp)
    rank[np.argsort(heads)] = np.arange(count)
    part, heads = rank[part], np.sort(heads)
    row, lo = np.divmod(start, stride)
    hi = end - row * stride - 1
    links = []
    for k in range(count):
        i, j = int(row[heads[k]]), int(lo[heads[k]])
        col = np.clip(j, lo, hi)
        dist = (row - i) ** 2 + (col - j) ** 2
        # per component its nearest run; lexsort is stable, so on a tie
        # the run that comes first in row-major order
        order = np.lexsort((dist, part))
        nearest = order[np.searchsorted(part[order], np.arange(count))]
        for m in range(count):
            if m != k:
                b = nearest[m]
                links.append((int(dist[b]), k, m, (i, j), (int(row[b]), int(col[b]))))
    return count, links


def _reference_fragments_join(tube: Tube, raster: SliceRaster, puncture=None, max_parts=16):
    """Whether the components of the raster's region all join through
    finer rasters of the gaps between them (`_reference_pixels_join`).

    A sliver thinner than a pixel, toward a cusp tip or along a whole thin
    region, rasters as a string of fragments that one dilation step may
    not bridge.  The candidate links (`_reference_fragment_links`) run from the
    first pixel of each component to the nearest pixel of every other
    one; they are tried shortest first, as for a minimum spanning tree,
    until every component is linked or the links run out.
    """
    found = _reference_fragment_links(raster.bitmap, max_parts)
    if found is None:
        return False
    count, links = found
    root = list(range(count))

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    joined = 1
    for _, k, m, here, there in sorted(links):
        if joined == count:
            break
        if find(k) != find(m) and _reference_pixels_join(tube, raster, here, there, puncture):
            root[find(k)] = find(m)
            joined += 1
    return joined == count

def _reference_check_line(tube: Tube, anchor, direction, resolution, stability_factor, puncture):
    """The slice-topology verdict of :func:`verify_c_convexity` on one
    complex line: ``(violations, bridged)``, the violation messages and how
    many of its rasters were bridged into one region."""
    violations = []
    bridged_count = 0

    def _counts(raster):
        n_region, n_comp = connectivity_counts(raster.bitmap)
        bridged = False
        if n_region > 1:
            fat = ndimage.binary_dilation(raster.bitmap, structure=_EIGHT)
            if (connectivity_counts(fat)[0] == 1
                    or _reference_fragments_join(tube, raster, puncture)):
                n_region, bridged = 1, True
        return n_region, n_comp, bridged

    limit = _reference_auto_window(tube, anchor, direction)
    window = _reference_content_window(tube, anchor, direction, limit)
    raster = rasterize_line(tube, anchor, direction, resolution=resolution,
                            window=window, puncture=puncture)
    # the probe can miss a cusp tip thinner than its pixels; widen the
    # window toward the conservative one until the region fits
    while raster.touches_frame:
        wider = _reference_widened(window, raster, limit)
        if wider == window:
            break
        window = wider
        raster = rasterize_line(tube, anchor, direction, resolution=resolution,
                                window=window, puncture=puncture)
    if raster.filled == 0:
        return ["empty raster"], 0
    if raster.touches_frame:
        return ["region clipped by the window"], 0
    n_region, n_comp, bridged = _counts(raster)
    bridged_count += bridged
    ok = n_region == 1 and n_comp == 1
    if n_region != 1:
        violations.append(f"region has {n_region} components")
    if n_comp != 1:
        violations.append(f"complement has {n_comp} components (holes)")
    if stability_factor and stability_factor > 1:
        fine = rasterize_line(tube, anchor, direction,
                              resolution=resolution * stability_factor,
                              window=window, puncture=puncture)
        nr2, nc2, bridged2 = _counts(fine)
        bridged_count += bridged2
        ok2 = nr2 == 1 and nc2 == 1
        if ok != ok2:
            violations.append(
                f"verdict changed under refinement "
                f"({n_region},{n_comp}) -> ({nr2},{nc2})"
            )
    return violations, bridged_count



def _survey(tube, lines, puncture=None, resolution=512):
    """Pass or fail, and the hole reports, of both pipelines on each line."""
    for anchor, direction in lines:
        want, _ = _reference_check_line(tube, anchor, direction, resolution, 2, puncture)
        got, _ = _check_line(tube, anchor, direction, resolution, 2, puncture)
        assert (got == []) == (want == []), (anchor, direction, got, want)
        assert any("holes" in v for v in got) == any("holes" in v for v in want)


def _seeded_lines(tube, count, seed, through=None):
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return [_random_line(tube, rng, through=through)[:2] for _ in range(count)]


@pytest.mark.parametrize("name", ["triangle", "square", "ellipse", "cube3"])
def test_arcs_agree_with_the_reference_pipeline(name):
    if name == "cube3":
        domain = load_domain(BENCH_DOMAINS / "cube3.dom").domain
    else:
        domain = catalog.by_name(name)
    tube = Tube(domain)
    _survey(tube, _seeded_lines(tube, 40, 14))


def test_arcs_agree_with_the_reference_pipeline_on_the_punctured_control(triangle):
    center, radius = np.array([0.25, 0.25]), 0.08
    tube = Tube(triangle)
    _survey(tube, _seeded_lines(tube, 40, 5, through=center), puncture=(center, radius))


def test_arcs_agree_with_the_reference_pipeline_on_sliver_and_cusp_lines(triangle):
    _survey(Tube(triangle), [_CUSP_LINE, *_SLIVER_LINES.values()])


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
