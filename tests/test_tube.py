import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_tubes import catalog
from elliptic_tubes.diskgeom import geodesic_foot, poincare_distance
from elliptic_tubes.domains import ConvexDomain, Ellipsoid, VPolytope
from elliptic_tubes.domspec import load_domain
from elliptic_tubes.duality import dual_of, dual_tube
from elliptic_tubes.errors import (
    EmptySliceError,
    NotInteriorError,
    OutsideTubeError,
    RealPointError,
    ValidationError,
    ZeroDirectionError,
)
from elliptic_tubes.projective import Chart, HPoint, ProjectiveMap
from elliptic_tubes.tangent import from_tangent_rows, to_tangent
from elliptic_tubes.tube import (
    COMPLEX_BOUNDARY,
    EXTERIOR,
    INTERIOR,
    REAL_BOUNDARY,
    Tube,
    pair_gram,
    pair_gram_rows,
)

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# ---------- the model case: interval -> unit disk ------------------------------


def test_interval_tube_is_unit_disk(interval, rng):
    tube = Tube(interval)
    for _ in range(2000):
        z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        if abs(abs(z) - 1.0) < 1e-9:
            continue
        assert tube.contains(np.array([z])) == (abs(z) < 1.0)


def test_interval_angle_formula(interval, rng):
    tube = Tube(interval)
    for _ in range(300):
        z = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
        if abs(z) >= 0.999 or abs(z.imag) < 1e-9:
            continue
        u = tube.u_value(np.array([z]))
        want = math.atan2(2.0 * abs(z.imag), 1.0 - abs(z) ** 2)
        assert u == pytest.approx(want, abs=1e-12)


def test_interval_anchor_values(interval):
    tube = Tube(interval)
    z = np.array([0.5j])
    assert tube.u_value(z) == pytest.approx(math.atan2(4.0, 3.0), abs=1e-15)
    d, foot = tube.core_distance(z)
    assert d == pytest.approx(math.atanh(0.5), abs=1e-14)
    assert foot[0] == pytest.approx(0.0, abs=1e-12)


def test_interval_core_distance_frozen_anchor(interval):
    # independent construction: the geodesic from 0.6+0.3i orthogonal to the
    # real axis has center (|w|^2+1)/(2 Re w) and foot c - sqrt(c^2 - 1)
    tube = Tube(interval)
    d, foot = tube.core_distance(np.array([0.6 + 0.3j]))
    c = (abs(0.6 + 0.3j) ** 2 + 1.0) / 1.2
    want_foot = c - math.sqrt(c * c - 1.0)
    assert foot[0] == pytest.approx(want_foot, abs=1e-12)
    assert d == pytest.approx(0.47210893141885113, abs=1e-13)
    assert d == pytest.approx(poincare_distance(0.6 + 0.3j, want_foot), abs=1e-12)


# ---------- two membership routes ----------------------------------------------


@pytest.mark.parametrize("name", ["triangle", "square", "simplex"])
def test_membership_routes_agree(name, rng):
    domain = catalog.by_name(name)
    hdom = domain if name == "triangle" else domain.as_hdomain()
    tube = Tube(hdom)
    lo, hi = hdom.bbox
    width = np.max(hi - lo)
    agree = 0
    for _ in range(800):
        x = rng.uniform(lo - 0.3 * width, hi + 0.3 * width)
        y = rng.uniform(-width, width, size=hdom.n)
        z = x + 1j * y
        a = tube.contains(z)
        b = tube.contains_pairwise(z)
        assert a == b
        agree += 1
    assert agree == 800


@pytest.mark.parametrize("name", ["square", "simplex", "cube3"])
def test_membership_routes_agree_on_vertex_polytopes(name, rng):
    # the pairwise route reads a V-polytope's own facet rows
    if name == "cube3":
        domain = load_domain(str(_PERFBENCH / "cube3.dom")).domain
    else:
        domain = catalog.by_name(name)
    assert isinstance(domain.rep, VPolytope)
    tube = Tube(domain)
    # both samplers keep out of the 1e-6 boundary band
    zeta = np.vstack([tube.sample_points(rng, 150), tube.sample_exterior(rng, 150)])
    pairwise = [tube.contains_pairwise(z) for z in zeta]
    assert pairwise == [tube.contains(z) for z in zeta]
    assert pairwise == [True] * 150 + [False] * 150


def test_ellipsoid_closed_form_matches_slice_route(ellipse, rng):
    tube = Tube(ellipse)
    center, shape = ellipse.ellipsoid_data()
    for _ in range(800):
        x = rng.uniform(-1.0, 1.0, size=2)
        y = rng.uniform(-0.8, 0.8, size=2)
        z = x + 1j * y
        q = (x - center) @ shape @ (x - center) + y @ shape @ y
        if abs(q - 1.0) < 1e-9:
            continue
        assert tube.contains(z) == (q < 1.0)
        assert (tube.violation(z) < 0.0) == (q < 1.0)


def test_real_points_follow_base(square, rng):
    tube = Tube(square)
    for _ in range(200):
        x = rng.uniform(-1.3, 1.3, size=2)
        if abs(square.margin(x)) < 1e-9:
            continue
        assert tube.contains(x.astype(complex)) == square.contains(x)


def test_tube_membership_is_chart_independent(square, rng):
    # same square, described in a skewed chart; HPoint membership must agree
    chart2 = Chart([[1.0, 0.1, 0.0], [0.0, 1.0, 0.2]], [0.2, 0.0, 1.0])
    square2 = catalog.square()
    from elliptic_tubes.domains import ConvexDomain

    square2 = ConvexDomain(square.rep, chart=chart2, reference_point=HPoint([0, 0, 1.0]))
    t1, t2 = Tube(square), Tube(square2)
    for _ in range(300):
        x = rng.uniform(-1.5, 1.5, size=2)
        y = rng.uniform(-1.5, 1.5, size=2)
        p = HPoint(np.append(x + 1j * y, 1.0))
        assert t1.contains(p) == t2.contains(p)


# ---------- slices ---------------------------------------------------------------


def test_slice_disk_coordinates(square):
    tube = Tube(square)
    z = np.array([0.2 + 0.3j, -0.1 - 0.15j])
    disk = tube.slice_disk(z)
    tau = disk.coord(z)
    assert disk.point(tau) == pytest.approx(z, abs=1e-12)
    # direction follows the positive imaginary part
    np.testing.assert_allclose(disk.direction, np.array([0.3, -0.15]) / np.linalg.norm([0.3, -0.15]))
    assert disk.a < 0.0 < disk.b


@pytest.mark.parametrize("name", ["square", "triangle", "simplex", "ellipse"])
def test_slice_disk_clips_the_line_the_membership_tests_clip(name):
    # a slice disk and the batched membership tests divide the trace
    # direction by its norm once, in the same rounding: same (a, b) bits
    tube = Tube(catalog.by_name(name))
    zs = tube.sample_points(np.random.default_rng(1), 2000)
    _, _, a, b, ok = tube.base.ray_clips(zs.real, zs.imag)
    assert ok.all()
    disks = [tube.slice_disk(z) for z in zs]
    assert np.array_equal([(d.a, d.b) for d in disks], np.column_stack([a, b]))


def test_slice_rejects_real_point(square):
    with pytest.raises(RealPointError):
        Tube(square).slice_disk(np.array([0.2 + 0j, 0.1 + 0j]))


def test_slice_on_missing_line(square):
    with pytest.raises(EmptySliceError):
        Tube(square).slice_on_line(np.array([5.0, 0.0]), np.array([0.0, 1.0]))


@pytest.mark.parametrize("name", ["square", "triangle", "simplex", "ellipse", "halfline"])
def test_each_query_clips_its_trace_line_once(monkeypatch, name):
    tube = Tube(catalog.by_name(name))
    zs = tube.sample_points(np.random.default_rng(2), 20)
    # a one-point query clips through _clip_one, a row query through
    # clip_lines; each call is recorded with the lines it clipped
    calls = []
    clip_lines, clip_one = ConvexDomain.clip_lines, ConvexDomain._clip_one

    def counted(self, x0, directions):
        calls.append(("clip_lines", len(x0)))
        return clip_lines(self, x0, directions)

    def counted_one(self, x, unit):
        calls.append(("_clip_one", 1))
        return clip_one(self, x, unit)

    def no_slice_disk(self, line):
        raise AssertionError("a one-point query built a SliceDisk")

    monkeypatch.setattr(ConvexDomain, "clip_lines", counted)
    monkeypatch.setattr(ConvexDomain, "_clip_one", counted_one)
    monkeypatch.setattr(ConvexDomain, "line_clip", no_slice_disk)
    queries = (tube.u_value, tube.core_distance, lambda z: to_tangent(tube, z))
    for z in zs:
        for query in queries:
            for point, clips in ((z, [("_clip_one", 1)]), (z.real + 0j, [])):
                calls.clear()
                query(point)
                assert calls == clips
    calls.clear()
    tube.core_distance_rows(np.concatenate([zs, zs.real + 0j]))
    assert calls == [("clip_lines", len(zs))]


@pytest.mark.parametrize("name", catalog.names())
def test_query_point_at_i_abs_y_matches_the_slice_coordinate_route(name):
    # reference: the point's line coordinate from SliceDisk.coord, the
    # complex dot product with the slice direction
    tube = Tube(catalog.by_name(name))
    for z in tube.sample_points(np.random.default_rng(3), 200):
        disk = tube.slice_disk(z)
        foot_w, dist = geodesic_foot(disk.to_unit_disk(disk.coord(z)))
        foot = disk.point(disk.from_unit_disk(foot_w)).real
        np.testing.assert_allclose(tube.core_distance(z)[1], foot, rtol=0.0, atol=1e-12)
        vec = to_tangent(tube, z)
        assert vec.magnitude == pytest.approx(dist, rel=0.0, abs=1e-12)
        assert np.array_equal(vec.direction, disk.direction)


def test_a_zero_line_direction_is_rejected(square):
    tube = Tube(square)
    x, zero = np.array([0.1, -0.2]), np.zeros(2)
    calls = (lambda: square.line_clip((x, zero)), lambda: tube.slice_on_line(x, zero),
             lambda: from_tangent_rows(tube, x[None], zero[None], np.array([0.5])))
    for call in calls:
        with pytest.raises(ZeroDirectionError, match="line direction must be nonzero"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["square", "ellipse"])
def test_a_non_finite_coordinate_is_rejected_by_every_one_point_query(name, bad):
    domain = catalog.by_name(name)
    tube = Tube(domain)
    queries = (tube.contains, tube.boundary_classify, tube.u_value, tube.core_distance,
               lambda z: to_tangent(tube, z))
    if domain._rows is not None:
        queries += (tube.contains_pairwise,)
    for coord in (complex(bad, 0.1), complex(0.1, bad)):
        for k in range(2):
            z = [0.1 + 0.05j, -0.1 + 0.02j]
            z[k] = coord
            for query in queries:
                with pytest.raises(ValidationError, match=f"chart coordinate {k} is not finite"):
                    query(z)
    for query in (domain.contains, domain.margin):
        with pytest.raises(ValidationError, match="chart coordinate 1 is not finite"):
            query([0.1, bad])


@pytest.mark.parametrize("name", catalog.names())
def test_one_ray_clip_divides_the_direction_as_a_vector_norm_does(name):
    domain = catalog.by_name(name)
    rng = np.random.default_rng(4)
    for x, v in zip(domain.sample_interior(rng, 100), rng.normal(size=(100, domain.n))):
        unit = domain.ray_clips(x[None], v[None])[1][0]
        assert unit.tobytes() == (v / np.linalg.norm(v)).tobytes()


def test_unit_disk_normalization_round_trip(triangle, rng):
    tube = Tube(triangle)
    for z in tube.sample_points(rng, 40):
        if np.linalg.norm(z.imag) < 1e-9:
            continue
        disk = tube.slice_disk(z)
        m = disk.to_unit_disk(disk.coord(z))
        assert abs(m) < 1.0
        assert disk.from_unit_disk(m) == pytest.approx(disk.coord(z), abs=1e-10)


# ---------- boundary -------------------------------------------------------------


@pytest.mark.parametrize("name", ["interval", "square", "ellipse", "simplex"])
def test_constructed_boundary_points_classify(name, rng):
    domain = catalog.by_name(name)
    tube = Tube(domain)
    for _ in range(60):
        x = domain.sample_interior(rng, 1)[0]
        direction = rng.normal(size=domain.n)
        direction /= np.linalg.norm(direction)
        clip = domain.line_clip((x, direction))
        # pick an interior parameter of the clip and the exact height that
        # closes the gauge product to one
        s = rng.uniform(0.05, 0.95) * (clip.b - clip.a) + clip.a
        t = math.sqrt((clip.b - s) * (s - clip.a))
        z = x + (s + 1j * t) * direction
        assert tube.boundary_classify(z, band=1e-9) == COMPLEX_BOUNDARY
        disk = tube.slice_disk(z)
        m = disk.to_unit_disk(disk.coord(z))
        assert abs(m) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["interval", "square", "triangle", "ellipse", "simplex"])
def test_contains_decides_as_the_classifier_at_the_boundary(name, rng):
    # heights within a few ulps of the boundary height, over interior real
    # parts: the slice test and the gauge classifier give the same verdict
    domain = catalog.by_name(name)
    tube = Tube(domain)
    verdicts = set()
    for _ in range(60):
        x = domain.sample_interior(rng, 1)[0]
        direction = rng.normal(size=domain.n)
        direction /= np.linalg.norm(direction)
        clip = domain.line_clip((x, direction))
        s = rng.uniform(0.05, 0.95) * (clip.b - clip.a) + clip.a
        t = math.sqrt((clip.b - s) * (s - clip.a))
        for k in range(-4, 5):
            z = x + (s + 1j * t * (1.0 + k * 1e-15)) * direction
            inside = tube.boundary_classify(z, band=0.0) == INTERIOR
            assert tube.contains(z) == inside
            verdicts.add(inside)
    assert verdicts == {True, False}


def test_classification_bands(interval):
    tube = Tube(interval)
    assert tube.boundary_classify(np.array([0.3 + 0.4j])) == INTERIOR
    assert tube.boundary_classify(np.array([0.8 + 0.8j])) == EXTERIOR
    assert tube.boundary_classify(np.array([1.0 + 0j])) == REAL_BOUNDARY
    assert tube.boundary_classify(np.array([0.6 + 0.8j])) == COMPLEX_BOUNDARY
    assert tube.boundary_classify(np.array([5.0 + 0j])) == EXTERIOR


def test_u_value_raises_outside(interval):
    tube = Tube(interval)
    with pytest.raises(OutsideTubeError):
        tube.u_value(np.array([0.9 + 0.9j]))
    with pytest.raises(NotInteriorError):
        tube.u_value(np.array([1.2 + 0.1j]))


# ---------- distance -------------------------------------------------------------


def test_kobayashi_real_pairs_equal_hilbert(square, rng):
    tube = Tube(square)
    pts = square.sample_interior(rng, 60)
    for k in range(30):
        x, y = pts[2 * k], pts[2 * k + 1]
        if np.linalg.norm(x - y) < 1e-8:
            continue
        assert tube.kobayashi_supported(x, y) == pytest.approx(
            square.hilbert_distance(x, y), abs=1e-11
        )


def test_kobayashi_symmetry_same_slice(triangle, rng):
    tube = Tube(triangle)
    for z in tube.sample_points(rng, 15):
        if np.linalg.norm(z.imag) < 1e-9:
            continue
        disk = tube.slice_disk(z)
        tau = rng.uniform(disk.a, disk.b)
        w = disk.point(tau + 0j)
        d1 = tube.kobayashi_supported(z, w)
        d2 = tube.kobayashi_supported(w, z)
        assert d1 == pytest.approx(d2, rel=1e-12)
        assert d1 > 0.0


def test_core_distance_via_halved_conjugate_distance(interval, rng):
    # the core distance equals half the distance to the conjugate point
    tube = Tube(interval)
    for _ in range(50):
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(0.05, 0.6))
        if abs(z) >= 0.95:
            continue
        d, _ = tube.core_distance(np.array([z]))
        full = tube.kobayashi_supported(np.array([z]), np.array([z.conjugate()]))
        assert d == pytest.approx(0.5 * full, abs=1e-11)


# ---------- samplers --------------------------------------------------------------


def test_sample_points_inside_and_deterministic(ellipse):
    tube = Tube(ellipse)
    a = tube.sample_points(np.random.default_rng(3), 40)
    b = tube.sample_points(np.random.default_rng(3), 40)
    np.testing.assert_array_equal(a, b)
    for z in a:
        assert tube.contains(z)
        assert tube.boundary_classify(z, band=1e-7) == INTERIOR


def test_sample_exterior_outside(simplex):
    tube = Tube(simplex)
    for z in tube.sample_exterior(np.random.default_rng(5), 40):
        assert not tube.contains(z)


def test_bounding_box_contains_samples(square, rng):
    tube = Tube(square)
    lo, hi, im_half = tube.bounding_box()
    for z in tube.sample_points(rng, 100):
        assert np.all(z.real >= lo - 1e-12) and np.all(z.real <= hi + 1e-12)
        assert np.all(np.abs(z.imag) <= im_half + 1e-12)


def _vpolytope(verts):
    return ConvexDomain(VPolytope(tuple(HPoint(np.append(v, 1.0)) for v in verts)))


def _box_domains():
    """The catalog domains and their duals, the 3-cube, the 4-simplex, and
    a projective image of the simplex in its non-standard chart."""
    found = {}
    for name in catalog.names():
        found[name] = catalog.by_name(name)
        found[name + "*"] = dual_of(catalog.by_name(name)).domain
    found["cube3"] = _vpolytope([(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)])
    found["simplex4"] = _vpolytope(np.vstack([np.zeros(4), np.eye(4)]))
    image = ProjectiveMap([[2.0, 1.0, 0.5], [0.3, 1.0, 0.2], [0.1, 0.4, 1.5]])
    found["simplex-image"] = catalog.simplex().transform(image)
    return found


_BOX_DOMAINS = _box_domains()


@pytest.mark.parametrize("label", sorted(_BOX_DOMAINS))
def test_tube_points_lie_in_the_coordinate_disks(label):
    # each coordinate of a tube point lies in the disk with diameter
    # (lo_j, hi_j); the points are drawn where the old bounding box, of
    # imaginary half width |hi - lo| on every axis, would draw them: from
    # that box, and (so that n = 4 keeps some) over real points of the base
    # at heights up to |hi - lo|
    domain = _BOX_DOMAINS[label]
    tube = Tube(domain)
    lo, hi, im_half = tube.bounding_box()
    np.testing.assert_array_equal(im_half, 0.5 * (hi - lo))
    n, diam = tube.n, np.linalg.norm(hi - lo)
    rng = np.random.default_rng(0)
    box = rng.uniform(lo, hi, size=(20000, n)) + 1j * rng.uniform(-diam, diam, size=(20000, n))
    units = rng.normal(size=(20000, n))
    units /= np.linalg.norm(units, axis=1)[:, None]
    heights = rng.uniform(0.0, diam, size=(20000, 1))
    fibres = domain.sample_interior(rng, 20000) + 1j * heights * units
    points = np.vstack([box, fibres])
    points = points[tube.contains_rows(points)]
    assert len(points) > 100
    assert np.all(np.abs(points - 0.5 * (lo + hi)) < 0.5 * (hi - lo))


def test_bounding_box_is_tight(square):
    # the tube over the square is the bidisk, so each imaginary half width
    # is approached
    tube = Tube(square)
    _, _, im_half = tube.bounding_box()
    for j in range(2):
        z = np.zeros(2, dtype=complex)
        z[j] = 0.995j
        assert tube.contains(z)
        assert abs(z[j].imag) > 0.99 * im_half[j]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    label=st.sampled_from(sorted(_BOX_DOMAINS)),
    seed=st.integers(0, 2**32 - 1),
    # real rows, rows inside and just outside the reality band, and
    # ordinary complex rows
    height=st.sampled_from([0.0, 1e-14, 1e-12, 1e-9, 0.1, 1.0]),
)
def test_contains_rows_matches_contains(label, seed, height):
    domain = _BOX_DOMAINS[label]
    tube = Tube(domain)
    rng = np.random.default_rng(seed)
    lo, hi = domain.bbox
    pad = 0.3 * (hi - lo)
    x = rng.uniform(lo - pad, hi + pad, size=(40, domain.n))
    y = height * rng.random((40, 1)) * rng.normal(size=(40, domain.n))
    zeta = x + 1j * y
    assert tube.contains_rows(zeta).tolist() == [tube.contains(z) for z in zeta]


# ---------- the pairwise Gram test ------------------------------------------------

# quarter-integer parts: every product and sum below is exact, so the brute
# force and pair_gram see the same signs; zeros and real-only values included
_PART = st.integers(-8, 8).map(lambda k: k / 4.0)
_VALUE = st.one_of(
    st.just(0j),
    _PART.map(complex),
    st.tuples(_PART, _PART).map(lambda ri: complex(*ri)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vals=st.lists(_VALUE, min_size=1, max_size=7))
def test_pair_gram_matches_double_loop(vals):
    m = len(vals)
    table = [[(vals[p] * vals[q].conjugate()).real for q in range(m)] for p in range(m)]
    first = next(
        ((p, q) for p in range(m) for q in range(p, m) if table[p][q] <= 0.0), None
    )
    gram, pair = pair_gram(np.array(vals, dtype=np.complex128))
    assert pair == first
    assert gram.min() == min(min(row) for row in table)
    assert gram.shape == (m, m)


# the one-row values with NaN entries added: NaN pairs never violate
_ROW_VALUE = st.one_of(_VALUE, st.just(complex(math.nan, 0.0)), st.just(complex(1.0, math.nan)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.integers(1, 6).flatmap(
    lambda m: st.lists(st.lists(_ROW_VALUE, min_size=m, max_size=m), min_size=0, max_size=6)))
def test_pair_gram_rows_find_each_rows_first_pair(rows):
    m = len(rows[0]) if rows else 3
    vals = np.array(rows, dtype=np.complex128).reshape(len(rows), m)
    gram, i, j, found = pair_gram_rows(vals)
    assert gram.shape == (len(rows), m, m)
    for k, row in enumerate(vals):
        one_gram, pair = pair_gram(row)
        assert np.array_equal(one_gram, gram[k], equal_nan=True)
        assert found[k] == (pair is not None)
        assert (i[k], j[k]) == (pair if pair is not None else (0, 0))


@pytest.mark.parametrize("name", ["square", "triangle", "halfline", "ellipse", "disk"])
def test_violation_rows_round_as_the_one_point_calls(name, rng):
    tube = Tube(catalog.by_name(name))
    zeta = np.vstack([tube.sample_points(rng, 100),
                      rng.normal(size=(200, tube.n)) + 1j * rng.normal(size=(200, tube.n))])
    got = tube.violation_rows(zeta)
    assert got.tobytes() == np.array([tube.violation(z) for z in zeta]).tobytes()
    assert (got < 0.0).any() and (got > 0.0).any()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ellipsoid_violation_rows_round_as_the_one_point_calls(n):
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n, n))
    tube = Tube(ConvexDomain(Ellipsoid(rng.normal(size=n), m @ m.T + 0.5 * np.eye(n))))
    zeta = rng.normal(size=(5000, n)) + 1j * rng.normal(size=(5000, n))
    got = tube.violation_rows(zeta)
    assert got.tobytes() == np.array([tube.violation(z) for z in zeta]).tobytes()


@pytest.mark.parametrize("name", ["ellipse", "disk"])
def test_dual_ellipsoid_violation_rows_round_as_the_one_point_calls(name, rng):
    dual_t, _ = dual_tube(catalog.by_name(name))
    zeta = dual_t.sample_points(rng, 500)
    got = dual_t.violation_rows(zeta)
    assert got.tobytes() == np.array([dual_t.violation(z) for z in zeta]).tobytes()
