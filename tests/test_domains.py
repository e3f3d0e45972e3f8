import math
from pathlib import Path

import numpy as np
import pytest

from elliptic_tubes import catalog
from elliptic_tubes.domains import (
    ConvexDomain,
    Ellipsoid,
    HDomain,
    SliceDisk,
    VPolytope,
    _facet_rows,
)
from elliptic_tubes.domspec import load_domain
from elliptic_tubes.errors import DegenerateError, NotInteriorError, ValidationError
from elliptic_tubes.projective import Chart, Functional, HPoint


ALL_NAMES = ["interval", "square", "triangle", "simplex", "disk", "ellipse", "halfline"]


# ---------- construction and validation ----------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_domains_validate(name):
    domain = catalog.by_name(name)
    report = domain.validate()
    assert report.passed, report.to_text()


def _unit_rows(domain):
    """The unit rows of a polytope as built before repeated rows were
    dropped."""
    if isinstance(domain.rep, VPolytope):
        return _facet_rows(domain._verts)
    rows = np.vstack([domain.chart.inverse.T @ f.coeffs for f in domain.rep.functionals])
    rows = rows * np.sign(rows @ np.append(domain.reference, 1.0))[:, None]
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("name", ["interval", "square", "triangle", "simplex", "halfline"])
def test_catalog_rows_are_the_unit_rows(name):
    domain = catalog.by_name(name)
    np.testing.assert_array_equal(domain.rows(), _unit_rows(domain))


def test_each_facet_is_one_row(triangle):
    # qhull splits each square face of the cube into two triangles
    cube = load_domain(Path(__file__).resolve().parents[1] / "perfbench" / "cube3.dom").domain
    unit = _unit_rows(cube)
    first = [i for i in range(len(unit))
             if not any(np.array_equal(unit[i], unit[j]) for j in range(i))]
    assert (len(unit), len(first)) == (12, 6)
    np.testing.assert_array_equal(cube.rows(), unit[first])
    # a functional listed twice is one row, in its first place
    functionals = [f.coeffs for f in triangle.rep.functionals]
    twice = ConvexDomain(HDomain(tuple(Functional(c) for c in [functionals[0], *functionals])),
                         reference_point=(0.25, 0.25))
    np.testing.assert_array_equal(twice.rows(), triangle.rows())


def test_hdomain_needs_reference():
    rep = HDomain((Functional([1.0, 0, 0]), Functional([0, 1.0, 0]), Functional([-1.0, -1, 1])))
    with pytest.raises(ValidationError):
        ConvexDomain(rep)


@pytest.mark.parametrize("coeffs, reference", [
    ([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]], (0.5, 0.5)),  # qhull finds the dual points flat
    ([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 1.0]], (0.5, 0.5)),  # the reference is outside the dual hull
    ([[0, 0, 1.0], [0, 0, 2.0], [0, 0, 3.0]], (0.5, 0.5)),  # no row has a chart normal
    ([[1.0, 0], [1.0, 1.0]], (0.5,)),  # an interval with one end
])
def test_unbounded_hdomain_is_rejected_when_built(coeffs, reference):
    rep = HDomain(tuple(Functional(c) for c in coeffs))
    with pytest.raises(ValidationError, match="unbounded"):
        ConvexDomain(rep, reference_point=reference)


def test_reference_on_kernel_rejected():
    rep = HDomain((Functional([1.0, 0, 0]), Functional([0, 1.0, 0]), Functional([-1.0, -1, 1])))
    with pytest.raises(ValidationError):
        ConvexDomain(rep, reference_point=(0.0, 0.5))


# ---------- membership ----------------------------------------------------------


def test_square_membership_and_margin(square, rng):
    for _ in range(200):
        x = rng.uniform(-1.5, 1.5, size=2)
        inside = bool(np.max(np.abs(x)) < 1.0)
        assert square.contains(x) == inside
        # margin is the sup-norm distance to the boundary here
        assert square.margin(x) == pytest.approx(1.0 - np.max(np.abs(x)), abs=1e-12)


def test_ellipse_membership(ellipse, rng):
    for _ in range(200):
        x = rng.uniform(-1, 1, size=2)
        q = (x[0] / 0.8) ** 2 + (x[1] / 0.5) ** 2
        assert ellipse.contains(x) == bool(q < 1.0)


def _contains_barycentric(domain, x, tol=1e-12):
    """Strict hull membership through a strictly positive barycentric
    representation (linear program): an independent route against the facet
    test, for V-polytopes."""
    from scipy.optimize import linprog

    verts = domain.vertices_chart()
    x = np.real(domain.chart_point(x))
    m = len(verts)
    # variables: lambda_1..m, t ; maximize t
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_eq = np.zeros((domain.n + 1, m + 1))
    a_eq[: domain.n, :m] = verts.T
    a_eq[domain.n, :m] = 1.0
    b_eq = np.append(x, 1.0)
    a_ub = np.hstack([-np.eye(m), np.ones((m, 1))])
    b_ub = np.zeros(m)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(None, None)] * m + [(None, 1.0)], method="highs")
    return bool(res.success and -res.fun > tol)


def test_barycentric_route_agrees(square, simplex, rng):
    for domain in (square, simplex):
        lo, hi = domain.bbox
        for _ in range(100):
            x = rng.uniform(lo - 0.2, hi + 0.2)
            if abs(domain.margin(x)) < 1e-9:
                continue
            assert _contains_barycentric(domain, x) == domain.contains(x)


def test_halfline_membership(halfline):
    # chart coordinate s = sqrt(2) t / (t + 1) covers t in (0, inf)
    for t in (0.1, 1.0, 50.0):
        s = math.sqrt(2) * t / (t + 1.0)
        assert halfline.contains(np.array([s]))
    for s_bad in (0.0, math.sqrt(2), -0.1, 1.5):
        assert not halfline.contains(np.array([s_bad]))


# ---------- vertices and facets --------------------------------------------------


def test_triangle_vertices_recovered(triangle):
    verts = triangle.vertices_chart()
    want = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
    got = {tuple(np.round(v, 9)) for v in verts}
    assert got == want


def test_as_hdomain_agrees_with_vpolytope(square, rng):
    hdom = square.as_hdomain()
    for _ in range(200):
        x = rng.uniform(-1.3, 1.3, size=2)
        if abs(square.margin(x)) < 1e-9:
            continue
        assert hdom.contains(x) == square.contains(x)


# ---------- line clips ------------------------------------------------------------


def _bisect_boundary(domain, x0, direction, t_inside, t_outside, iters=80):
    # plain bisection on the membership predicate as an independent oracle
    for _ in range(iters):
        mid = 0.5 * (t_inside + t_outside)
        if domain.contains(x0 + mid * direction):
            t_inside = mid
        else:
            t_outside = mid
    return 0.5 * (t_inside + t_outside)


@pytest.mark.parametrize("name", ["square", "triangle", "ellipse", "simplex"])
def test_line_clip_against_bisection(name, rng):
    domain = catalog.by_name(name)
    for _ in range(40):
        x0 = domain.sample_interior(rng, 1)[0]
        direction = rng.normal(size=domain.n)
        direction /= np.linalg.norm(direction)
        clip = domain.line_clip((x0, direction))
        assert clip is not None
        assert clip.a < 0.0 < clip.b
        far = np.linalg.norm(domain.bbox[1] - domain.bbox[0]) + 1.0
        b_oracle = _bisect_boundary(domain, x0, direction, 0.0, far)
        a_oracle = -_bisect_boundary(domain, x0, -direction, 0.0, far)
        assert clip.b == pytest.approx(b_oracle, abs=1e-10)
        assert clip.a == pytest.approx(a_oracle, abs=1e-10)


def test_missing_line_clips_to_none(square):
    assert square.line_clip((np.array([5.0, 0.0]), np.array([0.0, 1.0]))) is None


def test_line_clip_is_the_slice_disk_of_its_line(square):
    line = (np.array([0.1, -0.2]), np.array([2.0, 0.6]))
    clip = square.line_clip(line)
    assert isinstance(clip, SliceDisk)
    np.testing.assert_array_equal(clip.direction, line[1] / np.linalg.norm(line[1]))
    pa, pb = clip.endpoint_points()
    assert square.margin(pa) == pytest.approx(0.0, abs=1e-15)
    assert square.margin(pb) == pytest.approx(0.0, abs=1e-15)
    assert clip.to_unit_disk(clip.a) == -1.0 and clip.to_unit_disk(clip.b) == 1.0


def test_clip_endpoint_lifts_have_unit_infinity(square, rng):
    x0 = np.array([0.1, -0.2])
    clip = square.line_clip((x0, np.array([1.0, 0.3]) / np.linalg.norm([1.0, 0.3])))
    for v in (clip.v0, clip.v1):
        assert square.chart.infinity(v) == pytest.approx(1.0)


# ---------- Hilbert metric ---------------------------------------------------------


def test_hilbert_anchor_on_interval(interval):
    d = interval.hilbert_distance(np.array([0.0]), np.array([0.5]))
    assert d == pytest.approx(0.5 * math.log(3.0), abs=1e-15)
    assert d == pytest.approx(math.atanh(0.5), abs=1e-15)


def test_hilbert_symmetry_and_triangle(square, rng):
    pts = square.sample_interior(rng, 30)
    for k in range(10):
        x, y, z = pts[3 * k], pts[3 * k + 1], pts[3 * k + 2]
        dxy = square.hilbert_distance(x, y)
        assert dxy == pytest.approx(square.hilbert_distance(y, x), rel=1e-12)
        assert dxy <= (
            square.hilbert_distance(x, z) + square.hilbert_distance(z, y) + 1e-12
        )
        assert square.hilbert_distance(x, x) == pytest.approx(0.0, abs=1e-12)


def test_hilbert_matches_cross_ratio_route(triangle, rng):
    pts = triangle.sample_interior(rng, 40)
    for k in range(20):
        x, y = pts[2 * k], pts[2 * k + 1]
        if np.linalg.norm(x - y) < 1e-6:
            continue
        h = triangle.hilbert_distance(x, y)
        assert triangle.cross_ratio_check(x, y) == pytest.approx(h, abs=1e-11)


def test_hilbert_needs_interior_points(square):
    with pytest.raises(NotInteriorError):
        square.hilbert_distance(np.array([0.0, 0.0]), np.array([2.0, 0.0]))


def test_finsler_norm_matches_finite_differences(ellipse, rng):
    checked = 0
    while checked < 25:
        x = ellipse.sample_interior(rng, 1)[0]
        if ellipse.margin(x) < 0.05:
            continue
        w = rng.normal(size=2)
        norm = ellipse.finsler_norm(x, w)
        eps = 1e-6
        # central difference kills the even error terms of the expansion
        fd = ellipse.hilbert_distance(x - eps * w, x + eps * w) / (2 * eps)
        assert norm == pytest.approx(fd, rel=1e-6)
        checked += 1


def test_metric_on_a_sliver_is_degenerate():
    # every line through the interval (0, 5e-11) clips shorter than 1e-10,
    # so the clip is empty even through an interior point
    sliver = catalog.interval(0.0, 5e-11)
    assert sliver.contains([2.5e-11])
    with pytest.raises(DegenerateError):
        sliver.finsler_norm([2.5e-11], [1.0])
    with pytest.raises(DegenerateError):
        sliver.hilbert_distance([1e-11], [3e-11])


def test_finsler_scales_linearly(triangle, rng):
    x = np.array([0.3, 0.3])
    w = np.array([0.2, -0.1])
    base = triangle.finsler_norm(x, w)
    assert triangle.finsler_norm(x, 3.0 * w) == pytest.approx(3.0 * base, rel=1e-12)


# ---------- transforms ---------------------------------------------------------------


def test_scaled_copy_nests(square, rng):
    small = square.scaled_copy(0.5)
    for _ in range(100):
        x = small.sample_interior(rng, 1)[0]
        assert square.contains(x)
    assert not small.contains(np.array([0.9, 0.9]))


def test_scaled_copy_hdomain_matches_vpolytope(square, rng):
    hv = square.as_hdomain().scaled_copy(0.3)
    vv = square.scaled_copy(0.3)
    for _ in range(100):
        x = rng.uniform(-1, 1, size=2)
        if abs(vv.margin(x)) < 1e-9:
            continue
        assert hv.contains(x) == vv.contains(x)


def test_scaled_copy_matches_pullback_definition(triangle, halfline, rng):
    # x lies in the shrunk copy iff ref + (x - ref) / (1 - delta) lies in the
    # original; exercised on domains whose reference is not the chart origin
    for domain, delta in ((triangle, 0.35), (halfline, 0.5)):
        small = domain.scaled_copy(delta)
        s = 1.0 - delta
        ref = domain.reference
        lo, hi = domain.bbox
        width = np.max(hi - lo)
        for _ in range(200):
            x = rng.uniform(lo - 0.1 * width, hi + 0.1 * width)
            pulled = ref + (x - ref) / s
            if abs(domain.margin(pulled)) < 1e-9:
                continue
            assert small.contains(x) == domain.contains(pulled)
        assert small.contains(ref)


def test_transform_by_projective_map(simplex, rng):
    from elliptic_tubes.projective import ProjectiveMap

    gmap = ProjectiveMap(np.diag([2.0, 1.0, 0.5]))
    moved = simplex.transform(gmap)
    # the simplex is invariant under diagonal maps
    for _ in range(50):
        x = rng.uniform(-0.5, 2.0, size=2)
        if abs(simplex.margin(x)) < 1e-9:
            continue
        assert moved.contains(x) == simplex.contains(x)


# ---------- ellipsoid specifics --------------------------------------------------------


def test_ellipsoid_shape_must_be_positive():
    with pytest.raises(ValidationError):
        ConvexDomain(Ellipsoid([0.0, 0.0], np.diag([1.0, -1.0]))).ensure_valid()


def test_disk_bbox(disk):
    lo, hi = disk.bbox
    np.testing.assert_allclose(lo, [-1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(hi, [1.0, 1.0], atol=1e-12)


def test_interval_sampling_deterministic(interval):
    a = interval.sample_interior(np.random.default_rng(7), 10)
    b = interval.sample_interior(np.random.default_rng(7), 10)
    np.testing.assert_array_equal(a, b)
