from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_tubes import catalog
from elliptic_tubes.domains import ConvexDomain, HDomain, VPolytope
from elliptic_tubes.domspec import load_domain
from elliptic_tubes.duality import (
    annihilator,
    closed_dual_membership,
    dual_chart,
    dual_of,
    dual_tube,
    tangent_set_sample,
    tube_separator,
    tube_separator_rows,
)
from elliptic_tubes.errors import (
    DegenerateError,
    InsideTubeError,
    NotBoundaryError,
    RepresentationError,
)
from elliptic_tubes.projective import Functional, HPoint
from elliptic_tubes.tube import Tube

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _proj_match(u, v, tol=1e-9):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return abs(abs(u @ v) - np.linalg.norm(u) * np.linalg.norm(v)) < tol


# ---------- charts and complements ----------------------------------------------


def test_dual_chart_infinity_is_reference_evaluation(square, rng):
    dchart = dual_chart(square)
    ref_lift = square.chart.lift(square.reference)
    ratios = []
    for _ in range(10):
        xi = rng.normal(size=3)
        h = dchart.infinity(xi)
        ratios.append(h / (xi @ ref_lift))
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_dual_of_square_functionals_are_vertices(square):
    dual = dual_of(square)
    assert dual.primal is square
    assert isinstance(dual.domain.rep, HDomain)
    funcs = [f.coeffs for f in dual.domain.rep.functionals]
    verts = [v.coords for v in square.rep.vertices]
    assert len(funcs) == len(verts)
    for v in verts:
        assert any(_proj_match(v, f) for f in funcs)


@pytest.mark.parametrize("name", ["square", "interval", "simplex"])
def test_double_dual_recovers_vertices(name):
    domain = catalog.by_name(name)
    dual = dual_of(domain)
    double = dual_of(dual.domain)
    verts0 = [v.coords for v in domain.rep.vertices]
    verts2 = [v.coords for v in double.domain.rep.vertices]
    assert len(verts2) == len(verts0)
    for v in verts0:
        assert any(_proj_match(v, w) for w in verts2)


def _homogeneous_rows(domain):
    """A polytope's facet rows as unit functionals on homogeneous
    coordinates, which every chart shares."""
    rows = domain.rows() @ domain.chart.matrix
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("name", ["triangle", "halfline", "fat", "cube3"])
def test_double_dual_recovers_the_rows(name):
    if name == "fat":
        domain = _fat_triangle()
    elif name == "cube3":
        domain = load_domain(_PERFBENCH / "cube3.dom").domain.as_hdomain()
    else:
        domain = catalog.by_name(name)
    rows = _homogeneous_rows(domain)
    double = _homogeneous_rows(dual_of(dual_of(domain).domain).domain)
    assert len(double) == len(rows)
    for row in rows:
        assert sum(np.allclose(row, other, rtol=0.0, atol=1e-12) for other in double) == 1


def test_dual_of_triangle_prunes_redundant_row():
    funcs = [
        Functional([1.0, 0.0, 0.0]),
        Functional([0.0, 1.0, 0.0]),
        Functional([-1.0, -1.0, 1.0]),
        Functional([1.0, 1.0, 1.0]),  # positive combination of the others
    ]
    fat = ConvexDomain(HDomain(funcs), reference_point=np.array([0.25, 0.25]))
    dual = dual_of(fat)
    assert len(dual.domain.rep.vertices) == 3


def test_dual_of_triangle_with_a_repeated_row():
    funcs = [
        Functional([1.0, 0.0, 0.0]),
        Functional([1.0, 0.0, 0.0]),
        Functional([0.0, 1.0, 0.0]),
        Functional([-1.0, -1.0, 1.0]),
    ]
    twice = ConvexDomain(HDomain(funcs), reference_point=np.array([0.25, 0.25]))
    assert len(dual_of(twice).domain.rep.vertices) == 3


def test_dual_of_cube_h_form_keeps_one_functional_per_face():
    # qhull triangulates each square face into two equal rows; the domain
    # keeps one row per face
    cube = load_domain(_PERFBENCH / "cube3.dom").domain.as_hdomain()
    assert len(cube.rows()) == 6
    faces = [np.append(s * e, 1.0) for e in np.eye(3) for s in (1.0, -1.0)]
    verts = [v.coords for v in dual_of(cube).domain.rep.vertices]
    assert len(verts) == 6
    for v in verts:
        assert sum(_proj_match(v, f) for f in faces) == 1
    for f in faces:
        assert any(_proj_match(v, f) for v in verts)


# ---------- supporting functionals against a per-row LP -------------------------


def _reference_prune(rows, box, tol=1e-9):
    """Indices of rows that actually support the region {g . (x,1) > 0}.

    A strict-interior feasibility test per row: the row is redundant when no
    point satisfies all the others strictly while violating it strictly.
    """
    from scipy.optimize import linprog

    n = rows.shape[1] - 1
    lo, hi = box
    keep = []
    for k in range(len(rows)):
        # variables (x, t); maximize t
        a_ub = []
        b_ub = []
        for j in range(len(rows)):
            if j == k:
                continue
            a_ub.append(np.append(-rows[j, :n], 1.0))
            b_ub.append(rows[j, n])
        a_ub.append(np.append(rows[k, :n], 1.0))
        b_ub.append(-rows[k, n])
        bounds = [(lo[i] - 1.0, hi[i] + 1.0) for i in range(n)] + [(None, 1.0)]
        c = np.zeros(n + 1)
        c[-1] = -1.0
        res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub), bounds=bounds, method="highs")
        if res.success and -res.fun > tol:
            keep.append(k)
    return keep


def _input_rows(domain):
    """An H-domain's functionals as unit chart rows positive at its
    reference point, in input order."""
    rows = np.vstack([domain.chart.inverse.T @ f.coeffs for f in domain.rep.functionals])
    rows = rows * np.sign(rows @ np.append(domain.reference, 1.0))[:, None]
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _assert_dual_keeps_the_lp_rows(domain):
    rows = _input_rows(domain)
    keep = _reference_prune(rows, domain.bbox)
    assert np.array_equal(domain.rows(), rows[keep])
    verts = [v.coords for v in dual_of(domain).domain.rep.vertices]
    lifts = [HPoint(domain.chart.matrix.T @ rows[k]).coords for k in keep]
    assert len(verts) == len(lifts)
    for v, lift in zip(verts, lifts):
        assert np.array_equal(v, lift)
    return keep


def _fat_triangle():
    # the triangle with a redundant fourth row
    funcs = [
        Functional([1.0, 0.0, 0.0]),
        Functional([0.0, 1.0, 0.0]),
        Functional([-1.0, -1.0, 1.0]),
        Functional([1.0, 1.0, 1.0]),
    ]
    return ConvexDomain(HDomain(funcs), reference_point=np.array([0.25, 0.25]))


@pytest.mark.parametrize("name", ["triangle", "halfline", "square", "simplex", "simplex4", "fat"])
def test_dual_keeps_the_rows_the_lp_keeps(name):
    if name == "simplex4":
        domain = load_domain(_PERFBENCH / "simplex4.dom").domain.as_hdomain()
    elif name == "fat":
        domain = _fat_triangle()
    else:
        domain = catalog.by_name(name).as_hdomain()
    keep = _assert_dual_keeps_the_lp_rows(domain)
    assert len(keep) == (3 if name == "fat" else len(domain.rows()))


def _h_domain(n, seed):
    """An H-domain around a ball B(c, r), with its reference point c, and
    the indices of its supporting rows.

    The supporting rows are tangent to the sphere, with outward normals at
    least 0.2 apart that include a rotated regular simplex's (so the domain
    is bounded and no facet is thin); the others are positive combinations
    of them or miss the domain by at least 0.05.  The rows come shuffled.
    """
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, n)
    r = rng.uniform(0.2, 2.0)
    if n == 1:
        normals = np.array([[1.0], [-1.0]])
    else:
        simplex = np.eye(n + 1) - 1.0 / (n + 1)
        normals = simplex @ np.linalg.svd(simplex)[2][:n].T
        normals = normals @ np.linalg.qr(rng.normal(size=(n, n)))[0]
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        for _ in range(rng.integers(0, 6)):
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            if np.min(np.linalg.norm(normals - u, axis=1)) > 0.2:
                normals = np.vstack([normals, u])
    tangent = np.hstack([-normals, (r + normals @ c)[:, None]])
    verts = ConvexDomain(HDomain(tuple(tangent)), reference_point=c).vertices_chart()
    rows = list(tangent)
    for _ in range(rng.integers(0, 5)):
        if rng.random() < 0.5:
            idx = rng.choice(len(tangent), size=rng.integers(2, len(tangent) + 1), replace=False)
            rows.append(rng.uniform(0.1, 1.0, size=len(idx)) @ tangent[idx])
        else:
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            rows.append(np.append(-u, np.max((verts - c) @ u) + rng.uniform(0.05, 1.0) + u @ c))
    order = rng.permutation(len(rows))
    domain = ConvexDomain(HDomain(tuple(rows[i] for i in order)), reference_point=c)
    return domain, sorted(np.flatnonzero(order < len(tangent)).tolist())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
def test_dual_keeps_the_rows_the_lp_keeps_on_random_h_domains(n, seed):
    domain, supporting = _h_domain(n, seed)
    assert _assert_dual_keeps_the_lp_rows(domain) == supporting


def test_unit_disk_is_self_dual():
    disk = catalog.disk(1.0)
    dual = dual_of(disk)
    center, shape = dual.domain.ellipsoid_data()
    np.testing.assert_allclose(center, np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(shape, np.eye(2), atol=1e-12)


def test_dual_ellipse_membership_is_support_condition(ellipse, rng):
    # a row (a, c) lies in the dual complement iff its kernel misses the
    # closed ellipse: |a| restricted by the support function
    dual = dual_of(ellipse)
    center, shape = ellipse.ellipsoid_data()
    inv = np.linalg.inv(shape)
    for _ in range(200):
        a = rng.normal(size=2)
        c = rng.normal()
        xi = np.append(a, c)
        support = np.sqrt(a @ inv @ a)
        offset = c + a @ center
        strictly_misses = abs(offset) > support + 1e-9
        h = dual.domain.chart.infinity(xi)
        if abs(h) < 1e-12:
            continue
        eta = dual.domain.chart.basis_values(xi) / h
        assert dual.domain.contains(eta) == strictly_misses


def test_annihilator_vanishes_at_its_point(rng):
    for _ in range(20):
        lift = rng.normal(size=4)
        xi = annihilator(HPoint(lift))
        perp = rng.normal(size=4)
        perp -= (perp @ lift) / (lift @ lift) * lift
        assert _proj_match(xi.coeffs, lift)  # xi *is* the lift
        # as a dual point, functionals vanishing at lift pair to zero with it
        assert abs(perp @ xi.coeffs) < 1e-12 * (1 + np.linalg.norm(perp))


# ---------- separators ------------------------------------------------------------


def test_separator_inside_raises(triangle):
    with pytest.raises(InsideTubeError):
        tube_separator(triangle, np.array([0.25 + 0.05j, 0.3 - 0.02j]))


def test_separator_vanishes_and_is_dual_member(triangle, rng):
    tube = Tube(triangle)
    separators = []
    for z in tube.sample_exterior(rng, 120):
        xi = tube_separator(triangle, z)
        lift = triangle.chart.inverse @ np.append(z, 1.0)
        val = abs(xi.coeffs @ lift)
        scale = np.linalg.norm(xi.coeffs) * np.linalg.norm(lift)
        assert val < 1e-9 * scale
        separators.append(xi.coeffs)
    member = closed_dual_membership(triangle, np.array(separators), slack=1e-9)
    assert member.shape == (120,)
    assert member.all()


def test_separator_where_a_row_vanishes(triangle):
    # the first row x > 0 is exactly 0 at z: its own Gram entry |v_0|^2 = 0
    # is the first violating pair, and the row itself is the separator
    z = np.array([0.0 + 0.0j, 0.3 + 0.2j])
    lift = triangle.chart.inverse @ np.append(z, 1.0)
    assert (triangle.rows() @ triangle.chart.matrix)[0] @ lift == 0.0
    xi = tube_separator(triangle, z)
    assert _proj_match(xi.coeffs, triangle.rows()[0] @ triangle.chart.matrix)
    assert xi.coeffs @ lift == 0.0
    assert closed_dual_membership(triangle, xi, slack=1e-9)


def _h_forms():
    """Every catalog domain with a functional family, and the 3-cube."""
    forms = {"cube3": load_domain(str(_PERFBENCH / "cube3.dom")).domain.as_hdomain()}
    for name in catalog.names():
        domain = catalog.by_name(name)
        try:
            forms[name] = domain if isinstance(domain.rep, HDomain) else domain.as_hdomain()
        except DegenerateError:  # an ellipsoid has none
            pass
    return forms


def _same_bits(row, coeffs):
    """Whether a complex row holds the one-point coefficients bit for bit
    (a real vector read with zero imaginary parts), signed zeros included."""
    return row.tobytes() == np.asarray(coeffs, dtype=np.complex128).tobytes()


@pytest.mark.parametrize("name", sorted(_h_forms()))
def test_separator_rows_equal_the_one_point_separators(name):
    domain = _h_forms()[name]
    tube = Tube(domain)
    zeta = tube.sample_exterior(np.random.default_rng(5), 60 if name == "cube3" else 400)
    inner = tube.sample_points(np.random.default_rng(6), 5)
    coeffs, inside = tube_separator_rows(domain, np.vstack([zeta, inner]))
    assert not inside[: len(zeta)].any()
    assert inside[len(zeta):].all()
    for row, z in zip(coeffs, zeta):
        assert _same_bits(row, tube_separator(domain, z).coeffs)


def test_separator_rows_where_a_row_vanishes(triangle):
    # the point of test_separator_where_a_row_vanishes, between two others
    zeta = np.array([[2.0 + 0.5j, 2.0 - 1j], [0.0 + 0.0j, 0.3 + 0.2j], [2.0 + 0j, 2.0 + 0j]])
    coeffs, inside = tube_separator_rows(triangle, zeta)
    assert not inside.any()
    assert coeffs.dtype == np.complex128
    for row, z in zip(coeffs, zeta):
        assert _same_bits(row, tube_separator(triangle, z).coeffs)
    assert not np.iscomplexobj(tube_separator(triangle, zeta[1]).coeffs)


def test_separator_rows_need_an_h_domain(ellipse):
    with pytest.raises(RepresentationError):
        tube_separator_rows(ellipse, np.array([[2.0 + 0j, 0.0 + 0j]]))


@pytest.mark.parametrize("name", ["square", "simplex", "cube3"])
def test_separators_of_vertex_polytopes(name):
    # the family is a V-polytope's own facet rows: no H-form copy
    if name == "cube3":
        domain = load_domain(str(_PERFBENCH / "cube3.dom")).domain
    else:
        domain = catalog.by_name(name)
    assert isinstance(domain.rep, VPolytope)
    zeta = Tube(domain).sample_exterior(np.random.default_rng(8), 80)
    coeffs, inside = tube_separator_rows(domain, zeta)
    assert not inside.any()
    lifts = domain.chart.lift_rows(zeta)
    for row, z, lift in zip(coeffs, zeta, lifts):
        assert _same_bits(row, tube_separator(domain, z).coeffs)
        assert abs(row @ lift) < 1e-10 * np.linalg.norm(row) * np.linalg.norm(lift)
    assert closed_dual_membership(domain, coeffs).all()


def test_functional_routes_refuse_an_ellipsoid(ellipse):
    z = np.array([2.0 + 0j, 0.0 + 0j])
    with pytest.raises(RepresentationError):
        Tube(ellipse).contains_pairwise(z)
    with pytest.raises(RepresentationError):
        tube_separator(ellipse, z)
    with pytest.raises(RepresentationError):
        tube_separator_rows(ellipse, z[None])


def test_separator_real_exterior_point(triangle):
    xi = tube_separator(triangle, np.array([2.0 + 0j, 2.0 + 0j]))
    lift = triangle.chart.inverse @ np.array([2.0, 2.0, 1.0], dtype=complex)
    assert abs(xi.coeffs @ lift) < 1e-12 * np.linalg.norm(xi.coeffs) * np.linalg.norm(lift)


def test_dual_tube_kernels_miss_tube(square, rng):
    sq_h = square.as_hdomain()
    dual_t, dual = dual_tube(sq_h)
    tube = Tube(sq_h)
    pts = tube.sample_points(rng, 40)
    for eta in dual_t.sample_points(rng, 40):
        xi = dual_t.hpoint(eta).coords
        for z in pts:
            lift = sq_h.chart.inverse @ np.append(z, 1.0)
            val = abs(xi @ lift)
            assert val > 1e-10 * np.linalg.norm(xi) * np.linalg.norm(lift)


# ---------- tangent sets -----------------------------------------------------------


def test_tangent_set_rejects_interior(ellipse):
    with pytest.raises(NotBoundaryError):
        tangent_set_sample(ellipse, np.array([0.0 + 0j, 0.0 + 0j]))


def test_tangent_set_smooth_point_is_small(ellipse):
    # smooth real boundary point of the ellipse: a unique supporting line
    a = np.array([0.8 + 0j, 0.0 + 0j])
    sample = tangent_set_sample(ellipse, a, n_samples=60, seed=1)
    assert not sample.is_empty
    assert sample.converged > 0
    assert sample.diameter < 1e-5


def test_tangent_set_vertex_is_fat(square):
    sample = tangent_set_sample(square, np.array([1.0 + 0j, 1.0 + 0j]), n_samples=80, seed=2)
    assert not sample.is_empty
    assert sample.diameter > 0.5


def test_tangent_set_interval_boundary(interval):
    # n = 1: the annihilator of a boundary point is a single functional
    sample = tangent_set_sample(interval, np.array([1.0 + 0j]))
    assert sample.starts == 1
    assert not sample.is_empty
    assert sample.diameter == 0.0


# ---------- closed dual membership -------------------------------------------------


def test_closed_dual_membership_examples(square):
    # the hyperplane at chart infinity misses the closed square
    assert closed_dual_membership(square, np.array([0.0, 0.0, 1.0]))
    # a coordinate axis cuts straight through it
    assert not closed_dual_membership(square, np.array([1.0, 0.0, 0.0]))
    # a supporting line of the edge x = 1 is a closed (not open) member
    assert closed_dual_membership(square, np.array([1.0, 0.0, -1.0]), slack=1e-9)


@pytest.mark.parametrize("name", ["square", "triangle", "ellipse", "halfline"])
def test_closed_dual_membership_of_a_stack_answers_each_row(name, rng):
    # members, non-members, a functional at dual chart infinity and the
    # real hyperplane at chart infinity, each row answered as the
    # one-functional call answers it
    domain = catalog.by_name(name)
    n = domain.n
    stack = rng.normal(size=(40, n + 1)) + 1j * rng.normal(size=(40, n + 1))
    at_infinity = dual_chart(domain).matrix[-1]
    stack[0] -= (stack[0] @ at_infinity) / (at_infinity @ at_infinity) * at_infinity
    stack[1] = np.eye(n + 1)[-1]
    want = [closed_dual_membership(domain, xi) for xi in stack]
    assert all(isinstance(answer, bool) for answer in want)
    assert closed_dual_membership(domain, stack).tolist() == want
    assert not want[0]
    assert any(want) and not all(want)
