import numpy as np
import pytest

from elliptic_tubes.errors import InfinityError, RealPointError
from elliptic_tubes.projective import (
    Chart,
    Functional,
    HPoint,
    ProjectiveMap,
    RealLine,
    cross_ratio,
    cross_ratio_rows,
    identity_rows,
    is_real,
    line_chart,
    normalize_lift,
    normalize_lifts,
    proj_eq,
    pushforward,
    real_trace_line,
)


# ---------- lifts and classes -------------------------------------------------


def test_normalize_lift_unit_and_phase():
    v = normalize_lift([3.0, 4.0])
    np.testing.assert_allclose(np.linalg.norm(v), 1.0)
    assert v[0] > 0
    # complex phase is rotated away up to overall sign conventions
    w = normalize_lift([1j, -2j])
    assert abs(w.imag).max() < 1e-12 or abs(w.real).max() < 1e-12


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("kind", ["real", "complex", "real-valued complex"])
def test_row_primitives_round_as_one_point(rng, k, kind):
    # rows with a negative or zero leading entry, as eigenvectors have
    lifts = rng.normal(size=(60, k))
    lifts[::3, 0] = 0.0
    if kind != "real":
        lifts = lifts + 1j * rng.normal(size=(60, k)) * (kind == "complex")
    rows = normalize_lifts(lifts)
    assert np.array_equal(rows, np.stack([HPoint(v).coords for v in lifts]))
    chart = Chart(rng.normal(size=(k - 1, k)), rng.normal(size=k))
    coords, finite = chart.to_chart_rows(rows)
    for lift, row, ok in zip(lifts, coords, finite):
        assert ok
        assert np.array_equal(row, chart.to_chart(HPoint(lift)))
    # a lift on the hyperplane at infinity
    at_infinity = normalize_lifts(chart.direction_lift(np.ones(k - 1))[None])
    assert not chart.to_chart_rows(at_infinity)[1][0]
    with pytest.raises(InfinityError):
        chart.to_chart(HPoint(at_infinity[0]))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_chart_rows_decide_chart_infinity_as_one_point(rng, k):
    # complex lifts whose infinity value |h| lies within 4 ulp of 1e-12 |lift|,
    # on both sides of the threshold
    chart = Chart(rng.normal(size=(k - 1, k)), np.eye(k)[-1])
    rest = rng.normal(size=(180, k - 1)) + 1j * rng.normal(size=(180, k - 1))
    ulps = np.arange(180) % 9 - 4
    size = 1e-12 * np.linalg.norm(rest, axis=1) * (1.0 + ulps * np.finfo(np.float64).eps)
    lifts = np.column_stack([rest, size * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 180))])
    coords, finite = chart.to_chart_rows(normalize_lifts(lifts))
    for lift, row, ok in zip(lifts, coords, finite):
        try:
            want = chart.to_chart(HPoint(lift))
        except InfinityError:
            assert not ok
        else:
            assert ok
            assert np.array_equal(row, want)
    assert 0 < finite.sum() < len(finite)


def test_identity_rows_match_is_identity(rng):
    mats = rng.normal(size=(20, 3, 3))
    mats[::4] = 2.5 * np.eye(3)
    mats[1] = -np.eye(3) + 1e-12 * rng.normal(size=(3, 3))
    want = [ProjectiveMap(m).proj_eq(ProjectiveMap(np.eye(3))) for m in mats]
    assert identity_rows(mats).tolist() == want
    assert sum(want) == 6


def test_hpoint_proj_eq_ignores_scale_and_phase():
    p = HPoint([1.0, 2.0, -1.0])
    q = HPoint([-2.0, -4.0, 2.0])
    r = HPoint(np.array([1.0, 2.0, -1.0]) * (0.3 + 0.4j))
    assert p.proj_eq(q)
    assert p.proj_eq(r)
    assert not p.proj_eq(HPoint([1.0, 2.0, -0.9]))


def test_functional_pairing_is_bilinear_not_sesquilinear():
    f = Functional([1.0, 0.0])
    val = f(np.array([2.0 + 3.0j, 1.0]))
    # no conjugation happens in the pairing
    assert val == pytest.approx((2 + 3j) * f.coeffs[0])


def test_proj_eq_rejects_mismatched_sizes():
    with pytest.raises(Exception):
        proj_eq([1.0, 0.0], [1.0, 0.0, 0.0])


# ---------- reality -----------------------------------------------------------


def test_is_real_detects_rotated_real_points(rng):
    for _ in range(50):
        x = rng.normal(size=4)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        flag, rep = is_real(HPoint(phase * x))
        assert flag
        assert rep is not None and not rep.is_complex
        assert proj_eq(rep.coords, x)


def test_is_real_rejects_honestly_complex_points():
    flag, rep = is_real(HPoint([1.0 + 1.0j, 1.0 - 1.0j, 0.5]))
    assert not flag and rep is None


# ---------- real lines --------------------------------------------------------


def test_real_trace_line_contains_point_and_conjugate(rng):
    for _ in range(25):
        z = HPoint(rng.normal(size=3) + 1j * rng.normal(size=3))
        line = real_trace_line(z)
        assert line.contains(z)
        assert line.contains(z.conj())


def test_real_trace_line_rejects_real_input():
    with pytest.raises(RealPointError):
        real_trace_line(HPoint([1.0, 2.0, 3.0]))


def test_line_chart_round_trip(rng):
    line = RealLine(HPoint([1.0, 0.0, 1.0]), HPoint([0.0, 1.0, 1.0]))
    to_line, from_line = line_chart(line)
    for _ in range(20):
        tau = rng.normal()
        p = from_line(tau)
        assert line.contains(p)
        assert to_line(p) == pytest.approx(tau, abs=1e-9)


# ---------- charts ------------------------------------------------------------


def test_standard_chart_round_trip(rng):
    chart = Chart.standard(3)
    assert chart.is_standard
    x = rng.normal(size=3)
    lift = chart.lift(x)
    np.testing.assert_allclose(chart.to_chart(HPoint(lift)), x, atol=1e-12)


def test_chart_infinity_raises():
    chart = Chart.standard(2)
    with pytest.raises(InfinityError):
        chart.to_chart(HPoint([1.0, 1.0, 0.0]))


def test_custom_chart_consistency():
    # infinity x+y+z=0, basis the first two coordinates
    chart = Chart([[1, 0, 0], [0, 1, 0]], [1, 1, 1])
    x = np.array([0.2, 0.3])
    lift = chart.lift(x)
    # the lift has infinity-value one by construction
    assert chart.infinity(lift) == pytest.approx(1.0)
    np.testing.assert_allclose(chart.to_chart(HPoint(lift)), x, atol=1e-12)
    d = chart.direction_lift(np.array([1.0, 0.0]))
    assert chart.infinity(d) == pytest.approx(0.0, abs=1e-14)


# ---------- cross ratio -------------------------------------------------------


def test_cross_ratio_on_affine_line_matches_formula(rng):
    for _ in range(30):
        vals = np.sort(rng.normal(size=4) * 2)
        a, x, y, b = vals
        if min(np.diff(vals)) < 1e-3:
            continue
        pts = [HPoint([t, 1.0]) for t in (a, x, y, b)]
        got = cross_ratio(*pts)
        want = ((a - y) * (b - x)) / ((a - x) * (b - y))
        assert got == pytest.approx(want, rel=1e-9)


def test_cross_ratio_projective_invariance(rng):
    pts = [HPoint([t, 1.0]) for t in (-1.0, 0.0, 0.5, 1.0)]
    base = cross_ratio(*pts)
    for _ in range(20):
        mat = rng.normal(size=(2, 2))
        if abs(np.linalg.det(mat)) < 0.1:
            continue
        amap = ProjectiveMap(mat)
        moved = [amap.apply(p) for p in pts]
        assert cross_ratio(*moved) == pytest.approx(base, rel=1e-8)


def _one_stack_cross_ratio(lifts):
    """The one-stack body that `cross_ratio_rows` replaced."""
    _, _, vh = np.linalg.svd(lifts)
    coords = lifts @ vh[:2].conj().T

    def det(i, j):
        return coords[i, 0] * coords[j, 1] - coords[i, 1] * coords[j, 0]

    return (det(0, 2) * det(3, 1)) / (det(0, 1) * det(3, 2))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cross_ratio_rows_round_as_one_stack(rng, k):
    # four points of a complex projective line, each lift rescaled
    span = rng.normal(size=(300, 2, k)) + 1j * rng.normal(size=(300, 2, k))
    mix = rng.normal(size=(300, 4, 2)) + 1j * rng.normal(size=(300, 4, 2))
    lifts = mix @ span
    values, collinear, degenerate = cross_ratio_rows(lifts)
    assert collinear.all() and not degenerate.any()
    for stack, value in zip(lifts, values):
        want = _one_stack_cross_ratio(stack)
        assert value.real == want.real and value.imag == want.imag


# ---------- projective maps ---------------------------------------------------


def test_projective_map_compose_inverse(rng):
    a = ProjectiveMap(rng.normal(size=(3, 3)) + 2 * np.eye(3))
    b = ProjectiveMap(rng.normal(size=(3, 3)) + 2 * np.eye(3))
    p = HPoint(rng.normal(size=3))
    q = (a @ b).apply(p)
    assert q.proj_eq(a.apply(b.apply(p)))
    assert a.inverse().apply(a.apply(p)).proj_eq(p)
    assert (a @ a.inverse()).is_identity()


def test_pushforward_matches_finite_differences(rng):
    chart = Chart([[1, 0, 0], [0, 1, 0]], [1, 1, 1])
    amap = ProjectiveMap(np.diag([2.0, 1.0, 0.5]))
    for _ in range(20):
        x = rng.uniform(0.2, 0.8, size=2)
        w = rng.normal(size=2)
        got = pushforward(amap, chart, x, w)
        eps = 1e-7
        fwd = chart.to_chart(HPoint(amap.matrix @ chart.lift(x + eps * w)))
        bck = chart.to_chart(HPoint(amap.matrix @ chart.lift(x - eps * w)))
        np.testing.assert_allclose(got, (fwd - bck) / (2 * eps), atol=1e-6)
