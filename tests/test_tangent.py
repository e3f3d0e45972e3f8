import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_tubes import catalog
from elliptic_tubes.diskgeom import geodesic_foot, geodesic_foot_rows
from elliptic_tubes.domspec import load_domain
from elliptic_tubes.errors import (
    GeometryError,
    NotInteriorError,
    OutsideTubeError,
    ZeroDirectionError,
)
from elliptic_tubes.projective import ProjectiveMap, pushforward, pushforward_rows, row_norms
from elliptic_tubes.tangent import (
    TangentVector,
    from_tangent,
    from_tangent_rows,
    to_tangent,
    to_tangent_rows,
)
from elliptic_tubes.tube import Tube

BENCH_DOMAINS = Path(__file__).resolve().parents[1] / "perfbench"


def test_anchor_half_i(interval):
    tube = Tube(interval)
    vec = to_tangent(tube, np.array([0.5j]))
    assert vec.base[0] == pytest.approx(0.0, abs=1e-12)
    assert vec.direction[0] == pytest.approx(1.0, abs=1e-12)
    assert vec.magnitude == pytest.approx(math.atanh(0.5), abs=1e-12)


def test_point_round_trip(square, rng):
    tube = Tube(square)
    for z in tube.sample_points(rng, 60):
        back = from_tangent(tube, to_tangent(tube, z))
        np.testing.assert_allclose(back, z, atol=1e-9)


def test_vector_round_trip(triangle, rng):
    tube = Tube(triangle)
    for _ in range(60):
        base = triangle.sample_interior(rng, 1)[0]
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        vec = TangentVector(base, direction, rng.uniform(0.05, 2.0))
        out = to_tangent(tube, from_tangent(tube, vec))
        np.testing.assert_allclose(out.base, vec.base, atol=1e-9)
        np.testing.assert_allclose(out.direction, vec.direction, atol=1e-9)
        assert out.magnitude == pytest.approx(vec.magnitude, abs=1e-9)


def test_conjugation_negates(ellipse, rng):
    tube = Tube(ellipse)
    for z in tube.sample_points(rng, 40):
        if np.linalg.norm(z.imag) < 1e-9:
            continue
        vec = to_tangent(tube, z)
        flipped = to_tangent(tube, z.conj())
        neg = vec.negated()
        np.testing.assert_allclose(flipped.base, neg.base, atol=1e-10)
        np.testing.assert_allclose(flipped.direction, neg.direction, atol=1e-10)
        assert flipped.magnitude == pytest.approx(neg.magnitude, abs=1e-12)


def test_zero_section(simplex, rng):
    tube = Tube(simplex)
    for x in simplex.sample_interior(rng, 20):
        vec = to_tangent(tube, x.astype(complex))
        assert vec.magnitude == 0.0
        np.testing.assert_array_equal(vec.direction, np.zeros(2))
        np.testing.assert_allclose(vec.base, x, atol=1e-14)
        np.testing.assert_allclose(from_tangent(tube, vec), x, atol=1e-14)


def test_magnitude_is_core_distance(square, rng):
    tube = Tube(square)
    for z in tube.sample_points(rng, 40):
        if np.linalg.norm(z.imag) < 1e-9:
            continue
        vec = to_tangent(tube, z)
        d, foot = tube.core_distance(z)
        assert vec.magnitude == pytest.approx(d, abs=1e-12)
        np.testing.assert_allclose(vec.base, foot, atol=1e-10)


def test_direction_scale_invariance(square):
    tube = Tube(square)
    base = np.array([0.1, -0.2])
    v1 = TangentVector(base, np.array([3.0, 4.0]), 0.7)
    v2 = TangentVector(base, np.array([0.6, 0.8]), 0.7)
    np.testing.assert_allclose(
        from_tangent(tube, v1), from_tangent(tube, v2), atol=1e-14
    )


def test_invalid_vectors(square):
    tube = Tube(square)
    with pytest.raises(ValueError):
        TangentVector(np.zeros(2), np.array([1.0, 0.0]), -0.5)
    with pytest.raises(ZeroDirectionError):
        from_tangent(tube, TangentVector(np.zeros(2), np.zeros(2), 1.0))
    with pytest.raises(NotInteriorError):
        from_tangent(tube, TangentVector(np.array([3.0, 0.0]), np.array([1.0, 0.0]), 0.5))
    with pytest.raises(NotInteriorError):
        to_tangent(tube, np.array([3.0 + 0j, 0.0 + 0j]))


def test_off_the_open_tube_is_outside_tube_error(interval):
    # 2i lies outside the closed tube, i on its boundary: the slice point's
    # unit-disk coordinate is not inside the open disk
    tube = Tube(interval)
    for z in (np.array([2j]), np.array([1j])):
        with pytest.raises(OutsideTubeError):
            to_tangent(tube, z)
        with pytest.raises(OutsideTubeError):
            to_tangent_rows(tube, z[None])
    # in the gauge band [1, 1 + 1e-12) u_value still answers
    assert tube.u_value(np.array([1j])) == pytest.approx(math.pi / 2)
    for rows in (False, True):
        with pytest.raises(OutsideTubeError):
            if rows:
                tube.core_distance_rows(np.array([[0.1j], [1j]]))
            else:
                tube.core_distance(np.array([1j]))


# ---------- the row forms round as the one-point calls ---------------------------


_PROJECTIVE = ProjectiveMap([[1.0, 0.2, 0.1], [0.1, 0.9, 0.0], [0.3, -0.2, 1.0]])
_DOMAINS = {name: catalog.by_name(name) for name in catalog.names()}
_DOMAINS.update({name: load_domain(str(BENCH_DOMAINS / f"{name}.dom")).domain
                 for name in ("cube3", "simplex4")})
_DOMAINS["projective-simplex"] = catalog.simplex().transform(_PROJECTIVE)
_TUBES = {name: Tube(domain) for name, domain in _DOMAINS.items()}


def _same(got, want):
    """Equal bit for bit, signed zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _probes(tube, rng, count):
    """Tube points of six kinds: sampled, with gauge product near 1, near
    the core, with the foot near the slice centre (w.real near 0), the
    conjugates of sampled points, and real points; one in fifty has a
    gauge product just above 1 instead, on or off the closed tube."""
    z = tube.sample_points(rng, count)
    x, y = z.real.copy(), z.imag.copy()
    unit = y / row_norms(y)[:, None]
    a, b, _ = tube.base.clip_lines(x, unit)
    kind = rng.integers(0, 6, count)
    near_one = kind == 1
    gap = 10.0 ** rng.uniform(-14, -2, count)
    gap[rng.random(count) < 0.02] *= -1.0
    near_one |= gap < 0.0
    y[near_one] = unit[near_one] * np.sqrt(-a * b * (1.0 - gap))[near_one, None]
    core = kind == 2
    height = (1.0 + row_norms(x)) * 10.0 ** rng.uniform(-12.2, -6, count)
    y[core] = unit[core] * height[core, None]
    centre = kind == 3
    shift = 0.5 * (a + b) + (b - a) * rng.choice([0.0, 1e-16, -1e-13, 1e-12, 1e-10], count)
    x[centre] = x[centre] + shift[centre, None] * unit[centre]
    out = x + 1j * y
    out[kind == 4] = np.conj(out[kind == 4])
    out[kind == 5] = x[kind == 5]
    return out


def _outcome(call, *args):
    try:
        return call(*args)
    except (GeometryError, ValueError) as exc:
        return type(exc)


def _agree(rows, scalars):
    """A batch equals its one-point calls, or raises for a row they raise on."""
    failures = [r for r in scalars if isinstance(r, type)]
    if failures:
        assert isinstance(rows, type) and rows in failures
        return False
    assert not isinstance(rows, type), rows
    return True


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_DOMAINS)), seed=st.integers(0, 2 ** 32 - 1),
       count=st.sampled_from([0, 1, 2, 5, 12]))
def test_row_forms_round_as_the_one_point_calls(name, seed, count):
    tube = _TUBES[name]
    rng = np.random.default_rng(seed)
    z = _probes(tube, rng, count if tube.n < 4 else min(count, 5))
    for i in range(len(z)):
        # each row alone, then the batch
        for batch, points in ((False, z[i:i + 1]), (True, z)):
            if batch and i:
                break
            scalars = [_outcome(to_tangent, tube, p) for p in points]
            rows = _outcome(to_tangent_rows, tube, points)
            if _agree(rows, scalars):
                for k, vec in enumerate(scalars):
                    assert _same(rows[0][k], vec.base) and _same(rows[1][k], vec.direction)
                    assert _same(rows[2][k], vec.magnitude)
                back = [_outcome(from_tangent, tube, vec) for vec in scalars]
                got = _outcome(from_tangent_rows, tube, *rows)
                if _agree(got, back):
                    assert all(_same(got[k], want) for k, want in enumerate(back))
            scalars = [_outcome(tube.core_distance, p) for p in points]
            rows = _outcome(tube.core_distance_rows, points)
            if _agree(rows, scalars):
                for k, (dist, foot) in enumerate(scalars):
                    assert _same(rows[0][k], dist) and _same(rows[1][k], foot)
            scalars = [_outcome(tube.u_value, p) for p in points]
            rows = _outcome(tube.u_value_rows, points)
            if _agree(rows, scalars):
                assert all(_same(rows[k], u) for k, u in enumerate(scalars))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_DOMAINS)), seed=st.integers(0, 2 ** 32 - 1),
       count=st.sampled_from([0, 1, 3, 10]))
def test_vector_row_forms_round_as_the_one_point_calls(name, seed, count):
    domain = _DOMAINS[name]
    tube = _TUBES[name]
    rng = np.random.default_rng(seed)
    base = domain.sample_interior(rng, count)
    direction = rng.normal(size=(count, tube.n)) * 10.0 ** rng.uniform(-3, 3, (count, 1))
    magnitude = np.where(rng.random(count) < 0.2, 0.0, 10.0 ** rng.uniform(-9, 1.3, count))
    back = [_outcome(from_tangent, tube, TangentVector(*vec))
            for vec in zip(base, direction, magnitude)]
    got = _outcome(from_tangent_rows, tube, base, direction, magnitude)
    if _agree(got, back):
        assert all(_same(got[k], want) for k, want in enumerate(back))
    maps = (catalog.simplex_diagonal_maps()[0], _PROJECTIVE) if tube.n == 2 else ()
    for amap in maps:
        want = [_outcome(pushforward, amap, tube.chart, x, w) for x, w in zip(base, direction)]
        got = _outcome(pushforward_rows, amap, tube.chart, base, direction)
        if _agree(got, want):
            assert all(_same(got[k], w) for k, w in enumerate(want))


def test_geodesic_foot_rows_round_as_the_one_point_call():
    # dense enough that |w| ** 2 (libm pow) and |w| * |w| differ on some
    # points: they do on about 1 in 1,000
    rng = np.random.default_rng(12)
    r = np.sqrt(rng.random(20000)) * (1.0 - 1e-9)
    theta = rng.uniform(0.0, 2.0 * np.pi, len(r))
    w_re, w_im = r * np.cos(theta), r * np.sin(theta)
    w_re[::7] *= 1e-11  # on both sides of the foot-at-0 band
    w_re[::50] = 0.0  # where the circle formula gives inf - inf
    w_re[1::50] = -0.0
    w_im[np.abs(w_im) <= 1e-12 * (1.0 + np.hypot(w_re, w_im))] = 0.5
    foot, dist = geodesic_foot_rows(w_re, w_im)
    for k in range(len(r)):
        want_foot, want_dist = geodesic_foot(complex(w_re[k], w_im[k]))
        assert _same(foot[k], np.float64(want_foot)) and _same(dist[k], np.float64(want_dist))
