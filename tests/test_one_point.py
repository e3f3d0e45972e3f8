"""The plain-float one-point bodies against the row forms they must equal.

``ConvexDomain._clip_one`` must return what ``contains_rows`` and
``clip_lines`` return for one row, ``Tube.contains`` what
``Tube.contains_rows`` returns for one row, and ``Tube._query`` what
``Tube._query_rows`` returns for one row: bit for bit, signed zeros and NaNs
included, or the same exception class with the same message.  The points
include the cases where float code and NumPy code part ways most easily:
points on a facet, directions within 1e-13 of a facet, clips near the
1e-10 floor, the edge of the reality band and gauge products near 1.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_tubes import catalog
from elliptic_tubes.domains import ConvexDomain, Ellipsoid, HDomain, VPolytope, _div
from elliptic_tubes.domspec import load_domain
from elliptic_tubes.errors import GeometryError, OutsideTubeError
from elliptic_tubes.projective import Functional, HPoint, _rowdot, row_norms
from elliptic_tubes.tube import _REAL_BAND, Tube, _angle, _angle_rows

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_FIXED = {name: catalog.by_name(name) for name in catalog.names()}
_FIXED.update({name: load_domain(str(_PERFBENCH / f"{name}.dom")).domain
               for name in ("cube3", "simplex4")})


def _random_domain(kind, n, rng):
    """A random V-polytope, H-polytope or ellipsoid of R^n, standard chart."""
    if kind == "v":
        pts = rng.normal(size=(n + 1 + int(rng.integers(0, 4)), n))
        return ConvexDomain(VPolytope(tuple(HPoint(np.append(p, 1.0)) for p in pts)))
    if kind == "h":
        # n independent normals and minus their sum span R^n positively, so
        # the region is bounded; the offsets put the origin inside
        base = rng.normal(size=(n, n))
        normals = np.vstack([base, -base.sum(axis=0), rng.normal(size=(int(rng.integers(0, 3)), n))])
        offsets = rng.uniform(0.2, 2.0, len(normals))
        rep = HDomain(tuple(Functional(np.append(g, c)) for g, c in zip(normals, offsets)))
        return ConvexDomain(rep, reference_point=np.zeros(n))
    root = rng.normal(size=(n, n))
    return ConvexDomain(Ellipsoid(rng.normal(size=n), root @ root.T + 0.1 * np.eye(n)))


def _unit(v):
    return v / np.linalg.norm(v)


def _probes(domain, rng, count):
    """``count`` real parts x and imaginary parts y, each of a kind drawn
    on its own: x in a padded box, on a facet or the boundary, near a
    vertex, or inside; y random, within about 1e-13 of a facet's
    hyperplane, at the edge of the reality band, at a gauge product near
    1, or zero."""
    n = domain.n
    lo, hi = domain.bbox
    width = hi - lo
    polytope = domain._rows is not None
    if polytope:
        verts, rows = domain.vertices_chart(), domain._rows
    else:
        center, shape = domain.ellipsoid_data()
    xs, ys = [], []
    for _ in range(count):
        x = rng.uniform(lo - 0.3 * width, hi + 0.3 * width)
        kind = int(rng.integers(0, 4))
        if kind == 1 and polytope:
            # a vertex, the midpoint of two vertices, or a projection onto
            # a facet hyperplane
            i, j = rng.integers(0, len(verts), 2)
            r = rows[rng.integers(0, len(rows))]
            g = r[:-1]
            x = [verts[i], 0.5 * (verts[i] + verts[j]), x - (g @ x + r[-1]) / (g @ g) * g][
                int(rng.integers(0, 3))]
        elif kind == 1:
            d = _unit(rng.normal(size=n))
            x = center + d / math.sqrt(d @ shape @ d)
        elif kind == 2 and polytope:
            # a line through here cuts a corner: clips near the 1e-10 floor
            x = verts[rng.integers(0, len(verts))] + _unit(rng.normal(size=n)) * 10.0 ** rng.uniform(-12, -8)
        elif kind == 3:
            x = domain.sample_interior(rng, 1)[0]
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 0.5) * width.max()
        kind = int(rng.integers(0, 5))
        if kind == 1 and polytope:
            g = rows[rng.integers(0, len(rows)), :-1]
            t = rng.normal(size=n)
            t = t - (t @ g) / (g @ g) * g
            eps = rng.choice([0.0, 1e-14, 1e-12]) if rng.random() < 0.3 else (
                1e-13 * (1.0 + int(rng.integers(-3, 4)) * 2.0 ** -52))
            y = (t + rng.choice([-1.0, 1.0]) * eps / (g @ g) * g) * 10.0 ** rng.uniform(-3, 1)
        elif kind == 2:
            k = int(rng.integers(-3, 4))
            y = _unit(y) * (_REAL_BAND * (1.0 + np.linalg.norm(x)) * (1.0 + k * 2.0 ** -52))
        elif kind == 3:
            u = _unit(y)
            a, b, ok = domain.clip_lines(x[None], u[None])
            if ok[0] and a[0] < 0.0 < b[0]:
                y = u * math.sqrt(-a[0] * b[0]) * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16, -8))
        elif kind == 4:
            y = np.zeros(n) if rng.random() < 0.5 else -np.zeros(n)
        xs.append(x)
        ys.append(y)
    return np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)


def _outcome(call, *args):
    try:
        return call(*args)
    except (GeometryError, ValueError) as exc:
        return type(exc), str(exc)


def _bits(*values):
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


def _same(got, want):
    """Equal outcomes: the same exception, or equal flags and equal float bits."""
    if isinstance(want, tuple) and isinstance(want[0], type):
        return got == want
    if isinstance(got, tuple) and isinstance(got[0], type):
        return False
    flags = [v for v in want if isinstance(v, (bool, np.bool_))]
    return ([bool(v) for v in got if isinstance(v, (bool, np.bool_))] == [bool(v) for v in flags]
            and _bits(*[v for v in got if not isinstance(v, (bool, np.bool_))])
            == _bits(*[v for v in want if not isinstance(v, (bool, np.bool_))]))


def _check(domain, rng, count):
    tube = Tube(domain)
    x, y = _probes(domain, rng, count)
    for k in range(count):
        xk, yk = x[k:k + 1], y[k:k + 1]
        length = row_norms(yk)
        if length[0] > 0.0:
            unit = yk / length[:, None]

            def rows(xk=xk, unit=unit):
                a, b, ok = domain.clip_lines(xk, unit)
                return domain.contains_rows(xk)[0], a[0], b[0], ok[0]

            assert _same(_outcome(domain._clip_one, xk[0].tolist(), unit[0].tolist()),
                         _outcome(rows))
        z = xk + 1j * yk
        want = _outcome(lambda: (tube.contains_rows(z)[0],))
        got = _outcome(lambda: (tube.contains(z[0]),))
        assert _same(got, want), (z, got, want)
        want = _outcome(tube._query_rows, z)
        got = _outcome(tube._query, z[0])
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want, (z, got, want)
            continue
        qx, real, speed, a, b, unit = want
        px, trace = got
        if real[0]:
            assert trace is None and _bits(px) == _bits(qx[0])
        else:
            assert trace is not None
            assert _bits(px, *trace) == _bits(qx[0], speed[0], a[0], b[0], unit[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_FIXED)), seed=st.integers(0, 2 ** 32 - 1))
def test_one_point_bodies_equal_the_row_forms_on_fixed_domains(name, seed):
    _check(_FIXED[name], np.random.default_rng(seed), 60)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["v", "h", "ellipsoid"]), n=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_point_bodies_equal_the_row_forms_on_random_domains(kind, n, seed):
    rng = np.random.default_rng(seed)
    _check(_random_domain(kind, n, rng), rng, 40)


@pytest.mark.parametrize("z", [HPoint([1.0, -1.0, 0.0]), HPoint([1.0 + 0.5j, -1.0, -0.5j])])
def test_a_point_at_the_simplex_charts_infinity(z):
    tube = Tube(catalog.simplex())
    assert tube.contains(z) is False
    with pytest.raises(OutsideTubeError, match="chart infinity"):
        tube._query(z)


_SPECIALS = [0.0, -0.0, 1.0, -2.5, 5e-324, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("q", _SPECIALS)
@pytest.mark.parametrize("p", _SPECIALS)
def test_div_divides_as_numpy(p, q):
    with np.errstate(all="ignore"):
        want = float(np.float64(p) / np.float64(q))
    got = _div(p, q)
    assert (math.isnan(got) and math.isnan(want)) or _bits(got) == _bits(want)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("offset", [0.0, 0.25, -0.25])
def test_a_direction_at_exactly_the_parallel_tolerance(sign, offset):
    # a direction whose beta on the square's facet x = 1 is exactly
    # -sign * 1e-13, through a point on that facet (alpha = 0) or off it:
    # the tolerance and the blocked-line rule decide the clip
    square = catalog.square()
    row = np.flatnonzero(square._rows[:, 0] < 0.0)[0]
    ux = sign * 1e-13 / -square._rows[row, 0]
    for _ in range(64):
        unit = [ux, math.sqrt(1.0 - ux * ux)]
        beta = _rowdot(square._rows[:, :-1], np.array([unit]))[0, row]
        if beta == -sign * 1e-13:
            break
        ux = math.nextafter(ux, math.inf if sign * beta > -1e-13 else -math.inf)
    assert beta == -sign * 1e-13
    x = np.array([[1.0 + offset, 0.3]])
    assert offset or _rowdot(square._rows, np.array([[1.0, 0.3, 1.0]]))[0, row] == 0.0
    a, b, ok = square.clip_lines(x, np.array([unit]))
    got = square._clip_one(x[0].tolist(), unit)
    assert _same(got, (square.contains_rows(x)[0], a[0], b[0], ok[0]))


@pytest.mark.parametrize("a, b", [(-0.0, 2.0), (0.0, 2.0), (-1.0, 0.0), (-1.0, -0.0), (-1.0, 2.0)])
def test_angle_of_a_clip_end_at_zero(a, b):
    # an ellipsoid's clip end can round to 0 at an interior point; the
    # float gauge then divides as the row form's NumPy division does
    with np.errstate(divide="ignore"):
        want = _outcome(_angle_rows, np.array([0.5]), np.array([a]), np.array([b]))
    got = _outcome(lambda: np.array([_angle(0.5, a, b)]))
    assert got == want if isinstance(want, tuple) else _bits(got) == _bits(want)
