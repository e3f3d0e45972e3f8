"""Properly convex domains of RP^n in three representations.

A domain is bounded inside its own affine chart.  Internally every
representation is reduced to chart data with the chart lift ``(x, 1)``:

* V-polytope: vertex chart coordinates plus derived facet rows,
* H-domain: functional rows ``g`` with ``g . (x, 1) > 0`` on the domain,
  plus derived vertices,
* ellipsoid: ``(x - c)^T S (x - c) < 1`` with S symmetric positive definite.

A polytope, in either form, carries both lists, each found once when it is
built by one qhull call on its own input.  Facet and functional rows are
sign normalized to be positive at the reference point and scaled to unit
Euclidean norm; an H-domain keeps only the rows that support a facet, in
their input order.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .diskgeom import poincare_distance
from .errors import (
    CollinearityError,
    DegenerateError,
    DrawBudgetError,
    NotInteriorError,
    OutsideTubeError,
    UnsupportedConfigurationError,
    ValidationError,
    ZeroDirectionError,
)
from .projective import (
    Chart,
    Functional,
    HPoint,
    RealLine,
    _affine,
    _rowdot,
    cross_ratio_rows,
    normalize_lifts,
    row_norms,
)
from .report import VerifierReport

# chart-level reality band: imaginary part below this relative size is dust
_REAL_BAND = 1e-12
_PARALLEL_TOL = 1e-13
_DEGENERATE_CLIP = 1e-10
# box-rejection samplers: the most draws one call may make (about a minute
# of batched draws), and the most draws evaluated in one block
_DRAW_BUDGET = 1 << 26
_BLOCK_ROWS = 2048
_UNIT_ROUNDOFF = 2.0 ** -53
_UNBOUNDED = "H-domain is unbounded or has empty interior in its chart"


def _quadratic(vecs, shape, others):
    """``v @ shape @ w`` for paired rows of two (B, n) arrays, rounded as
    the one-row expression is."""
    return ((vecs[:, None, :] @ shape) @ others[:, :, None])[:, 0, 0]


def box_rejection(rng, count, lo, hi, accept, label):
    """``count`` points drawn uniformly from the box [lo, hi] and kept by
    ``accept``, a predicate on a (B, d) array of points.

    The draws are evaluated in blocks, and the result and the generator's
    final state are those of the scalar loop that draws ``rng.uniform(lo,
    hi)`` until ``count`` points passed: a block is drawn with
    ``rng.random`` and mapped to the box as ``Generator.uniform`` does, and
    after the count-th acceptance the generator is rewound and advanced by
    exactly the rows used.  The block size follows the acceptance rate seen
    so far.  Raises :class:`DrawBudgetError`, naming the sampler ``label``,
    after ``_DRAW_BUDGET`` draws.

    The samplers' predicates screen each block first
    (:meth:`ConvexDomain._screen`): one BLAS product of the base's rows with
    the block's real parts, within a rounding bound of the exact row
    functionals, settles the draws that it puts certainly on one side of
    the test.  Only the others reach the exact test, so a predicate's
    answers are those of the exact test alone.
    """
    lo = np.asarray(lo, dtype=np.float64)
    width = np.asarray(hi, dtype=np.float64) - lo
    out = np.empty((count, len(lo)))
    got = drawn = 0
    rows = min(_BLOCK_ROWS, 16 * count)
    while got < count:
        if drawn >= _DRAW_BUDGET:
            raise DrawBudgetError(label, got, count, drawn)
        rows = min(rows, _DRAW_BUDGET - drawn)
        state = rng.bit_generator.state
        # lo + width * u, rounded as Generator.uniform rounds it, in place
        block = rng.random((rows, len(lo)))
        block *= width
        block += lo
        keep = np.flatnonzero(accept(block))[: count - got]
        if got + len(keep) == count and keep[-1] + 1 < rows:
            rows = int(keep[-1]) + 1
            rng.bit_generator.state = state
            rng.random((rows, len(lo)))
        out[got:got + len(keep)] = block[keep]
        got += len(keep)
        drawn += rows
        if got:
            rows = int(1.25 * (count - got) * drawn / got) + 16
        else:
            rows *= 4
        rows = min(rows, _BLOCK_ROWS)
    return out


@dataclass(frozen=True)
class VPolytope:
    """Convex hull of finitely many real points."""

    vertices: tuple

    def __post_init__(self):
        pts = tuple(v if isinstance(v, HPoint) else HPoint(v) for v in self.vertices)
        object.__setattr__(self, "vertices", pts)


@dataclass(frozen=True)
class HDomain:
    """Intersection of functional half spaces (pairwise-positive region)."""

    functionals: tuple

    def __post_init__(self):
        fns = tuple(
            f if isinstance(f, Functional) else Functional(f) for f in self.functionals
        )
        object.__setattr__(self, "functionals", fns)


@dataclass(frozen=True)
class Ellipsoid:
    """Chart ellipsoid ``(x - center)^T shape (x - center) < 1``."""

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        object.__setattr__(self, "shape", np.asarray(self.shape, dtype=np.float64))


@dataclass(frozen=True)
class SliceDisk:
    """The clip interval (a, b) of a real chart line through a domain, and
    the disk with that diameter that the complexified line cuts out of the
    domain's tube.

    Line coordinates refer to the chart parametrization
    ``tau -> x0 + tau * direction`` with a unit chart direction.  The
    endpoint lifts ``v0, v1`` have chart-infinity component 1, so points of
    the open segment are exactly the classes of ``c0 v0 + c1 v1`` with
    ``c0 c1 > 0``.  ``to_unit_disk`` is the real affine map sending the
    interval onto (-1, 1) (so it commutes with complex conjugation), and the
    slice itself onto the open unit disk.
    """

    x0: np.ndarray
    direction: np.ndarray
    a: float
    b: float
    chart: Chart

    @property
    def v0(self):
        return self.chart.lift(self.point(self.a))

    @property
    def v1(self):
        return self.chart.lift(self.point(self.b))

    def endpoint_points(self):
        return self.point(self.a), self.point(self.b)

    def to_unit_disk(self, tau):
        return (2.0 * tau - (self.a + self.b)) / (self.b - self.a)

    def from_unit_disk(self, m):
        return 0.5 * ((self.b - self.a) * m + (self.a + self.b))

    def coord(self, zeta, tol=1e-9):
        """Line coordinate of a chart point on the complexified line."""
        zeta = np.asarray(zeta, dtype=np.complex128).reshape(self.x0.shape)
        tau = (zeta - self.x0) @ self.direction
        residual = np.linalg.norm(zeta - self.x0 - tau * self.direction)
        scale = 1.0 + np.linalg.norm(zeta)
        if residual > tol * scale:
            raise UnsupportedConfigurationError("point is not on the slice line")
        if abs(tau.imag) <= _REAL_BAND * (1.0 + abs(tau)):
            return float(tau.real)
        return complex(tau)

    def point(self, tau):
        """Chart point of a line coordinate (complex allowed)."""
        return self.x0 + tau * self.direction

    def poincare(self, tau1, tau2):
        """Poincare distance between two line coordinates inside the slice."""
        m1 = self.to_unit_disk(complex(tau1))
        m2 = self.to_unit_disk(complex(tau2))
        try:
            return poincare_distance(m1, m2)
        except ValueError:
            raise OutsideTubeError("both points must lie inside the slice")


def _facet_rows(verts):
    """Outward facet rows (g, c) with ``g . x + c > 0`` inside the hull."""
    verts = np.asarray(verts, dtype=np.float64)
    n = verts.shape[1]
    if n == 1:
        lo, hi = float(verts.min()), float(verts.max())
        if hi - lo < 1e-12:
            raise ValidationError("interval endpoints coincide")
        rows = np.array([[1.0, -lo], [-1.0, hi]])
    else:
        from scipy.spatial import ConvexHull

        hull = ConvexHull(verts)
        rows = -hull.equations  # equations satisfy A x + b <= 0 inside
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _h_polytope(rows, reference):
    """``(vertices, keep)`` of the H-domain cut out by unit rows that are
    positive at ``reference``: its vertices in chart coordinates, and the
    sorted indices of the rows that support a facet.

    For n >= 2 both come from one qhull ``HalfspaceIntersection``: its
    intersections (with duplicates collapsed) and its dual vertices.  A row
    with no chart normal supports no facet.  Raises :class:`ValidationError`
    when the domain is not bounded in its chart.
    """
    normals = np.linalg.norm(rows[:, :-1], axis=1)
    live = np.flatnonzero(normals > 1e-12)
    if len(live) <= len(reference):  # a bounded domain has at least n + 1 facets
        raise ValidationError(_UNBOUNDED)
    # each row rescaled so the slack equals the Euclidean distance to its hyperplane
    bound = rows[live] / normals[live, None]
    if len(reference) == 1:
        ends = -bound[:, 1] / bound[:, 0]
        ups, downs = np.flatnonzero(bound[:, 0] > 0), np.flatnonzero(bound[:, 0] < 0)
        if len(ups) == 0 or len(downs) == 0:
            raise ValidationError(_UNBOUNDED)
        lo, hi = ups[np.argmax(ends[ups])], downs[np.argmin(ends[downs])]
        return np.array([[ends[lo]], [ends[hi]]]), np.sort(live[[lo, hi]])
    from scipy.spatial import HalfspaceIntersection, QhullError

    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            inter = HalfspaceIntersection(-bound, reference.copy())  # A x + b <= 0 convention
    except QhullError:
        raise ValidationError(_UNBOUNDED) from None
    # bounded exactly when the reference lies strictly inside the dual hull
    if not np.all(inter.dual_equations[:, -1] < 0.0):
        raise ValidationError(_UNBOUNDED)
    uniq = []
    for p in inter.intersections:
        if not any(np.linalg.norm(p - q) < 1e-9 for q in uniq):
            uniq.append(p)
    return np.vstack(uniq), np.sort(live[inter.dual_vertices])


def _distinct_rows(rows):
    """The unit rows with each facet once: a row within 1e-12 of an earlier
    row is dropped, and the first stays in its place.  qhull splits a facet
    that is not a simplex into several equal rows."""
    close = np.linalg.norm(rows[:, None] - rows[None], axis=2) <= 1e-12
    return rows[~np.tril(close, -1).any(axis=1)]


def _finite(point):
    """``point``, a chart array, once every coordinate is known finite."""
    # a loop over the few coordinates costs a fraction of one NumPy call
    for k, value in enumerate(point.tolist()):
        if not cmath.isfinite(value):
            raise ValidationError(f"chart coordinate {k} is not finite: {point[k]}")
    return point


class ConvexDomain:
    """A properly convex open domain, bounded in its chart."""

    def __init__(self, rep, chart=None, reference_point=None, name=None):
        if isinstance(rep, VPolytope):
            n = rep.vertices[0].dim
        elif isinstance(rep, HDomain):
            n = rep.functionals[0].dim
        elif isinstance(rep, Ellipsoid):
            n = len(rep.center)
        else:
            raise TypeError("rep must be a VPolytope, HDomain or Ellipsoid")
        chart = chart if chart is not None else Chart.standard(n)
        if chart.n != n:
            raise ValidationError("chart dimension does not match the domain")
        self.rep = rep
        self.chart = chart
        self.name = name
        self.n = n

        self._verts = None
        self._rows = None  # unit rows, positive on the domain
        self._center = None
        self._shape = None
        self._a_min = None  # an ellipsoid's shortest semi-axis

        if isinstance(rep, VPolytope):
            self._verts = np.vstack([chart.to_chart(v) for v in rep.vertices])
            if reference_point is None:
                reference_point = self._verts.mean(axis=0)
        elif isinstance(rep, Ellipsoid):
            self._center = rep.center
            self._shape = 0.5 * (rep.shape + rep.shape.T)
            self._a_min = 1.0 / np.sqrt(np.linalg.eigvalsh(self._shape)[-1])
            if reference_point is None:
                reference_point = self._center
        else:
            if reference_point is None:
                raise ValidationError(
                    "an H-domain needs a reference point to fix functional signs"
                )

        if isinstance(reference_point, HPoint):
            reference_point = chart.to_chart(reference_point)
        self.reference = np.asarray(reference_point, dtype=np.float64).reshape(n)

        if isinstance(rep, VPolytope):
            self._rows = _distinct_rows(_facet_rows(self._verts))
        elif isinstance(rep, HDomain):
            rows = np.vstack([chart.inverse.T @ f.coeffs for f in rep.functionals])
            ref_lift = np.append(self.reference, 1.0)
            signs = rows @ ref_lift
            if np.any(np.abs(signs) < 1e-12):
                raise ValidationError("reference point lies on a functional kernel")
            rows = rows * np.sign(signs)[:, None]
            rows = _distinct_rows(rows / np.linalg.norm(rows, axis=1, keepdims=True))
            self._verts, keep = _h_polytope(rows, self.reference)
            self._rows = rows[keep]

        # the facet rows rescaled so the slack equals the Euclidean distance
        # to the hyperplane
        if self._rows is not None:
            self._bound_rows = self._rows / np.linalg.norm(self._rows[:, :-1], axis=1, keepdims=True)
        else:
            self._bound_rows = None
        self._bbox = None

    # ------------------------------------------------------------------
    # basic queries

    def chart_point(self, x):
        """Coerce an HPoint or chart array to chart coordinates; a
        non-finite coordinate raises ValidationError."""
        if isinstance(x, HPoint):
            return _finite(self.chart.to_chart(x))
        arr = np.asarray(x)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.shape != (self.n,):
            raise ValueError(f"expected a point of R^{self.n}")
        return _finite(arr)

    def contains(self, x):
        """Strict interior membership in chart coordinates."""
        x = self.chart_point(x)
        if np.iscomplexobj(x):
            if np.max(np.abs(x.imag)) > 1e-12 * max(1.0, np.max(np.abs(x))):
                raise ValueError("contains() expects a real chart point")
            x = x.real
        return bool(self.contains_rows(np.asarray(x, dtype=np.float64)[None])[0])

    def contains_rows(self, points):
        """Strict interior membership of every row of a (B, n) chart array."""
        if self._rows is not None:
            return np.all(_rowdot(self._rows, _affine(points)) > 0.0, axis=1)
        d = points - self._center
        return _quadratic(d, self._shape, d) < 1.0

    def margin(self, x):
        """Signed proximity to the boundary: positive inside, in chart
        Euclidean units (exact distance to the nearest facet hyperplane for
        row representations, a conservative equivalent for ellipsoids)."""
        x = self.chart_point(x)
        return float(self.margin_rows(np.asarray(x, dtype=np.float64)[None])[0])

    def margin_rows(self, points):
        """:meth:`margin` of every row of a (B, n) chart array."""
        if self._bound_rows is not None:
            return np.min(_rowdot(self._bound_rows, _affine(points)), axis=1)
        d = points - self._center
        q = _quadratic(d, self._shape, d)
        return (1.0 - np.sqrt(np.maximum(q, 0.0))) * self._a_min

    def _screen(self, rows, lo, hi):
        """``(screen, slack)``: a cheap stand-in for the exact row test on
        ``rows`` over draws from the box [lo, hi], ``rows`` being
        ``_bound_rows`` to screen :meth:`margin_rows` and ``_rows`` to
        screen :meth:`contains_rows`.  ``screen(x)`` is ``min_i R_i . (x,
        1)`` for every row of a (B, n) array x, from one BLAS product ``R[:,
        :-1] @ x.T + R[:, -1:]`` reduced over axis 0; it is within ``slack``
        of the same minimum of the exact ``_rowdot(R, (x, 1))``.  So a
        screen value below ``t - slack`` puts the exact one below t.

        Bound: both routes form ``R_i . (x, 1)`` as an inner product of
        length n + 1 whose last term ``R_in * 1`` is exact.  In any order of
        summation, fused or not, each term meets at most n + 1 roundings, so
        each route lies within ``gamma_{n+1} sum_j |R_ij| |x_j|`` of the true
        value (``gamma_k = k u / (1 - k u)``, u the unit roundoff), and the
        two minima within twice that.  With ``|x_j| <= M_j = max(|lo_j|,
        |hi_j|)`` and ``M_{n+1} = 1`` this is at most ``2 gamma_{n+1} max_i
        sum_j |R_ij| M_j``.  The slack takes ``(n + 2) u`` for
        ``gamma_{n+1}``: the excess covers the rounding of the bound itself
        and a draw ``lo + (hi - lo) U`` that rounds an ulp past M_j.  A
        product that underflows loses at most half the least subnormal, and
        subnormal sums are exact, so the two routes add at most ``(n + 1)
        2^-1074``.

        An ellipsoid (``rows`` None) screens with its exact
        :meth:`margin_rows` and slack 0: the sign of the margin, where it is
        not 0, is that of :meth:`contains_rows` as well.
        """
        if rows is None:
            return self.margin_rows, 0.0
        bound = [max(abs(a), abs(b)) for a, b in zip(lo.tolist(), hi.tolist())] + [1.0]
        worst = max(sum(abs(r) * m for r, m in zip(row, bound)) for row in rows.tolist())
        slack = 2 * (self.n + 2) * _UNIT_ROUNDOFF * worst + (self.n + 1) * 2.0 ** -1074
        normals, consts = rows[:, :-1], rows[:, -1:]
        return (lambda x: np.min(normals @ x.T + consts, axis=0)), slack

    @property
    def bbox(self):
        """Chart bounding box (lo, hi) of the closure."""
        if self._bbox is None:
            self._bbox = self._compute_bbox()
        return self._bbox

    def _compute_bbox(self):
        if self._verts is not None:
            return self._verts.min(axis=0), self._verts.max(axis=0)
        # a non-SPD shape (caught by validate) would give negative radii
        half = np.sqrt(np.maximum(np.diag(np.linalg.inv(self._shape)), 0.0))
        return self._center - half, self._center + half

    def vertices_chart(self):
        """Extreme points in chart coordinates (row representations only)."""
        if self._verts is None:
            raise DegenerateError("an ellipsoid has no vertex set")
        return self._verts.copy()

    def rows(self):
        """Unit functional/facet rows, positive on the domain."""
        if self._rows is None:
            raise DegenerateError("ellipsoids are not represented by rows")
        return self._rows.copy()

    def ellipsoid_data(self):
        if self._center is None:
            raise DegenerateError("not an ellipsoid representation")
        return self._center.copy(), self._shape.copy()

    def quadric(self):
        """The ellipsoid's boundary quadric: the symmetric (n+1, n+1) matrix
        Q with ``X^T Q X < 0`` exactly on the lifts X of interior points, in
        the coordinates the chart maps from."""
        center, shape = self.ellipsoid_data()
        n = self.n
        q_chart = np.zeros((n + 1, n + 1))
        q_chart[:n, :n] = shape
        q_chart[:n, n] = -shape @ center
        q_chart[n, :n] = -shape @ center
        q_chart[n, n] = center @ shape @ center - 1.0
        m = self.chart.matrix
        return m.T @ q_chart @ m

    # ------------------------------------------------------------------
    # line geometry

    def clip_lines(self, x0, directions):
        """Clip parameters of many chart lines ``t -> x0[i] + t directions[i]``.

        ``x0`` and ``directions`` are (B, n) arrays, the directions of unit
        length: :meth:`ray_clips` divides a line's direction by its norm
        once, and nothing divides it again.  Returns
        ``(a, b, ok)``, three (B,) arrays: ``ok`` is false where the line
        misses the domain or its clip is shorter than 1e-10 (and ``a``,
        ``b`` are NaN there), otherwise ``a < b`` are exact roots of the
        facet functionals or of the boundary quadric.  A facet with
        ``|beta| <= 1e-13`` counts as parallel to the line.  Each row is
        rounded as a one-row call would be.
        """
        x0 = np.asarray(x0, dtype=np.float64)
        directions = np.asarray(directions, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self._rows is not None:
                alphas = _rowdot(self._rows, _affine(x0))
                betas = _rowdot(self._rows[:, :-1], directions)
                up = betas > _PARALLEL_TOL
                down = betas < -_PARALLEL_TOL
                roots = -alphas / betas
                lo = np.where(up, roots, -np.inf).max(axis=1)
                hi = np.where(down, roots, np.inf).min(axis=1)
                # a facet parallel to the line, with the line on its outside
                lo[np.greater(alphas <= 0.0, up | down).any(axis=1)] = np.inf
            else:
                d = x0 - self._center
                a2 = _quadratic(directions, self._shape, directions)
                a1 = 2.0 * _quadratic(directions, self._shape, d)
                a0 = _quadratic(d, self._shape, d) - 1.0
                sq = np.sqrt(a1 * a1 - 4.0 * a2 * a0)  # NaN: the line misses
                lo = (-a1 - sq) / (2.0 * a2)
                hi = (-a1 + sq) / (2.0 * a2)
            span = hi - lo  # +inf: unbounded; -inf or NaN: blocked by a facet
        if np.any(span == np.inf):
            raise ValidationError("domain is unbounded along the line")
        ok = span >= _DEGENERATE_CLIP
        lo[~ok] = np.nan
        hi[~ok] = np.nan
        return lo, hi, ok

    def ray_clips(self, x, v):
        """``(length, unit, a, b, ok)`` for the lines ``t -> x + t v / |v|``
        through the paired rows of two (B, n) chart arrays: ``|v|``, the
        unit direction ``v / |v|`` and the :meth:`clip_lines` of each line.
        Raises :class:`ZeroDirectionError` when a row of v is zero (or
        NaN)."""
        length = row_norms(v)
        if not np.all(length > 0.0):
            raise ZeroDirectionError("line direction must be nonzero")
        unit = v / length[:, None]
        return (length, unit) + self.clip_lines(x, unit)

    def line_clip(self, line):
        """Intersect a real line with the domain.

        ``line`` is a RealLine or an ``(x0, direction)`` pair in chart
        coordinates.  Returns the :class:`SliceDisk` over the clip, with the
        line's direction made unit (endpoints exact roots of the facet
        functionals or of the boundary quadric), or None when the
        intersection is empty or shorter than 1e-10.
        """
        if isinstance(line, RealLine):
            x0, unit = line.chart_form(self.chart)
            a, b, ok = self.clip_lines(x0[None], unit[None])
        else:
            x0 = np.asarray(line[0], dtype=np.float64).reshape(self.n)
            direction = np.asarray(line[1], dtype=np.float64).reshape(1, self.n)
            _, unit, a, b, ok = self.ray_clips(x0[None], direction)
            unit = unit[0]
        return SliceDisk(x0, unit, float(a[0]), float(b[0]), self.chart) if ok[0] else None

    # ------------------------------------------------------------------
    # metric quantities

    def hilbert_distance(self, x, y):
        """Hilbert distance, half the log of the boundary cross ratio."""
        x = np.asarray(np.real(self.chart_point(x)), dtype=np.float64)
        y = np.asarray(np.real(self.chart_point(y)), dtype=np.float64)
        return float(self.hilbert_distance_rows(x[None], y[None])[0])

    def hilbert_distance_rows(self, x, y):
        """:meth:`hilbert_distance` of the paired rows of two (B, n) chart
        arrays, each row rounded as the one-pair call rounds it."""
        if not (self.contains_rows(x).all() and self.contains_rows(y).all()):
            raise NotInteriorError("hilbert distance needs interior points")
        sep, _, a, b, ok = self._pair_clips(x, y)
        if not ok.all():
            raise DegenerateError("interior points produced an empty clip")
        value = ((a - sep) * b) / (a * (b - sep))
        return np.where(sep < 1e-15, 0.0, 0.5 * np.log(value))

    def _pair_clips(self, x, y):
        """``(sep, direction, a, b, ok)`` for the paired rows of two (B, n)
        chart arrays: ``|y - x|``, the unit direction ``(y - x) / sep`` that
        every metric route clips, and the :meth:`clip_lines` of the line
        through x in that direction.  Rows with ``sep < 1e-15`` get the
        first coordinate axis."""
        delta = y - x
        sep = row_norms(delta)
        delta[sep < 1e-15] = np.eye(self.n)[0]
        return (sep,) + self.ray_clips(x, delta)[1:]

    def finsler_norm(self, x, w):
        """Infinitesimal Hilbert norm of a chart tangent vector at x."""
        x = np.real(self.chart_point(x))
        w = np.asarray(w, dtype=np.float64).reshape(self.n)
        if not self.contains(x):
            raise NotInteriorError("finsler norm needs an interior base point")
        speed = np.linalg.norm(w)
        if speed == 0.0:
            return 0.0
        clip = self.line_clip((x, w))
        if clip is None:
            raise DegenerateError("an interior point produced an empty clip")
        return 0.5 * (1.0 / -clip.a + 1.0 / clip.b) * speed

    def cross_ratio_check(self, x, y):
        """Hilbert distance recomputed through the projective cross ratio
        of the actual boundary points (diagnostic second route)."""
        x = np.asarray(np.real(self.chart_point(x)), dtype=np.float64)
        y = np.asarray(np.real(self.chart_point(y)), dtype=np.float64)
        return float(self.cross_ratio_rows(x[None], y[None])[0])

    def cross_ratio_rows(self, x, y):
        """:meth:`cross_ratio_check` of the paired rows of two (B, n) chart
        arrays, each row rounded as the one-pair call rounds it."""
        sep, direction, a, b, ok = self._pair_clips(x, y)
        if not ok.all():
            raise DegenerateError("interior points produced an empty clip")
        points = np.stack([x + a[:, None] * direction, x, y, x + b[:, None] * direction], axis=1)
        lifts = normalize_lifts(_rowdot(self.chart.inverse, _affine(points.reshape(-1, self.n))))
        value, collinear, degenerate = cross_ratio_rows(
            lifts.reshape(len(x), 4, self.n + 1).astype(np.complex128))
        if not collinear.all():
            raise CollinearityError("cross ratio needs four collinear points")
        if degenerate.any():
            raise DegenerateError("cross ratio degenerates (coincident points)")
        # four real collinear points: the imaginary part is rounding dust
        return np.where(sep < 1e-15, 0.0, 0.5 * np.log(value.real))

    # ------------------------------------------------------------------
    # constructions

    def scaled_copy(self, delta):
        """The domain shrunk by ``1 - delta`` about its reference point."""
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        s = 1.0 - delta
        ref = self.reference
        if isinstance(self.rep, VPolytope):
            verts = ref + s * (self._verts - ref)
            rep = VPolytope(tuple(self.chart.hpoint(v) for v in verts))
        elif isinstance(self.rep, HDomain):
            # x lands inside iff ref + (x - ref)/s satisfies the original row,
            # i.e. n.x + s c - (1 - s) n.ref > 0
            rows = self._rows.copy()
            normals, consts = rows[:, :-1], rows[:, -1]
            new_consts = s * consts - (1.0 - s) * (normals @ ref)
            chart_rows = np.column_stack([normals, new_consts])
            rep = HDomain(tuple(Functional(self.chart.matrix.T @ g) for g in chart_rows))
        else:
            rep = Ellipsoid(ref + s * (self._center - ref), self._shape / (s * s))
        return ConvexDomain(rep, chart=self.chart, reference_point=ref, name=self.name)

    def transform(self, amap):
        """Image domain under a projective map, kept in the same chart."""
        if isinstance(self.rep, VPolytope):
            rep = VPolytope(tuple(amap.apply(v) for v in self.rep.vertices))
        elif isinstance(self.rep, HDomain):
            inv = np.linalg.inv(amap.matrix)
            rep = HDomain(tuple(Functional(inv.T @ f.coeffs) for f in self.rep.functionals))
        else:
            raise DegenerateError("ellipsoid transforms are not supported")
        ref_lift = amap.matrix @ self.chart.lift(self.reference)
        ref = self.chart.to_chart(HPoint(ref_lift))
        return ConvexDomain(rep, chart=self.chart, reference_point=ref, name=self.name)

    def as_hdomain(self):
        """Equivalent H-domain built from the facet rows."""
        if isinstance(self.rep, HDomain):
            return self
        if self._rows is None:
            raise DegenerateError("an ellipsoid has no finite functional family")
        rep = HDomain(tuple(Functional(self.chart.matrix.T @ g) for g in self._rows))
        return ConvexDomain(
            rep, chart=self.chart, reference_point=self.reference, name=self.name
        )

    # ------------------------------------------------------------------
    # sampling and validation

    def sample_interior(self, rng, count):
        """Rejection-sample interior chart points; deterministic in rng.

        Box rejection from :attr:`bbox`: the samples and the generator's
        final state are those of drawing ``rng.uniform(lo, hi)`` until
        ``count`` points passed :meth:`contains_rows` (see
        :func:`box_rejection`).  :meth:`_screen` decides every draw whose
        screen value lies farther than its slack from 0; only the others
        reach that test."""
        lo, hi = self.bbox
        screen, slack = self._screen(self._rows, lo, hi)

        def accept(x):
            value = screen(x)
            keep = value > slack
            near = np.abs(value) <= slack
            if near.any():
                keep[near] = self.contains_rows(x[near])
            return keep

        return box_rejection(rng, count, lo, hi, accept, "sample_interior")

    def validate(self):
        """Structural checks; returns a report rather than raising."""
        rep_name = type(self.rep).__name__.lower()
        report = VerifierReport(
            name="domain-validation", samples_run=0, tolerance=0.0, seed=0
        )
        report.details["representation"] = rep_name
        report.details["dimension"] = self.n
        try:
            if isinstance(self.rep, VPolytope):
                spread = self._verts - self._verts.mean(axis=0)
                if np.linalg.matrix_rank(spread, tol=1e-10) < self.n:
                    report.record("vertices do not affinely span the chart")
            if isinstance(self.rep, Ellipsoid):
                eigs = np.linalg.eigvalsh(self._shape)
                if eigs.min() <= 1e-12:
                    report.record("shape matrix is not positive definite")
            lo, hi = self.bbox
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                report.record("domain is unbounded in its chart")
            if self.margin(self.reference) <= 0.0:
                report.record("reference point is not strictly interior")
        except ValidationError as exc:
            report.record(str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            report.record(f"validation crashed: {exc}")
        return report

    def ensure_valid(self):
        report = self.validate()
        if not report.passed:
            raise ValidationError("; ".join(report.violations))
        return self

    def __repr__(self):
        label = self.name or type(self.rep).__name__
        return f"ConvexDomain({label}, n={self.n})"

