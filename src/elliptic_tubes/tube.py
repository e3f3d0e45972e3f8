"""Elliptic tubes over properly convex domains.

The tube over a domain D of RP^n is the union, over all open segments I
inside D, of the disks in the complexified lines having I as a diameter.
Working in D's chart, a non-real point z = x + iy with trace line
``t -> x + t y_hat`` and clip interval (a, b) lies in the tube exactly when
its line coordinate ``i |y|`` falls inside the Euclidean disk with diameter
(a, b); equivalently when ``p(z) p(conj z) < 1`` for the ray exit gauge p.

Membership is implemented twice on purpose: through the slice geometry
(`contains`) and through the pairwise functional inequality
(`contains_pairwise`); the two routes are compared by the verifiers.
"""

from __future__ import annotations

import math

import numpy as np

from .diskgeom import (
    distance_from_angle,
    geodesic_foot,
    geodesic_foot_rows,
)
from .domains import _REAL_BAND, ConvexDomain, _finite, _quadratic, box_rejection
from .errors import (
    EmptySliceError,
    InfinityError,
    NotInteriorError,
    OutsideTubeError,
    RealPointError,
    RepresentationError,
)
from .projective import HPoint, _affine, _rowdot, row_norms

INTERIOR = "Interior"
EXTERIOR = "Exterior"
REAL_BOUNDARY = "RealBoundary"
COMPLEX_BOUNDARY = "ComplexBoundary"
_KINDS = (INTERIOR, EXTERIOR, REAL_BOUNDARY, COMPLEX_BOUNDARY)
_INTERIOR, _EXTERIOR, _REAL_BOUNDARY, _COMPLEX_BOUNDARY = range(4)


class Tube:
    """The elliptic tube over a properly convex base domain."""

    def __init__(self, base: ConvexDomain):
        self.base = base
        self.n = base.n
        self.chart = base.chart

    # ------------------------------------------------------------------
    # coordinates

    def chart_complex(self, z):
        """Complex chart coordinates of a point; None at chart infinity.  A
        non-finite coordinate raises ValidationError."""
        if isinstance(z, HPoint):
            try:
                zeta = self.chart.to_chart(z)
            except InfinityError:
                return None
            return _finite(np.atleast_1d(np.asarray(zeta, dtype=np.complex128)))
        arr = np.asarray(z)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.shape != (self.n,):
            raise ValueError(f"expected a chart point of C^{self.n}")
        return _finite(arr.astype(np.complex128))

    def _split(self, z):
        """(x, y, is_real) with the chart-level reality band applied."""
        zeta = self.chart_complex(z)
        if zeta is None:
            return None
        x = zeta.real.copy()
        y = zeta.imag.copy()
        if np.linalg.norm(y) <= _REAL_BAND * (1.0 + np.linalg.norm(x)):
            return x, np.zeros_like(y), True
        return x, y, False

    def _split_rows(self, zeta):
        """``(x, y, is_real)`` of every row of a (B, n) complex chart array:
        contiguous copies of the real and imaginary parts, as
        :meth:`_split` copies them, and the reality flags of its band."""
        zeta = np.asarray(zeta, dtype=np.complex128)
        x = np.ascontiguousarray(zeta.real)
        y = np.ascontiguousarray(zeta.imag)
        return x, y, _real_rows(x, y)

    def hpoint(self, zeta):
        """HPoint of complex chart coordinates."""
        zeta = np.asarray(zeta, dtype=np.complex128)
        lift = self.chart.inverse @ np.append(zeta, 1.0)
        return HPoint(lift)

    # ------------------------------------------------------------------
    # membership

    def contains(self, z):
        """Slice-route membership: clip the trace line, test the disk."""
        parts = self._split(z)
        if parts is None:
            return False
        x, y, real_flag = parts
        if real_flag:  # x is already checked finite: no second coercion
            return bool(self.base.contains_rows(x[None])[0])
        speed, _, a, b, _ = self.base.ray_clips(x[None], y[None])
        on_slice, prod = _gauge_product(speed[0], a[0], b[0])
        return bool(on_slice and prod < 1.0)

    def contains_rows(self, zeta):
        """:meth:`contains` of every row of a (B, n) complex chart array:
        the reality band of :meth:`_split`, then the base test for real
        rows and the slice test for the others, each row rounded as the
        one-point call rounds it."""
        x, y, real = self._split_rows(zeta)
        inside = np.empty(len(x), dtype=bool)
        inside[real] = self.base.contains_rows(x[real])
        if not real.all():
            speed, _, a, b, _ = self.base.ray_clips(x[~real], y[~real])
            on_slice, prod = _gauge_product(speed, a, b)
            inside[~real] = on_slice & (prod < 1.0)
        return inside

    def contains_pairwise(self, z):
        """Functional-route membership for polytope bases, the family being
        the base's rows: ``Re(f(z) conj(g(z))) > 0`` for every pair of
        family members."""
        if self.base._rows is None:
            raise RepresentationError("the pairwise test needs a polytope base")
        zeta = self.chart_complex(z)
        if zeta is None:
            return False
        gram, _ = pair_gram(self.base.rows() @ np.append(zeta, 1.0))
        return bool(gram.min() > 0.0)

    def violation(self, zeta):
        """Signed, scale-free membership defect (negative strictly inside).

        For row representations this is the worst normalized pairwise value;
        for ellipsoids the defect of the closed-form quadratic bound.
        """
        zeta = np.asarray(zeta, dtype=np.complex128).reshape(self.n)
        lift = np.append(zeta, 1.0)
        if self.base._rows is not None:
            gram, _ = pair_gram(self.base.rows() @ lift)
            return float(-gram.min() / (np.linalg.norm(lift) ** 2))
        center, shape = self.base.ellipsoid_data()
        u = zeta.real - center
        v = zeta.imag
        return float(u @ shape @ u + v @ shape @ v - 1.0)

    def violation_rows(self, zeta):
        """:meth:`violation` of every row of a (B, n) chart array, each row
        rounded as the one-point call rounds it."""
        zeta = np.asarray(zeta, dtype=np.complex128)
        if self.base._rows is None:
            center, shape = self.base.ellipsoid_data()
            u = zeta.real - center
            return _quadratic(u, shape, u) + _quadratic(zeta.imag, shape, zeta.imag) - 1.0
        lifts = _affine(zeta)
        gram, _, _, _ = pair_gram_rows(_rowdot(self.base.rows(), lifts))
        # float ** 2 calls libm pow, which does not always round as r * r does
        square = np.array([r ** 2 for r in row_norms(lifts).tolist()], dtype=np.float64)
        return -gram.min(axis=(1, 2)) / square

    # ------------------------------------------------------------------
    # slices

    def slice_disk(self, z):
        """The slice through a non-real tube-chart point."""
        parts = self._split(z)
        if parts is None:
            raise InfinityError("point lies at chart infinity")
        x, y, real_flag = parts
        if real_flag:
            raise RealPointError("a real point does not select a unique slice")
        return self.slice_on_line(x, y)

    def slice_on_line(self, x0, direction):
        """The slice over the real chart line ``t -> x0 + t direction``;
        the disk's direction is ``direction`` made unit."""
        disk = self.base.line_clip((x0, direction))
        if disk is None:
            raise EmptySliceError(_EMPTY_SLICE)
        return disk

    # ------------------------------------------------------------------
    # boundary gauges

    def _query(self, z):
        """``(x, trace)`` of a one-point query at z = x + iy: the real part
        after the band of :meth:`_split`, and ``(|y|, a, b, unit)``, the
        height of z over the clip (a, b) of its trace line ``t -> x + t
        unit`` (see :meth:`ConvexDomain.ray_clips`), None for a real z.
        Raises when z lies at chart infinity, when its real part lies
        outside the base, and when the trace line's clip is empty."""
        parts = self._split(z)
        if parts is None:
            raise OutsideTubeError("point lies at chart infinity")
        x, y, real_flag = parts
        if not self.base.contains_rows(x[None])[0]:
            raise NotInteriorError(_NOT_INTERIOR)
        if real_flag:
            return x, None
        speed, unit, a, b, ok = self.base.ray_clips(x[None], y[None])
        if not ok[0]:
            raise EmptySliceError(_EMPTY_SLICE)
        return x, (speed[0], a[0], b[0], unit[0])

    def _query_rows(self, zeta):
        """:meth:`_query` of every row of a (B, n) complex chart array, each
        row rounded as the one-point call rounds it: ``(x, real, speed, a,
        b, unit)``, the real parts and reality flags of :meth:`_split_rows`,
        and the traces of the non-real rows.  Raises as the one-point call
        raises when any row would."""
        x, y, real = self._split_rows(zeta)
        if not self.base.contains_rows(x).all():
            raise NotInteriorError(_NOT_INTERIOR)
        speed, unit, a, b, ok = self.base.ray_clips(x[~real], y[~real])
        if not ok.all():
            raise EmptySliceError(_EMPTY_SLICE)
        return x, real, speed, a, b, unit

    def _foot(self, x, trace):
        """``(foot, dist)`` of the non-real point of :meth:`_query` at x
        with trace ``(speed, a, b, unit)``: the nearest core point and the
        Poincare distance to it.  The point's line coordinate is ``i
        speed``, so its unit-disk coordinate is ``(-(a + b) + 2i speed) /
        (b - a)``."""
        speed, a, b, unit = trace
        length = b - a
        foot, dist = _disk_foot(complex(-(a + b) / length, 2.0 * speed / length))
        return x + (0.5 * (length * foot + (a + b))) * unit, dist

    def u_value(self, z):
        """Boundary angle ``arctan(p + p~, 1 - p p~)`` in [0, pi/2)."""
        _, trace = self._query(z)
        return 0.0 if trace is None else _angle(*trace[:3])

    def u_value_rows(self, zeta):
        """:meth:`u_value` of every row of a (B, n) complex chart array, each
        row rounded as the one-point call rounds it."""
        x, real, speed, a, b, _ = self._query_rows(zeta)
        u = np.zeros(len(x))
        u[~real] = _angle_rows(speed, a, b)
        return u

    def core_distance(self, z):
        """Kobayashi distance to the real core and the nearest core point.

        The distance is ``artanh(tan(u/2))``; the foot is computed
        geometrically in the normalized slice disk and mapped back.  Both
        routes to the distance agree within 1e-9.
        """
        x, trace = self._query(z)
        if trace is None:
            return 0.0, x
        return distance_from_angle(_angle(*trace[:3])), self._foot(x, trace)[0]

    def core_distance_rows(self, zeta):
        """:meth:`core_distance` of every row of a (B, n) complex chart
        array, each row rounded as the one-point call rounds it: ``(dist,
        foot)``, a (B,) and a (B, n) array.  Raises as the one-point call
        raises when any row would."""
        x, real, speed, a, b, unit = self._query_rows(zeta)
        dist = np.zeros(len(x))
        dist[~real] = [distance_from_angle(u) for u in _angle_rows(speed, a, b).tolist()]
        foot = x.copy()
        foot[~real] = self._slice_foot_rows(x[~real], speed, a, b, unit)[0]
        return dist, foot

    def _slice_foot_rows(self, x, speed, a, b, unit):
        """:meth:`_foot` of the non-real points of :meth:`_query_rows` at the
        rows x of a (B, n) array, with their traces ``(speed, a, b,
        unit)``, each row rounded as the one-point call rounds it:
        ``(foot, dist)``, a (B, n) and a (B,) array."""
        length = b - a
        w_re = -(a + b) / length
        w_im = 2.0 * speed / length
        if not np.all(np.hypot(w_re, w_im) < 1.0):
            raise OutsideTubeError(_OFF_DISK)
        foot, dist = geodesic_foot_rows(w_re, w_im)
        return x + (0.5 * (length * foot + (a + b)))[:, None] * unit, dist

    def boundary_classify(self, z, band=1e-8):
        """Interior / Exterior / RealBoundary / ComplexBoundary with a
        tolerance band.

        Real points are classified against the base boundary by chart
        margin; non-real points by the gauge product ``p(z) p(conj z)``
        (equal to 1 exactly on the non-real tube boundary).
        """
        parts = self._split(z)
        if parts is None:
            return EXTERIOR
        x, y, real_flag = parts
        x, y = x[None], y[None]
        kinds = self._classify_rows(x, y, np.array([real_flag]), self.base.margin_rows(x), band)
        return _KINDS[kinds[0]]

    def _classify_rows(self, x, y, real, m, band):
        """:meth:`boundary_classify` of the points x + iy, rows of (B, n)
        arrays, whose reality flags are ``real`` and whose real parts have
        the base margins ``m`` (:meth:`ConvexDomain.margin_rows`); indices
        into ``_KINDS``."""
        inside = m > 0.0
        kinds = np.where(inside, _INTERIOR, _EXTERIOR)
        kinds[real & (np.abs(m) < band)] = _REAL_BOUNDARY
        sliced = inside & ~real
        if np.any(sliced):
            speed, _, a, b, _ = self.base.ray_clips(x[sliced], y[sliced])
            on_slice, prod = _gauge_product(speed, a, b)
            sub = np.where(on_slice & (prod < 1.0), _INTERIOR, _EXTERIOR)
            sub[on_slice & (np.abs(prod - 1.0) < band)] = _COMPLEX_BOUNDARY
            kinds[sliced] = sub
        return kinds

    # ------------------------------------------------------------------
    # two-point distance

    def kobayashi_supported(self, z, w):
        """Two-point distance on the supported configurations.

        Real pairs use the slice of their common real line; complex pairs
        must share one complexified real line.  Both cases reduce to the
        Poincare distance in the normalized slice disk.
        """
        zeta = [self.chart_complex(z), self.chart_complex(w)]
        if zeta[0] is None or zeta[1] is None:
            raise OutsideTubeError("points must be finite in the chart")
        x, y, real = self._split_rows(np.stack(zeta))
        if real.all():
            return float(self.real_pair_distances(x[:1], x[1:])[0])
        # the slice through the first non-real point, at line coordinate
        # i |y| on it; the other point is outside input, so coord checks
        # that it lies on that slice's line
        anchor = int(real[0])
        disk = self.slice_on_line(x[anchor], y[anchor])
        tau = [1j * np.linalg.norm(y[k]) if k == anchor else disk.coord(zeta[k]) for k in (0, 1)]
        return disk.poincare(*tau)

    def real_pair_distances(self, x, y):
        """:meth:`kobayashi_supported` of the paired rows of two (B, n) real
        chart arrays, each row rounded as the one-pair call rounds it: the
        Poincare distance of the line coordinates 0 and ``|y - x|`` in the
        slice over the real line through x and y."""
        if not (self.base.contains_rows(x).all() and self.base.contains_rows(y).all()):
            raise NotInteriorError("real points must lie inside the base")
        sep, _, a, b, ok = self.base._pair_clips(x, y)
        if not ok.all():
            raise EmptySliceError(_EMPTY_SLICE)
        # SliceDisk.to_unit_disk of the two line coordinates
        m_x = -(a + b) / (b - a)
        m_y = (2.0 * sep - (a + b)) / (b - a)
        num = np.abs(m_x - m_y)
        den = np.abs(1.0 - m_x * m_y)
        if np.any(num >= den):
            raise OutsideTubeError("both points must lie inside the slice")
        # math.atanh, as poincare_distance takes it: np.arctanh rounds differently
        dist = np.array([math.atanh(r) for r in num / den])
        return np.where(sep < 1e-15, 0.0, dist)

    # ------------------------------------------------------------------
    # boxes and samplers

    def bounding_box(self):
        """(re_lo, re_hi, im_half): the tube lies inside
        ``[re_lo, re_hi] + i [-im_half, im_half]^n``, with
        ``im_half = (re_hi - re_lo) / 2``.

        A tube point lies in the disk over a segment of D with that segment
        as diameter, and the coordinate map z -> z_j sends this disk onto
        the disk over the segment's image, a subinterval of (lo_j, hi_j);
        so it lies in the disk with diameter (lo_j, hi_j), where
        ``|Im z_j| < (hi_j - lo_j) / 2``."""
        lo, hi = self.base.bbox
        return lo, hi, 0.5 * (hi - lo)

    @staticmethod
    def _draw_box(lo, hi, im_half):
        """Bounds of the 2n-dimensional draw box of ``(Re z, Im z)``."""
        return np.concatenate([lo, -im_half]), np.concatenate([hi, im_half])

    def _parts(self, draws):
        """Real parts, imaginary parts and reality flags of box draws, the
        band of :meth:`_split` applied row by row."""
        x = np.ascontiguousarray(draws[:, : self.n])
        y = np.ascontiguousarray(draws[:, self.n:])
        return x, y, _real_rows(x, y)

    def _points(self, draws):
        """Complex chart points of box draws ``(Re z, Im z)``."""
        out = np.empty((len(draws), self.n), dtype=np.complex128)
        out.real = draws[:, : self.n]
        out.imag = draws[:, self.n:]
        return out

    def sample_points(self, rng, count, band=1e-6):
        """Interior tube samples in chart coordinates, rejecting a boundary
        band: a draw is kept when its real part has margin at least ``band``
        and ``boundary_classify`` with that band calls it Interior (so its
        gauge product is at most 1 - band).

        Box rejection from ``bounding_box()``, evaluated in blocks: a draw
        is ``rng.uniform(lo, hi)`` for the real part followed by
        ``rng.uniform(-im_half, im_half)`` for the imaginary part, and the
        samples and the generator's final state are those of drawing one
        point at a time (see :func:`box_rejection`).  A draw whose real part
        the base's :meth:`~ConvexDomain._screen` puts below the band, within
        its rounding bound, is rejected unseen; only the others reach the
        exact margin and the line clip."""
        lo, hi = self._draw_box(*self.bounding_box())
        screen, slack = self.base._screen(self.base._bound_rows, lo[:self.n], hi[:self.n])

        def accept(draws):
            keep = screen(draws[:, :self.n]) >= band - slack
            x, y, real = self._parts(draws[keep])
            m = self.base.margin_rows(x)
            sub = m >= band
            sub[sub] = self._classify_rows(x[sub], y[sub], real[sub], m[sub], band) == _INTERIOR
            keep[keep] = sub
            return keep

        return self._points(box_rejection(rng, count, lo, hi, accept, "sample_points"))

    def sample_exterior(self, rng, count, band=1e-6, spread=1.0):
        """Exterior samples from the bounding box inflated by ``1 + spread``,
        excluding the boundary band (``boundary_classify`` gives Exterior);
        drawn like :meth:`sample_points`.  A draw whose real part the
        base's :meth:`~ConvexDomain._screen` puts below ``-band`` is
        Exterior for that test too and is kept unseen; only the others
        reach it."""
        lo, hi, im_half = self.bounding_box()
        center = 0.5 * (lo + hi)
        lo = center + (1.0 + spread) * (lo - center)
        hi = center + (1.0 + spread) * (hi - center)
        screen, slack = self.base._screen(self.base._bound_rows, lo, hi)

        def accept(draws):
            keep = screen(draws[:, :self.n]) < -band - slack
            rest = ~keep
            x, y, real = self._parts(draws[rest])
            m = self.base.margin_rows(x)
            keep[rest] = self._classify_rows(x, y, real, m, band) == _EXTERIOR
            return keep

        lo, hi = self._draw_box(lo, hi, (1.0 + spread) * im_half)
        return self._points(box_rejection(rng, count, lo, hi, accept, "sample_exterior"))

    def __repr__(self):
        return f"Tube(base={self.base!r})"


_OFF_DISK = "point lies outside the open tube"
_OFF_CLOSED = "point lies outside the closed tube"
_NOT_INTERIOR = "the real part must lie inside the base"
_EMPTY_SLICE = "the line does not meet the base domain"


def _disk_foot(w):
    """:func:`geodesic_foot` of a slice point's unit-disk coordinate w: a
    point off the open unit disk lies off the open tube."""
    if not abs(w) < 1.0:
        raise OutsideTubeError(_OFF_DISK)
    return geodesic_foot(w)


def _real_rows(x, y):
    """Reality flags of the points x + iy, rows of (B, n) arrays: the band
    of :meth:`Tube._split`, each row rounded as it rounds one point."""
    return row_norms(y) <= _REAL_BAND * (1.0 + row_norms(x))


def _gauge_pair(speed, a, b):
    """The gauges ``(p(z), p(conj z))`` of a point at height ``speed`` above
    the clip (a, b) of its trace line."""
    return speed / b, speed / -a


def _gauge_product(speed, a, b):
    """``(on_slice, prod)`` for points at heights ``speed`` above the clips
    (a, b) of their trace lines, scalars or (B,) arrays: whether ``a < 0 < b`` (false
    for the NaN ends of a line that misses the base) and the gauge product
    ``p(z) p(conj z)``.  A point lies in its slice when both
    ``a < 0 < b`` and the product is below 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p_plus, p_minus = _gauge_pair(speed, a, b)
        return (a < 0.0) & (b > 0.0), p_plus * p_minus


def _angle(speed, a, b):
    """The boundary angle of a point at height ``speed`` above the clip
    (a, b), ``a < 0 < b``, of its trace line; raises off the closed tube."""
    p_plus, p_minus = _gauge_pair(speed, a, b)
    prod = p_plus * p_minus
    if prod >= 1.0 + 1e-12:
        raise OutsideTubeError(_OFF_CLOSED)
    return math.atan2(p_plus + p_minus, 1.0 - prod)


def _angle_rows(speed, a, b):
    """:func:`_angle` of (B,) arrays, each row rounded as it rounds one."""
    p_plus, p_minus = _gauge_pair(speed, a, b)
    prod = p_plus * p_minus
    if np.any(prod >= 1.0 + 1e-12):
        raise OutsideTubeError(_OFF_CLOSED)
    # math.atan2, as the one-point call takes it: np.arctan2 rounds differently
    return np.array([math.atan2(s, c) for s, c in
                     zip((p_plus + p_minus).tolist(), (1.0 - prod).tolist())])


def interval_gauges(a, b, s, t):
    """Gauge pair for a point ``s + i t`` over the strip of an interval
    (a, b): ``p = |t| / (b - s)`` on the upper branch and
    ``|t| / (s - a)`` on the lower one (vectorized helper for rasters);
    :func:`_gauge_pair` of the clip shifted by s."""
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _gauge_pair(np.abs(t), a - s, b - s)


def pair_gram(vals):
    """The Gram test of a functional family's values ``vals`` at a point.

    Returns the matrix ``Re(v_p conj v_q)`` and the first pair ``(p, q)``
    with p <= q, in lexicographic order, whose entry is <= 0, or None when
    every pair is positive (the point lies in the tube).  NaN entries count
    as positive in the pair search; ``gram.min()`` is NaN for them.
    """
    gram = np.real(np.outer(vals, np.conj(vals)))
    # points inside the tube, the common case, skip the Python pair loop
    if gram.min() > 0.0:
        return gram, None
    m = len(vals)
    for i in range(m):
        for j in range(i, m):
            if gram[i, j] <= 0.0:
                return gram, (i, j)
    return gram, None


def pair_gram_rows(vals):
    """:func:`pair_gram` of every row of a (B, m) array of values:
    ``(gram, i, j, found)``, the (B, m, m) Gram matrices, and for each row
    its first pair ``(i, j)`` and whether it has one (``i = j = 0`` where
    it has none)."""
    count, m = vals.shape
    gram = np.real(vals[:, :, None] * np.conj(vals)[:, None, :])
    # row-major order over the upper triangle is pair_gram's search order
    bad = np.triu(gram <= 0.0).reshape(count, m * m)
    first = bad.argmax(axis=1)
    i, j = np.divmod(first, m)
    return gram, i, j, bad[np.arange(count), first]
