"""Homogeneous-coordinate primitives for real and complex projective space.

Points and hyperplanes are stored as normalized lifts in K^(n+1) with K the
reals or complexes.  The last coordinate plays no special role here; charts
carry the affinization data.  Chart coordinates of a point x are written as
the n-vector obtained from the chart's basis functionals divided by its
hyperplane-at-infinity functional.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CollinearityError,
    DegenerateError,
    InfinityError,
    RealPointError,
)

# A complex lift counts as real when the second singular value of its
# stacked real/imaginary parts is below this factor times the first.
REALITY_TOL = 1e-9

_TINY = 1e-14


def normalize_lift(v):
    """Scale a lift to unit Euclidean norm with the first significant
    coordinate rotated onto the nonnegative real axis.

    Real input stays real (a sign flip); complex input is multiplied by a
    unit phase.  Raises ValueError on the zero vector.
    """
    v = np.asarray(v)
    if np.iscomplexobj(v):
        v = v.astype(np.complex128)
    else:
        v = v.astype(np.float64)
    norm = np.linalg.norm(v)
    if not norm > 0.0:
        raise ValueError("the zero vector has no projective class")
    v = v / norm
    mags = np.abs(v)
    lead = int(np.argmax(mags > _TINY * mags.max()))
    pivot = v[lead]
    if np.iscomplexobj(v):
        v = v * (pivot.conjugate() / abs(pivot))
        # kill the rounding dust in the pivot's imaginary part
        v[lead] = v[lead].real
    elif pivot < 0.0:
        v = -v
    return v


def _dots(rows):
    """``row @ row`` for every row of a real (B, k) array, rounded as the
    one-row product (each stacked product is one ``dot``)."""
    return (rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


def _rowdot(mat, vecs):
    """``mat @ v`` for every row ``v`` of a (B, k) array, as a (B, m) array.

    The stacked product makes one matrix-vector product per row, so every
    row is rounded exactly as ``mat @ v`` alone would be: a batched call and
    a one-row call agree bit for bit.
    """
    return (mat @ vecs[:, :, None])[:, :, 0]


def _affine(points, last=1.0):
    """Rows ``(x, last)`` of a (B, n) array: ``np.append(x, last)`` of each
    row, complex where the points are."""
    lifts = np.empty((len(points), points.shape[1] + 1),
                     dtype=np.complex128 if points.dtype.kind == "c" else np.float64)
    lifts[:, :-1] = points
    lifts[:, -1] = last
    return lifts


def row_norms(rows):
    """``np.linalg.norm(row)`` of every row of a real or complex (B, k)
    array, rounded as the one-row call."""
    if rows.dtype.kind == "c":  # cheaper than np.iscomplexobj on the scalar paths
        return np.sqrt(_dots(rows.real) + _dots(rows.imag))
    return np.sqrt(_dots(rows))


def normalize_lifts(rows):
    """:func:`normalize_lift` of every row of a (B, k) array, each row
    rounded as the one-row call rounds it; a zero row gives NaNs."""
    rows = np.array(rows, dtype=np.complex128 if np.iscomplexobj(rows) else np.float64)
    rows = rows / row_norms(rows)[:, None]
    mags = np.abs(rows)
    lead = np.argmax(mags > _TINY * mags.max(axis=1, keepdims=True), axis=1)
    at = np.arange(len(rows))
    pivot = rows[at, lead]
    if np.iscomplexobj(rows):
        # np.hypot rounds as the scalar abs() of one pivot
        rows = rows * (pivot.conjugate() / np.hypot(pivot.real, pivot.imag))[:, None]
        rows[at, lead] = rows[at, lead].real
    else:
        rows = np.where((pivot < 0.0)[:, None], -rows, rows)
    return rows


class HPoint:
    """A point of RP^n or CP^n held as a normalized lift."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        lift = normalize_lift(coords)
        lift.setflags(write=False)
        object.__setattr__(self, "coords", lift)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("HPoint is immutable")

    @property
    def dim(self):
        """Dimension n of the ambient projective space."""
        return len(self.coords) - 1

    @property
    def is_complex(self):
        return np.iscomplexobj(self.coords)

    def conj(self):
        """The complex-conjugate point."""
        if not self.is_complex:
            return self
        return HPoint(np.conj(self.coords))

    def proj_eq(self, other, tol=1e-9):
        return proj_eq(self, other, tol=tol)

    def __repr__(self):
        return f"HPoint({np.array2string(self.coords, precision=6)})"


class Functional:
    """A projective hyperplane: a normalized covector acting on lifts."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        lift = normalize_lift(coeffs)
        lift.setflags(write=False)
        object.__setattr__(self, "coeffs", lift)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Functional is immutable")

    @property
    def dim(self):
        return len(self.coeffs) - 1

    @property
    def is_complex(self):
        return np.iscomplexobj(self.coeffs)

    def __call__(self, point):
        """Bilinear pairing with a point lift (no conjugation)."""
        if isinstance(point, HPoint):
            return self.coeffs @ point.coords
        return self.coeffs @ np.asarray(point)

    def conj(self):
        if not self.is_complex:
            return self
        return Functional(np.conj(self.coeffs))

    def proj_eq(self, other, tol=1e-9):
        return proj_eq(self, other, tol=tol)

    def __repr__(self):
        return f"Functional({np.array2string(self.coeffs, precision=6)})"


def _lift_of(obj):
    if isinstance(obj, HPoint):
        return obj.coords
    if isinstance(obj, Functional):
        return obj.coeffs
    return normalize_lift(obj)


def proj_eq(a, b, tol=1e-9):
    """Whether two lifts span the same projective class.

    Decided by the second singular value of the stacked 2 x (n+1) matrix
    relative to the first.
    """
    stack = np.vstack([_lift_of(a), _lift_of(b)]).astype(np.complex128)
    sv = np.linalg.svd(stack, compute_uv=False)
    return sv[1] <= tol * sv[0]


def _best_phase(lift):
    """Unit phase e^{-i phi} minimizing the imaginary part of the lift."""
    s = lift @ lift  # plain transpose product, no conjugation
    if abs(s) < _TINY:
        return 1.0
    return np.exp(-0.5j * np.angle(s))


def is_real(z, tol=REALITY_TOL):
    """Decide whether a point of CP^n is real.

    Returns ``(flag, real_rep)`` where ``real_rep`` is the real HPoint when
    the flag is true (the lift after the phase rotation that minimizes its
    imaginary part) and None otherwise.
    """
    lift = _lift_of(z)
    if not np.iscomplexobj(lift):
        return True, z if isinstance(z, HPoint) else HPoint(lift)
    stack = np.vstack([lift.real, lift.imag])
    sv = np.linalg.svd(stack, compute_uv=False)
    if sv[1] <= tol * sv[0]:
        rotated = lift * _best_phase(lift)
        return True, HPoint(rotated.real)
    return False, None


class RealLine:
    """A real projective line given by two independent real points.

    The span basis is remembered: line coordinates produced by
    :func:`line_chart` refer to it.
    """

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        u = u if isinstance(u, HPoint) else HPoint(u)
        v = v if isinstance(v, HPoint) else HPoint(v)
        if u.is_complex or v.is_complex:
            raise ValueError("a RealLine needs real span points")
        stack = np.vstack([u.coords, v.coords])
        sv = np.linalg.svd(stack, compute_uv=False)
        if sv[1] <= 1e-12 * sv[0]:
            raise DegenerateError("span points coincide projectively")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("RealLine is immutable")

    @property
    def dim(self):
        return self.u.dim

    def span(self):
        """2 x (n+1) matrix whose rows span the line's lifts."""
        return np.vstack([self.u.coords, self.v.coords])

    def contains(self, z, tol=1e-9):
        """Whether a (possibly complex) point lies on the complexified line."""
        lift = _lift_of(z).astype(np.complex128)
        stack = np.vstack([self.span().astype(np.complex128), lift])
        sv = np.linalg.svd(stack, compute_uv=False)
        return sv[2] <= tol * sv[0]

    def proj_eq(self, other, tol=1e-9):
        """Whether two lines agree as projective subspaces."""
        stack = np.vstack([self.span(), other.span()])
        sv = np.linalg.svd(stack, compute_uv=False)
        return sv[2] <= tol * sv[0]

    def chart_form(self, chart):
        """Affine parametrization ``t -> x0 + t * direction`` in a chart.

        ``x0`` is the chart image of whichever span point sits deeper inside
        the chart; ``direction`` is the unit chart vector toward the line's
        point on the chart's hyperplane at infinity.  Deterministic for a
        fixed span basis.
        """
        hu = chart.infinity(self.u.coords)
        hv = chart.infinity(self.v.coords)
        w = hv * self.u.coords - hu * self.v.coords  # the point at infinity
        w = normalize_lift(w)
        direction = chart.basis_values(w)
        dn = np.linalg.norm(direction)
        if not dn > 0.0:
            raise DegenerateError("line collapses in this chart")
        direction = direction / dn
        base = self.u if abs(hu) >= abs(hv) else self.v
        x0 = chart.to_chart(base)
        return x0, direction

    def __repr__(self):
        return f"RealLine(u={self.u!r}, v={self.v!r})"


class Chart:
    """An affine chart: n basis functionals plus a hyperplane at infinity.

    Chart coordinates of a lift p are ``basis_i(p) / infinity(p)``.
    """

    __slots__ = ("matrix", "inverse", "n")

    def __init__(self, basis, infinity):
        rows = [(_lift_of(b)) for b in basis]
        rows.append(_lift_of(infinity))
        matrix = np.vstack(rows).astype(np.float64)
        n = matrix.shape[1] - 1
        if matrix.shape[0] != n + 1:
            raise ValueError("a chart on RP^n needs n basis functionals")
        if abs(np.linalg.det(matrix)) < 1e-12:
            raise ValueError("chart functionals must be linearly independent")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "inverse", np.linalg.inv(matrix))
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Chart is immutable")

    @classmethod
    def standard(cls, n):
        """Last homogeneous coordinate is the homogenizer."""
        eye = np.eye(n + 1)
        return cls(eye[:-1], eye[-1])

    @property
    def is_standard(self):
        return bool(np.allclose(self.matrix, np.eye(self.n + 1)))

    def infinity(self, lift):
        return self.matrix[-1] @ np.asarray(lift)

    def basis_values(self, lift):
        return self.matrix[:-1] @ np.asarray(lift)

    def to_chart(self, p, tol=1e-12):
        """Chart coordinates of a point; InfinityError on the chart's
        hyperplane at infinity."""
        lift = _lift_of(p)
        h = self.infinity(lift)
        scale = np.linalg.norm(self.matrix[-1]) * np.linalg.norm(lift)
        if abs(h) <= tol * scale:
            raise InfinityError("point lies at infinity in this chart")
        return self.basis_values(lift) / h

    def to_chart_rows(self, lifts, tol=1e-12):
        """:meth:`to_chart` of every row of a (B, n+1) lift array, each row
        rounded as the one-point call rounds it: ``(coords, finite)``, where
        ``finite`` is false (and the coordinates undefined) for the rows on
        which :meth:`to_chart` raises InfinityError."""
        h = (self.matrix[-1] @ lifts[:, :, None])[:, 0]
        scale = np.linalg.norm(self.matrix[-1]) * row_norms(lifts)
        # np.hypot rounds as the scalar abs() of one value; np.abs of a complex array may not
        finite = np.hypot(h.real, h.imag) > tol * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.matrix[:-1] @ lifts[:, :, None])[:, :, 0] / h[:, None], finite

    def lift(self, x):
        """Raw (unnormalized) lift of chart coordinates."""
        x = np.asarray(x)
        return self.inverse @ np.append(x, 1.0)

    def lift_rows(self, x):
        """:meth:`lift` of every row of a (B, n) real or complex array, each
        row rounded as the one-point call rounds it."""
        return _rowdot(self.inverse, _affine(x))

    def direction_lift(self, w):
        """Lift of a chart direction (a point on the hyperplane at infinity)."""
        w = np.asarray(w)
        return self.inverse @ np.append(w, 0.0)

    def hpoint(self, x):
        return HPoint(self.lift(x))

    def __repr__(self):
        return f"Chart(n={self.n}, standard={self.is_standard})"


class ProjectiveMap:
    """An invertible projective transformation stored as its matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("a projective map needs a square matrix")
        if abs(np.linalg.det(matrix)) < 1e-12:
            raise DegenerateError("projective map must be invertible")
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ProjectiveMap is immutable")

    @property
    def dim(self):
        return self.matrix.shape[0] - 1

    def apply(self, p):
        lift = _lift_of(p)
        return HPoint(self.matrix @ lift)

    def inverse(self):
        return ProjectiveMap(np.linalg.inv(self.matrix))

    def compose(self, other):
        return ProjectiveMap(self.matrix @ other.matrix)

    def __matmul__(self, other):
        if isinstance(other, ProjectiveMap):
            return self.compose(other)
        return NotImplemented

    def proj_eq(self, other, tol=1e-9):
        a = self.matrix.ravel()
        b = other.matrix.ravel()
        stack = np.vstack([a / np.linalg.norm(a), b / np.linalg.norm(b)])
        sv = np.linalg.svd(stack, compute_uv=False)
        return sv[1] <= tol * sv[0]

    def is_identity(self, tol=1e-9):
        return bool(identity_rows(self.matrix[None], tol)[0])

    def __repr__(self):
        return f"ProjectiveMap({np.array2string(self.matrix, precision=6)})"


def identity_rows(mats, tol=1e-9):
    """Which matrices of a (B, k, k) stack act as the projective identity:
    :meth:`ProjectiveMap.proj_eq` against the identity, one stacked SVD."""
    flat = mats.reshape(len(mats), -1)
    eye = np.eye(mats.shape[1]).ravel()
    stack = np.empty((len(mats), 2, len(eye)))
    stack[:, 0] = flat / row_norms(flat)[:, None]
    stack[:, 1] = eye / np.linalg.norm(eye)
    sv = np.linalg.svd(stack, compute_uv=False)
    return sv[:, 1] <= tol * sv[:, 0]


def real_trace_line(z, tol=REALITY_TOL):
    """The unique real line whose complexification carries a non-real point.

    The lift is phase-rotated to make its real and imaginary parts
    orthogonal; those two real vectors span the line.
    """
    flag, _ = is_real(z, tol=tol)
    if flag:
        raise RealPointError("real points lie on infinitely many real lines")
    lift = _lift_of(z).astype(np.complex128)
    rotated = lift * _best_phase(lift)
    return RealLine(HPoint(rotated.real), HPoint(rotated.imag))


def cross_ratio(a, x, y, b, tol=1e-9):
    """Cross ratio of four collinear points.

    In an affine line coordinate t the value is
    ``((t_a - t_y) (t_b - t_x)) / ((t_a - t_x) (t_b - t_y))``,
    evaluated here through 2 x 2 determinants of lift coordinates in an
    orthonormal basis of the common span, which makes it basis and scale
    independent.
    """
    lifts = np.vstack([_lift_of(p).astype(np.complex128) for p in (a, x, y, b)])
    value, collinear, degenerate = cross_ratio_rows(lifts[None], tol)
    if not collinear[0]:
        raise CollinearityError("cross ratio needs four collinear points")
    if degenerate[0]:
        raise DegenerateError("cross ratio degenerates (coincident points)")
    value = value[0]
    if abs(value.imag) <= 1e-9 * abs(value):
        return float(value.real)
    return complex(value)


def _cmul(p, q):
    """``p * q`` of complex arrays, rounded as NumPy's complex scalars round
    it (the array loop fuses its multiply-adds and rounds differently)."""
    out = np.empty(np.broadcast(p, q).shape, dtype=np.complex128)
    out.real = p.real * q.real - p.imag * q.imag
    out.imag = p.real * q.imag + p.imag * q.real
    return out


def cross_ratio_rows(lifts, tol=1e-9):
    """:func:`cross_ratio` of every (4, k) complex lift stack of a (B, 4, k)
    array, each rounded as the one-stack call: ``(values, collinear,
    degenerate)``, where the values are complex and undefined on the stacks
    that are not collinear or are degenerate."""
    _, sv, vh = np.linalg.svd(lifts)
    collinear = sv[:, 2] <= tol * sv[:, 0] if lifts.shape[2] > 2 else np.ones(len(lifts), bool)
    coords = lifts @ vh[:, :2].conj().transpose(0, 2, 1)  # coordinates in the span basis

    def det(i, j):
        return (_cmul(coords[:, i, 0], coords[:, j, 1])
                - _cmul(coords[:, i, 1], coords[:, j, 0]))

    pairs = ((0, 2), (3, 1), (0, 1), (3, 2))
    dets = [det(i, j) for i, j in pairs]
    # two points coincide when their determinant is tiny against the norms
    # of their own two rows, however small the other determinants are
    norms = row_norms(coords.reshape(-1, 2)).reshape(len(lifts), 4)
    degenerate = np.any([np.hypot(d.real, d.imag) <= 1e-14 * norms[:, i] * norms[:, j]
                         for d, (i, j) in zip(dets, pairs)], axis=0)
    num = _cmul(dets[0], dets[1])
    den = _cmul(dets[2], dets[3])
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den, collinear, degenerate


def line_chart(line, tol=1e-9):
    """Coordinate functions along a line's span basis.

    Returns ``(to_line, from_line)``: ``to_line`` sends a point
    ``pi(u + tau v)`` of the (complexified) line to ``tau`` (``inf`` for the
    class of v), ``from_line`` is its inverse.
    """
    span = line.span().astype(np.complex128)

    def to_line(p):
        lift = _lift_of(p).astype(np.complex128)
        sol, res, rank, sv = np.linalg.lstsq(span.T, lift, rcond=None)
        recon = span.T @ sol
        if np.linalg.norm(recon - lift) > tol * np.linalg.norm(lift):
            raise CollinearityError("point is not on the line")
        alpha, beta = sol
        if abs(alpha) <= 1e-12 * abs(beta):
            return np.inf
        tau = beta / alpha
        if abs(tau.imag) <= 1e-12 * (1.0 + abs(tau)):
            return float(tau.real)
        return complex(tau)

    def from_line(tau):
        if np.isinf(tau):
            return line.v
        if isinstance(tau, complex):
            lift = line.u.coords.astype(np.complex128) + tau * line.v.coords
        else:
            lift = line.u.coords + float(tau) * line.v.coords
        return HPoint(lift)

    return to_line, from_line


def pushforward(amap, chart, x, w):
    """Derivative of a projective map in chart coordinates.

    Differentiates ``x -> chart(A . lift(x))`` at the chart point ``x`` in
    the direction ``w``.  Both ``x`` and its image must be finite in the
    chart.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    y_lift = amap.matrix @ chart.lift(x)
    h = chart.infinity(y_lift)
    scale = np.linalg.norm(y_lift) * np.linalg.norm(chart.matrix[-1])
    if abs(h) <= 1e-12 * scale:
        raise InfinityError("image point lies at infinity in this chart")
    y_chart = chart.basis_values(y_lift) / h
    dy_lift = amap.matrix @ chart.direction_lift(w)
    return (chart.basis_values(dy_lift) - y_chart * chart.infinity(dy_lift)) / h


def pushforward_rows(amap, chart, x, w):
    """:func:`pushforward` at the paired rows of two (B, n) arrays, each row
    rounded as the one-point call rounds it.  Raises InfinityError when any
    row's image lies at infinity."""
    y_lift = _rowdot(amap.matrix, chart.lift_rows(x))
    h = _rowdot(chart.matrix[-1:], y_lift)
    scale = row_norms(y_lift) * np.linalg.norm(chart.matrix[-1])
    if np.any(np.abs(h[:, 0]) <= 1e-12 * scale):
        raise InfinityError("image point lies at infinity in this chart")
    y_chart = _rowdot(chart.matrix[:-1], y_lift) / h
    dy_lift = _rowdot(amap.matrix, _rowdot(chart.inverse, _affine(w, 0.0)))
    return (_rowdot(chart.matrix[:-1], dy_lift) - y_chart * _rowdot(chart.matrix[-1:], dy_lift)) / h
