"""The fiberwise homeomorphism between a tube and the base's tangent bundle.

A non-real tube point z projects to a unique nearest core point x_z inside
its slice; sending z to the tangent vector at x_z along the slice line,
with length the core distance and sign the half plane of z, is a bijection
onto the tangent bundle of the base (real points map to the zero section).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diskgeom import geodesic_foot, point_at_distance
from .errors import EmptySliceError, NotInteriorError
from .tube import Tube

__all__ = [
    "TangentVector",
    "geodesic_foot",
    "to_tangent",
    "to_tangent_rows",
    "from_tangent",
    "from_tangent_rows",
]


@dataclass(frozen=True)
class TangentVector:
    """A chart tangent vector: base point, unit direction, magnitude.

    Magnitude zero keeps a zero direction vector (the zero section).
    """

    base: np.ndarray
    direction: np.ndarray
    magnitude: float

    def __post_init__(self):
        object.__setattr__(
            self, "base", np.asarray(self.base, dtype=np.float64).copy()
        )
        object.__setattr__(
            self, "direction", np.asarray(self.direction, dtype=np.float64).copy()
        )
        if self.magnitude < 0.0:
            raise ValueError("magnitude must be nonnegative")

    def negated(self):
        return TangentVector(self.base, -self.direction, self.magnitude)


def to_tangent(tube: Tube, z) -> TangentVector:
    """Tangent-bundle image of a tube point.

    The slice through z = x + iy is normalized to the unit disk; the
    geodesic foot on the diameter gives the base point, the slice direction
    ``y / |y|`` the direction (z sits at the positive imaginary line
    coordinate ``i |y|``), and the core distance the magnitude.
    """
    x, trace = tube._query(z)
    if trace is None:
        return TangentVector(x, np.zeros(tube.n), 0.0)
    base, dist = tube._foot(x, trace)
    return TangentVector(base, trace[3], dist)


def to_tangent_rows(tube: Tube, zeta):
    """:func:`to_tangent` of every row of a (B, n) complex chart array, each
    row rounded as the one-point call rounds it: ``(base, direction,
    magnitude)``, two (B, n) arrays and a (B,) array.  Raises as the
    one-point call raises when any row would."""
    x, real, speed, a, b, unit = tube._query_rows(zeta)
    base = x.copy()
    direction = np.zeros_like(x)
    magnitude = np.zeros(len(x))
    base[~real], magnitude[~real] = tube._slice_foot_rows(x[~real], speed, a, b, unit)
    direction[~real] = unit
    return base, direction, magnitude


def from_tangent(tube: Tube, vector: TangentVector):
    """Tube point of a tangent vector (inverse of :func:`to_tangent`).

    The slice along the vector's line is normalized to the unit disk by the
    affine interval map followed by the disk automorphism centered at the
    base point; the image point sits on the imaginary axis at Poincare
    distance equal to the magnitude, in the upper half for the positive
    direction.
    """
    base = np.asarray(vector.base, dtype=np.float64).reshape(tube.n)
    if not tube.base.contains(base):
        raise NotInteriorError("the base point must lie inside the domain")
    if vector.magnitude == 0.0:
        return base.astype(np.complex128)
    disk = tube.slice_on_line(base, vector.direction)
    anchor = disk.to_unit_disk(0.0)  # the base point's disk coordinate
    w = point_at_distance(anchor, vector.magnitude, upper=True)
    tau = disk.from_unit_disk(w)
    return disk.point(tau)


def from_tangent_rows(tube: Tube, base, direction, magnitude):
    """:func:`from_tangent` of the vectors given by the rows of two (B, n)
    arrays and a (B,) array of magnitudes, each row rounded as the one-point
    call rounds it: a (B, n) complex chart array.  Raises as the one-point
    call raises when any row would."""
    base = np.asarray(base, dtype=np.float64)
    magnitude = np.asarray(magnitude, dtype=np.float64)
    if not tube.base.contains_rows(base).all():
        raise NotInteriorError("the base point must lie inside the domain")
    out = base.astype(np.complex128)
    moving = magnitude != 0.0
    x0, mag = base[moving], magnitude[moving]
    _, unit, a, b, ok = tube.base.ray_clips(x0, np.asarray(direction, dtype=np.float64)[moving])
    if not ok.all():
        raise EmptySliceError("the line does not meet the base domain")
    length = b - a
    anchor = (0.0 - (a + b)) / length  # SliceDisk.to_unit_disk(0.0)
    if np.any(mag < 0.0):
        raise ValueError("distance must be nonnegative")
    if not np.all(np.abs(anchor) < 1.0):
        raise ValueError("automorphism base must sit inside the disk")
    # point_at_distance: the disk automorphism's inverse at i tanh(d),
    # (i t + c) / (1 + c i t), divided out as Python divides complex numbers
    t = np.array([math.tanh(d) for d in mag.tolist()])
    ratio = anchor * t
    denom = 1.0 + ratio * ratio
    w_re = (anchor + t * ratio) / denom
    w_im = (t - anchor * ratio) / denom
    # SliceDisk.from_unit_disk, then SliceDisk.point
    t_re = 0.5 * (length * w_re + (a + b))
    t_im = 0.5 * (length * w_im)
    out.real[moving] = x0 + t_re[:, None] * unit
    out.imag[moving] = 0.0 + t_im[:, None] * unit
    return out
