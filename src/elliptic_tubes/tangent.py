"""The fiberwise homeomorphism between a tube and the base's tangent bundle.

A non-real tube point z projects to a unique nearest core point x_z inside
its slice; sending z to the tangent vector at x_z along the slice line,
with length the core distance and sign the half plane of z, is a bijection
onto the tangent bundle of the base (real points map to the zero section).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diskgeom import geodesic_foot, point_at_distance
from .errors import NotInteriorError
from .tube import Tube

__all__ = ["TangentVector", "geodesic_foot", "to_tangent", "from_tangent"]


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

    The slice through z is normalized to the unit disk; the geodesic foot on
    the diameter gives the base point, the slice direction (oriented so that
    points with positive imaginary line coordinate map to the positive
    direction) gives the direction, and the core distance the magnitude.
    """
    parts = tube._split(z)
    if parts is None:
        raise NotInteriorError("point lies at chart infinity")
    x, y, real_flag = parts
    if real_flag:
        if not tube.base.contains(x):
            raise NotInteriorError("real points must lie inside the base")
        return TangentVector(x, np.zeros(tube.n), 0.0)
    disk = tube.slice_disk(z)
    tau = disk.coord(tube.chart_complex(z))
    w = disk.to_unit_disk(tau)
    foot_disk, dist = geodesic_foot(w)
    base = disk.point(disk.from_unit_disk(foot_disk)).real
    sign = 1.0 if w.imag > 0.0 else -1.0
    return TangentVector(base, sign * disk.direction, dist)


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
