"""Poincare-disk utilities shared by the tube metric and the tangent map.

All distances use the curvature -4 normalization in which the distance from
the origin to ``r`` on the real axis is ``artanh(r)``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RealInputError

REAL_AXIS_TOL = 1e-12


def poincare_distance(z, w):
    """Distance ``artanh(|z - w| / |1 - z conj(w)|)`` in the open unit disk."""
    z = complex(z)
    w = complex(w)
    num = abs(z - w)
    den = abs(1.0 - z * w.conjugate())
    if num >= den:
        raise ValueError("poincare distance needs both points inside the disk")
    return math.atanh(num / den)


def disk_automorphism(base):
    """The Mobius map ``(z - base) / (1 - base z)`` for a real base point.

    Sends ``base`` to 0, preserves the unit disk, the real diameter and its
    orientation, and commutes with complex conjugation.
    """
    base = float(base)
    if not abs(base) < 1.0:
        raise ValueError("automorphism base must sit inside the disk")

    def fwd(z):
        return (z - base) / (1.0 - base * z)

    def inv(z):
        return (z + base) / (1.0 + base * z)

    return fwd, inv


def geodesic_foot(w, tol=REAL_AXIS_TOL):
    """Foot and distance of the geodesic projection onto the real diameter.

    For a non-real point ``w`` of the open unit disk, the hyperbolic
    geodesic through ``w`` that meets the diameter (-1, 1) orthogonally is
    the circle centered on the real axis that is orthogonal to the unit
    circle and passes through ``w`` and ``conj(w)``.  Its real crossing
    inside the disk is the unique nearest diameter point.

    Returns ``(foot, dist)`` with ``dist = poincare_distance(w, foot)``,
    which also equals half the distance from ``w`` to ``conj(w)``.
    """
    w = complex(w)
    if not abs(w) < 1.0:
        raise ValueError("geodesic_foot needs a point inside the disk")
    if abs(w.imag) <= tol * (1.0 + abs(w)):
        raise RealInputError("the projection of a real point is itself")
    if abs(w.real) <= tol:
        foot = 0.0
    else:
        center = (abs(w) ** 2 + 1.0) / (2.0 * w.real)
        radius = math.sqrt(center * center - 1.0)
        foot = center - math.copysign(radius, center)
    return foot, poincare_distance(w, foot)


def geodesic_foot_rows(w_re, w_im, tol=REAL_AXIS_TOL):
    """:func:`geodesic_foot` of the points ``w_re + i w_im`` of two (B,)
    arrays, each rounded as the one-point call rounds it: ``(foot, dist)``.
    Raises as the one-point call raises when any point would."""
    modulus = np.hypot(w_re, w_im)  # abs() of a Python complex
    if not np.all(modulus < 1.0):
        raise ValueError("geodesic_foot needs a point inside the disk")
    if np.any(np.abs(w_im) <= tol * (1.0 + modulus)):
        raise RealInputError("the projection of a real point is itself")
    # float ** 2 calls libm pow, which does not always round as r * r does
    square = np.array([r ** 2 for r in modulus.tolist()])
    with np.errstate(divide="ignore", invalid="ignore"):
        center = (square + 1.0) / (2.0 * w_re)
        radius = np.sqrt(center * center - 1.0)
        foot = np.where(np.abs(w_re) <= tol, 0.0, center - np.copysign(radius, center))
    # poincare_distance(w, foot), its complex products written out
    num = np.hypot(w_re - foot, w_im)
    den = np.hypot(1.0 - w_re * foot, w_im * foot)
    if np.any(num >= den):
        raise ValueError("poincare distance needs both points inside the disk")
    # math.atanh, as poincare_distance takes it: np.arctanh rounds differently
    return foot, np.array([math.atanh(r) for r in (num / den).tolist()])


def point_at_distance(base, dist, upper=True):
    """The disk point at a given distance from a real base point, reached
    along the geodesic leaving the diameter orthogonally.

    ``upper`` selects the upper half disk.  Inverse of
    :func:`geodesic_foot` in the sense that the returned point has the given
    base as its foot and the given distance to it.
    """
    if dist < 0.0:
        raise ValueError("distance must be nonnegative")
    fwd, inv = disk_automorphism(base)
    step = 1j * math.tanh(dist)
    if not upper:
        step = -step
    return inv(step)


def angle_from_distance(dist):
    """The boundary angle ``2 arctan(tanh d)`` of a point at distance d from
    the diameter."""
    return 2.0 * math.atan(math.tanh(dist))


def distance_from_angle(angle):
    """Inverse of :func:`angle_from_distance` on [0, pi/2)."""
    if not 0.0 <= angle < math.pi / 2.0 + 1e-12:
        raise ValueError("angle must lie in [0, pi/2)")
    return math.atanh(math.tan(min(angle, math.pi / 2.0 - 1e-16) / 2.0))
