"""Projective duality for convex domains and their tubes.

The dual complement of a set E consists of the hyperplanes missing E.  For
a properly convex domain it is again properly convex, bounded in the chart
whose hyperplane at infinity is the evaluation at the reference point.  A
polytope carries its vertices and its facet rows from construction, and its
dual swaps them: the dual of a V-polytope is the H-domain of its vertex
lifts, the dual of an H-domain the V-polytope of its facet rows.  An
ellipsoid's dual is the ellipsoid of the polar quadric.  Tube membership
dualizes as well: a point outside the tube is annihilated by an explicit
member of the dual tube (the constructive separator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import ConvexDomain, Ellipsoid, HDomain, VPolytope
from .errors import DegenerateError, InsideTubeError, NotBoundaryError, RepresentationError
from .projective import Chart, Functional, HPoint, _rowdot, normalize_lifts, row_norms
from .tube import COMPLEX_BOUNDARY, REAL_BOUNDARY, Tube, pair_gram, pair_gram_rows

_CLOSED_SLACK = 1e-12


def annihilator(x):
    """The hyperplane of the dual space consisting of functionals that
    vanish at x (represented by x's own lift acting on dual vectors)."""
    x = x if isinstance(x, HPoint) else HPoint(x)
    return Functional(x.coords)


def dual_chart(domain: ConvexDomain) -> Chart:
    """The chart of the dual space adapted to a domain: hyperplane at
    infinity is evaluation at the reference lift, the basis rows are
    evaluations at the chart's coordinate directions."""
    basis = [domain.chart.direction_lift(e) for e in np.eye(domain.n)]
    infinity = domain.chart.lift(domain.reference)
    return Chart(basis, infinity)


@dataclass(frozen=True)
class DualDomain:
    """A dual complement together with its primal domain."""

    domain: ConvexDomain
    primal: ConvexDomain


def _dual_point(chart: Chart, xi):
    """A functional's dual-chart coordinates, or None within ``1e-12 |xi|``
    of the dual chart's hyperplane at infinity."""
    h = chart.infinity(xi)
    if abs(h) <= 1e-12 * np.linalg.norm(xi):
        return None
    return chart.basis_values(xi) / h


def _dual_defects(dual_t: Tube, xis):
    """``(finite, defect)`` for the rows of a (B, n+1) array of functionals:
    whether the row is finite in the dual chart (:meth:`Chart.to_chart_rows`),
    and the dual tube's :meth:`Tube.violation` there (NaN where it is not),
    each row rounded as the one-functional calls round it."""
    eta, finite = dual_t.chart.to_chart_rows(xis)
    defect = np.full(len(xis), np.nan)
    defect[finite] = dual_t.violation_rows(eta[finite])
    return finite, defect


def _dual_ellipsoid(domain: ConvexDomain) -> DualDomain:
    """Dual complement of an ellipsoid through polarity of its boundary
    quadric: again an ellipsoid, in the dual chart."""
    n = domain.n
    nmat = np.linalg.inv(domain.quadric())
    chart = dual_chart(domain)
    w = chart.inverse.T @ nmat @ chart.inverse
    a = w[:n, :n]
    b = w[:n, n]
    d = w[n, n]
    eigs = np.linalg.eigvalsh(a)
    if eigs.min() <= 0.0:
        raise DegenerateError("dual quadric is not an ellipsoid in this chart")
    c_dual = -np.linalg.solve(a, b)
    rho = b @ np.linalg.solve(a, b) - d
    if rho <= 0.0:
        raise DegenerateError("dual quadric has empty interior")
    rep = Ellipsoid(c_dual, a / rho)
    dual = ConvexDomain(rep, chart=chart, reference_point=c_dual)
    return DualDomain(domain=dual, primal=domain)


def dual_of(domain: ConvexDomain) -> DualDomain:
    """Dual complement of a domain, in its :func:`dual_chart`.

    A polytope's dual swaps its two lists: a V-polytope's is the H-domain
    whose functionals are its vertex lifts (chart-infinity component one),
    an H-domain's the V-polytope whose vertices are its facet rows, in their
    order.  Its reference point is the primal chart's hyperplane at
    infinity.  An ellipsoid's dual is the polar ellipsoid."""
    if isinstance(domain.rep, Ellipsoid):
        return _dual_ellipsoid(domain)
    chart = dual_chart(domain)
    if isinstance(domain.rep, VPolytope):
        rep = HDomain(tuple(Functional(domain.chart.lift(v)) for v in domain.vertices_chart()))
    else:
        rep = VPolytope(tuple(HPoint(domain.chart.matrix.T @ g) for g in domain.rows()))
    reference = chart.to_chart(HPoint(domain.chart.matrix[-1]))
    dual = ConvexDomain(rep, chart=chart, reference_point=reference)
    return DualDomain(domain=dual, primal=domain)


def dual_tube(domain: ConvexDomain):
    """The tube over the dual complement, with the DualDomain record."""
    dual = dual_of(domain)
    return Tube(dual.domain), dual


def _violating_pair(domain: ConvexDomain, lift):
    """``(fam, vals, pair)``: the family's raw homogeneous rows, their values
    at ``lift`` and the first pair of :func:`pair_gram` (None inside)."""
    # raw pulled-back rows keep the positive-on-the-cone sign convention
    # (Functional would re-normalize the leading coefficient)
    fam = domain.rows() @ domain.chart.matrix
    vals = fam @ lift
    _, pair = pair_gram(vals)
    return fam, vals, pair


def tube_separator(domain: ConvexDomain, z):
    """A dual-tube functional vanishing at a point outside the tube.

    The base must be a polytope, given by its vertices or its functionals;
    the family is the domain's rows.  The first (lexicographic) pair f, g
    with ``Re(f(z) conj(g(z))) <= 0`` yields ``xi = g(z) f - f(z) g``; its
    kernel passes through z exactly, and it lies in the closed dual tube.
    """
    if domain._rows is None:
        raise RepresentationError("tube_separator needs a polytope base")
    tube = Tube(domain)
    if isinstance(z, HPoint):
        lift = z.coords.astype(np.complex128)
    else:
        zeta = tube.chart_complex(z)
        lift = domain.chart.inverse @ np.append(zeta, 1.0)
    fam, vals, pair = _violating_pair(domain, lift)
    if pair is None:
        raise InsideTubeError("the point lies inside the tube; no separator exists")
    i, j = pair
    if i == j or (abs(vals[i]) < 1e-15 and abs(vals[j]) < 1e-15):
        return Functional(fam[i])
    return Functional(vals[j] * fam[i] - vals[i] * fam[j])


def _separator_rows(domain: ConvexDomain, lifts, variant="difference"):
    """:func:`tube_separator_rows` of a (B, n+1) lift array.  The variant
    ``"sum"`` adds the pair's terms, the negative control of the linear
    convexity check, and takes the first row where the sum's norm is below
    1e-14."""
    fam = domain.rows() @ domain.chart.matrix
    vals = _rowdot(fam, lifts)
    _, i, j, found = pair_gram_rows(vals)
    at = np.arange(len(vals))
    f, g, f_val, g_val = fam[i], fam[j], vals[at, i, None], vals[at, j, None]
    if variant == "difference":
        coeffs = g_val * f - f_val * g
        # np.hypot rounds as the scalar abs() of one value
        tiny = np.hypot(f_val.real, f_val.imag) < 1e-15
        single = (i == j) | (tiny & (np.hypot(g_val.real, g_val.imag) < 1e-15))[:, 0]
    else:
        coeffs = g_val * f + f_val * g
        single = row_norms(coeffs) < 1e-14
    # each row normalized as Functional(coeffs) would be, or Functional(f) of the real row
    out = np.empty(coeffs.shape, dtype=np.complex128)
    out[~single] = normalize_lifts(coeffs[~single])
    out[single] = normalize_lifts(f[single])
    return out, ~found


def tube_separator_rows(domain: ConvexDomain, zeta):
    """:func:`tube_separator` of every row of a (B, n) complex chart array:
    ``(coeffs, inside)``, the separators' coefficient rows, each equal bit
    for bit to the one-point call's, and the flags of the rows that lie
    inside the tube (their coefficients mean nothing)."""
    if domain._rows is None:
        raise RepresentationError("tube_separator needs a polytope base")
    return _separator_rows(domain, domain.chart.lift_rows(np.asarray(zeta, dtype=np.complex128)))


@dataclass
class TangentFunctionalSample:
    """Functionals through a tube boundary point whose kernels miss the tube."""

    members: list = field(default_factory=list)
    coords: np.ndarray = None
    diameter: float = 0.0
    starts: int = 0
    converged: int = 0

    @property
    def is_empty(self):
        return not self.members


def tangent_set_sample(domain: ConvexDomain, a, n_samples=200, seed=0):
    """Sample the tangent set of a tube boundary point.

    Searches the annihilator of ``a`` for members of the closed dual tube by
    clamped multistart minimization of the membership defect.  Returns the
    found functionals, their dual-chart coordinates and the chart diameter
    of the found set (small diameter indicates a single supporting
    hyperplane, large diameter a corner).
    """
    from scipy.optimize import minimize

    tube = Tube(domain)
    a_point = a if isinstance(a, HPoint) else tube.hpoint(np.asarray(a, dtype=complex))
    cls = tube.boundary_classify(a_point, band=1e-6)
    if cls not in (REAL_BOUNDARY, COMPLEX_BOUNDARY):
        raise NotBoundaryError(f"tangent sets exist only on the boundary (got {cls})")
    dual_t, dual = dual_tube(domain)
    dchart = dual_t.chart

    lift = a_point.coords.astype(np.complex128)
    # (n+1, n) orthonormal columns: the last n right singular vectors
    basis = np.linalg.svd(lift[None, :])[2][1:].conj().T
    if basis.shape[1] < 1:
        raise DegenerateError("annihilator parametrization failed")

    def defect(xi):
        eta = _dual_point(dchart, xi)
        if eta is None:
            return 1.0
        return dual_t.violation(eta)

    def make_objective(b0, b1):
        def func(mu):
            xi = b0 + (mu[0] + 1j * mu[1]) * b1
            return max(defect(xi), 0.0)

        return func

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    members = []
    coords = []
    converged = 0
    if basis.shape[1] == 1:
        # one projective dimension: the annihilator is a single functional
        xi = basis[:, 0]
        sample = TangentFunctionalSample(starts=1)
        if defect(xi) <= _CLOSED_SLACK:
            eta = _dual_point(dchart, xi)
            sample.members = [Functional(xi)]
            sample.coords = np.array([np.concatenate([eta.real, eta.imag])])
            sample.converged = 1
        else:
            sample.coords = np.empty((0, 2 * domain.n))
        return sample
    pairings = [(basis[:, 0], basis[:, 1]), (basis[:, 1], basis[:, 0])]
    if basis.shape[1] > 2:
        for k in range(2, basis.shape[1]):
            pairings.append((basis[:, 0], basis[:, k]))
            pairings.append((basis[:, k], basis[:, 0]))
    for start in range(n_samples):
        b0, b1 = pairings[start % len(pairings)]
        mu0 = rng.normal(0.0, 2.0, size=2)
        func = make_objective(b0, b1)
        res = minimize(
            func,
            mu0,
            method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-18, "maxiter": 2000},
        )
        xi = b0 + (res.x[0] + 1j * res.x[1]) * b1
        value = defect(xi)
        if value <= _CLOSED_SLACK:
            converged += 1
            eta = _dual_point(dchart, xi)
            members.append(Functional(xi))
            coords.append(np.concatenate([eta.real, eta.imag]))
    sample = TangentFunctionalSample(
        members=members,
        coords=np.array(coords) if coords else np.empty((0, 2 * domain.n)),
        starts=n_samples,
        converged=converged,
    )
    if len(coords) >= 2:
        pts = sample.coords
        diff = pts[:, None, :] - pts[None, :, :]
        sample.diameter = float(np.sqrt((diff**2).sum(axis=2)).max())
    return sample


def closed_dual_membership(domain: ConvexDomain, xi, slack=_CLOSED_SLACK):
    """Whether a functional lies in the closed dual tube (with slack).  For
    a (B, n+1) stack of functionals, a bool array with one answer per row;
    the dual tube is built once."""
    dual_t, _ = dual_tube(domain)
    coeffs = xi.coeffs if isinstance(xi, Functional) else np.asarray(xi)
    finite, defect = _dual_defects(dual_t, np.atleast_2d(coeffs))
    member = finite & (defect <= slack)
    return member if coeffs.ndim == 2 else bool(member[0])
