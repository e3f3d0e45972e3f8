"""Sampling verifiers for the geometric claims about tubes.

Each verifier draws a deterministic sample (seeded generator), checks one
claim against an independent computational route, and returns a
VerifierReport; a report passes exactly when no violation was recorded.
Negative controls are built in where the claim has a natural sabotage
(a punctured slice for the slice-topology check, a wrong sign in the
separator combination for linear convexity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .domains import ConvexDomain
from .duality import _dual_defects, _separator_rows, dual_tube
from .errors import (
    DegenerateError,
    InsideTubeError,
    RepresentationError,
    ZeroDirectionError,
)
from .projective import _rowdot, normalize_lifts, pushforward_rows, row_norms
from .quotients import _preserves
from .report import VerifierReport
from .tangent import from_tangent_rows, to_tangent_rows
from .tube import Tube

# the conservative window's half width over the coordinate bound W
_WINDOW_MARGIN = 1.1


# ----------------------------------------------------------------------
# complex-line rasters


@dataclass
class SliceRaster:
    """Tube membership over a complex line ``z(w) = anchor + w dir``: the
    row runs of its inside pixels (`_kernels.form_runs`), and their bitmap,
    painted when first read."""

    runs: tuple
    w_re: np.ndarray
    w_im: np.ndarray
    anchor: np.ndarray
    direction: np.ndarray
    window: tuple

    @cached_property
    def bitmap(self):
        return _kernels.paint_runs(*self.runs, self.resolution)

    @property
    def resolution(self):
        return len(self.w_im), len(self.w_re)

    @property
    def filled(self):
        start, end = self.runs
        return int((end - start).sum())

    @property
    def touches_frame(self):
        b = self.bitmap
        return bool(b[0, :].any() or b[-1, :].any() or b[:, 0].any() or b[:, -1].any())

    def point(self, w):
        return self.anchor + w * self.direction


def _auto_window(tube: Tube, anchor, direction):
    """A square window certain to contain the whole slice region.

    Each coordinate of a tube point lies in the disk with diameter
    ``(lo_j, hi_j)`` (:meth:`Tube.bounding_box`), so ``|anchor_j + w dir_j -
    mid_j| < (hi_j - lo_j) / 2``; the best coordinate gives ``|w| <= W``.
    """
    lo, hi, half = tube.bounding_box()
    size = np.abs(direction)
    usable = size > 1e-12 * np.linalg.norm(direction)
    if not usable.any():
        raise ZeroDirectionError("direction vanishes in every coordinate")
    w = _WINDOW_MARGIN * np.min((np.abs(anchor - 0.5 * (lo + hi)) + half)[usable] / size[usable])
    return ((-w, w), (-w, w))


def rasterize_line(tube: Tube, anchor, direction, resolution=512, window=None,
                   puncture=None) -> SliceRaster:
    """Rasterize tube membership over a complex line in chart coordinates.

    The grid samples cell centers.  With the default window no tube point
    can fall outside the frame, so the slice region is rendered completely.
    An optional puncture (center, radius) zeroes every pixel whose point is
    within the given chart distance of the center; it exists as a negative
    control for the topology checks.
    """
    anchor = np.asarray(anchor, dtype=np.complex128).reshape(tube.n)
    direction = np.asarray(direction, dtype=np.complex128).reshape(tube.n)
    if not np.linalg.norm(direction) > 0.0:
        raise ZeroDirectionError("direction must be nonzero")
    if window is None:
        window = _auto_window(tube, anchor, direction)
    return _raster(_line_forms(tube, anchor, direction, puncture), anchor, direction,
                   resolution, window)


def _raster(forms, anchor, direction, resolution, window):
    """The :class:`SliceRaster` of the line ``anchor + w direction`` whose
    membership forms are ``forms`` (:func:`_line_forms`), over the cell
    centers of ``window`` at ``resolution`` px."""
    (re_lo, re_hi), (im_lo, im_hi) = window
    res = int(resolution)
    d_re = (re_hi - re_lo) / res
    d_im = (im_hi - im_lo) / res
    w_re = re_lo + (np.arange(res) + 0.5) * d_re
    w_im = im_lo + (np.arange(res) + 0.5) * d_im
    return SliceRaster(runs=_kernels.form_runs(*forms, w_re, w_im), w_re=w_re, w_im=w_im,
                       anchor=anchor, direction=direction, window=window)


def _puncture_form(anchor, direction, puncture):
    """``(alpha, beta, gamma)`` of ``|z(w) - center|^2 - radius^2 > 0``, the
    form a puncture ``(center, radius)`` adds on the line."""
    p_center, p_radius = puncture
    shift = anchor - np.asarray(p_center, dtype=np.complex128).reshape(anchor.shape)
    return (np.vdot(direction, direction).real, 2.0 * np.vdot(shift, direction),
            np.vdot(shift, shift).real - p_radius * p_radius)


def _line_forms(tube: Tube, anchor, direction, puncture=None):
    """``(alpha, beta, gamma)`` of every membership form on the line: those
    of the tube's base, and the puncture's.

    The line's lifts end in ``(1, 0)``, so no point of it lies at chart
    infinity and an ellipsoid's one form decides it alone."""
    lifts = (np.append(anchor, 1.0), np.append(direction, 0.0))
    if tube.base._rows is not None:
        rows = tube.base.rows()
        forms = _kernels.pairwise_forms(rows @ lifts[0], rows @ lifts[1])
    else:
        forms = _kernels.ellipsoid_forms(*tube.base.ellipsoid_data(), *lifts)
    if puncture is None:
        return forms
    return tuple(np.append(f, g) for f, g in zip(forms, _puncture_form(anchor, direction, puncture)))


def connectivity_counts(bitmap):
    """(region components, complement components) of a bitmap: the
    `run_counts` of its row runs (`_kernels.mask_runs`).

    The region uses 4-connectivity and the complement 8-connectivity (the
    standard pairing that avoids digital topology paradoxes); the
    complement is framed, so the unbounded part counts once.
    """
    bitmap = np.asarray(bitmap)
    return run_counts(*_kernels.mask_runs(bitmap), bitmap.shape[1] + 1)


def run_counts(start, end, stride):
    """(region components, complement components) of the region made of
    the row runs ``(start, end)``, keyed ``row * stride + column`` with
    ``end`` exclusive and increasing (`_kernels.mask_runs`), ``stride``
    being the width plus one.

    Two runs in consecutive rows are joined when they share a column,
    which is 4-adjacency, so the region's 4-components are the components
    C of this run graph.  Each run and each joint is an interval, and a
    joint meets only its two runs, so the region deforms onto the graph:
    its Euler number is V - E (V runs, E joints) and it has ``C - (V -
    E)`` holes.  By duality in the plane each hole is one bounded
    8-component of the complement, and the frame adds one more.  These are
    the counts that labelling the region with 4-connectivity and the
    framed complement with 8-connectivity gives.
    """
    n_runs = len(start)
    # the runs of the next row that share a column with each run: their
    # ends lie past its start and their starts before its end, one row on
    first = np.searchsorted(end, start + stride, side="right")
    past = np.searchsorted(start, end + stride, side="left")
    joints = past - first
    n_joints = int(joints.sum())
    # run i's joints sit at offset[i] onwards in the list and reach runs
    # first[i], first[i] + 1, ...
    offset = np.cumsum(joints) - joints
    upper = np.repeat(np.arange(n_runs), joints)
    lower = np.arange(n_joints) + np.repeat(first - offset, joints)
    labels = _kernels.component_labels(n_runs, upper, lower)
    n_region = int(np.count_nonzero(labels == np.arange(n_runs)))
    return n_region, 1 + n_region - n_runs + n_joints


# ----------------------------------------------------------------------
# linear convexity (separators)


def _kernel_probes(tube: Tube, rows, rng, probes):
    """Whether each of ``probes`` random points on the kernel of each row of
    a (P, n+1) array of functionals lies in the tube: a (P, probes) bool
    array.  The kernel coefficients are drawn in one call, the stream of
    drawing the real and then the imaginary coefficients probe by probe,
    row by row."""
    # the null space of a nonzero row: the last n right singular vectors
    basis = np.linalg.svd(rows[:, None, :])[2][:, 1:].conj().transpose(0, 2, 1)
    draws = rng.normal(size=(len(rows), probes, 2, tube.n))
    coeffs = draws[:, :, 0] + 1j * draws[:, :, 1]
    lifts = normalize_lifts((basis[:, None] @ coeffs[..., None]).reshape(-1, tube.n + 1))
    zeta, finite = tube.chart.to_chart_rows(lifts)
    inside = np.zeros(len(lifts), dtype=bool)  # chart infinity is outside
    inside[finite] = tube.contains_rows(zeta[finite])
    return inside.reshape(len(rows), probes)


def _relative_values(coeffs, lifts):
    """``|xi(lift)| / (|xi| |lift|)`` of paired rows of two (B, n+1) arrays,
    each rounded as the one-functional expression rounds it."""
    values = (coeffs[:, None, :] @ lifts[:, :, None])[:, 0, 0]
    # np.hypot rounds as the scalar abs(); np.abs of a complex array may not
    return np.hypot(values.real, values.imag) / (row_norms(coeffs) * row_norms(lifts))


def verify_linear_convexity(domain: ConvexDomain, n_points=100, n_kernel_samples=1000,
                            seed=0, tol=1e-10, variant="difference") -> VerifierReport:
    """Every exterior point is annihilated by a hyperplane missing the tube.

    For sampled exterior points the constructive separator must vanish at
    the point (relative to its scale) and its kernel, sampled densely, must
    avoid the open tube.  ``variant='sum'`` flips the combination sign and
    serves as the negative control: the resulting functional has no reason
    to vanish at the point.

    The points are decided in one batch.  The draws are those of checking
    them one by one: the 64 tube witnesses, every exterior point, then the
    kernel coefficients of each point whose separator vanishes, in order.
    """
    if domain._rows is None:
        raise DegenerateError("an ellipsoid has no finite functional family")
    tube = Tube(domain)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    report = VerifierReport(
        name="linear_convexity",
        tolerance=tol,
        seed=seed,
        details={"variant": variant, "points": n_points},
    )
    wit_lifts = domain.chart.lift_rows(tube.sample_points(rng, 64))
    wit_norms = np.linalg.norm(wit_lifts, axis=1)
    per_point = max(1, n_kernel_samples // n_points)
    points = tube.sample_exterior(rng, n_points)
    lifts = domain.chart.lift_rows(points)
    # a point that the pairwise test puts inside the tube has no separator
    coeffs, inside = _separator_rows(domain, lifts, variant)
    report.skipped += int(inside.sum())
    points, lifts, coeffs = points[~inside], lifts[~inside], coeffs[~inside]
    report.samples_run += len(points)
    values = _relative_values(coeffs, lifts)
    # the kernel must miss the open tube: sampled kernel points stay out,
    # and the tube witnesses must not lie on the kernel
    vanish = ~(values >= tol)
    hits = np.zeros(len(points), dtype=np.int64)
    hits[vanish] = _kernel_probes(tube, coeffs[vanish], rng, per_point).sum(axis=1)
    wit_vals = np.abs(coeffs @ wit_lifts.T) / (row_norms(coeffs)[:, None] * wit_norms)
    for z, value, hit, close in zip(points, values, hits, wit_vals.min(axis=1) <= tol):
        report.observe(value)
        if value >= tol:
            report.record(f"separator fails to vanish at {z} (|xi(z)| rel {value:.3e})", value)
            continue
        if hit:
            report.record(f"kernel of the separator at {z} meets the tube ({hit} hits)")
        if close:
            report.record(f"separator at {z} nearly vanishes on a tube point")
    report.details["kernel_samples"] = per_point * int(vanish.sum())
    return report


# ----------------------------------------------------------------------
# slice topology (C-convexity)


def _random_line(tube: Tube, rng, through=None):
    """A random complex line through the tube: ``(anchor, direction,
    through_two)``.  With probability 0.7 it joins two sample points at
    least 0.2 apart (64 tries), otherwise it runs from one sample point in
    a random unit direction.  A given ``through`` point is the anchor in
    place of the first sample point."""
    if through is not None:
        through = np.asarray(through, dtype=np.complex128).reshape(tube.n)
    if rng.random() < 0.7:
        for _ in range(64):
            if through is None:
                pts = tube.sample_points(rng, 2)
            else:
                pts = np.vstack([through, tube.sample_points(rng, 1)])
            delta = pts[1] - pts[0]
            if np.linalg.norm(delta) >= 0.2:
                break
        return pts[0], delta, True
    anchor = tube.sample_points(rng, 1)[0] if through is None else through
    direction = rng.normal(size=tube.n) + 1j * rng.normal(size=tube.n)
    return anchor, direction / np.linalg.norm(direction), False


def _raster_window(bbox, resolution):
    """The box ``((re_lo, re_hi), (im_lo, im_hi))`` padded on every side by
    2 px of a ``resolution`` px raster."""
    return tuple((lo - 2.0 * (hi - lo) / max(resolution - 4, 1),
                  hi + 2.0 * (hi - lo) / max(resolution - 4, 1)) for lo, hi in bbox)


def _check_line(tube: Tube, anchor, direction, resolution, stability_factor, puncture):
    """The slice-topology verdict of :func:`verify_c_convexity` on one
    complex line, from its boundary arcs: ``(violations, disagreed)``, where
    ``disagreed`` says that the raster over the arcs' box (`_raster_window`)
    counted otherwise at ``resolution`` and at ``stability_factor`` times it.
    The line's forms are built once, for the arcs and every raster."""
    forms = _line_forms(tube, anchor, direction, puncture)
    components, holes, bbox = _kernels.slice_topology(*forms)
    if components == 0:
        return ["empty region"], False
    violations = []
    if components != 1:
        violations.append(f"region has {components} components")
    if holes:
        violations.append(f"complement has {holes + 1} components (holes)")
    window = _raster_window(bbox, resolution)
    passes = (resolution,)
    if stability_factor and stability_factor > 1:
        passes += (resolution * stability_factor,)
    for res in passes:
        raster = _raster(forms, anchor, direction, res, window)
        if run_counts(*raster.runs, len(raster.w_re) + 1) == (components, holes + 1):
            return violations, False
    return violations, True


def verify_c_convexity(domain: ConvexDomain, n_lines=24, resolution=512,
                       stability_factor=2, seed=0, puncture=None) -> VerifierReport:
    """Slices along complex lines are connected and simply connected.

    Splits the boundary of each random complex line's slice into circle
    arcs and segments (`_kernels.slice_topology`) and counts the region's
    components (must be 1) and holes (must be 0).  A puncture turns this
    into its own negative control: every line then runs through the
    puncture's centre, the puncture is one more form, and each punctured
    region has a hole and must fail.

    Each line is rastered as well, the independent second route, over the
    arcs' box (`_check_line`).  A line whose rasters both count otherwise
    than the arcs, as a sliver thinner than a pixel does, is tallied in
    ``details['raster_disagreements']``; it is not a violation.
    """
    tube = Tube(domain)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    report = VerifierReport(
        name="c_convexity",
        tolerance=0.0,
        seed=seed,
        details={
            "resolution": resolution,
            "stability_factor": stability_factor,
            "backend": _kernels.backend(),
            "lines": n_lines,
        },
    )
    if puncture is not None:
        report.details["puncture_radius"] = float(puncture[1])
    two_point = 0
    disagreements = 0
    through = None if puncture is None else puncture[0]
    for k in range(n_lines):
        anchor, direction, through_two = _random_line(tube, rng, through=through)
        two_point += through_two
        report.samples_run += 1
        violations, disagreed = _check_line(tube, anchor, direction, resolution,
                                            stability_factor, puncture)
        disagreements += disagreed
        for message in violations:
            report.record(f"line {k}: {message}")
    report.details["two_point_lines"] = two_point
    report.details["raster_disagreements"] = disagreements
    return report


# ----------------------------------------------------------------------
# duality identity


def verify_duality_identity(domain: ConvexDomain, n_samples=200, seed=0,
                            slack=1e-9, tol=1e-10) -> VerifierReport:
    """Tube duality, checked in both directions.

    Members of the dual tube must have kernels disjoint from the tube;
    separators of exterior points must land in the closed dual tube and
    vanish at their point.
    """
    tube = Tube(domain)
    dual_t, _ = dual_tube(domain)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    report = VerifierReport(
        name="duality_identity",
        tolerance=tol,
        seed=seed,
        details={"slack": slack, "dual_rep": type(dual_t.base.rep).__name__},
    )
    half = n_samples // 2
    # dual tube members: kernels avoid the tube, probed at 8 points each
    etas = dual_t.sample_points(rng, half)
    report.samples_run += half
    for eta in etas[_kernel_probes(tube, dual_t.chart.lift_rows(etas), rng, 8).any(axis=1)]:
        report.record(f"kernel of a dual tube member {eta} meets the tube")
    # exterior separators: in the closed dual tube, vanishing at the point
    if domain._rows is None:  # an ellipsoid has no functional family
        report.skipped += half
        report.details["separator_direction"] = "skipped (no functional family)"
        return report
    points = tube.sample_exterior(rng, half)
    report.samples_run += half
    lifts = domain.chart.lift_rows(points)
    coeffs, inside = _separator_rows(domain, lifts)
    if inside.any():
        raise InsideTubeError("the point lies inside the tube; no separator exists")
    values = _relative_values(coeffs, lifts)
    finite, defects = _dual_defects(dual_t, coeffs)
    for z, value, at_finite, defect in zip(points, values, finite, defects):
        report.observe(value)
        if value >= tol:
            report.record(f"separator fails to vanish at {z}", value)
        if not at_finite:
            report.record(f"separator at {z} lies at dual chart infinity")
            continue
        report.observe(max(defect, 0.0))
        if defect > slack:
            report.record(f"separator at {z} leaves the closed dual tube ({defect:.3e})", defect)
    return report


# ----------------------------------------------------------------------
# metric consistency


_UNIT_ROUNDOFF = 0.5 * np.finfo(np.float64).eps
# the first-order rounding constants of both routes, 42 and 28 (see
# _route_conditions), rounded up with room to spare
_ROUTE_SLACK = 64.0


def _route_conditions(domain: ConvexDomain, x, y):
    """Condition numbers ``(kappa_p, kappa_c)`` of the two routes that
    :func:`verify_metric_consistency` compares with the Hilbert distance h
    of each real pair x, y: each route differs from h by at most about
    ``c u kappa`` through rounding, with c below 64 and u the unit
    roundoff.

    Let (a, b) be the clip of the line ``x + t (y - x) / s``, s = |y - x|,
    so a < 0 < s < b, and L = b - a.  All three routes clip this line,
    with the same unit direction.

    * Hilbert route: ``h = log(((a - s) b) / (a (b - s))) / 2`` is a
      product of four differences of exact inputs, so its own error is a
      few u (with ``u h`` for the logarithm), inside ``tol``.
    * Tube route: the unit-disk coordinates ``m = -1 + 2 (t - a) / L``
      of t = 0 and t = s carry absolute errors of at most 3u and 4u, so
      ``num = |m_x - m_y|`` and ``den = |1 - m_x m_y|`` carry at most 9u
      and 10u, and ``d = log((den + num) / (den - num)) / 2`` moves by at
      most ``19 u den / (den^2 - num^2) <= 38 u P``, where
      ``den^2 - num^2 = (1 - m_x^2)(1 - m_y^2)`` and

          P = 1 / ((1 - m_x^2)(1 - m_y^2)) = L^4 / (16 (-a) b (s - a) (b - s)),

      which is ``cosh(d)^2 / den^2``: about ``cosh(d)^2`` for points on
      opposite sides of the slice centre, and larger when both sit near
      one end.  At d = 9.5 it is about 1e7, so rounding alone moves the
      route by about 1e-9.  Rounding ``num / den`` adds ``4 u P``.  So
      ``kappa_p = P``, with a constant of 38 + 4 = 42.
    * Cross-ratio route: it rebuilds the boundary points ``x + a dir`` and
      ``x + b dir`` and lifts all four points through the chart.  A point
      p moves by ``u |p|``, and its normalized lift by a few u; the 2 x 2
      determinant of two lifts is ``|t_i - t_j|`` times a factor of at
      least ``1 / (cond(M)^2 N_i N_j)``, with N = |(p, 1)| <= S = 1 + |x|
      + L and M the chart matrix.  Each of the four determinants thus has
      relative error at most ``7 u cond(M)^2 S^2 / |t_i - t_j|``, and the
      gaps -a <= s - a and b - s <= b bound them, so

          kappa_c = cond(M)^2 S^2 (1 / (-a) + 1 / (b - s))

      with a constant of 4 * 7 = 28.  It grows as the clip's length over
      its smallest boundary gap.
    """
    sep, _, a, b, _ = domain._pair_clips(x, y)
    length = b - a
    kappa_p = length ** 4 / (16.0 * -a * b * (sep - a) * (b - sep))
    scale = np.linalg.cond(domain.chart.matrix) * (1.0 + row_norms(x) + length)
    kappa_c = scale ** 2 * (1.0 / -a + 1.0 / (b - sep))
    return kappa_p, kappa_c


def verify_metric_consistency(domain: ConvexDomain, n_pairs=300, seed=0,
                              tol=1e-10) -> VerifierReport:
    """The Hilbert metric of the base agrees with the slice metric of the
    tube on real pairs, and the slice normalizations are coherent.

    Checks, per sampled configuration: Hilbert distance equals the
    two-point tube distance for real pairs; the cross-ratio route equals
    the endpoint-gauge route; the boundary angle satisfies
    ``u = 2 arctan(tanh d)`` against the core distance.

    A real pair's routes differ by ``err = |h - route| / max(1, h)``, and
    the pair fails when ``err max(1, h) >= tol max(1, h) + c u kappa``, with
    u the unit roundoff and kappa the route's condition number
    (:func:`_route_conditions`); the report shows ``err`` itself.  Every
    route, and the angle check's :meth:`Tube.u_value_rows` and
    :meth:`Tube.core_distance_rows`, runs once on all its samples, each row
    rounded as the one-point call rounds it.
    """
    tube = Tube(domain)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    report = VerifierReport(
        name="metric_consistency",
        tolerance=tol,
        seed=seed,
        details={"pairs": n_pairs},
    )
    pts = domain.sample_interior(rng, 2 * n_pairs)
    x, y = pts[0::2], pts[1::2]
    apart = row_norms(x - y) >= 1e-10
    report.skipped += n_pairs - int(apart.sum())
    x, y = x[apart], y[apart]
    report.samples_run += len(x)
    h = domain.hilbert_distance_rows(x, y)
    scale = np.maximum(1.0, h)
    kappa_p, kappa_c = _route_conditions(domain, x, y)
    routes = (
        ("hilbert vs tube distance differ", tube.real_pair_distances(x, y), kappa_p),
        ("cross-ratio route differs", domain.cross_ratio_rows(x, y), kappa_c),
    )
    for i in range(len(x)):
        for message, values, kappa in routes:
            diff = abs(values[i] - h[i])
            report.observe(diff / scale[i])
            if diff >= tol * scale[i] + _ROUTE_SLACK * _UNIT_ROUNDOFF * kappa[i]:
                report.record(f"{message} at {x[i]}, {y[i]}", diff / scale[i])
    # boundary angle vs core distance on non-real points
    zs = tube.sample_points(rng, max(1, n_pairs // 3))
    drawn = len(zs)
    zs = zs[~(row_norms(np.ascontiguousarray(zs.imag)) < 1e-9)]
    report.skipped += drawn - len(zs)
    report.samples_run += len(zs)
    angles = tube.u_value_rows(zs).tolist()
    dists = tube.core_distance_rows(zs)[0].tolist()
    for z, u, d in zip(zs, angles, dists):
        # the NumPy scalar calls of the one-point check, as they round
        err = abs(u - 2.0 * np.arctan(np.tanh(d)))
        report.observe(err)
        if err >= max(tol, 1e-9):
            report.record(f"angle/distance mismatch at {z}", err)
    return report


# ----------------------------------------------------------------------
# tangent homeomorphism


def verify_homeomorphism(domain: ConvexDomain, n_samples=200, seed=0,
                         tol=1e-9, group_elements=()) -> VerifierReport:
    """The tangent-vector chart of the tube is a bijection with the stated
    symmetries.

    Round trips point -> vector -> point and vector -> point -> vector must
    return to the start; conjugation of points negates vectors; the zero
    section is the real base; validated group elements act equivariantly.

    Each check runs once over all its points through the row forms
    (:func:`to_tangent_rows`, :func:`from_tangent_rows`,
    :meth:`Tube.core_distance_rows`, :func:`pushforward_rows`), which round
    every row as the one-point calls round it; the report, violations in
    their per-point order, is that of checking one point at a time.  The
    checks after the point round trip run only on the points that passed
    it, and a group element skips the points whose image or base image
    lies at chart infinity.  The vector round trip draws its samples in the
    one-point loop, a base from ``sample_interior(rng, 1)`` and then its
    direction and magnitude from ``rng.normal``, so that the generator
    stream, and with it every fixed-seed report, stays as it was; only the
    maps after the draws are batched.  A stage raises when one of its
    points raises in its one-point call; when several points would raise
    at different stages, the error can be another than the first one the
    one-point loop met.
    """
    tube = Tube(domain)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    report = VerifierReport(
        name="homeomorphism",
        tolerance=tol,
        seed=seed,
        details={"group_elements": len(group_elements)},
    )
    for g in group_elements:
        if not _preserves(domain, g):
            raise RepresentationError("a group element does not preserve the domain")
    zs = tube.sample_points(rng, n_samples)
    report.samples_run += len(zs)
    base, direction, magnitude = to_tangent_rows(tube, zs)
    trip = row_norms(from_tangent_rows(tube, base, direction, magnitude) - zs)
    # the later checks see the points whose round trip held (or gave NaN)
    kept = ~(trip >= tol)
    zk, base, direction, magnitude = zs[kept], base[kept], direction[kept], magnitude[kept]
    # conjugation negates the vector
    c_base, c_direction, c_magnitude = to_tangent_rows(tube, np.conj(zk))
    conj_err = (row_norms(c_base - base) + row_norms(c_direction + direction)
                + np.abs(c_magnitude - magnitude))
    # the foot agrees with the core projection
    dist, foot = tube.core_distance_rows(zk)
    core_err = np.abs(dist - magnitude) + row_norms(foot - base)
    group_err = [_equivariance_errors(tube, g, zk, base, direction, magnitude)
                 for g in group_elements]
    k = 0
    for z, err in zip(zs, trip.tolist()):
        report.observe(err)
        if err >= tol:
            report.record(f"point round trip failed at {z}", err)
            continue
        if magnitude[k] > 1e-12:
            report.observe(conj_err[k])
            if conj_err[k] >= max(tol, 1e-8):
                report.record(f"conjugation is not vector negation at {z}", conj_err[k])
        report.observe(core_err[k])
        if core_err[k] >= max(tol, 1e-8):
            report.record(f"core distance disagrees with the vector at {z}", core_err[k])
        # NaN marks a skipped point: it is neither observed nor recorded
        for gi, errs in enumerate(group_err):
            report.observe(errs[k])
            if errs[k] >= max(tol, 1e-7):
                report.record(f"element {gi} does not act equivariantly at {z}", errs[k])
        k += 1
    # zero section: interior real points map to zero vectors
    xs = domain.sample_interior(rng, max(1, n_samples // 4))
    report.samples_run += len(xs)
    z_base, _, z_magnitude = to_tangent_rows(tube, xs.astype(complex))
    for x, bad in zip(xs, (z_magnitude != 0.0) | (row_norms(z_base - xs) >= tol)):
        if bad:
            report.record(f"real point {x} does not map to a zero vector")
    # vector round trip
    count = max(1, n_samples // 4)
    v_base = np.empty((count, tube.n))
    v_direction = np.empty((count, tube.n))
    v_magnitude = np.empty(count)
    for i in range(count):
        v_base[i] = domain.sample_interior(rng, 1)[0]
        drawn = rng.normal(size=tube.n)
        drawn /= np.linalg.norm(drawn)
        v_direction[i] = drawn
        v_magnitude[i] = abs(rng.normal(0.0, 0.8)) + 1e-3
    report.samples_run += count
    back = to_tangent_rows(tube, from_tangent_rows(tube, v_base, v_direction, v_magnitude))
    errs = (row_norms(back[0] - v_base) + row_norms(back[1] - v_direction)
            + np.abs(back[2] - v_magnitude))
    for b, err in zip(v_base, errs):
        report.observe(err)
        if err >= max(tol, 1e-8):
            report.record(f"vector round trip failed at base {b}", err)
    return report


def _equivariance_errors(tube: Tube, g, z, base, direction, magnitude):
    """The equivariance error of the group element g at each point z, with
    tangent vector ``(base, direction, magnitude)``: the distance between
    the vector of ``g z`` and the pushforward of the vector (its direction
    up to sign).  NaN marks a point whose base image or image lies at
    chart infinity, which the check skips."""
    chart = tube.chart
    base_exp, base_on = chart.to_chart_rows(_rowdot(g.matrix, chart.lift_rows(base)))
    image, on = chart.to_chart_rows(_rowdot(g.matrix.astype(complex), chart.lift_rows(z)))
    on &= base_on
    errs = np.full(len(z), np.nan)
    if not on.any():
        return errs
    g_base, g_direction, g_magnitude = to_tangent_rows(tube, image[on])
    base_exp = base_exp[on]
    dir_exp = pushforward_rows(g, chart, base[on], direction[on])
    dir_exp = dir_exp / row_norms(dir_exp)[:, None]
    plus = row_norms(g_direction - dir_exp)
    minus = row_norms(g_direction + dir_exp)
    errs[on] = (row_norms(g_base - base_exp) + np.where(minus < plus, minus, plus)
                + np.abs(g_magnitude - magnitude[on]))
    return errs


# ----------------------------------------------------------------------
# exhaustion


def verify_exhaustion_monotone(domain: ConvexDomain, deltas=(0.6, 0.4, 0.2),
                               n_samples=200, seed=0) -> VerifierReport:
    """Tubes over a shrinking exhaustion are nested.

    ``deltas`` lists shrink parameters in any order; they are sorted from
    largest to smallest, so that the smallest domain comes first.  Every
    sample of a smaller tube must lie in every larger tube and in the full
    tube; absorption counts for full-tube samples are reported as details.
    """
    deltas = tuple(sorted(deltas, reverse=True))
    tube = Tube(domain)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    report = VerifierReport(
        name="exhaustion",
        tolerance=0.0,
        seed=seed,
        details={"deltas": ", ".join(format(d, ".3g") for d in deltas)},
    )
    stages = [Tube(domain.scaled_copy(d)) for d in deltas] + [tube]
    for i, small in enumerate(stages[:-1]):
        samples = small.sample_points(rng, n_samples // max(1, len(stages) - 1))
        report.samples_run += len(samples)
        inside = np.column_stack([big.contains_rows(samples) for big in stages[i + 1:]])
        for z in samples[~inside.all(axis=1)]:
            report.record(f"stage {i} sample {z} escapes a larger stage")
    zs = tube.sample_points(rng, n_samples // 2)
    report.samples_run += len(zs)
    # each sample counts at the smallest stage (largest delta) holding it;
    # index len(deltas) collects the samples no stage holds
    hit = np.full(len(zs), len(deltas))
    for idx in range(len(deltas) - 1, -1, -1):
        hit[stages[idx].contains_rows(zs)] = idx
    counts = np.bincount(hit, minlength=len(deltas) + 1)
    for idx, d in enumerate(deltas):
        report.details[f"absorbed_at_{format(d, '.3g')}"] = int(counts[idx])
    report.details["unabsorbed"] = int(counts[-1])
    return report
