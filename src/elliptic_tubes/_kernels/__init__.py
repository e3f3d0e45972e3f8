"""Membership forms on a complex line: raster kernels and exact topology.

Every membership test on a complex line ``z(w) = A + w B`` is the sign of a
Hermitian form in ``(1, w)``.  With ``w = x + i y``,

    f(w) = gamma + Re(beta w) + alpha |w|^2
         = (alpha x^2 + Re(beta) x) + (alpha y^2 - Im(beta) y + gamma),

a column term plus a row term, so the sign of ``f`` over a whole raster is
one broadcast comparison of two short vectors (`form_mask`) and no complex
grid arithmetic.  Comparing ``column > -row`` decides exactly the sign of
the rounded sum ``column + row``.  The column term is a parabola in x, so
on each row the inside set of one form is an interval or the complement
of one, and `form_runs` finds it by binary search, with the very
comparisons `form_mask` makes, as row runs (`mask_runs` gives the runs of
a bitmap and `paint_runs` the bitmap of runs).  The zero set of each form
is a circle, a line or at most a point, so the region where every form is
positive is bounded by circle arcs and segments (`_boundary_arcs`), and
`slice_topology` counts its components and holes from them, with no
pixels.  A line has one form per pair of functionals (15 on the 3-cube),
so the arcs are computed on Python floats with `math`, not on arrays:
NumPy's per-call cost outweighs arithmetic on a handful of numbers.  They round differently from an array evaluation in
the last bits, which the arcs' noise tolerances absorb (`slice_topology`).
`component_labels` labels graph components: the row runs in
`verify.run_counts`.

`pairwise_forms` and `ellipsoid_forms` build the forms; the kernels paint
`form_runs` of them.

Kernel contract
---------------
``form_runs(alpha, beta, gamma, w_re, w_im)``
    The pixels of ``form_mask`` (row i, column j holds ``w = w_re[j] + i
    w_im[i]``) as the maximal runs of set pixels, row by row: two int
    arrays ``(start, end)``, keyed ``i * (len(w_re) + 1) + j`` with ``end``
    exclusive, increasing.  A column term that rounding leaves not
    unimodal, or NaN, falls back to the runs of ``form_mask``.

``pairwise_bitmap(fam_a, fam_b, w_re, w_im)``
    For a functional family evaluated on a complex line ``z(w) = A + w B``
    the values are ``v_k(w) = fam_a[k] + w fam_b[k]``.  A pixel is inside
    the tube exactly when ``Re(v_p conj(v_q)) > 0`` for every pair
    ``p <= q``.  Returns a uint8 bitmap of shape ``(len(w_im), len(w_re))``.

``ellipsoid_bitmap(center, shape, aff_a, aff_b, w_re, w_im)``
    ``aff_a, aff_b`` are chart-evaluated lifts (n basis values plus the
    chart-infinity value last).  A pixel with chart value
    ``zeta = head / last`` is inside the tube over the ellipsoid exactly
    when ``(Re zeta - c)^T S (Re zeta - c) + (Im zeta)^T S (Im zeta) < 1``;
    pixels at chart infinity are outside (`_clear_chart_infinity` clears
    them from the painted runs).
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from ..domains import _div

_INFINITY_TOL = 1e-300


def backend():
    """Name of the kernel implementation (there is one: NumPy)."""
    return "numpy"


def _form_terms(alpha, beta, gamma, w_re, w_im):
    """``(alpha, cols, neg_rows)``: each form's column term ``alpha x^2 +
    Re(beta) x`` at every ``x`` of ``w_re``, (K, W), and its negated row
    term at every ``y`` of ``w_im``, (K, H)."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    beta = np.atleast_1d(np.asarray(beta, dtype=np.complex128))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=np.float64))
    x = np.asarray(w_re, dtype=np.float64)
    y = np.asarray(w_im, dtype=np.float64)
    cols = alpha[:, None] * (x * x) + beta.real[:, None] * x
    neg_rows = -(alpha[:, None] * (y * y) - beta.imag[:, None] * y + gamma[:, None])
    return alpha, cols, neg_rows


def form_mask(alpha, beta, gamma, w_re, w_im):
    """Pixels where every form ``gamma_k + Re(beta_k w) + alpha_k |w|^2``
    is > 0.

    ``alpha`` and ``gamma`` are real, ``beta`` complex, all of length K.
    Returns a bool array of shape ``(len(w_im), len(w_re))``.
    """
    _, cols, neg_rows = _form_terms(alpha, beta, gamma, w_re, w_im)
    mask = np.ones((neg_rows.shape[1], cols.shape[1]), dtype=bool)
    for col, neg_row in zip(cols, neg_rows):
        mask &= np.greater(col[None, :], neg_row[:, None])
    return mask


def form_runs(alpha, beta, gamma, w_re, w_im):
    """`form_mask` as row runs ``(start, end)``: the maximal runs of inside
    pixels, row by row, keyed ``row * (W + 1) + column`` with ``end``
    exclusive (`mask_runs`).

    Each form's column term is a parabola in ``x``.  A convex one (``alpha
    >= 0``) falls to its vertex (`argmin`) and rises after it, so on each
    row the columns where it is ``<= -row`` make one gap, found by
    `searchsorted` (``side="right"``) on the two monotone halves; those
    comparisons are exactly the negations of `form_mask`'s.  A concave one
    is negated, which is exact, and the columns where it is ``< row``
    (``side="left"``) make one interval.  Each row keeps the intersection
    of the intervals minus the union of the gaps.  A computed column term
    that is not unimodal (rounding can wiggle it near its vertex), and a
    NaN term, fall back to the runs of `form_mask`.
    """
    alpha, cols, neg_rows = _form_terms(alpha, beta, gamma, w_re, w_im)
    height, width = neg_rows.shape[1], cols.shape[1]
    sign = np.where(alpha >= 0.0, 1.0, -1.0)[:, None]
    cols, bounds = sign * cols, sign * neg_rows
    vertices = np.argmin(cols, axis=1)
    steps = np.arange(width - 1)[None, :] < vertices[:, None]
    unimodal = np.where(steps, cols[:, 1:] <= cols[:, :-1], cols[:, 1:] >= cols[:, :-1]).all()
    if not unimodal or np.isnan(cols).any() or np.isnan(bounds).any():
        return mask_runs(form_mask(alpha, beta, gamma, w_re, w_im))
    lo, hi = np.zeros(height, dtype=np.intp), np.full(height, width, dtype=np.intp)
    gaps = []
    for a, col, bound, vertex in zip(alpha, cols, bounds, vertices):
        side = "right" if a >= 0.0 else "left"
        first = vertex + 1 - np.searchsorted(col[vertex::-1], bound, side=side)
        stop = vertex + np.searchsorted(col[vertex:], bound, side=side)
        if a >= 0.0:
            gaps.append((first, stop))
        else:
            np.maximum(lo, first, out=lo)
            np.minimum(hi, stop, out=hi)
    if gaps:
        # the gaps clipped to [lo, hi), empty ones moved to hi, by start;
        # the runs lie between the running end of the gaps before and the
        # start of the next: [lo, s_0), [max e_<=0, s_1), ..., [max e, hi)
        gap_lo, gap_hi = (np.clip(np.array(part), lo, hi) for part in zip(*gaps))
        empty = gap_hi <= gap_lo
        gap_lo[empty] = gap_hi[empty] = np.broadcast_to(hi, gap_lo.shape)[empty]
        order = np.argsort(gap_lo, axis=0, kind="stable")
        gap_lo = np.take_along_axis(gap_lo, order, axis=0)
        gap_hi = np.maximum.accumulate(np.take_along_axis(gap_hi, order, axis=0), axis=0)
        lo, hi = np.vstack([lo, gap_hi]).T, np.vstack([gap_lo, hi]).T
    else:
        lo, hi = lo[:, None], hi[:, None]
    keep = lo < hi
    base = (np.arange(height) * (width + 1))[:, None]
    return (base + lo)[keep], (base + hi)[keep]


def mask_runs(mask):
    """The row runs ``(start, end)`` of a 2-D bitmap: the maximal runs of
    set pixels, row by row, each keyed ``row * (W + 1) + column`` with
    ``end`` exclusive, so that the keys increase along the rows."""
    mask = np.asarray(mask)
    rows, width = mask.shape
    framed = np.zeros((rows, width + 2), dtype=bool)
    framed[:, 1:-1] = mask
    # a run starts and ends (exclusively) at a change along its row, and
    # the flat index of a change is its key
    edges = np.flatnonzero(framed[:, 1:] != framed[:, :-1])
    return edges[0::2], edges[1::2]


def paint_runs(start, end, shape):
    """The uint8 bitmap of the given ``shape`` whose set pixels are the row
    runs ``(start, end)`` (keyed as by `mask_runs`)."""
    height, width = shape
    # along the flat rows of width + 1, gaps and runs alternate
    bounds = np.concatenate(([0], np.column_stack([start, end]).ravel(), [height * (width + 1)]))
    flat = np.repeat(np.arange(len(bounds) - 1) % 2 == 1, np.diff(bounds))
    return np.ascontiguousarray(flat.reshape(height, width + 1)[:, :width]).view(np.uint8)


def pairwise_forms(fam_a, fam_b):
    """``(alpha, beta, gamma)`` of the pair tests ``Re(v_q conj v_p) > 0``,
    ``p < q``, of the values ``v_k(w) = fam_a[k] + w fam_b[k]``.

    With two or more values the diagonal forms ``|v_p|^2 >= 0`` decide
    nothing: where ``v_p = 0`` every pair (p, q) vanishes as well.  A single
    value keeps its diagonal form.
    """
    a = np.asarray(fam_a, dtype=np.complex128)
    b = np.asarray(fam_b, dtype=np.complex128)
    p, q = _pair_indices(len(a))
    alpha = (b[q] * np.conj(b[p])).real
    beta = b[q] * np.conj(a[p]) + np.conj(a[q]) * b[p]
    gamma = (a[q] * np.conj(a[p])).real
    return alpha, beta, gamma


@functools.lru_cache(maxsize=64)
def _pair_indices(count):
    """The index pairs ``p < q`` of `pairwise_forms` for a family of
    ``count`` values (``(0, 0)`` alone for one value), built once per
    size and read-only."""
    pairs = np.triu_indices(count, k=1 if count > 1 else 0)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def ellipsoid_forms(center, shape, aff_a, aff_b):
    """``(alpha, beta, gamma)`` of the one form that is > 0 inside the tube
    over the ellipsoid, off chart infinity.

    With ``g(w) = head - c last = G (1, w)``, the test
    ``(zeta - c)^H S (zeta - c) < 1`` times ``|last|^2 > 0`` is
    ``(1, w)^H M (1, w) < 0`` with ``M = G^H S G - L^H L``; the form is the
    negated Hermitian part of M.
    """
    center = np.asarray(center, dtype=np.float64)
    shape = np.asarray(shape, dtype=np.float64)
    aff_a = np.asarray(aff_a, dtype=np.complex128)
    aff_b = np.asarray(aff_b, dtype=np.complex128)
    gen = np.column_stack([aff_a[:-1] - center * aff_a[-1],
                           aff_b[:-1] - center * aff_b[-1]])
    last = np.array([aff_a[-1], aff_b[-1]])
    mat = gen.conj().T @ shape @ gen - np.outer(last.conj(), last)
    return -mat[1, 1].real, -(mat[0, 1] + np.conj(mat[1, 0])), -mat[0, 0].real


def pairwise_bitmap(fam_a, fam_b, w_re, w_im):
    return paint_runs(*form_runs(*pairwise_forms(fam_a, fam_b), w_re, w_im),
                      (len(w_im), len(w_re)))


def ellipsoid_bitmap(center, shape, aff_a, aff_b, w_re, w_im):
    forms = ellipsoid_forms(center, shape, aff_a, aff_b)
    bitmap = paint_runs(*form_runs(*forms, w_re, w_im), (len(w_im), len(w_re)))
    _clear_chart_infinity(bitmap, np.complex128(aff_a[-1]), np.complex128(aff_b[-1]), w_re, w_im)
    return bitmap


# arc ends within this share of the boundary's extent are one vertex, and a
# cycle that small is rounding noise: where curves touch, rounding moves a
# double root by about the square root of the unit roundoff (1e-8) of it
_NOISE = 1e-7
# a discriminant within this share of its terms is zero: the form's zero
# set is at most a point, not a curve
_POINT = 64 * np.finfo(np.float64).eps
_TAU = 2.0 * math.pi
# the arguments, about a circle's centre, of its points farthest along each
# axis, and those points' unit offsets from the centre
_EXTREME = (0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi)
_TIPS = tuple(complex(math.cos(t), math.sin(t)) for t in _EXTREME)


class _Arc(NamedTuple):
    """One boundary arc of a slice region: the part ``start <= sigma <=
    stop`` of the zero curve ``w(sigma) = w0 + d t / (1 - i kappa t / 2)``,
    ``t = tan(sigma / 2)``, of one form, with the region on its left.
    ``n = i d`` is the curve's normal at ``w0``, its point nearest ``w =
    0``; ``whole`` marks a curve that no other form cuts, whose one arc
    runs from ``sigma = -pi`` round to ``pi``."""

    w0: complex
    d: complex
    n: complex
    kappa: float
    start: float
    stop: float
    whole: bool


def _boundary_arcs(alpha, beta, gamma):
    """The boundary arcs (`_Arc`) of the bounded open region where every
    form ``gamma_k + Re(beta_k w) + alpha_k |w|^2`` is > 0, curve by curve
    in the order of the sorted forms and along each curve by ``sigma``; an
    empty list when the region is empty.  An unbounded region raises
    ValueError.  `slice_topology` gives the construction."""
    beta = np.atleast_1d(np.asarray(beta, dtype=np.complex128))
    columns = np.broadcast_arrays(np.asarray(alpha, dtype=np.float64), beta.real, beta.imag,
                                  np.asarray(gamma, dtype=np.float64))
    forms = []
    for form in set(zip(*(column.ravel().tolist() for column in columns))):
        a, b_re, b_im, g = form
        size = math.hypot(b_re, b_im)
        if size * size - 4.0 * a * g > _POINT * (size * size + 4.0 * abs(a * g)):
            forms.append(form)
        elif not (a if a != 0.0 else g) > 0.0:
            return []
    forms.sort()

    coeffs, curves = [], []
    for a, b_re, b_im, g in forms:
        beta = complex(b_re, b_im)
        size = abs(beta)
        root = math.sqrt(size * size - 4.0 * a * g)
        if size > 0.0:
            scale = 1.0 / size
            n = complex(b_re * scale, -b_im * scale)
        else:
            n = 1.0 + 0.0j
        w0 = -2.0 * g / (size + root) * n
        d = -1j * n
        kappa = -2.0 * a / root
        e = d - 0.5j * kappa * w0
        coeffs.append((a, beta, g))
        curves.append((w0, d, n, kappa, (e * e.conjugate()).real, (w0.conjugate() * e).real,
                       (w0 * w0.conjugate()).real))
    if not any(a < 0.0 for a, _, _ in coeffs) and not any(c[3] == 0.0 for c in curves):
        raise ValueError("the region is unbounded")

    pi, tau, sin, cos, atan2 = math.pi, _TAU, math.sin, math.cos, math.atan2
    sqrt, copysign = math.sqrt, math.copysign
    arcs = []
    for k, (w0, d, n, kappa, e_e, w0_e, w0_w0) in enumerate(curves):
        # the quadratic A t^2 + B t + C of every other form on this curve,
        # and its stable roots as sigma = 2 atan2 of homogeneous pairs
        # (q : A), (C : q)
        quads, roots = [], []
        k_k, k_half = 0.25 * kappa * kappa, 0.5 * kappa
        for a, beta, g in coeffs[:k] + coeffs[k + 1:]:
            beta_w0 = (beta * w0).real
            beta_d = beta * d
            qa = k_k * (g + beta_w0) - k_half * beta_d.imag + a * e_e
            qb = beta_d.real + 2.0 * a * w0_e
            qc = g + beta_w0 + a * w0_w0
            quads.append((qa, qb, qc))
            q_disc = qb * qb - 4.0 * qa * qc
            if q_disc >= 0.0:
                q = -0.5 * (qb + copysign(sqrt(q_disc), qb))
                second = 2.0 * atan2(qc, q)
                first = second if q == 0.0 and qa == 0.0 else 2.0 * atan2(q, qa)
                roots += (pi - (pi - first) % tau, pi - (pi - second) % tau)
        # the intervals between consecutive roots, each around the curve
        # (sigma up to start + 2 pi); a curve with no root is one interval.
        # An interval is an arc when every other form is > 0 at its middle;
        # the form that rejected the last interval is tried first
        if roots:
            roots.sort()
            intervals = zip(roots, roots[1:] + [roots[0] + tau])
        else:
            intervals = ((-pi, pi),)
        for start, stop in intervals:
            half = 0.25 * (start + stop)
            s, c = sin(half), cos(half)
            i = 0
            for qa, qb, qc in quads:
                if not qa * s * s + qb * s * c + qc * c * c > 0.0:
                    if i:
                        quads.insert(0, quads.pop(i))
                    break
                i += 1
            else:
                if kappa == 0.0 and stop >= pi:
                    raise ValueError("the region is unbounded")
                arcs.append(_Arc(w0, d, n, kappa, start, stop, not roots))
    return arcs


def slice_topology(alpha, beta, gamma):
    """``(components, holes, bbox)`` of the bounded open region where every
    form ``f_k(w) = gamma_k + Re(beta_k w) + alpha_k |w|^2`` is > 0, from the
    circle arcs and segments that bound it (`_boundary_arcs`); ``bbox`` is
    ``((re_lo, re_hi), (im_lo, im_hi))`` of its closure, None when it is
    empty.  An unbounded region raises ValueError.

    A form whose zero set is at most a point has one sign off it: positive,
    it constrains nothing; otherwise the region is empty.  A repeated form
    bounds once.  Each zero curve is parametrized from its point nearest
    ``w = 0``: with ``D = |beta|^2 - 4 alpha gamma`` and ``n = conj(beta) /
    |beta|``,

        w(t) = s n - i n t / (1 - i kappa t / 2),
        s = -2 gamma / (|beta| + sqrt D),   kappa = -2 alpha / sqrt D,

    so that f_k grows to the left of the direction of travel and a line is
    just ``kappa = 0``.  Every other form times ``|1 - i kappa t / 2|^2`` is
    a real quadratic in t, whose stable roots cut the curve into arcs; the
    arcs where all of them are positive bound the region, on their left.
    ``t = tan(sigma / 2)`` keeps ``t = infinity`` an ordinary point.  An
    arc runs on to the arcs that start within ``_NOISE`` of the extent
    from its end and to the one that starts nearest it, and arcs joined
    so form a boundary cycle.  Its signed area, chords plus the segments
    ``(phi - sin phi) / (2 kappa^2)`` of turning angle phi, is positive for
    a component's outer boundary and negative for a hole; a cycle within
    ``_NOISE`` of the extent is rounding noise.  Cycles that touch at a
    point count as one.

    The body runs on Python floats and complex numbers with `math`: each
    step is a few operations per curve or pair of curves, and on arrays of
    at most a few dozen numbers NumPy's per-call cost outweighs them.  It
    rounds otherwise than an array evaluation in the last bits (NumPy's
    complex products may fuse multiply-adds, and its ``arctan2`` and
    ``abs`` round differently), which moves an arc end by about the unit
    roundoff of the extent, or by its square root where curves touch.  The
    tolerances above absorb both, so the counts are those of the array
    evaluation and the box agrees to about 1e-14 of its largest
    coordinate.  Only where rounding alone decides, at a tangency whose
    discriminant rounds to either sign, or at a crossing so shallow that
    its region's area is about the noise floor, can the counts differ.
    """
    arcs = _boundary_arcs(alpha, beta, gamma)
    if not arcs:
        return 0, 0, None
    pi, sin, cos, atan2 = math.pi, math.sin, math.cos, math.atan2
    firsts, lasts, segments, box = [], [], [], []
    for w0, d, n, kappa, start, stop, _ in arcs:
        s_a, c_a = sin(0.5 * start), cos(0.5 * start)
        s_b, c_b = sin(0.5 * stop), cos(0.5 * stop)
        p_a = w0 + d * s_a / (c_a - 0.5j * kappa * s_a)
        p_b = w0 + d * s_b / (c_b - 0.5j * kappa * s_b)
        firsts.append(p_a)
        lasts.append(p_b)
        box += (p_a, p_b)
        if kappa == 0.0:
            segments.append(0.0)
            continue
        # the turning angle theta = 2 atan(kappa t / 2) along the arc
        theta_a = 2.0 * atan2(0.5 * kappa * s_a, c_a)
        if stop > pi:
            half = 0.5 * (stop - _TAU)
            phi = 2.0 * atan2(0.5 * kappa * sin(half), cos(half)) - theta_a \
                + math.copysign(_TAU, kappa)
        else:
            phi = 2.0 * atan2(0.5 * kappa * s_b, c_b) - theta_a
        if abs(phi) < 1e-2:
            excess = phi ** 3 / 6.0 * (1.0 - phi * phi / 20.0 * (1.0 - phi * phi / 42.0))
        else:
            excess = phi - sin(phi)
        segments.append(_div(excess, 2.0 * kappa * kappa))
        # the box takes the circle's points farthest along an axis that lie
        # on the arc
        radial = -n / kappa  # w - centre at theta = 0, turning with theta
        angle = atan2(radial.imag, radial.real)
        turn = 1.0 if kappa > 0.0 else -1.0
        centre, radius = w0 + n / kappa, abs(kappa)
        for extreme, tip in zip(_EXTREME, _TIPS):
            if ((extreme - angle - theta_a) * turn) % _TAU <= abs(phi):
                box.append(centre + tip / radius)
    re = [p.real for p in box]
    im = [p.imag for p in box]
    bbox = ((min(re), max(re)), (min(im), max(im)))

    # the boundary cycles: an arc runs on to every arc that starts within
    # tol of its end, and to the one that starts nearest its end (itself
    # only when it is a whole curve); a union-find keeps each cycle's
    # least arc as its label
    tol = _NOISE * max(abs(bbox[0][0]), abs(bbox[0][1]), abs(bbox[1][0]), abs(bbox[1][1]))
    label = list(range(len(arcs)))
    for i, (p_b, arc) in enumerate(zip(lasts, arcs)):
        gaps = [abs(p_b - p_a) for p_a in firsts]
        gaps[i] = 0.0 if arc.whole else math.inf
        nearest = gaps.index(min(gaps))
        for j, gap in enumerate(gaps):
            if gap <= tol or j == nearest:
                root_i, root_j = i, j
                while label[root_i] != root_i:
                    root_i = label[root_i]
                while label[root_j] != root_j:
                    root_j = label[root_j]
                if root_i < root_j:
                    label[root_j] = root_i
                else:
                    label[root_i] = root_j
    # each cycle's area from chords about its own first vertex, so that the
    # rounding gaps where its arcs meet move a cycle within tol of a point
    # by about tol^2 at most; a cycle that small bounds nothing
    areas = {}
    for i, (p_a, p_b, segment) in enumerate(zip(firsts, lasts, segments)):
        cycle = i
        while label[cycle] != cycle:
            cycle = label[cycle]
        ref = firsts[cycle]
        area = 0.5 * ((p_a - ref).conjugate() * (p_b - ref)).imag + segment
        areas[cycle] = areas.get(cycle, 0.0) + area
    floor = tol * tol
    return (sum(area > floor for area in areas.values()),
            sum(area < -floor for area in areas.values()), bbox)


def component_labels(count, first, second):
    """The least node of each node's component in the undirected graph on
    nodes ``0 .. count - 1`` with edges ``(first[e], second[e])``, two
    integer arrays.

    Each round hooks the larger label of every edge whose ends differ onto
    the smaller, then follows the labels to their roots.  A label never
    exceeds its node and stays in its component, so when every edge joins
    equal labels each component carries its least node.
    """
    label = np.arange(count)
    while not np.array_equal(low := label[first], high := label[second]):
        np.minimum.at(label, np.maximum(low, high), np.minimum(low, high))
        while not np.array_equal(root := label[label], label):
            label = root
    return label


def _clear_chart_infinity(mask, last_a, last_b, w_re, w_im):
    """Clear the pixels where ``last_a + w last_b`` is zero to within
    ``_INFINITY_TOL``.

    For a positive shape the form is already >= 0 there in exact
    arithmetic; the guard keeps such pixels outside whatever the rounding
    (or an indefinite shape).  The zero of ``last`` is one point ``w0``, so
    only pixels within a rounding-safe radius of it are evaluated.
    """
    if last_b == 0:
        if not abs(last_a) > _INFINITY_TOL:
            mask[:] = False
        return
    w0 = -last_a / last_b
    radius = 1e-6 * (1.0 + abs(w0))
    x = np.asarray(w_re, dtype=np.float64)
    y = np.asarray(w_im, dtype=np.float64)
    cols = np.flatnonzero(np.abs(x - w0.real) <= radius)
    rows = np.flatnonzero(np.abs(y - w0.imag) <= radius)
    if len(cols) and len(rows):
        w = x[cols][None, :] + 1j * y[rows][:, None]
        mask[np.ix_(rows, cols)] &= np.abs(last_a + w * last_b) > _INFINITY_TOL
