"""Raster membership kernels.

Every membership test on a complex line ``z(w) = A + w B`` is the sign of a
Hermitian form in ``(1, w)``.  With ``w = x + i y``,

    f(w) = gamma + Re(beta w) + alpha |w|^2
         = (alpha x^2 + Re(beta) x) + (alpha y^2 - Im(beta) y + gamma),

a column term plus a row term, so the sign of ``f`` over a whole raster is
one broadcast comparison of two short vectors (`form_mask`) and no complex
grid arithmetic.  Comparing ``column > -row`` decides exactly the sign of
the rounded sum ``column + row``.

Kernel contract
---------------
``pairwise_bitmap(fam_a, fam_b, w_re, w_im)``
    For a functional family evaluated on a complex line ``z(w) = A + w B``
    the values are ``v_k(w) = fam_a[k] + w fam_b[k]``.  A pixel is inside
    the tube exactly when ``Re(v_p conj(v_q)) > 0`` for every pair
    ``p <= q``.  Returns a uint8 bitmap of shape ``(len(w_im), len(w_re))``
    (row i, column j holds ``w = w_re[j] + i w_im[i]``).

``ellipsoid_bitmap(center, shape, aff_a, aff_b, w_re, w_im)``
    ``aff_a, aff_b`` are chart-evaluated lifts (n basis values plus the
    chart-infinity value last).  A pixel with chart value
    ``zeta = head / last`` is inside the tube over the ellipsoid exactly
    when ``(Re zeta - c)^T S (Re zeta - c) + (Im zeta)^T S (Im zeta) < 1``;
    pixels at chart infinity are outside.
"""

import numpy as np

_INFINITY_TOL = 1e-300


def backend():
    """Name of the kernel implementation (there is one: NumPy)."""
    return "numpy"


def form_mask(alpha, beta, gamma, w_re, w_im, negative=False):
    """Pixels where every form ``gamma_k + Re(beta_k w) + alpha_k |w|^2``
    is > 0 (or < 0 when ``negative``).

    ``alpha`` and ``gamma`` are real, ``beta`` complex, all of length K.
    Returns a bool array of shape ``(len(w_im), len(w_re))``.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    beta = np.atleast_1d(np.asarray(beta, dtype=np.complex128))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=np.float64))
    x = np.asarray(w_re, dtype=np.float64)
    y = np.asarray(w_im, dtype=np.float64)
    cols = alpha[:, None] * (x * x) + beta.real[:, None] * x
    neg_rows = -(alpha[:, None] * (y * y) - beta.imag[:, None] * y + gamma[:, None])
    compare = np.less if negative else np.greater
    mask = np.ones((len(y), len(x)), dtype=bool)
    for col, neg_row in zip(cols, neg_rows):
        mask &= compare(col[None, :], neg_row[:, None])
    return mask


def pairwise_bitmap(fam_a, fam_b, w_re, w_im):
    a = np.asarray(fam_a, dtype=np.complex128)
    b = np.asarray(fam_b, dtype=np.complex128)
    # With two or more values the diagonal forms |v_p|^2 >= 0 decide
    # nothing: where v_p = 0 every pair (p, q) vanishes as well.
    p, q = np.triu_indices(len(a), k=1 if len(a) > 1 else 0)
    alpha = (b[q] * np.conj(b[p])).real
    beta = b[q] * np.conj(a[p]) + np.conj(a[q]) * b[p]
    gamma = (a[q] * np.conj(a[p])).real
    return form_mask(alpha, beta, gamma, w_re, w_im).view(np.uint8)


def ellipsoid_bitmap(center, shape, aff_a, aff_b, w_re, w_im):
    center = np.asarray(center, dtype=np.float64)
    shape = np.asarray(shape, dtype=np.float64)
    aff_a = np.asarray(aff_a, dtype=np.complex128)
    aff_b = np.asarray(aff_b, dtype=np.complex128)
    # g(w) = head - c last = G (1, w); the test (zeta - c)^H S (zeta - c) < 1
    # times |last|^2 > 0 is (1, w)^H M (1, w) < 0 with
    # M = G^H S G - L^H L, whose Hermitian part gives the form.
    gen = np.column_stack([aff_a[:-1] - center * aff_a[-1],
                           aff_b[:-1] - center * aff_b[-1]])
    last = np.array([aff_a[-1], aff_b[-1]])
    mat = gen.conj().T @ shape @ gen - np.outer(last.conj(), last)
    mask = form_mask(mat[1, 1].real, mat[0, 1] + np.conj(mat[1, 0]), mat[0, 0].real,
                     w_re, w_im, negative=True)
    _clear_chart_infinity(mask, aff_a[-1], aff_b[-1], w_re, w_im)
    return mask.view(np.uint8)


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
