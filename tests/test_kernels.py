from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from elliptic_tubes import _kernels
from elliptic_tubes import catalog
from elliptic_tubes.domspec import load_domain
from elliptic_tubes.tube import Tube
from elliptic_tubes.verify import (
    _line_forms,
    _random_line,
    _raster_window,
    connectivity_counts,
    rasterize_line,
    run_counts,
)

# Differing pixels must sit on a test whose exact value is zero to within
# this multiple of the size of its terms.
_ROUNDING = 1e-12


# ----------------------------------------------------------------------
# reference: the complex-grid kernels and the puncture loop the form
# kernels replaced, kept verbatim


def _reference_pairwise(fam_a, fam_b, w_re, w_im):
    fam_a = np.asarray(fam_a, dtype=np.complex128)
    fam_b = np.asarray(fam_b, dtype=np.complex128)
    w = np.asarray(w_re, dtype=np.float64)[None, :] + 1j * np.asarray(
        w_im, dtype=np.float64
    )[:, None]
    m = len(fam_a)
    vals = fam_a[:, None, None] + w[None, :, :] * fam_b[:, None, None]
    ok = np.ones(w.shape, dtype=bool)
    for p in range(m):
        vp_conj = np.conj(vals[p])
        for q in range(p, m):
            ok &= (vals[q] * vp_conj).real > 0.0
    return ok.astype(np.uint8)


def _reference_ellipsoid(center, shape, aff_a, aff_b, w_re, w_im):
    center = np.asarray(center, dtype=np.float64)
    shape = np.asarray(shape, dtype=np.float64)
    aff_a = np.asarray(aff_a, dtype=np.complex128)
    aff_b = np.asarray(aff_b, dtype=np.complex128)
    w = np.asarray(w_re, dtype=np.float64)[None, :] + 1j * np.asarray(
        w_im, dtype=np.float64
    )[:, None]
    last = aff_a[-1] + w * aff_b[-1]
    finite = np.abs(last) > 1e-300
    safe_last = np.where(finite, last, 1.0)
    head = aff_a[:-1, None, None] + w[None, :, :] * aff_b[:-1, None, None]
    zeta = head / safe_last[None, :, :]
    u = zeta.real - center[:, None, None]
    v = zeta.imag
    q = np.einsum("irc,ij,jrc->rc", u, shape, u) + np.einsum(
        "irc,ij,jrc->rc", v, shape, v
    )
    ok = finite & np.isfinite(q) & (q < 1.0)
    return ok.astype(np.uint8)


def _reference_puncture(anchor, direction, p_center, p_radius, w_re, w_im):
    w = w_re[None, :] + 1j * w_im[:, None]
    dist2 = np.zeros(w.shape)
    for j in range(len(anchor)):
        dist2 += np.abs(anchor[j] + w * direction[j] - p_center[j]) ** 2
    return (dist2 > p_radius * p_radius).astype(np.uint8)


# ----------------------------------------------------------------------
# exact values with fractions.Fraction: (value, size of its terms)


def _fc(z):
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _affine(a, b, w):
    """Exact a + w b for complex floats a, b and a Fraction pair w."""
    (ar, ai), (br, bi) = _fc(a), _fc(b)
    return ar + w[0] * br - w[1] * bi, ai + w[0] * bi + w[1] * br


def _w(raster_w_re, raster_w_im, i, j):
    return Fraction(float(raster_w_re[j])), Fraction(float(raster_w_im[i]))


def _pair_values(fam_a, fam_b, w):
    """Exact Re(v_q conj v_p) for every pair p <= q."""
    wabs = float(np.hypot(w[0], w[1]))
    vals = [_affine(a, b, w) for a, b in zip(fam_a, fam_b)]
    sizes = [abs(a) + wabs * abs(b) for a, b in zip(fam_a, fam_b)]
    out = []
    for p in range(len(vals)):
        for q in range(p, len(vals)):
            value = vals[q][0] * vals[p][0] + vals[q][1] * vals[p][1]
            out.append((value, sizes[p] * sizes[q]))
    return out


def _ellipsoid_values(center, shape, aff_a, aff_b, w):
    """Exact |last|^2 and (zeta - c)^H S (zeta - c) - 1 times |last|^2."""
    wabs = float(np.hypot(w[0], w[1]))
    lr, li = _affine(aff_a[-1], aff_b[-1], w)
    g_re, g_im = [], []
    for k in range(len(center)):
        hr, hi = _affine(aff_a[k], aff_b[k], w)
        c = Fraction(float(center[k]))
        g_re.append(hr - c * lr)
        g_im.append(hi - c * li)
    s = [[Fraction(float(x)) for x in row] for row in shape]
    n = len(center)
    quad = sum(s[p][q] * (g_re[p] * g_re[q] + g_im[p] * g_im[q])
               for p in range(n) for q in range(n))
    last2 = lr * lr + li * li
    size = abs(aff_a) + wabs * abs(aff_b)
    scale = np.abs(shape).sum() * (np.sum(size[:-1]) + np.abs(center).sum() * size[-1]) ** 2
    return last2, (quad - last2, scale + size[-1] ** 2)


def _puncture_value(anchor, direction, p_center, p_radius, w):
    wabs = float(np.hypot(w[0], w[1]))
    total = -Fraction(float(p_radius)) ** 2
    scale = float(p_radius) ** 2
    for a, b, c in zip(anchor, direction, p_center):
        vr, vi = _affine(a, b, w)
        cr, ci = _fc(c)
        total += (vr - cr) ** 2 + (vi - ci) ** 2
        scale += (abs(a) + abs(c) + wabs * abs(b)) ** 2
    return total, scale


def _near_zero(value, scale):
    return abs(value) <= _ROUNDING * scale


def _differing(got, want, explain):
    """Count the pixels where ``got`` and ``want`` differ, and fail unless
    ``explain(i, j)`` shows each one sits on a test that is zero to within
    rounding."""
    assert got.shape == want.shape and got.dtype == np.uint8
    rows, cols = np.nonzero(got != want)
    unexplained = [(int(i), int(j)) for i, j in zip(rows, cols) if not explain(i, j)]
    assert not unexplained, (
        f"{len(rows)} differing pixels, {len(unexplained)} not within rounding "
        f"of a test's zero, first at {unexplained[:5]}"
    )
    return len(rows)


def _pairwise_explainer(fam_a, fam_b, w_re, w_im):
    def explain(i, j):
        return any(_near_zero(v, s) for v, s in _pair_values(fam_a, fam_b, _w(w_re, w_im, i, j)))
    return explain


def _ellipsoid_explainer(center, shape, aff_a, aff_b, w_re, w_im):
    def explain(i, j):
        last2, (value, scale) = _ellipsoid_values(center, shape, aff_a, aff_b,
                                                  _w(w_re, w_im, i, j))
        return _near_zero(last2, scale) or _near_zero(value, scale)
    return explain


# ----------------------------------------------------------------------


def _pairwise_inputs(rng, m=5, res=64):
    fam_a = rng.normal(size=m) + 1j * rng.normal(size=m)
    fam_b = rng.normal(size=m) + 1j * rng.normal(size=m)
    w_re = np.linspace(-2.0, 2.0, res)
    w_im = np.linspace(-1.5, 1.5, res)
    return fam_a, fam_b, w_re, w_im


def test_backend_reported():
    assert _kernels.backend() == "numpy"


def test_pairwise_matches_bruteforce(rng):
    fam_a, fam_b, w_re, w_im = _pairwise_inputs(rng, m=4, res=32)
    bitmap = _kernels.pairwise_bitmap(fam_a, fam_b, w_re, w_im)
    assert bitmap.shape == (32, 32)
    assert bitmap.dtype == np.uint8
    for i in range(0, 32, 5):
        for j in range(0, 32, 5):
            w = w_re[j] + 1j * w_im[i]
            vals = fam_a + w * fam_b
            gram = np.real(np.outer(vals, np.conj(vals)))
            want = bool(np.all(gram[np.triu_indices_from(gram)] > 0.0))
            assert bool(bitmap[i, j]) == want


def test_ellipsoid_matches_direct(rng, ellipse):
    center, shape = ellipse.ellipsoid_data()
    aff_a = np.array([0.1 + 0j, 0.05 + 0j, 1.0 + 0j])
    aff_b = np.array([1.0 + 0.2j, 0.3 - 0.1j, 0.0 + 0j])
    w_re = np.linspace(-1.5, 1.5, 48)
    w_im = np.linspace(-1.0, 1.0, 48)
    bitmap = _kernels.ellipsoid_bitmap(center, shape, aff_a, aff_b, w_re, w_im)
    for i in range(0, 48, 7):
        for j in range(0, 48, 7):
            w = w_re[j] + 1j * w_im[i]
            lift = aff_a + w * aff_b
            zeta = lift[:2] / lift[2]
            x, y = zeta.real - center, zeta.imag
            want = (x @ shape @ x + y @ shape @ y) < 1.0
            assert bool(bitmap[i, j]) == want


def _arc_window(tube, anchor, direction, resolution, puncture=None):
    """The window the C-convexity check rasters over: the arcs' box, padded."""
    bbox = _kernels.slice_topology(*_line_forms(tube, anchor, direction, puncture))[2]
    return _raster_window(bbox, resolution)


def _reference_raster(tube, raster):
    """The reference bitmap on the raster's own grid, and its explainer."""
    args_w = (raster.w_re, raster.w_im)
    if tube.base._rows is not None:
        rows = tube.base.rows()
        fam = (rows @ np.append(raster.anchor, 1.0), rows @ np.append(raster.direction, 0.0))
        return _reference_pairwise(*fam, *args_w), _pairwise_explainer(*fam, *args_w)
    center, shape = tube.base.ellipsoid_data()
    aff = (np.append(raster.anchor, 1.0), np.append(raster.direction, 0.0))
    return (_reference_ellipsoid(center, shape, *aff, *args_w),
            _ellipsoid_explainer(center, shape, *aff, *args_w))


@pytest.mark.parametrize("resolution", [256, 512, 1024])
@pytest.mark.parametrize("name", ["triangle", "square", "simplex", "ellipse", "disk"])
def test_kernels_match_reference_on_verifier_lines(name, resolution):
    tube = Tube(catalog.by_name(name))
    rng = np.random.default_rng(np.random.SeedSequence([resolution]))
    pixels = differing = 0
    for _ in range(3):
        anchor, direction, _ = _random_line(tube, rng)
        window = _arc_window(tube, anchor, direction, resolution)
        raster = rasterize_line(tube, anchor, direction, resolution=resolution, window=window)
        want, explain = _reference_raster(tube, raster)
        differing += _differing(raster.bitmap, want, explain)
        pixels += want.size
    print(f"{name} at {resolution}: {differing} of {pixels} pixels differ")


def test_puncture_matches_reference_on_control_lines():
    # criterion 08's negative control: triangle, seed 5, six lines
    tube = Tube(catalog.triangle())
    center, radius = np.array([0.25, 0.25]), 0.08
    rng = np.random.default_rng(np.random.SeedSequence([5]))
    pixels = differing = holed = 0
    for _ in range(6):
        anchor, direction, _ = _random_line(tube, rng, through=center)
        window = _arc_window(tube, anchor, direction, 512, (center, radius))
        for resolution in (512, 1024):
            raster = rasterize_line(tube, anchor, direction, resolution=resolution,
                                    window=window, puncture=(center, radius))
            kernel, explain_kernel = _reference_raster(tube, raster)
            mask = _reference_puncture(raster.anchor, raster.direction, center, radius,
                                       raster.w_re, raster.w_im)
            holed += int((kernel & (1 - mask)).any())

            def explain(i, j):
                value, scale = _puncture_value(
                    raster.anchor, raster.direction, center, radius,
                    _w(raster.w_re, raster.w_im, i, j))
                return _near_zero(value, scale) or explain_kernel(i, j)

            differing += _differing(raster.bitmap, kernel & mask, explain)
            pixels += mask.size
    assert holed  # the puncture meets the region on some line
    print(f"punctured control: {differing} of {pixels} pixels differ")


_coord = st.floats(-3.0, 3.0)
_complex = st.builds(complex, _coord, _coord)


def _floats(m, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=m, max_size=m).map(np.array)


@st.composite
def _grid(draw):
    """Pixel centres of a random non-square window that holds w = 0."""
    span = draw(st.floats(0.05, 4.0))
    x0, y0 = draw(st.floats(-1.0, -0.01)), draw(st.floats(-1.0, -0.01))
    x1, y1 = draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0))
    nx, ny = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    return span * np.linspace(x0, x1, nx), span * np.linspace(y0, y1, ny)


def _fill_event(bitmap):
    filled = int(bitmap.sum())
    event("filled: " + ("none" if filled == 0 else "all" if filled == bitmap.size else "some"))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pairwise_matches_reference_on_random_families(data):
    m = data.draw(st.integers(1, 7), label="m")
    # at w = 0 the values lie in an arc narrower than pi/2, so the region
    # holds a neighbourhood of 0 and its boundary crosses most windows
    turn = data.draw(st.floats(-np.pi, np.pi), label="turn")
    fam_a = data.draw(_floats(m, 0.1, 3.0)) * np.exp(1j * (turn + data.draw(_floats(m, 0.0, 1.5))))
    fam_b = np.array(data.draw(st.lists(_complex, min_size=m, max_size=m)))
    zero_b = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    fam_b[zero_b] = 0.0
    w_re, w_im = data.draw(_grid())
    got = _kernels.pairwise_bitmap(fam_a, fam_b, w_re, w_im)
    want = _reference_pairwise(fam_a, fam_b, w_re, w_im)
    n = _differing(got, want, _pairwise_explainer(fam_a, fam_b, w_re, w_im))
    event(f"differing pixels: {n}")
    _fill_event(want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ellipsoid_matches_reference_on_random_ellipsoids(data):
    n = data.draw(st.integers(1, 3), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    center = rng.normal(size=n) * 0.5
    mat = rng.normal(size=(n, n))
    shape = mat @ mat.T + 0.2 * np.eye(n)
    aff_b = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    if data.draw(st.booleans(), label="affine chart"):
        # w = 0 maps near the centre, so the region meets the window
        aff_a = np.append(center + 0.3 * rng.normal(size=n), 1.0)
        aff_b[-1] = 0.0
    else:
        # w = 0 is the chart-infinity point, inside the window
        aff_a = np.append(rng.normal(size=n) + 1j * rng.normal(size=n), 0.0)
    w_re, w_im = data.draw(_grid())
    got = _kernels.ellipsoid_bitmap(center, shape, aff_a, aff_b, w_re, w_im)
    want = _reference_ellipsoid(center, shape, aff_a, aff_b, w_re, w_im)
    n_diff = _differing(got, want, _ellipsoid_explainer(center, shape, aff_a, aff_b, w_re, w_im))
    event(f"differing pixels: {n_diff}")
    _fill_event(want)


def test_ellipsoid_pixel_at_chart_infinity_is_outside():
    center, shape = catalog.ellipse().ellipsoid_data()
    # last = w: chart infinity is the centre pixel w = 0 of an odd grid
    aff_a = np.array([0.3 + 0.1j, -0.2 + 0j, 0.0])
    aff_b = np.array([0.0, 0.0, 1.0 + 0j])
    w = np.linspace(-2.0, 2.0, 41)
    got = _kernels.ellipsoid_bitmap(center, shape, aff_a, aff_b, w, w)
    assert got[20, 20] == 0
    np.testing.assert_array_equal(
        got, _reference_ellipsoid(center, shape, aff_a, aff_b, w, w))
    assert got.any()  # far from w = 0 the chart value approaches the centre
    # With a negative definite shape every finite pixel passes and the form
    # is negative at chart infinity too, so only the guard keeps it outside.
    got = _kernels.ellipsoid_bitmap(center, -np.eye(2), aff_a, aff_b, w, w)
    np.testing.assert_array_equal(
        got, _reference_ellipsoid(center, -np.eye(2), aff_a, aff_b, w, w))
    assert got[20, 20] == 0 and got.sum() == got.size - 1


# ----------------------------------------------------------------------
# row runs

_CUBE3 = Path(__file__).resolve().parents[1] / "perfbench" / "cube3.dom"


@pytest.fixture
def mask_calls(monkeypatch):
    """The calls to `_kernels.form_mask`, the fallback of the run kernel."""
    calls = []
    original = _kernels.form_mask

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_kernels, "form_mask", counted)
    return calls


def _assert_runs_of_mask(runs, mask):
    want = _kernels.mask_runs(mask)
    np.testing.assert_array_equal(runs[0], want[0])
    np.testing.assert_array_equal(runs[1], want[1])
    np.testing.assert_array_equal(_kernels.paint_runs(*runs, mask.shape), mask.view(np.uint8))
    assert run_counts(*runs, mask.shape[1] + 1) == connectivity_counts(mask)


@pytest.mark.parametrize("resolution", [512, 1024])
@pytest.mark.parametrize("name", catalog.names() + ["cube3"])
def test_form_runs_are_the_mask_runs_on_verifier_lines(name, resolution, mask_calls):
    tube = Tube(load_domain(str(_CUBE3)).domain if name == "cube3" else catalog.by_name(name))
    rng = np.random.default_rng(np.random.SeedSequence([resolution, 21]))
    for k in range(6):
        puncture = None
        if k % 2:  # through a real point of the base, with a hole round it
            center = tube.sample_points(rng, 1)[0].real
            puncture = (center, 0.05)
        anchor, direction, _ = _random_line(tube, rng, through=None if puncture is None else center)
        forms = _line_forms(tube, anchor, direction, puncture)
        window = _raster_window(_kernels.slice_topology(*forms)[2], resolution)
        raster = rasterize_line(tube, anchor, direction, resolution=resolution, window=window,
                                puncture=puncture)
        assert not mask_calls  # the binary search decided every row
        _assert_runs_of_mask(raster.runs, _kernels.form_mask(*forms, raster.w_re, raster.w_im))
        mask_calls.clear()


def test_a_column_term_that_is_not_unimodal_falls_back_to_the_mask(mask_calls):
    # the disk |w - c| < r far from w = 0 in a window a few r wide: the
    # column term -x^2 + 2 c x is about c^2, and its steps are below the
    # rounding of that
    c, r = 1e4, 1e-4
    forms = (np.array([-1.0]), np.array([2.0 * c + 0j]), np.array([r * r - c * c]))
    w_re, w_im = c + np.linspace(-2.0 * r, 2.0 * r, 64), np.linspace(-2.0 * r, 2.0 * r, 64)
    runs = _kernels.form_runs(*forms, w_re, w_im)
    assert len(mask_calls) == 1
    mask = _kernels.form_mask(*forms, w_re, w_im)
    assert mask.any() and not mask.all()
    _assert_runs_of_mask(runs, mask)


def test_an_ellipsoid_line_through_chart_infinity_is_cleared_without_the_mask(mask_calls):
    center = catalog.ellipse().ellipsoid_data()[0]
    w = np.linspace(-2.0, 2.0, 41)
    # last = w: chart infinity is the centre pixel w = 0; with a negative
    # definite shape every finite pixel passes and only the clearing keeps
    # that one outside
    aff_a = np.array([0.3 + 0.1j, -0.2 + 0j, 0.0])
    got = _kernels.ellipsoid_bitmap(center, -np.eye(2), aff_a, np.array([0.0, 0.0, 1.0 + 0j]),
                                    w, w)
    assert got[20, 20] == 0 and got.sum() == got.size - 1
    # last = 0 on the whole line: every pixel is at chart infinity
    got = _kernels.ellipsoid_bitmap(center, -np.eye(2), aff_a, np.zeros(3, dtype=complex), w, w)
    assert not got.any()
    assert not mask_calls  # the run kernel decided every row


@pytest.mark.parametrize("m", [1, 3])
def test_pixel_on_a_zero_of_a_value_is_outside(m):
    # v_0(w) = w vanishes at the centre pixel w = 0 of an odd grid
    fam_a = np.array([0.0, 1.0 + 0.2j, 0.8 + 0.5j][:m])
    fam_b = np.array([1.0 + 0j, 0.1j, -0.1][:m])
    w = np.linspace(-0.5, 0.5, 21)
    got = _kernels.pairwise_bitmap(fam_a, fam_b, w, w)
    np.testing.assert_array_equal(got, _reference_pairwise(fam_a, fam_b, w, w))
    assert got[10, 10] == 0 and got.any()


# ----------------------------------------------------------------------
# component labelling


def _reference_least_labels(count, first, second):
    """The least node of each node's component, from scipy's labelling."""
    graph = sparse.coo_matrix((np.ones(len(first), dtype=np.int8), (first, second)),
                              shape=(count, count))
    _, comp = connected_components(graph, directed=False)
    least = np.full(count, count)
    np.minimum.at(least, comp, np.arange(count))
    return least[comp]


def _deep_path(depth):
    """Node numbers along a path of ``2^depth + 1`` nodes on which each
    round of hooking leaves the path's local minima, in the same pattern
    one level down, so labelling needs ``depth + 1`` rounds: the previous
    level's numbers sit at the even places and larger ones between them."""
    order = [1, 0]
    for _ in range(depth):
        top = len(order)
        order = [v for low, high in zip(order, range(top, 2 * top)) for v in (low, high)][:-1]
    return order


@st.composite
def _graphs(draw):
    """``(count, first, second)``: a random edge list, with no nodes,
    isolated nodes, self-loops and repeated edges among its cases, or a
    deep path (`_deep_path`) with its edges shuffled and turned."""
    if draw(st.booleans()):
        order = _deep_path(draw(st.integers(0, 9)))
        rand = draw(st.randoms(use_true_random=False))
        edges = [e[::-1] if rand.random() < 0.5 else e for e in zip(order[:-1], order[1:])]
        rand.shuffle(edges)
        count = len(order)
    else:
        count = draw(st.integers(0, 40))
        node = st.integers(0, max(count - 1, 0))
        edges = draw(st.lists(st.tuples(node, node), max_size=80 if count else 0))
        event("graph" if count else "no nodes")
    first = np.array([e[0] for e in edges], dtype=np.intp)
    second = np.array([e[1] for e in edges], dtype=np.intp)
    return count, first, second


@settings(max_examples=300, deadline=None)
@given(_graphs())
@example((0, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)))
@example((3, np.array([2, 2, 1, 2]), np.array([2, 1, 2, 1])))
def test_component_labels_are_least_nodes(graph):
    count, first, second = graph
    labels = _kernels.component_labels(count, first, second)
    np.testing.assert_array_equal(labels, _reference_least_labels(count, first, second))


# ----------------------------------------------------------------------
# slice topology: the float body against the NumPy body it replaced, kept
# verbatim as the reference


def _reference_slice_topology(alpha, beta, gamma):
    """The NumPy body of `_kernels.slice_topology`, from before it ran on
    Python floats; the module's tolerances and labelling."""
    beta = np.atleast_1d(np.asarray(beta, dtype=np.complex128))
    forms = np.unique(np.column_stack(np.broadcast_arrays(
        alpha, beta.real, beta.imag, gamma)).astype(np.float64), axis=0)
    alpha, beta, gamma = forms[:, 0], forms[:, 1] + 1j * forms[:, 2], forms[:, 3]
    size = np.abs(beta)
    disc = size * size - 4.0 * alpha * gamma
    curve = disc > _kernels._POINT * (size * size + 4.0 * np.abs(alpha * gamma))
    if not np.all(np.where(alpha != 0.0, alpha, gamma)[~curve] > 0.0):
        return 0, 0, None
    alpha, beta, gamma, size, root = (alpha[curve], beta[curve], gamma[curve], size[curve],
                                      np.sqrt(disc[curve]))
    count = len(alpha)

    n = np.where(size > 0.0, np.conj(beta) / np.where(size > 0.0, size, 1.0), 1.0)
    w0 = -2.0 * gamma / (size + root) * n
    d = -1j * n
    kappa = -2.0 * alpha / root
    line = kappa == 0.0

    # the quadratic of form j on curve k, A t^2 + B t + C, at [k, j]
    e = d - 0.5j * kappa * w0
    kap = kappa[:, None]
    beta_w0 = (beta[None, :] * w0[:, None]).real
    beta_d = beta[None, :] * d[:, None]
    qa = 0.25 * kap * kap * (gamma + beta_w0) - 0.5 * kap * beta_d.imag \
        + alpha * (e * e.conj()).real[:, None]
    qb = beta_d.real + 2.0 * alpha * (w0.conj() * e).real[:, None]
    qc = gamma + beta_w0 + alpha * (w0 * w0.conj()).real[:, None]
    # stable roots as sigma = 2 atan2 of homogeneous pairs (q : A), (C : q)
    q_disc = qb * qb - 4.0 * qa * qc
    q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(q_disc, 0.0)), qb))
    second = 2.0 * np.arctan2(qc, q)
    first = np.where((q == 0.0) & (qa == 0.0), second, 2.0 * np.arctan2(q, qa))
    roots = np.pi - np.mod(np.pi - np.stack([first, second], axis=2), 2.0 * np.pi)
    other = ~np.eye(count, dtype=bool)
    roots[~((q_disc >= 0.0) & other)] = np.nan
    roots = np.sort(roots.reshape(count, 2 * count), axis=1)  # NaN last

    # the intervals between consecutive roots, each around the curve
    # (sigma up to start + 2 pi); a curve with no root is one interval
    ends = np.sum(~np.isnan(roots), axis=1)[:, None]
    idx = np.arange(2 * count)[None, :]
    wrap = idx + 1 >= ends
    start = np.where(ends > 0, roots, -np.pi)
    stop = np.take_along_axis(roots, np.where(wrap, 0, idx + 1), axis=1)
    stop = np.where(ends > 0, stop + np.where(wrap, 2.0 * np.pi, 0.0), np.pi)
    mid = 0.5 * (start + stop)
    s, c = np.sin(0.5 * mid)[:, :, None], np.cos(0.5 * mid)[:, :, None]
    value = qa[:, None, :] * s * s + qb[:, None, :] * s * c + qc[:, None, :] * c * c
    arc = (idx < np.maximum(ends, 1)) & np.all((value > 0.0) | ~other[:, None, :], axis=2)
    ks, slot = np.nonzero(arc)
    start, stop = start[ks, slot], stop[ks, slot]

    if (line[ks] & (stop >= np.pi)).any() or not ((alpha < 0.0).any() or line.any()):
        raise ValueError("the region is unbounded")
    if not len(ks):
        return 0, 0, None

    def point(sigma):
        s, c = np.sin(0.5 * sigma), np.cos(0.5 * sigma)
        return w0[ks] + d[ks] * s / (c - 0.5j * kappa[ks] * s)

    # the turning angle theta = 2 atan(kappa t / 2) along each arc
    def theta(sigma):
        return 2.0 * np.arctan2(0.5 * kappa[ks] * np.sin(0.5 * sigma), np.cos(0.5 * sigma))

    wrapped = stop > np.pi
    turn = np.sign(kappa[ks]) * 2.0 * np.pi
    theta_a = theta(start)
    phi = theta(np.where(wrapped, stop - 2.0 * np.pi, stop)) - theta_a + np.where(wrapped, turn, 0.0)
    small = np.abs(phi) < 1e-2
    excess = np.where(small, phi ** 3 / 6.0 * (1.0 - phi * phi / 20.0 * (1.0 - phi * phi / 42.0)),
                      phi - np.sin(phi))
    safe = np.where(line[ks], 1.0, kappa[ks])
    p_a, p_b = point(start), point(stop)

    # the box: arc ends, and the points of each circle farthest along an
    # axis that lie on its arc
    radial = -n[ks] / safe  # w - centre at theta = 0, turning with theta
    extreme = np.array([0.0, 0.5, 1.0, -0.5]) * np.pi
    theta_e = extreme[None, :] - np.angle(radial)[:, None]
    on_arc = np.mod((theta_e - theta_a[:, None]) * np.sign(safe)[:, None], 2.0 * np.pi) \
        <= np.abs(phi)[:, None]
    tips = (w0[ks] + n[ks] / safe)[:, None] + np.exp(1j * extreme)[None, :] / np.abs(safe)[:, None]
    tips = tips[on_arc & ~line[ks][:, None]]
    box = np.concatenate([p_a, p_b, tips])
    bbox = ((float(box.real.min()), float(box.real.max())),
            (float(box.imag.min()), float(box.imag.max())))

    # the boundary cycles: an arc runs on to every arc that starts within
    # tol of its end, and to the one that starts nearest its end (itself
    # only when it is a whole curve); each cycle is labelled by its lowest
    # arc
    tol = _kernels._NOISE * np.abs(bbox).max()
    gap = np.abs(p_b[:, None] - p_a[None, :])
    np.fill_diagonal(gap, np.where(ends[ks, 0] == 0, 0.0, np.inf))
    joined = gap <= tol
    joined[np.arange(len(ks)), np.argmin(gap, axis=1)] = True
    cycle = _kernels.component_labels(len(ks), *np.nonzero(joined))
    # each cycle's area from chords about its own first vertex, so that the
    # rounding gaps where its arcs meet move a cycle within tol of a point
    # by about tol^2 at most; a cycle that small bounds nothing
    ref = p_a[cycle]
    area = 0.5 * ((p_a - ref).conj() * (p_b - ref)).imag \
        + np.where(line[ks], 0.0, excess / (2.0 * safe * safe))
    area = np.bincount(cycle, weights=area)
    return int((area > tol * tol).sum()), int((area < -tol * tol).sum()), bbox


def _topology_outcome(func, forms):
    """``func(*forms)``, or the message of the ValueError it raised."""
    try:
        with np.errstate(all="ignore"):  # the reference on NaN and infinite forms
            return func(*forms)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_same_topology(forms, box_tol=1e-12):
    """The counts, or the error, are the reference's, and so is the box of
    a region with a component, to within ``box_tol`` of its largest
    coordinate.

    A region with no component has no box, or only the box of cycles of
    rounding noise, such as the lens that rounding cuts where two circles
    touch; whether that lens appears depends on the last bits of the roots,
    so its box is not compared."""
    got = _topology_outcome(_kernels.slice_topology, forms)
    want = _topology_outcome(_reference_slice_topology, forms)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return want
    assert got[:2] == want[:2], (got, want)
    if want[0]:
        scale = np.abs(want[2]).max()
        np.testing.assert_allclose(got[2], want[2], rtol=0, atol=box_tol * scale)
    return want


def _disk_form(centre, radius):
    """``radius^2 - |w - centre|^2``, > 0 inside the disk, as ``(alpha,
    Re beta, Im beta, gamma)``."""
    return -1.0, 2.0 * centre.real, -2.0 * centre.imag, radius * radius - abs(centre) ** 2


def _half_plane_form(normal, offset):
    """``Re(conj(normal) w) + offset``, as ``(alpha, Re beta, Im beta, gamma)``."""
    return 0.0, normal.real, -normal.imag, offset


# how far a touching circle is moved off tangency, relative to its distance.
# At 1e-12 the sign of each discriminant where the circles nearly touch is
# still far above rounding, so every evaluation finds the same roots.  The
# circles cross at an angle of about the square root of the offset, and a
# crossing moves by the rounding of the forms over that angle, so a box
# cornered there is compared to within 1e-12 over that root.  An overlap
# near 1e-9 is left out: it cuts a lens whose area is about the noise floor
# (`_kernels._NOISE` of the extent, squared), so whether it counts is not
# defined to the last bits of the roots
_OFF_TANGENCY = (0.0, 1e-12, -1e-12, 1e-6, -1e-6, 1e-3, -1e-3)
_SIGN = st.sampled_from((1.0, -1.0))
# forms whose zero set is empty or the whole plane
_FLAT = ((1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, -1.0), (0.0, 0.0, 0.0, 0.0),
         (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, -1.0))


def _circle_form(centre, radius, sign):
    """A disk (sign 1) or its complement (sign -1)."""
    return tuple(sign * v for v in _disk_form(centre, radius))


@st.composite
def _slice_forms(draw):
    """1 to 16 forms ``(alpha, beta, gamma)``: the pair forms of a random
    complex family (m = 1..6), or disks, disk complements and half-planes,
    often inside a bounding disk; then, now and then, a circle that touches
    or nearly touches one of them, repeated forms, a form whose zero set is
    a point or empty, and a NaN or infinite coefficient; all forms scaled
    by 1, 2^-330 or 2^330.  Returns the forms and the tolerance of their
    box (`_assert_same_topology`).

    Hypothesis draws the structure, and a seeded generator the coordinates,
    so that no two curves nearly coincide by accident: the zero curves of
    two forms that are not multiples of each other but nearly coincide cut
    each other where rounding puts it, in any evaluation."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def centre():
        return complex(*rng.uniform(-2.0, 2.0, 2))

    def unit():
        return complex(np.exp(1j * rng.uniform(-np.pi, np.pi)))

    forms, circles, box_tol = [], [], 1e-12
    if draw(st.booleans()):
        m = draw(st.integers(1, 6))
        fam_a, fam_b = (rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(2))
        alpha, beta, gamma = (np.atleast_1d(part) for part in _kernels.pairwise_forms(fam_a, fam_b))
        forms += zip(alpha.tolist(), beta.real.tolist(), beta.imag.tolist(), gamma.tolist())
        event(f"pair forms, m = {m}")
    else:
        if draw(st.booleans()):
            circles.append((centre(), rng.uniform(4.0, 7.0), 1.0))
        for _ in range(draw(st.integers(0, 5))):
            if draw(st.booleans()):
                circles.append((centre(), rng.uniform(0.05, 3.0), draw(_SIGN)))
            else:
                forms.append(_half_plane_form(unit(), rng.uniform(-2.0, 2.0)))
    if draw(st.booleans()):
        off = draw(st.sampled_from(_OFF_TANGENCY))
        inside = draw(st.booleans())
        if off == 0.0:
            # an exact tangency: centres on the real axis at quarters and
            # radii that are powers of two, so that every step that finds
            # the touching point is exact and the double root is found
            radius, other = sorted(2.0 ** draw(st.integers(-2, 1)) for _ in range(2))[::-1]
            inside = inside and other < radius
            centre_0 = complex(draw(st.integers(-8, 8)) / 4.0)
            direction = draw(_SIGN)
            circles.append((centre_0, radius, draw(_SIGN)))
        else:
            # a circle nearly touching a drawn one, or a new one, from
            # inside or from outside
            centre_0, radius, _ = (draw(st.sampled_from(circles)) if circles
                                   else (centre(), rng.uniform(0.5, 3.0), 1.0))
            other = rng.uniform(0.05, 0.8) * radius if inside else rng.uniform(0.05, 3.0)
            direction = unit()
            box_tol = 1e-12 / np.sqrt(abs(off))
        distance = (radius - other if inside else radius + other) * (1.0 + off)
        circles.append((centre_0 + distance * direction, other, draw(_SIGN)))
        event("touching circles" if off == 0.0 else "nearly touching circles")
    forms += (_circle_form(*circle) for circle in circles)
    if forms and draw(st.booleans()):
        forms += draw(st.lists(st.sampled_from(forms), min_size=1, max_size=3))
        event("repeated forms")
    if draw(st.integers(0, 3)) == 0:
        point = _circle_form(centre(), 0.0, draw(_SIGN))  # +-|w - c|^2
        forms.append(draw(st.sampled_from((point,) + _FLAT)))
        event("form without a curve")
    if not forms:
        forms.append(_circle_form(centre(), rng.uniform(0.05, 3.0), 1.0))
    scale = draw(st.sampled_from((1.0, 2.0 ** -330, 2.0 ** 330)))  # exact
    forms = [tuple(scale * v for v in form) for form in forms[:16]]
    if draw(st.integers(0, 5)) == 0:
        index, part = draw(st.integers(0, len(forms) - 1)), draw(st.integers(0, 3))
        value = list(forms[index])
        value[part] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
        forms[index] = tuple(value)
        event("non-finite coefficient")
    alpha, b_re, b_im, gamma = zip(*forms)
    beta = np.array([complex(re, im) for re, im in zip(b_re, b_im)])
    return (np.array(alpha), beta, np.array(gamma)), box_tol


@settings(max_examples=250, deadline=None)
@given(_slice_forms())
def test_slice_topology_matches_the_numpy_reference(case):
    want = _assert_same_topology(*case)
    event("error" if isinstance(want, str) else "empty" if want[2] is None
          else f"{want[0]} components, {want[1]} holes")


@pytest.mark.parametrize("name", catalog.names() + ["cube3", "simplex4"])
def test_slice_topology_matches_the_numpy_reference_on_verifier_lines(name):
    domain = (load_domain(_CUBE3.parent / f"{name}.dom").domain
              if name in ("cube3", "simplex4") else catalog.by_name(name))
    tube = Tube(domain)
    rng = np.random.default_rng(np.random.SeedSequence([25]))
    centre = domain.sample_interior(rng, 1)[0]
    for k in range(20):
        # every fifth line runs through a small puncture at an inner point
        puncture = (centre, 0.05) if k % 5 == 0 else None
        anchor, direction, _ = _random_line(tube, rng, through=None if puncture is None
                                            else centre)
        _assert_same_topology(_line_forms(tube, anchor, direction, puncture))


@pytest.mark.parametrize("m", range(8))
def test_pairwise_forms_are_those_of_fresh_pair_indices(m):
    rng = np.random.default_rng(m)
    fam_a, fam_b = (rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(2))
    p, q = np.triu_indices(m, k=1 if m > 1 else 0)
    want = ((fam_b[q] * np.conj(fam_b[p])).real,
            fam_b[q] * np.conj(fam_a[p]) + np.conj(fam_a[q]) * fam_b[p],
            (fam_a[q] * np.conj(fam_a[p])).real)
    for _ in range(2):  # the second call reads the memoised pairs
        got = _kernels.pairwise_forms(fam_a, fam_b)
        assert [part.tobytes() for part in got] == [part.tobytes() for part in want]
    with pytest.raises(ValueError, match="read-only"):
        _kernels._pair_indices(m)[0][...] = 0
