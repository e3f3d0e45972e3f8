"""The batched samplers and clips against the one-draw-at-a-time loops.

The reference functions below are the scalar samplers as they were before
the samplers were batched: one ``rng.uniform`` draw, one membership test and
one line clip per box point.  The batched samplers must return the same
samples bit for bit and leave the generator in the same state.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_tubes import catalog, domains
from elliptic_tubes.domains import ConvexDomain, VPolytope
from elliptic_tubes.duality import dual_of
from elliptic_tubes.errors import DrawBudgetError
from elliptic_tubes.projective import HPoint, _affine, _rowdot
from elliptic_tubes.tube import COMPLEX_BOUNDARY, EXTERIOR, INTERIOR, REAL_BOUNDARY, Tube

_REAL_BAND = 1e-12

# ---------- reference: the scalar loops -------------------------------------------


def _ref_clip(domain, x0, direction):
    """(a, b) of the scalar line clip, or None."""
    norm = np.linalg.norm(direction)
    direction = direction / norm
    if domain._rows is not None:
        alphas = domain._rows @ np.append(x0, 1.0)
        betas = domain._rows[:, :-1] @ direction
        lo, hi = -np.inf, np.inf
        for alpha, beta in zip(alphas, betas):
            if abs(beta) <= 1e-13:
                if alpha <= 0.0:
                    return None
                continue
            root = -alpha / beta
            if beta > 0.0:
                lo = max(lo, root)
            else:
                hi = min(hi, root)
    else:
        center, shape = domain._center, domain._shape
        d = x0 - center
        a2 = direction @ shape @ direction
        a1 = 2.0 * (direction @ shape @ d)
        a0 = d @ shape @ d - 1.0
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc <= 0.0:
            return None
        sq = np.sqrt(disc)
        lo = (-a1 - sq) / (2.0 * a2)
        hi = (-a1 + sq) / (2.0 * a2)
    if hi - lo < 1e-10:
        return None
    return float(lo), float(hi)


def _ref_base_contains(domain, x):
    if domain._rows is not None:
        return bool(np.all(domain._rows @ np.append(x, 1.0) > 0.0))
    d = x - domain._center
    return bool(d @ domain._shape @ d < 1.0)


def _ref_margin(domain, x):
    if domain._bound_rows is not None:
        return float(np.min(domain._bound_rows @ np.append(x, 1.0)))
    d = x - domain._center
    q = float(d @ domain._shape @ d)
    a_min = 1.0 / np.sqrt(np.linalg.eigvalsh(domain._shape)[-1])
    return (1.0 - np.sqrt(max(q, 0.0))) * a_min


def _ref_split(zeta):
    x, y = zeta.real.copy(), zeta.imag.copy()
    if np.linalg.norm(y) <= _REAL_BAND * (1.0 + np.linalg.norm(x)):
        return x, np.zeros_like(y), True
    return x, y, False


def _ref_contains(domain, zeta):
    x, y, real_flag = _ref_split(zeta)
    if real_flag:
        return _ref_base_contains(domain, x)
    speed = np.linalg.norm(y)
    clip = _ref_clip(domain, x, y)
    if clip is None:
        return False
    a, b = clip
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    return speed * speed + c * c < r * r


def _ref_classify(domain, zeta, band):
    x, y, real_flag = _ref_split(zeta)
    if real_flag:
        m = _ref_margin(domain, x)
        if abs(m) < band:
            return REAL_BOUNDARY
        return INTERIOR if m > 0.0 else EXTERIOR
    if _ref_margin(domain, x) <= 0.0:
        return EXTERIOR
    speed = np.linalg.norm(y)
    clip = _ref_clip(domain, x, y)
    if clip is None or clip[0] >= 0.0 or clip[1] <= 0.0:
        return EXTERIOR
    prod = (speed / clip[1]) * (speed / -clip[0])
    if abs(prod - 1.0) < band:
        return COMPLEX_BOUNDARY
    return INTERIOR if prod < 1.0 else EXTERIOR


def _ref_sample_points(tube, rng, count, band=1e-6):
    domain = tube.base
    lo, hi, im_half = tube.bounding_box()
    out = np.empty((count, tube.n), dtype=np.complex128)
    got = 0
    while got < count:
        x = rng.uniform(lo, hi, size=tube.n)
        y = rng.uniform(-im_half, im_half)
        zeta = x + 1j * y
        if not _ref_contains(domain, zeta):
            continue
        if _ref_margin(domain, x) < band:
            continue
        speed = np.linalg.norm(y)
        if speed > _REAL_BAND:
            a, b = _ref_clip(domain, x, y)
            if abs((speed / b) * (speed / -a) - 1.0) < band:
                continue
        out[got] = zeta
        got += 1
    return out


def _ref_sample_exterior(tube, rng, count, band=1e-6, spread=1.0):
    lo, hi, im_half = tube.bounding_box()
    center = 0.5 * (lo + hi)
    lo = center + (1.0 + spread) * (lo - center)
    hi = center + (1.0 + spread) * (hi - center)
    im_half = (1.0 + spread) * im_half
    out = np.empty((count, tube.n), dtype=np.complex128)
    got = 0
    while got < count:
        x = rng.uniform(lo, hi, size=tube.n)
        y = rng.uniform(-im_half, im_half)
        zeta = x + 1j * y
        if _ref_classify(tube.base, zeta, band) != EXTERIOR:
            continue
        out[got] = zeta
        got += 1
    return out


def _ref_sample_interior(domain, rng, count):
    lo, hi = domain.bbox
    out = np.empty((count, domain.n))
    got = 0
    while got < count:
        x = rng.uniform(lo, hi)
        if not _ref_base_contains(domain, x):
            continue
        out[got] = x
        got += 1
    return out


# ---------- domains ------------------------------------------------------------------


def _cube3():
    verts = [(sx, sy, sz, 1.0) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    return ConvexDomain(VPolytope(tuple(HPoint(v) for v in verts)), name="cube3")


def _simplex4():
    verts = np.vstack([np.zeros(4), np.eye(4)])
    rep = VPolytope(tuple(HPoint(np.append(v, 1.0)) for v in verts))
    return ConvexDomain(rep, name="simplex4")


def _far_triangle():
    # a triangle translated to chart coordinates near 1e3
    verts = [(1000.0, 1000.0), (1001.0, 1000.0), (1000.0, 1001.5)]
    return ConvexDomain(VPolytope(tuple(HPoint(v + (1.0,)) for v in verts)), name="far")


def _domain(label):
    if label == "cube3":
        return _cube3()
    if label == "simplex4":
        return _simplex4()
    if label == "far":
        return _far_triangle()
    if label.endswith("*"):
        return dual_of(catalog.by_name(label[:-1])).domain
    return catalog.by_name(label)


LABELS = [name + star for name in catalog.names() for star in ("", "*")] + ["cube3"]
SEEDS = range(20)


def _same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------- equivalence --------------------------------------------------------------


@pytest.mark.parametrize("label", LABELS)
def test_sample_points_match_scalar_loop(label):
    tube = Tube(_domain(label))
    for seed in SEEDS:
        count = 1 + seed % 4
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _same(tube.sample_points(rng, count), _ref_sample_points(tube, ref, count))
        assert rng.random() == ref.random()


@pytest.mark.parametrize("label", LABELS)
def test_sample_exterior_matches_scalar_loop(label):
    tube = Tube(_domain(label))
    for seed in SEEDS:
        count = 1 + seed % 5
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _same(tube.sample_exterior(rng, count), _ref_sample_exterior(tube, ref, count))
        assert rng.random() == ref.random()


@pytest.mark.parametrize("label", LABELS)
def test_sample_interior_matches_scalar_loop(label):
    domain = _domain(label)
    for seed in SEEDS:
        count = 1 + 7 * (seed % 3)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _same(domain.sample_interior(rng, count), _ref_sample_interior(domain, ref, count))
        assert rng.random() == ref.random()


@pytest.mark.parametrize("seed", range(3))
def test_samplers_match_scalar_loop_on_simplex4(seed):
    # acceptance 2.7e-4: thousands of draws per sample reach the screen.
    # One sample_points sample, since the scalar reference clips every draw
    # (about 0.1 s a sample here)
    domain = _simplex4()
    tube = Tube(domain)
    count = 1 + seed % 2
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _same(tube.sample_points(rng, 1), _ref_sample_points(tube, ref, 1))
    assert _same(tube.sample_exterior(rng, count), _ref_sample_exterior(tube, ref, count))
    assert _same(domain.sample_interior(rng, count), _ref_sample_interior(domain, ref, count))
    assert rng.random() == ref.random()


def test_samplers_match_across_block_boundaries(monkeypatch):
    # tiny blocks: acceptances straddle many blocks and the rewind runs often
    monkeypatch.setattr(domains, "_BLOCK_ROWS", 5)
    triangle = catalog.triangle()
    tube = Tube(triangle)
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    assert _same(tube.sample_points(rng, 12), _ref_sample_points(tube, ref, 12))
    assert _same(triangle.sample_interior(rng, 40), _ref_sample_interior(triangle, ref, 40))
    assert rng.random() == ref.random()


def test_samplers_match_across_block_boundaries_on_cube3(monkeypatch):
    monkeypatch.setattr(domains, "_BLOCK_ROWS", 7)
    cube = _cube3()
    tube = Tube(cube)
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    assert _same(tube.sample_points(rng, 9), _ref_sample_points(tube, ref, 9))
    assert _same(tube.sample_exterior(rng, 9), _ref_sample_exterior(tube, ref, 9))
    assert _same(cube.sample_interior(rng, 9), _ref_sample_interior(cube, ref, 9))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("label", ["triangle", "disk", "cube3"])
def test_samplers_match_with_every_draw_decided_exactly(label, monkeypatch):
    # an infinite slack screens nothing out and decides nothing: every draw
    # takes the exact path, and the samples stay those of the scalar loop
    screen = ConvexDomain._screen
    monkeypatch.setattr(ConvexDomain, "_screen",
                        lambda self, rows, lo, hi: (screen(self, rows, lo, hi)[0], np.inf))
    domain = _domain(label)
    tube = Tube(domain)
    rng, ref = np.random.default_rng(13), np.random.default_rng(13)
    assert _same(tube.sample_points(rng, 5), _ref_sample_points(tube, ref, 5))
    assert _same(tube.sample_exterior(rng, 5), _ref_sample_exterior(tube, ref, 5))
    assert _same(domain.sample_interior(rng, 5), _ref_sample_interior(domain, ref, 5))
    assert rng.random() == ref.random()


# ---------- the screen -----------------------------------------------------------------


def _screen_probes(domain, rng):
    """Chart points where the screen and the exact rows round most apart:
    the vertices, points placed on every facet hyperplane, the points
    within 4 ulps of those in every coordinate, and random box draws."""
    lo, hi = domain.bbox
    inner = lo + (hi - lo) * rng.random((40, domain.n))
    rows = domain._bound_rows
    on = [inner - _rowdot(rows[k:k + 1], _affine(inner)) * rows[k, :-1] for k in range(len(rows))]
    placed = np.vstack([domain.vertices_chart()] + on)
    probes = [inner, placed]
    for direction in (np.inf, -np.inf):
        moved = placed
        for _ in range(4):
            moved = np.nextafter(moved, direction)
            probes.append(moved)
    return np.vstack(probes)


SCREEN_LABELS = [label for label in LABELS + ["simplex4", "far"]
                 if _domain(label)._rows is not None]


@pytest.mark.parametrize("label", SCREEN_LABELS)
def test_screen_is_within_its_slack_of_the_exact_rows(label):
    domain = _domain(label)
    probes = _screen_probes(domain, np.random.default_rng(7))
    # the box the slack is taken over must hold the points
    lo, hi = probes.min(axis=0), probes.max(axis=0)
    for rows in (domain._bound_rows, domain._rows):
        exact = _rowdot(rows, _affine(probes))
        screen, slack = domain._screen(rows, lo, hi)
        assert np.all(np.abs(screen(probes) - exact.min(axis=1)) <= slack)
        # and for each functional alone, with its own slack
        for k in range(len(rows)):
            screen, slack = domain._screen(rows[k:k + 1], lo, hi)
            assert 0.0 < slack < 1e-11
            assert np.all(np.abs(screen(probes) - exact[:, k]) <= slack)


@pytest.mark.parametrize("label", ["disk", "ellipse*"])
def test_an_ellipsoid_screens_with_its_exact_margin(label):
    domain = _domain(label)
    lo, hi = domain.bbox
    points = lo + (hi - lo) * np.random.default_rng(8).random((50, domain.n))
    screen, slack = domain._screen(domain._bound_rows, lo, hi)
    assert slack == 0.0
    assert _same(screen(points), domain.margin_rows(points))


@pytest.mark.parametrize("label", ["square", "triangle*", "ellipse", "halfline"])
def test_classification_matches_scalar_route(label, rng):
    domain = _domain(label)
    tube = Tube(domain)
    lo, hi = domain.bbox
    width = float(np.max(hi - lo))
    for _ in range(300):
        x = rng.uniform(lo - 0.3 * width, hi + 0.3 * width)
        y = rng.uniform(-width, width, size=domain.n) * (rng.random() < 0.8)
        zeta = x + 1j * y
        assert tube.boundary_classify(zeta) == _ref_classify(domain, zeta, 1e-8)
        assert tube.contains(zeta) == _ref_contains(domain, zeta)


# ---------- the batched clip -----------------------------------------------------------

_CLIP_DOMAINS = {label: _domain(label) for label in LABELS + ["simplex4"]}


def _rel_close(u, v):
    return abs(u - v) <= 1e-12 * max(1.0, abs(u), abs(v))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    label=st.sampled_from(sorted(_CLIP_DOMAINS)),
    seed=st.integers(0, 2**32 - 1),
    parallel=st.booleans(),
)
def test_batched_clip_matches_line_clip(label, seed, parallel):
    domain = _CLIP_DOMAINS[label]
    rng = np.random.default_rng(seed)
    lo, hi = domain.bbox
    pad = 0.5 * (hi - lo)
    # base points around the box: some lines miss the domain
    x0 = rng.uniform(lo - pad, hi + pad, size=(40, domain.n))
    directions = rng.normal(size=(40, domain.n))
    if parallel and domain._rows is not None and domain.n > 1:
        # directions in a facet hyperplane: the facet is parallel to the line
        normals = domain.rows()[:, :-1]
        normals = normals[np.linalg.norm(normals, axis=1) > 1e-12]
        g = normals[rng.integers(len(normals), size=40)]
        directions -= (np.sum(directions * g, axis=1) / np.sum(g * g, axis=1))[:, None] * g
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    a, b, ok = domain.clip_lines(x0, directions)
    for i in range(len(x0)):
        # a one-row call rounds exactly as its row of the batch
        one = domain.clip_lines(x0[i:i + 1], directions[i:i + 1])
        assert np.array_equal(np.array(one)[:, 0], [a[i], b[i], ok[i]], equal_nan=True)
        clip = domain.line_clip((x0[i], directions[i]))
        ref = _ref_clip(domain, x0[i], directions[i])
        assert ok[i] == (clip is not None) == (ref is not None)
        if clip is None:
            assert np.isnan(a[i]) and np.isnan(b[i])
            continue
        assert _rel_close(a[i], clip.a) and _rel_close(b[i], clip.b)
        assert _rel_close(a[i], ref[0]) and _rel_close(b[i], ref[1])


def test_batched_clip_sees_parallel_facets():
    square = catalog.square()
    x0 = np.array([[0.0, 0.5], [0.0, 1.5], [0.0, -1.5]])
    directions = np.array([[1.0, 0.0]] * 3)
    a, b, ok = square.clip_lines(x0, directions)
    assert ok.tolist() == [True, False, False]
    assert (a[0], b[0]) == (-1.0, 1.0)


# ---------- draw budget ----------------------------------------------------------------


def test_draw_budget_stops_the_tube_sampler(monkeypatch):
    monkeypatch.setattr(domains, "_DRAW_BUDGET", 5000)
    tube = Tube(_simplex4())
    start = time.perf_counter()
    with pytest.raises(DrawBudgetError, match=r"in 5000 draws \(acceptance rate") as info:
        tube.sample_points(np.random.default_rng(0), 5)
    assert time.perf_counter() - start < 0.5
    assert info.value.draws == 5000
    assert info.value.rate == info.value.accepted / 5000


def test_draw_budget_stops_the_other_samplers(monkeypatch):
    monkeypatch.setattr(domains, "_DRAW_BUDGET", 100)
    with pytest.raises(DrawBudgetError, match="sample_interior"):
        _simplex4().sample_interior(np.random.default_rng(0), 50)
    with pytest.raises(DrawBudgetError, match="sample_exterior"):
        Tube(catalog.square()).sample_exterior(np.random.default_rng(0), 1000)
