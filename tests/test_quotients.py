import math

import numpy as np
import pytest

from elliptic_tubes import catalog
from elliptic_tubes.domains import ConvexDomain, HDomain, SliceDisk, VPolytope
from elliptic_tubes.errors import (
    GroupValidationError,
    InfinityError,
    UnsupportedConfigurationError,
)
from elliptic_tubes.projective import Functional, HPoint, ProjectiveMap, proj_eq
from elliptic_tubes.quotients import (
    ConvexRPManifold,
    check_free_action,
    orbit_reduce,
    quotient_distance_cyclic,
)
from elliptic_tubes.report import VerifierReport


@pytest.fixture
def halfline_manifold(halfline):
    return ConvexRPManifold(halfline, [catalog.doubling_map()])


@pytest.fixture
def simplex_manifold(simplex):
    return ConvexRPManifold(simplex, catalog.simplex_diagonal_maps())


# ---------- validation ------------------------------------------------------------


def test_generators_must_preserve_domain(interval):
    shift = ProjectiveMap([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(GroupValidationError):
        ConvexRPManifold(interval, [shift])


def test_symmetry_of_an_h_domain_with_a_redundant_row():
    # the triangle with the redundant row x + y + 1 > 0: the map cycling its
    # vertices (0,0) -> (1,0) -> (0,1) sends the redundant row's kernel to a
    # line that is none of the four, and still preserves the domain
    funcs = [
        Functional([1.0, 0.0, 0.0]),
        Functional([0.0, 1.0, 0.0]),
        Functional([-1.0, -1.0, 1.0]),
        Functional([1.0, 1.0, 1.0]),
    ]
    fat = ConvexDomain(HDomain(funcs), reference_point=np.array([0.25, 0.25]))
    cycle = ProjectiveMap([[-1.0, -1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert len(ConvexRPManifold(fat, [cycle]).generators) == 1
    shift = ProjectiveMap([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(GroupValidationError, match="does not preserve"):
        ConvexRPManifold(fat, [shift])


def test_symmetry_of_a_v_polytope_with_an_inner_point():
    # the triangle given with the inner point (0.2, 0.2): only the three
    # corners are its vertices, so the map cycling them preserves it; the
    # default reference stays the mean of all four input points
    points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.2, 0.2)]
    fat = ConvexDomain(VPolytope(tuple(HPoint([x, y, 1.0]) for x, y in points)))
    np.testing.assert_array_equal(fat.vertices_chart(), points[:3])
    np.testing.assert_array_equal(fat.reference, np.mean(points, axis=0))
    cycle = ProjectiveMap([[-1.0, -1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert len(ConvexRPManifold(fat, [cycle]).generators) == 1
    # on the line the inner point and both ends are input points
    line = ConvexDomain(VPolytope((HPoint([0.5, 1.0]), HPoint([2.0, 1.0]), HPoint([-1.0, 1.0]))))
    np.testing.assert_array_equal(line.vertices_chart(), [[2.0], [-1.0]])


def test_generator_shape_checked(interval):
    with pytest.raises(GroupValidationError):
        ConvexRPManifold(interval, [np.eye(3)])


def test_rotation_preserves_square(square):
    rot = ProjectiveMap([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    manifold = ConvexRPManifold(square, [rot])
    assert len(manifold.generators) == 1


# ---------- words -----------------------------------------------------------------


def test_element_inverse_encoding(halfline_manifold):
    g = halfline_manifold.element([0])
    ginv = halfline_manifold.element([-1])
    np.testing.assert_allclose(g.matrix @ ginv.matrix, np.eye(2), atol=1e-12)
    ident = halfline_manifold.element([0, -1])
    np.testing.assert_allclose(ident.matrix / ident.matrix[0, 0], np.eye(2), atol=1e-12)


def test_reduced_word_counts(halfline_manifold, simplex_manifold):
    # one generator: only powers survive reduction, two per length
    words = halfline_manifold.reduced_words(4)
    assert len(words) == 8
    assert all(len(set(np.sign(w))) == 1 for w in words)
    # two generators: 4 * 3^(L-1) reduced words of length L
    words2 = simplex_manifold.reduced_words(3)
    assert len(words2) == 4 + 12 + 36


# ---------- free actions ----------------------------------------------------------


def test_doubling_action_is_free(halfline_manifold):
    report = check_free_action(halfline_manifold, word_length=8)
    assert report.passed
    assert report.violations == []


def test_diagonal_action_on_simplex_is_free(simplex_manifold):
    # the generators commute, so relations appear among the reduced words;
    # they are the trivial element and must be skipped, not flagged
    report = check_free_action(simplex_manifold, word_length=4)
    assert report.passed
    assert report.skipped > 0
    assert report.details["identity_words"] == report.skipped


def test_involution_is_caught(interval):
    # x -> -x fixes 0, an interior point of the interval
    fold = ProjectiveMap([[-1.0, 0.0], [0.0, 1.0]])
    manifold = ConvexRPManifold(interval, [fold])
    report = check_free_action(manifold, word_length=2)
    assert not report.passed
    assert any("fixes a tube point" in v for v in report.violations)


def test_finite_rotation_is_caught(square):
    rot = ProjectiveMap([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    manifold = ConvexRPManifold(square, [rot])
    report = check_free_action(manifold, word_length=4)
    assert not report.passed


def _reference_free_action(manifold, word_length):
    """The free-action check as it was before it was batched: per word one
    product of letters, one identity test, one ``eig`` and one scalar
    membership test per eigenvector."""
    report = VerifierReport(name="free_action", tolerance=1e-9,
                            details={"word_length": word_length})
    words = manifold.reduced_words(word_length)
    identity_words = 0
    for word in words:
        gmap = manifold.element(word)
        report.samples_run += 1
        if gmap.proj_eq(ProjectiveMap(np.eye(gmap.matrix.shape[0])), tol=1e-9):
            identity_words += 1
            report.skipped += 1
            continue
        eigvals, eigvecs = np.linalg.eig(gmap.matrix)
        for col in range(eigvecs.shape[1]):
            try:
                point = HPoint(eigvecs[:, col])
            except ValueError:
                continue
            try:
                inside = manifold.tube.contains(point)
            except InfinityError:
                continue
            if inside:
                report.record(f"word {word} fixes a tube point (eigenvalue {eigvals[col]:.6g})")
                break
    report.details["words_checked"] = len(words)
    report.details["identity_words"] = identity_words
    return report


def _boost(t, angle=0.0):
    """A hyperbolic isometry of the unit disk's Klein model: the boost by
    t along the direction at ``angle``."""
    c, s = np.cosh(t), np.sinh(t)
    boost = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    turn = np.array([[np.cos(angle), -np.sin(angle), 0.0],
                     [np.sin(angle), np.cos(angle), 0.0], [0.0, 0.0, 1.0]])
    return turn @ boost @ turn.T


_ACTIONS = {
    "simplex": (catalog.simplex, catalog.simplex_diagonal_maps()),
    "halfline": (catalog.halfline, [catalog.doubling_map()]),
    "fold": (catalog.interval, [np.diag([-1.0, 1.0])]),
    "rotation": (catalog.square, [[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]]),
    # real and complex spectra in one stack, both with fixed points inside
    "reflection-rotation": (catalog.square, [np.diag([-1.0, 1.0, 1.0]),
                                             [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]]),
    # non-diagonal: fixed points on the boundary circle, and elliptic
    # products with fixed points inside
    "disk-boosts": (catalog.disk, [_boost(0.8), _boost(0.9, 1.1)]),
}


@pytest.mark.parametrize("name, word_length", [
    *(("simplex", k) for k in range(1, 7)),
    ("halfline", 8), ("fold", 4), ("rotation", 6), ("reflection-rotation", 4),
    ("disk-boosts", 5),
])
def test_free_action_matches_one_word_loop(name, word_length):
    factory, generators = _ACTIONS[name]
    manifold = ConvexRPManifold(factory(), generators)
    want = _reference_free_action(manifold, word_length).to_text()
    assert check_free_action(manifold, word_length).to_text() == want


def test_word_matrices_are_the_elements(simplex_manifold):
    words, mats = simplex_manifold.word_matrices(4)
    assert words == simplex_manifold.reduced_words(4)
    for word, mat in zip(words, mats):
        assert np.array_equal(mat, simplex_manifold.element(word).matrix)


# ---------- orbit reduction --------------------------------------------------------


def test_orbit_reduce_anchor(halfline_manifold):
    result = orbit_reduce(halfline_manifold, 5.0 + 1.0j)
    assert result.coordinate == pytest.approx(1.25 + 0.25j, abs=1e-12)
    assert result.power == -1


def test_orbit_reduce_real_anchors(halfline_manifold):
    low = orbit_reduce(halfline_manifold, 0.3)
    assert low.coordinate == pytest.approx(1.2, abs=1e-12)
    assert low.power == 1
    edge = orbit_reduce(halfline_manifold, 1.0)
    assert edge.coordinate == pytest.approx(1.0, abs=1e-12)
    assert edge.power == 0


def test_orbit_reduce_idempotent(halfline_manifold):
    first = orbit_reduce(halfline_manifold, 5.0 + 1.0j)
    again = orbit_reduce(halfline_manifold, first.coordinate)
    assert again.power == 0
    assert again.coordinate == pytest.approx(first.coordinate, abs=1e-12)


def test_orbit_reduce_invariance(halfline_manifold, rng):
    # every orbit point reduces to the same representative
    g = halfline_manifold.generators[0].matrix
    for _ in range(30):
        z = complex(rng.uniform(0.3, 8.0), rng.uniform(-2.0, 2.0))
        base = orbit_reduce(halfline_manifold, z)
        for m in (-3, -1, 1, 2):
            lift = np.linalg.matrix_power(g, m).astype(complex) @ np.array([z, 1.0])
            moved = orbit_reduce(halfline_manifold, HPoint(lift))
            assert moved.coordinate == pytest.approx(base.coordinate, rel=1e-10)
            assert moved.power == base.power - m


def test_orbit_reduce_representative_band(halfline_manifold, rng):
    # the eigenbasis coordinate of the representative lies in [1, rho)
    vmat = np.eye(2)  # the doubling map is already diagonal
    rho = 4.0
    for _ in range(40):
        z = complex(rng.uniform(0.05, 20.0), rng.uniform(-5.0, 5.0))
        rep = orbit_reduce(halfline_manifold, z)
        alpha, beta = np.linalg.solve(vmat.astype(complex), rep.point.coords)
        tau = abs(beta / alpha) if abs(alpha) > abs(beta) * 1e-16 else np.inf
        # eigen order is fixed by the frame; accept either convention
        tau = max(tau, 1.0 / tau)
        assert 1.0 - 1e-12 <= tau < rho + 1e-12


def test_orbit_reduce_generic_fallback(simplex_manifold):
    z = HPoint([0.4 + 0.05j, 0.3 - 0.02j, 1.0])
    result = orbit_reduce(simplex_manifold, z, word_length=3)
    assert result.word is not None
    assert result.power is None
    # the winning word actually maps z to the representative
    image = simplex_manifold.element(result.word).matrix.astype(complex) @ z.coords
    assert proj_eq(HPoint(image), result.point)


# ---------- quotient distance ------------------------------------------------------


def test_quotient_distance_anchors(halfline_manifold):
    d = quotient_distance_cyclic(halfline_manifold, 1.0, 2.0)
    assert d == pytest.approx(math.atanh(1.0 / 3.0), abs=1e-12)
    assert quotient_distance_cyclic(halfline_manifold, 1.0, 4.0) == pytest.approx(0.0, abs=1e-12)


def test_quotient_distance_symmetry_and_invariance(halfline_manifold, rng):
    for _ in range(25):
        z = rng.uniform(0.3, 6.0)
        w = rng.uniform(0.3, 6.0)
        d = quotient_distance_cyclic(halfline_manifold, z, w)
        assert d == pytest.approx(quotient_distance_cyclic(halfline_manifold, w, z), abs=1e-11)
        assert d == pytest.approx(
            quotient_distance_cyclic(halfline_manifold, z, 4.0 * w), abs=1e-11
        )
        assert d >= 0.0


def test_quotient_distance_lets_other_errors_through(halfline_manifold, monkeypatch):
    # only a chart exit (or a degenerate power) skips a power; any other
    # error inside the loop is a fault and must reach the caller
    def broken(self, tau1, tau2):
        raise RuntimeError("broken disk")

    monkeypatch.setattr(SliceDisk, "poincare", broken)
    with pytest.raises(RuntimeError, match="broken disk"):
        quotient_distance_cyclic(halfline_manifold, 1.0, 2.0)


def test_quotient_distance_needs_cyclic_rank_one(simplex_manifold):
    with pytest.raises(UnsupportedConfigurationError):
        quotient_distance_cyclic(simplex_manifold, 1.0, 2.0)
