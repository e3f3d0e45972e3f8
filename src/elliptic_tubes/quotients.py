"""Group actions on tubes and their quotients.

A discrete group of projective transformations preserving a properly convex
domain acts on the tube over it.  For the quotient to be a manifold the
action must be free; fixed points of an element are eigenvectors of its
matrix, so freeness is checked by testing eigenvector classes for tube
membership over all short reduced words.  For a cyclic group generated by a
proximal element of RP^1 the quotient is an annulus and orbit reduction is
exact in the eigenbasis coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import ConvexDomain, Ellipsoid
from .errors import (
    DegenerateError,
    GroupValidationError,
    InfinityError,
    UnsupportedConfigurationError,
)
from .projective import HPoint, ProjectiveMap, identity_rows, normalize_lifts, proj_eq, row_norms
from .report import VerifierReport
from .tube import Tube

_PROJ_TOL = 1e-9


def _as_map(g) -> ProjectiveMap:
    return g if isinstance(g, ProjectiveMap) else ProjectiveMap(np.asarray(g, dtype=float))


def _preserves(domain: ConvexDomain, gmap: ProjectiveMap, tol=_PROJ_TOL) -> bool:
    """Whether a projective map sends the domain onto itself: a polytope's
    vertex lifts onto themselves as a set, an ellipsoid's boundary quadric
    onto a positive multiple of itself."""
    amat = gmap.matrix
    if not isinstance(domain.rep, Ellipsoid):
        targets = [domain.chart.lift(v) for v in domain.vertices_chart()]
        return _matches_setwise([amat @ t for t in targets], targets, tol)
    q_orig = domain.quadric()
    inv = np.linalg.inv(amat)
    pulled = inv.T @ q_orig @ inv
    scale = np.trace(pulled @ q_orig) / np.trace(q_orig @ q_orig)
    if scale <= 0:
        return False
    return np.linalg.norm(pulled - scale * q_orig) <= tol * np.linalg.norm(q_orig) * abs(scale)


def _matches_setwise(images, targets, tol):
    used = set()
    for img in images:
        hit = None
        for idx, tgt in enumerate(targets):
            if idx in used:
                continue
            if proj_eq(img, tgt, tol):
                hit = idx
                break
        if hit is None:
            return False
        used.add(hit)
    return len(used) == len(targets)


class ConvexRPManifold:
    """A properly convex domain with a finite set of validated generators."""

    def __init__(self, domain: ConvexDomain, generators):
        self.domain = domain
        self.generators = tuple(_as_map(g) for g in generators)
        if not self.generators:
            raise GroupValidationError("at least one generator is required")
        for k, g in enumerate(self.generators):
            if g.matrix.shape != (domain.n + 1, domain.n + 1):
                raise GroupValidationError(f"generator {k} has wrong shape")
            if not _preserves(domain, g):
                raise GroupValidationError(f"generator {k} does not preserve the domain")
        self.tube = Tube(domain)

    def element(self, word):
        """The map of a word given as a sequence of indices; negative index
        -(k+1) denotes the inverse of generator k."""
        mat = np.eye(self.domain.n + 1)
        for letter in word:
            g = self.generators[letter] if letter >= 0 else self.generators[-letter - 1].inverse()
            mat = g.matrix @ mat
        return ProjectiveMap(mat)

    def reduced_words(self, max_length):
        """All nonempty reduced words up to the given length (no letter is
        immediately followed by its inverse), shortest first."""
        return self.word_matrices(max_length)[0]

    def word_matrices(self, max_length):
        """The reduced words of :meth:`reduced_words` and their matrices, a
        (W, n+1, n+1) array.

        A word's matrix is ``letter @ M[word[:-1]]``, with each inverse
        letter inverted once and each length made in one stacked product,
        so it is rounded as :meth:`element` rounds it.
        """
        alphabet, letter_mats = [], []
        for k, g in enumerate(self.generators):
            alphabet += [k, -k - 1]
            letter_mats += [g.matrix, np.linalg.inv(g.matrix)]
        letter_mats = np.stack(letter_mats)
        words, blocks = [], []
        frontier, mats = [()], np.eye(self.domain.n + 1)[None]
        for _ in range(max_length):
            nxt, prefix, last = [], [], []
            for p, word in enumerate(frontier):
                for i, letter in enumerate(alphabet):
                    # the inverse of letter L is -L-1 in this encoding
                    if word and word[-1] == -letter - 1:
                        continue
                    nxt.append(word + (letter,))
                    prefix.append(p)
                    last.append(i)
            mats = letter_mats[last] @ mats[prefix]
            words.extend(nxt)
            blocks.append(mats)
            frontier = nxt
        return words, np.concatenate(blocks)


def check_free_action(manifold: ConvexRPManifold, word_length=8) -> VerifierReport:
    """Verify that no short reduced word fixes a point of the tube.

    Eigenvectors of each word's matrix are the fixed points of its action;
    any eigenvector class inside the tube is reported as a violation, the
    first in column order for each word.  Words acting as the projective
    identity (relations between the generators, e.g. for commuting
    generators) are the trivial group element and carry no fixed-point
    information, so they are skipped and counted.

    All words are decided together: one stacked identity test, one stacked
    ``eig`` and one :meth:`Tube.contains_rows` call over every eigenvector,
    each rounded as a one-word check rounds it.
    """
    report = VerifierReport(
        name="free_action",
        tolerance=_PROJ_TOL,
        details={"word_length": word_length},
    )
    words, mats = manifold.word_matrices(word_length)
    identity = identity_rows(mats, _PROJ_TOL)
    report.samples_run = len(words)
    report.skipped = int(identity.sum())
    moving = np.flatnonzero(~identity)
    if len(moving):
        eigvals, eigvecs = np.linalg.eig(mats[moving])
        # a one-word eig call returns a real spectrum and its eigenvectors
        # as real arrays, but the stacked call only when every spectrum of
        # the stack is real: take the real parts word by word
        real = np.all(eigvals.imag == 0.0, axis=1)
        lifts = np.swapaxes(eigvecs, 1, 2)  # [word, column, coordinate]
        k = lifts.shape[1]
        zeta = np.empty((len(moving), k, k - 1), dtype=np.complex128)
        finite = np.empty((len(moving), k), dtype=bool)
        chart = manifold.domain.chart
        for rows, group in ((lifts[real].real, real), (lifts[~real], ~real)):
            coords, ok = chart.to_chart_rows(normalize_lifts(rows.reshape(-1, k)))
            zeta[group] = coords.reshape(-1, k, k - 1)
            finite[group] = ok.reshape(-1, k)
        inside = np.zeros_like(finite)
        inside[finite] = manifold.tube.contains_rows(zeta[finite])
        for w in np.flatnonzero(inside.any(axis=1)):
            col = int(np.argmax(inside[w]))
            value = eigvals[w, col].real if real[w] else eigvals[w, col]
            report.record(
                f"word {words[moving[w]]} fixes a tube point (eigenvalue {value:.6g})"
            )
    report.details["words_checked"] = len(words)
    report.details["identity_words"] = report.skipped
    return report


@dataclass(frozen=True)
class OrbitResult:
    """Standard-chart coordinate of an orbit representative, the group
    power or word that produced it, and the representative as a point."""

    coordinate: complex
    point: HPoint
    power: int = None
    word: tuple = None


def _proximal_frame(gmap: ProjectiveMap):
    """Eigenbasis (v_small, v_big) and ratio rho>1 of a proximal 2x2 map."""
    eigvals, eigvecs = np.linalg.eig(gmap.matrix)
    if np.abs(eigvals.imag).max() > 1e-12:
        return None
    eigvals = eigvals.real
    order = np.argsort(np.abs(eigvals))
    lo, hi = order[0], order[-1]
    if abs(eigvals[lo]) < 1e-300:
        return None
    rho = eigvals[hi] / eigvals[lo]
    if not np.isfinite(rho) or abs(rho) <= 1.0 + 1e-12:
        return None
    v = np.real_if_close(eigvecs[:, [lo, hi]])
    if np.iscomplexobj(v):
        return None
    return v.astype(float), float(rho)


def _standard_lift(z):
    if isinstance(z, HPoint):
        return z.coords.astype(np.complex128)
    z = complex(z)
    return np.array([z, 1.0], dtype=np.complex128)


def orbit_reduce(manifold: ConvexRPManifold, z, word_length=8) -> OrbitResult:
    """Reduce a point to a fundamental-domain representative.

    For a single proximal generator on one projective dimension the
    reduction is exact: in the eigenbasis coordinate tau the generator acts
    as tau -> rho tau and the representative satisfies 1 <= |tau| < rho.
    Otherwise a search over short words picks the image closest to the
    reference point in the chart.
    """
    n = manifold.domain.n
    if n == 1 and len(manifold.generators) == 1:
        frame = _proximal_frame(manifold.generators[0])
        if frame is not None:
            vmat, rho = frame
            lift = _standard_lift(z)
            alpha, beta = np.linalg.solve(vmat.astype(complex), lift)
            if abs(alpha) < 1e-300 or abs(beta) < 1e-300:
                raise DegenerateError("the point is fixed by the generator")
            tau = beta / alpha
            k = -int(np.floor(np.log(abs(tau)) / np.log(rho)))
            while abs(tau) * rho**k >= rho:
                k -= 1
            while abs(tau) * rho**k < 1.0:
                k += 1
            tau_rep = tau * rho**k
            rep_lift = vmat[:, 0].astype(complex) + tau_rep * vmat[:, 1].astype(complex)
            point = HPoint(rep_lift)
            coord = rep_lift[0] / rep_lift[1]
            if abs(coord.imag) < 1e-14 * max(1.0, abs(coord.real)):
                coord = complex(coord.real, 0.0)
            return OrbitResult(coordinate=coord, point=point, power=k)
    # generic fallback: scan images under short words
    words, mats = manifold.word_matrices(word_length)
    moved = (np.concatenate([np.eye(n + 1)[None], mats]) @ _standard_lift(z)[:, None])[:, :, 0]
    zeta, finite = manifold.domain.chart.to_chart_rows(moved)
    score = row_norms(zeta.real - manifold.domain.reference) + row_norms(
        np.ascontiguousarray(zeta.imag))
    best = None
    for k in np.flatnonzero(finite):
        if best is None or score[k] < score[best] - 1e-15:
            best = k
    if best is None:
        raise DegenerateError("no image of the point lies in the chart")
    coord = moved[best, 0] / moved[best, -1]
    return OrbitResult(coordinate=complex(coord), point=HPoint(moved[best]),
                       word=([()] + words)[best])


def quotient_distance_cyclic(manifold: ConvexRPManifold, z, w, word_length=8) -> float:
    """Distance in the quotient of a one-dimensional tube by a cyclic group:
    the minimum of tube distances d(z, g^k w) over powers |k| <= word_length.

    Coordinates are standard affine coordinates of the projective line (or
    points); the tube metric on a one-dimensional tube is the metric of its
    single slice disk.
    """
    if manifold.domain.n != 1 or len(manifold.generators) != 1:
        raise UnsupportedConfigurationError(
            "cyclic quotient distance needs one generator in dimension one"
        )
    disk = manifold.tube.slice_on_line(np.atleast_1d(manifold.domain.reference), np.array([1.0]))
    amat = manifold.generators[0].matrix
    lift_w = _standard_lift(w)
    # z, then the images g^k w
    lifts = np.array([_standard_lift(z)] + [
        np.linalg.matrix_power(amat, k).astype(complex) @ lift_w
        for k in range(-word_length, word_length + 1)])
    zeta, finite = manifold.domain.chart.to_chart_rows(lifts)
    if not finite[0]:
        raise InfinityError("orbit point left the chart")
    tau_z = disk.coord(zeta[0])
    best = np.inf
    for image in zeta[1:][finite[1:]]:
        best = min(best, disk.poincare(tau_z, disk.coord(image)))
    if not np.isfinite(best):
        raise DegenerateError("no orbit image admitted a distance computation")
    return float(best)
