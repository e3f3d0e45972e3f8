"""The batched verifiers against the per-sample loops they replaced.

``_reference_*`` are the loops of `verify_linear_convexity`,
`verify_duality_identity`, `verify_exhaustion_monotone`,
`verify_metric_consistency` and `verify_homeomorphism` as they were before
their samples were checked in row batches; ``_reference_routes`` are the
one-pair bodies of the three metric routes.  The reports must agree to the
byte, violations in the same order.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import null_space

from elliptic_tubes import catalog, verify
from elliptic_tubes.cli import _load_setup, build_parser, main
from elliptic_tubes.diskgeom import poincare_distance
from elliptic_tubes.domains import ConvexDomain
from elliptic_tubes.domspec import load_domain
from elliptic_tubes.duality import _violating_pair, dual_tube, tube_separator
from elliptic_tubes.errors import DegenerateError
from elliptic_tubes.errors import RepresentationError
from elliptic_tubes.projective import Functional, HPoint, ProjectiveMap, pushforward, row_norms
from elliptic_tubes.quotients import _preserves
from elliptic_tubes.report import VerifierReport
from elliptic_tubes.tangent import TangentVector, from_tangent, to_tangent
from elliptic_tubes.tube import Tube
from elliptic_tubes.verify import (
    _ROUTE_SLACK,
    _UNIT_ROUNDOFF,
    _route_conditions,
    verify_duality_identity,
    verify_exhaustion_monotone,
    verify_homeomorphism,
    verify_linear_convexity,
    verify_metric_consistency,
)

BENCH_DOMAINS = Path(__file__).resolve().parents[1] / "perfbench"


def _domain(name):
    if name in ("cube3", "simplex4"):
        return load_domain(str(BENCH_DOMAINS / f"{name}.dom")).domain
    return catalog.by_name(name)


# (domain, samples): the 3-cube's dual and the 4-simplex sample slowly
_CASES = [(name, 40) for name in catalog.names()] + [("cube3", 6), ("simplex4", 4)]


def _reference_linear_convexity(domain, n_points=100, n_kernel_samples=1000, seed=0, tol=1e-10,
                                variant="difference"):
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
    witnesses = tube.sample_points(rng, 64)
    wit_lifts = np.column_stack(
        [domain.chart.inverse @ np.append(wz, 1.0) for wz in witnesses]
    )
    wit_norms = np.linalg.norm(wit_lifts, axis=0)
    per_point = max(1, n_kernel_samples // n_points)
    kernel_tested = 0
    for z in tube.sample_exterior(rng, n_points):
        lift = domain.chart.inverse @ np.append(z, 1.0)
        if variant == "difference":
            xi = tube_separator(domain, z)
        else:
            fam, vals, pair = _violating_pair(domain, lift)
            if pair is None:
                report.skipped += 1
                continue
            i, j = pair
            xi_coeffs = vals[j] * fam[i] + vals[i] * fam[j]
            if np.linalg.norm(xi_coeffs) < 1e-14:
                xi = Functional(fam[i])
            else:
                xi = Functional(xi_coeffs)
        report.samples_run += 1
        value = abs(xi(lift)) / (np.linalg.norm(xi.coeffs) * np.linalg.norm(lift))
        report.observe(value)
        if value >= tol:
            report.record(f"separator fails to vanish at {z} (|xi(z)| rel {value:.3e})", value)
            continue
        # the kernel must miss the open tube: sampled kernel points stay out
        basis = null_space(xi.coeffs[None, :])
        hits = 0
        for _ in range(per_point):
            coeff = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
            point = HPoint(basis @ coeff)
            kernel_tested += 1
            if tube.contains(point):
                hits += 1
        if hits:
            report.record(f"kernel of the separator at {z} meets the tube ({hits} hits)")
        # and the tube witnesses must not lie on the kernel
        wit_vals = np.abs(xi.coeffs @ wit_lifts) / (np.linalg.norm(xi.coeffs) * wit_norms)
        if wit_vals.min() <= tol:
            report.record(f"separator at {z} nearly vanishes on a tube point")
    report.details["kernel_samples"] = kernel_tested
    return report


def _reference_duality(domain, n_samples=200, seed=0, slack=1e-9, tol=1e-10):
    tube = Tube(domain)
    dual_t, _ = verify.dual_tube(domain)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    report = VerifierReport(
        name="duality_identity",
        tolerance=tol,
        seed=seed,
        details={"slack": slack, "dual_rep": type(dual_t.base.rep).__name__},
    )
    half = n_samples // 2
    etas = dual_t.sample_points(rng, half)
    for eta in etas:
        report.samples_run += 1
        xi = dual_t.chart.inverse @ np.append(eta, 1.0)
        basis = null_space(xi[None, :])
        for _ in range(8):
            coeff = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
            point = HPoint(basis @ coeff)
            if tube.contains(point):
                report.record(f"kernel of a dual tube member {eta} meets the tube")
                break
    if domain._rows is None:
        report.skipped += half
        report.details["separator_direction"] = "skipped (no functional family)"
        return report
    for z in tube.sample_exterior(rng, half):
        report.samples_run += 1
        xi = tube_separator(domain, z)
        lift = domain.chart.inverse @ np.append(z, 1.0)
        value = abs(xi(lift)) / (np.linalg.norm(xi.coeffs) * np.linalg.norm(lift))
        report.observe(value)
        if value >= tol:
            report.record(f"separator fails to vanish at {z}", value)
        h = dual_t.chart.infinity(xi.coeffs)
        if abs(h) <= 1e-12 * np.linalg.norm(xi.coeffs):
            report.record(f"separator at {z} lies at dual chart infinity")
            continue
        eta = dual_t.chart.basis_values(xi.coeffs) / h
        defect = dual_t.violation(eta)
        report.observe(max(defect, 0.0))
        if defect > slack:
            report.record(f"separator at {z} leaves the closed dual tube ({defect:.3e})", defect)
    return report


def _reference_exhaustion(domain, deltas=(0.6, 0.4, 0.2), n_samples=200, seed=0):
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
        for z in samples:
            report.samples_run += 1
            for big in stages[i + 1:]:
                if not big.contains(z):
                    report.record(f"stage {i} sample {z} escapes a larger stage")
                    break
    absorbed = [0] * len(deltas)
    unabsorbed = 0
    for z in tube.sample_points(rng, n_samples // 2):
        report.samples_run += 1
        hit = None
        for idx in range(len(deltas) - 1, -1, -1):
            if stages[idx].contains(z):
                hit = idx
        if hit is None:
            unabsorbed += 1
        else:
            absorbed[hit] += 1
    for idx, d in enumerate(deltas):
        report.details[f"absorbed_at_{format(d, '.3g')}"] = absorbed[idx]
    report.details["unabsorbed"] = unabsorbed
    return report


def _reference_metric(domain, n_pairs=300, seed=0, tol=1e-10):
    """The per-pair loop with its old acceptance ``err < tol``."""
    tube = Tube(domain)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    report = VerifierReport(
        name="metric_consistency", tolerance=tol, seed=seed, details={"pairs": n_pairs},
    )
    pts = domain.sample_interior(rng, 2 * n_pairs)
    for k in range(n_pairs):
        x, y = pts[2 * k], pts[2 * k + 1]
        if np.linalg.norm(x - y) < 1e-10:
            report.skipped += 1
            continue
        report.samples_run += 1
        h = domain.hilbert_distance(x, y)
        k_dist = tube.kobayashi_supported(x, y)
        err = abs(h - k_dist) / max(1.0, h)
        report.observe(err)
        if err >= tol:
            report.record(f"hilbert vs tube distance differ at {x}, {y}", err)
        cr = domain.cross_ratio_check(x, y)
        err2 = abs(cr - h) / max(1.0, h)
        report.observe(err2)
        if err2 >= tol:
            report.record(f"cross-ratio route differs at {x}, {y}", err2)
    zs = tube.sample_points(rng, max(1, n_pairs // 3))
    for z in zs:
        if np.linalg.norm(z.imag) < 1e-9:
            report.skipped += 1
            continue
        report.samples_run += 1
        u = tube.u_value(z)
        d, _ = tube.core_distance(z)
        err = abs(u - 2.0 * np.arctan(np.tanh(d)))
        report.observe(err)
        if err >= max(tol, 1e-9):
            report.record(f"angle/distance mismatch at {z}", err)
    return report


def _reference_homeomorphism(domain, n_samples=200, seed=0, tol=1e-9, group_elements=()):
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
    for z in zs:
        report.samples_run += 1
        vec = to_tangent(tube, z)
        back = tube.chart_complex(from_tangent(tube, vec))
        err = float(np.linalg.norm(back - z))
        report.observe(err)
        if err >= tol:
            report.record(f"point round trip failed at {z}", err)
            continue
        # conjugation equivariance
        vec_c = to_tangent(tube, np.conj(z))
        if vec.magnitude > 1e-12:
            neg = vec.negated()
            err = (
                np.linalg.norm(vec_c.base - neg.base)
                + np.linalg.norm(vec_c.direction - neg.direction)
                + abs(vec_c.magnitude - neg.magnitude)
            )
            report.observe(err)
            if err >= max(tol, 1e-8):
                report.record(f"conjugation is not vector negation at {z}", err)
        # foot agrees with the core projection
        d, foot = tube.core_distance(z)
        err = abs(d - vec.magnitude) + np.linalg.norm(foot - vec.base)
        report.observe(err)
        if err >= max(tol, 1e-8):
            report.record(f"core distance disagrees with the vector at {z}", err)
        for gi, g in enumerate(group_elements):
            moved_lift = g.matrix @ tube.chart.lift(vec.base)
            h = tube.chart.infinity(moved_lift)
            if abs(h) <= 1e-12 * np.linalg.norm(moved_lift):
                continue
            moved_z = g.matrix.astype(complex) @ (
                tube.chart.inverse @ np.append(z, 1.0)
            )
            hz = tube.chart.infinity(moved_z)
            if abs(hz) <= 1e-12 * np.linalg.norm(moved_z):
                continue
            zeta = tube.chart.basis_values(moved_z) / hz
            vec_g = to_tangent(tube, zeta)
            base_exp = tube.chart.basis_values(moved_lift) / h
            dir_exp = pushforward(g, tube.chart, vec.base, vec.direction)
            dir_exp = dir_exp / np.linalg.norm(dir_exp)
            err = (
                np.linalg.norm(vec_g.base - base_exp.real)
                + min(
                    np.linalg.norm(vec_g.direction - dir_exp),
                    np.linalg.norm(vec_g.direction + dir_exp),
                )
                + abs(vec_g.magnitude - vec.magnitude)
            )
            report.observe(err)
            if err >= max(tol, 1e-7):
                report.record(f"element {gi} does not act equivariantly at {z}", err)
    # zero section: interior real points map to zero vectors
    for x in domain.sample_interior(rng, max(1, n_samples // 4)):
        report.samples_run += 1
        vec = to_tangent(tube, x.astype(complex))
        if vec.magnitude != 0.0 or np.linalg.norm(vec.base - x) >= tol:
            report.record(f"real point {x} does not map to a zero vector")
    # vector round trip
    for k in range(max(1, n_samples // 4)):
        base = domain.sample_interior(rng, 1)[0]
        direction = rng.normal(size=tube.n)
        direction /= np.linalg.norm(direction)
        magnitude = abs(rng.normal(0.0, 0.8)) + 1e-3
        vec = TangentVector(base=base, direction=direction, magnitude=magnitude)
        report.samples_run += 1
        z = tube.chart_complex(from_tangent(tube, vec))
        back = to_tangent(tube, z)
        err = (
            np.linalg.norm(back.base - base)
            + np.linalg.norm(back.direction - direction)
            + abs(back.magnitude - magnitude)
        )
        report.observe(err)
        if err >= max(tol, 1e-8):
            report.record(f"vector round trip failed at base {base}", err)
    return report


def _reference_routes(domain, x, y):
    """(Hilbert, tube, cross-ratio) distance of one real pair, through the
    one-pair bodies the row forms replaced."""
    sep = np.linalg.norm(y - x)
    clip = domain.line_clip((x, y - x))
    a, b = clip.a, clip.b
    h = 0.5 * float(np.log(((a - sep) * b) / (a * (b - sep))))

    def unit(tau):
        return (2.0 * complex(tau) - (a + b)) / (b - a)

    k_dist = poincare_distance(unit(0.0), unit(sep))
    pa, pb = clip.endpoint_points()
    lifts = np.vstack([domain.chart.hpoint(p).coords.astype(np.complex128)
                       for p in (pa, x, y, pb)])
    _, _, vh = np.linalg.svd(lifts)
    coords = lifts @ vh[:2].conj().T

    def det(i, j):
        return coords[i, 0] * coords[j, 1] - coords[i, 1] * coords[j, 0]

    cr = (det(0, 2) * det(3, 1)) / (det(0, 1) * det(3, 2))
    return h, k_dist, 0.5 * float(np.log(float(cr.real)))


def _pairs(domain, seed, count):
    """Interior pairs, some of their points pushed out along the ray from
    the reference point to 1e-7 or 1e-3 of the way to the boundary: of
    every three pairs, one has both points at 1e-7, one a point at 1e-7
    and one a point at 1e-3."""
    pts = domain.sample_interior(np.random.default_rng(seed), 2 * count)
    ref = domain.reference
    rays = (pts - ref) / row_norms(pts - ref)[:, None]
    _, ends, _ = domain.clip_lines(np.broadcast_to(ref, pts.shape), rays)
    gaps = np.resize([1e-7, 1e-7, 1e-7, 0.0, 1e-3, 0.0], len(pts))
    out = gaps > 0.0
    pts[out] = ref + rays[out] * (ends[out] * (1.0 - gaps[out]))[:, None]
    pts = pts[domain.contains_rows(pts)]
    pts = pts[: len(pts) // 2 * 2]
    x, y = pts[0::2], pts[1::2]
    # on a line, two points pushed to the same end coincide; the metric
    # verifier skips such pairs
    apart = row_norms(x - y) >= 1e-10
    return x[apart], y[apart]


# ---------- the batched verifiers equal the loops ----------------------------------


@pytest.mark.parametrize("variant", ["difference", "sum"])
@pytest.mark.parametrize("name, samples", _CASES)
def test_linear_convexity_matches_the_per_point_loop(name, samples, variant):
    domain = _domain(name)
    for seed in (0, 1, 2):
        args = dict(n_points=samples, n_kernel_samples=10 * samples, seed=seed, variant=variant)
        try:
            want = _reference_linear_convexity(domain, **args).to_text(max_violations=1000)
        except DegenerateError:  # an ellipsoid has no functional family
            with pytest.raises(DegenerateError):
                verify_linear_convexity(domain, **args)
            continue
        assert verify_linear_convexity(domain, **args).to_text(max_violations=1000) == want


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_failing_linear_convexity_run_matches_the_loop(monkeypatch, square, seed):
    """Separators of a square shrunk by half, with their kernels probed
    against the tube over the whole square and a loose tolerance: kernel
    hits and witnesses near a kernel are flagged, in the loop's order."""
    big = Tube(square)
    contains, contains_rows = Tube.contains, Tube.contains_rows
    monkeypatch.setattr(Tube, "contains", lambda self, z: contains(big, z))
    monkeypatch.setattr(Tube, "contains_rows", lambda self, zeta: contains_rows(big, zeta))
    args = dict(n_points=30, n_kernel_samples=300, seed=seed, tol=0.1)
    want = _reference_linear_convexity(square.scaled_copy(0.5), **args)
    assert any("meets the tube" in m for m in want.violations)
    assert any("nearly vanishes" in m for m in want.violations)
    got = verify_linear_convexity(square.scaled_copy(0.5), **args)
    assert got.to_text(max_violations=1000) == want.to_text(max_violations=1000)


@pytest.mark.parametrize("name, samples", _CASES)
def test_duality_matches_the_per_member_loop(name, samples):
    domain = _domain(name)
    for seed in (0, 1):
        want = _reference_duality(domain, n_samples=samples, seed=seed).to_text()
        assert verify_duality_identity(domain, n_samples=samples, seed=seed).to_text() == want


@pytest.mark.parametrize("name, samples", _CASES)
def test_exhaustion_matches_the_per_sample_loop(name, samples):
    domain = _domain(name)
    for seed in (0, 1):
        want = _reference_exhaustion(domain, n_samples=samples, seed=seed).to_text()
        assert verify_exhaustion_monotone(domain, n_samples=samples, seed=seed).to_text() == want


@pytest.mark.parametrize("name, samples", _CASES)
def test_metric_matches_the_per_pair_loop(name, samples):
    domain = _domain(name)
    for seed in (0, 1):
        want = _reference_metric(domain, n_pairs=samples, seed=seed).to_text()
        assert verify_metric_consistency(domain, n_pairs=samples, seed=seed).to_text() == want


def _cli_generators(name):
    """The group elements that ``check --domain name`` hands the verifier."""
    return _load_setup(build_parser().parse_args(["check", "--domain", name])).generators


@pytest.mark.parametrize("name", catalog.names() + ["cube3", "simplex4"])
def test_homeomorphism_matches_the_per_point_loop(name):
    domain = _domain(name)
    groups = [()] + ([_cli_generators(name)] if name in ("simplex", "halfline") else [])
    for generators in groups:
        for seed in (0, 1, 2):
            for samples in (0, 1, 2, 30):
                want = _reference_homeomorphism(domain, n_samples=samples, seed=seed,
                                                group_elements=generators).to_text()
                got = verify_homeomorphism(domain, n_samples=samples, seed=seed,
                                           group_elements=generators).to_text()
                assert got == want


def _patch_homeomorphism(monkeypatch, name, scalar, rows):
    """Sabotage one map of both routes alike: the per-point loop looks it up
    in this module, the verifier in `verify`."""
    monkeypatch.setitem(globals(), name, scalar(globals()[name]))
    monkeypatch.setattr(verify, f"{name}_rows", rows(getattr(verify, f"{name}_rows")))


@pytest.mark.parametrize("sabotage", ["round trip", "conjugate", "pushforward"])
def test_failing_homeomorphism_run_matches_the_loop(monkeypatch, simplex, sabotage):
    if sabotage == "round trip":
        # points above the real plane in their first coordinate come back
        # 1e-6 off
        def shifted(out):
            return out + np.where(out.imag[..., :1] > 0.0, 1e-6, 0.0)

        _patch_homeomorphism(monkeypatch, "from_tangent",
                             lambda f: lambda tube, vec: shifted(f(tube, vec)),
                             lambda f: lambda tube, *vec: shifted(f(tube, *vec)))
        message = "point round trip failed"
    elif sabotage == "conjugate":
        # a point below the real plane in its first coordinate gets a
        # magnitude 1e-6 too long, so its conjugate's vector is no negation
        def longer(z):
            return 1e-6 * (np.asarray(z).imag[..., 0] < 0.0)

        _patch_homeomorphism(
            monkeypatch, "to_tangent",
            lambda f: lambda tube, z: (lambda v: TangentVector(
                v.base, v.direction, v.magnitude + float(longer(z))))(f(tube, z)),
            lambda f: lambda tube, z: (lambda v: (v[0], v[1], v[2] + longer(z)))(f(tube, z)))
        message = "conjugation is not vector negation"
    else:
        # the pushed-forward direction has its last component's sign flipped
        def flipped(out):
            return out * np.append(np.ones(out.shape[-1] - 1), -1.0)

        _patch_homeomorphism(monkeypatch, "pushforward",
                             lambda f: lambda *args: flipped(f(*args)),
                             lambda f: lambda *args: flipped(f(*args)))
        message = "element 0 does not act equivariantly"
    generators = _cli_generators("simplex")
    for seed in (0, 1):
        want = _reference_homeomorphism(simplex, n_samples=30, seed=seed,
                                        group_elements=generators)
        assert any(m.startswith(message) for m in want.violations)
        got = verify_homeomorphism(simplex, n_samples=30, seed=seed, group_elements=generators)
        assert got.to_text(max_violations=1000) == want.to_text(max_violations=1000)


@pytest.mark.parametrize("samples", [0, 1, 2])
def test_tiny_sample_counts_match_the_loops(square, samples):
    assert (verify_duality_identity(square, n_samples=samples).to_text()
            == _reference_duality(square, n_samples=samples).to_text())
    assert (verify_exhaustion_monotone(square, n_samples=samples).to_text()
            == _reference_exhaustion(square, n_samples=samples).to_text())
    assert (verify_metric_consistency(square, n_pairs=samples).to_text()
            == _reference_metric(square, n_pairs=samples).to_text())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_failing_duality_run_keeps_the_member_order(monkeypatch, square, seed):
    """The dual tube of a square shrunk by 10% is too big: kernels of a few
    of its members meet the tube.  The per-member loop stops drawing at a
    member's first hit, so after the first violation its stream, and so
    the members it flags, can differ from the batched run, which draws
    every kernel point; up to that violation the two agree."""
    monkeypatch.setattr(verify, "dual_tube", lambda d: dual_tube(d.scaled_copy(0.1)))
    want = _reference_duality(square, n_samples=60, seed=seed)
    got = verify_duality_identity(square, n_samples=60, seed=seed)
    assert want.violations and got.violations
    assert got.violations[0] == want.violations[0]
    etas = dual_tube(square.scaled_copy(0.1))[0].sample_points(
        np.random.default_rng(np.random.SeedSequence([seed])), 30)
    order = [f"kernel of a dual tube member {eta} meets the tube" for eta in etas]
    assert got.violations == [m for m in order if m in got.violations]


def test_failing_exhaustion_run_matches_the_loop(monkeypatch, square):
    # stages shifted by 2 delta: the small ones stick out of the larger ones
    original = ConvexDomain.scaled_copy

    def shifted_copy(self, delta):
        shift = ProjectiveMap([[1.0, 0.0, 2.0 * delta], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        return original(self, delta).transform(shift)

    monkeypatch.setattr(ConvexDomain, "scaled_copy", shifted_copy)
    want = _reference_exhaustion(square, n_samples=60, seed=2)
    assert len(want.violations) > 1
    assert verify_exhaustion_monotone(square, n_samples=60, seed=2).to_text() == want.to_text()


def test_failing_metric_run_matches_the_loop(monkeypatch, square):
    # both routes off: each pair records two violations, tube route first
    tube_route = Tube.real_pair_distances
    cross_route = ConvexDomain.cross_ratio_rows
    monkeypatch.setattr(Tube, "real_pair_distances",
                        lambda self, x, y: tube_route(self, x, y) + 1e-6)
    monkeypatch.setattr(ConvexDomain, "cross_ratio_rows",
                        lambda self, x, y: cross_route(self, x, y) - 2e-6)
    want = _reference_metric(square, n_pairs=30, seed=4)
    assert len(want.violations) == 2 * want.details["pairs"]
    assert verify_metric_consistency(square, n_pairs=30, seed=4).to_text() == want.to_text()


# ---------- metric routes ------------------------------------------------------------


@pytest.mark.parametrize("name", catalog.names() + ["cube3", "simplex4"])
def test_metric_row_forms_round_as_the_one_pair_bodies(name):
    domain = _domain(name)
    tube = Tube(domain)
    x, y = _pairs(domain, 5, 150)
    rows = np.column_stack([domain.hilbert_distance_rows(x, y),
                            tube.real_pair_distances(x, y),
                            domain.cross_ratio_rows(x, y)])
    for i in range(len(x)):
        want = _reference_routes(domain, x[i], y[i])
        assert tuple(rows[i]) == want
        assert (domain.hilbert_distance(x[i], y[i]), tube.kobayashi_supported(x[i], y[i]),
                domain.cross_ratio_check(x[i], y[i])) == want


@pytest.mark.parametrize("name", catalog.names() + ["cube3"])
def test_route_errors_stay_inside_their_condition_bound(name):
    # the slack of 64 is derived as an upper bound; the measured constant
    # (about 7 for the Poincare route, 0.5 for the cross ratio) leaves room
    domain = _domain(name)
    x, y = _pairs(domain, 6, 300)
    h = domain.hilbert_distance_rows(x, y)
    kappa_p, kappa_c = _route_conditions(domain, x, y)
    for values, kappa in ((Tube(domain).real_pair_distances(x, y), kappa_p),
                          (domain.cross_ratio_rows(x, y), kappa_c)):
        assert np.all(np.abs(values - h) <= 16.0 * _UNIT_ROUNDOFF * kappa)


@pytest.mark.parametrize("argv", [
    ["--file", str(BENCH_DOMAINS / "cube3.dom"), "--seed", "910389641", "--samples", "5"],
    ["--domain", "square", "--seed", "1223299072", "--samples", "30"],
    ["--domain", "square", "--seed", "19166", "--samples", "30"],
])
def test_metric_accepts_ill_conditioned_pairs_on_correct_code(capsys, argv):
    # each run holds a pair at Hilbert distance 8.9 to 9.5 near a facet,
    # whose routes differ by 1.2e-10 to 2.9e-10 relative through rounding
    assert main(["check", "--suite", "metric", *argv]) == 0
    assert capsys.readouterr().out.startswith("[PASS] metric_consistency")


def test_metric_accepts_a_line_grazing_a_facet(monkeypatch, triangle):
    # both points lie within 2e-8 of the hypotenuse, and their line leaves
    # through it at a grazing angle, where a direction one ulp off moves
    # the clip end enough to move h by 3.4e-9; every route clips the same
    # line, so they agree to rounding
    pair = np.array([[0.7259990504268387, 0.274000930874232],
                     [0.35223346725006954, 0.647766526357219]])
    monkeypatch.setattr(ConvexDomain, "sample_interior", lambda self, rng, count: pair)
    assert not _reference_metric(triangle, n_pairs=1).violations
    report = verify_metric_consistency(triangle, n_pairs=1)
    assert report.passed and report.max_error < 1e-12


def test_metric_accepts_points_near_opposite_facets(monkeypatch, square):
    # end gaps of 1e-7 at both ends make both products of the cross ratio's
    # determinants about 1e-14; the guard tests each determinant against
    # the norms of its own two points, so only coincident points raise
    x, y = [-1.0 + 1e-7, 0.1], [1.0 - 1e-7, 0.1]
    assert square.cross_ratio_check(x, y) == pytest.approx(16.81124278, abs=1e-8)
    monkeypatch.setattr(ConvexDomain, "sample_interior",
                        lambda self, rng, count: np.array([x, y]))
    assert verify_metric_consistency(square, n_pairs=1).passed
    with pytest.raises(DegenerateError, match="coincident"):
        square.cross_ratio_rows(np.array([x]), np.array([[1.0, 0.1]]))


@pytest.mark.parametrize("route", ["tube", "cross"])
def test_metric_flags_an_offset_route_on_well_conditioned_pairs(monkeypatch, square, route):
    # a route off by 1e-9 max(1, h) must fail on every pair with kappa < 1e3
    def offset(values, x, y):
        return values + 1e-9 * np.maximum(1.0, square.hilbert_distance_rows(x, y))

    if route == "tube":
        original = Tube.real_pair_distances
        monkeypatch.setattr(Tube, "real_pair_distances",
                            lambda self, x, y: offset(original(self, x, y), x, y))
        message, which = "hilbert vs tube distance", 0
    else:
        original = ConvexDomain.cross_ratio_rows
        monkeypatch.setattr(ConvexDomain, "cross_ratio_rows",
                            lambda self, x, y: offset(original(self, x, y), x, y))
        message, which = "cross-ratio route", 1
    report = verify_metric_consistency(square, n_pairs=200, seed=8)
    pts = square.sample_interior(np.random.default_rng(np.random.SeedSequence([8])), 400)
    kappa = _route_conditions(square, pts[0::2], pts[1::2])[which]
    assert (kappa < 1e3).sum() > 150
    flagged = [m for m in report.violations if m.startswith(message)]
    assert len(flagged) >= (kappa < 1e3).sum()
    assert _ROUTE_SLACK * _UNIT_ROUNDOFF * 1e3 < 1e-10
