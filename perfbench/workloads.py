"""The three workloads: their set-up, operations, output checks and traces.

Every workload is a closed loop with one caller: an operation starts when
the previous one has finished.  Operations come in rounds; a round holds
every operation type of the workload once (or a fixed number of times), so
each run measures the same mix.  All inputs of round r derive from the
benchmark seed and r through NumPy alone, so a change to the library
cannot change what is measured.

Outcome of an operation:

* ``passed``: it returned and its output checked out;
* ``failed``: it did not pass (timed out, raised, returned an error
  verdict, or its output did not check out);
* ``wrong``: a failed operation whose output contradicts the geometry
  (routes that disagree, a verifier that reports violations, a raster
  pixel that disagrees with ``Tube.contains``).  Any wrong output makes
  the run's ``correct`` false; a timeout, an error verdict or an undecided
  slice (``SliceRasters.UNDECIDED``) does not.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import re
import signal
import sys
from dataclasses import dataclass

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# ----------------------------------------------------------------------
# library loading


class Library:
    """Freshly imported library modules (see `load_library`)."""

    MODULES = ("cli", "domains", "domspec", "duality", "quotients", "tangent",
               "tube", "verify", "catalog", "_kernels")

    def __init__(self):
        for name in self.MODULES:
            setattr(self, name.lstrip("_"), importlib.import_module(f"elliptic_tubes.{name}"))


def load_library():
    """Import the package from scratch: drop every loaded elliptic_tubes
    module first, so each set-up pays the import and lane selection."""
    for name in [m for m in sys.modules if m == "elliptic_tubes" or m.startswith("elliptic_tubes.")]:
        del sys.modules[name]
    lib = Library()
    lib.lane = lib.kernels.backend()
    return lib


# ----------------------------------------------------------------------
# op budget


class OpTimeout(BaseException):
    """Raised by SIGALRM when an op exceeds its wall budget.

    It derives from BaseException so that neither ``cli.main`` (which maps
    OSError/ValueError to exit code 2) nor a library ``except Exception``
    can swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


def install_alarm():
    signal.signal(signal.SIGALRM, _on_alarm)


@contextlib.contextmanager
def wall_budget(seconds):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


@dataclass
class Op:
    """One operation: a type label (for failure accounting) plus inputs."""

    kind: str
    args: tuple


@dataclass(frozen=True)
class Outcome:
    passed: bool
    wrong: str = None  # message when the output contradicts the geometry
    timed_out: bool = False
    note: str = ""


PASSED = Outcome(True)


def derive_seeds(seed, workload_index, round_index, count):
    """``count`` verifier seeds for one round, from NumPy only."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, workload_index, round_index]))
    return [int(k) for k in rng.integers(0, 2**31 - 1, size=count)]


# ----------------------------------------------------------------------
# check-suites


class CheckSuites:
    """One op is one in-process ``elliptic-tubes check`` call for one suite
    on one domain: the verifier hot path (box-rejection sampling plus one
    scalar ``line_clip`` per draw) without rasters."""

    name = "check-suites"
    index = 1
    trace_rounds = 1
    SUITES = ("linconv", "duality", "metric", "homeo", "exhaust")
    CATALOG = ("square", "triangle", "simplex", "ellipse", "halfline")
    WITH_GENERATORS = ("simplex", "halfline")  # the CLI attaches generators
    FILES = {"cube3": "cube3.dom", "simplex4": "simplex4.dom"}
    # Catalog domains run at 30 samples, so that a 30 s run holds three
    # rounds: with one or two long rounds, the spread of a few ops from seed
    # to seed sets the run's.  Box-rejection acceptance is 0.8% on the
    # 3-cube and far less on its dual, so the cube's duality op is
    # heavy-tailed at any sample count (at 4 samples: 0.1 to 4 s, mean 1 s)
    # and its cost grows with the count; it runs at 5.
    SAMPLES = {"cube3": 5, "simplex4": 5}
    DEFAULT_SAMPLES = 30
    # The 4-simplex sampler has no draw budget and never returns (n = 4
    # accepted none of 20,000 draws), so its ops run under a wall budget and
    # count as failed with the budget as latency.  It runs one suite per
    # round, cycling through all five, so that its timeouts stay a few
    # percent of the ops and do not by themselves set a latency percentile.
    # Every other op runs under a hang guard only.
    BUDGET_S = {"simplex4": 0.5}
    ROTATING = ("simplex4",)
    HANG_GUARD_S = 60.0
    _SUMMARY = re.compile(r"^\[(PASS|FAIL)\] (\w+): (\d+) samples, (\d+) violations")

    def setup(self, lib):
        for path in self.FILES.values():
            lib.domspec.load_domain(os.path.join(BENCH_DIR, path))
        for name in self.CATALOG:
            lib.tube.Tube(lib.catalog.by_name(name))

    def kinds(self, seed, r):
        kinds = []
        for name in self.CATALOG:
            kinds += [(name, suite) for suite in self.SUITES]
            if name in self.WITH_GENERATORS:
                kinds.append((name, "action"))
        for name in self.FILES:
            if name in self.ROTATING:
                kinds.append((name, self.SUITES[(seed + r) % len(self.SUITES)]))
            else:
                kinds += [(name, suite) for suite in self.SUITES]
        return kinds

    def round_ops(self, seed, r):
        kinds = self.kinds(seed, r)
        seeds = derive_seeds(seed, self.index, r, len(kinds))
        ops = []
        for (domain, suite), k in zip(kinds, seeds):
            if domain in self.FILES:
                where = ["--file", os.path.join(BENCH_DIR, self.FILES[domain])]
            else:
                where = ["--domain", domain]
            samples = self.SAMPLES.get(domain, self.DEFAULT_SAMPLES)
            argv = ["check", *where, "--suite", suite, "--seed", str(k),
                    "--samples", str(samples)]
            ops.append(Op(f"{domain}/{suite}", (argv, self.BUDGET_S.get(domain, self.HANG_GUARD_S))))
        return ops

    def run_op(self, lib, op):
        argv, budget = op.args
        out, err = io.StringIO(), io.StringIO()
        try:
            with wall_budget(budget), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = lib.cli.main(argv)
        except OpTimeout:
            return None
        return code, out.getvalue(), err.getvalue()

    def judge(self, lib, op, raw):
        if raw is None:
            return Outcome(False, timed_out=True, note=f"timeout after {op.args[1]} s budget")
        code, out, err = raw
        lines = out.strip().splitlines()
        summary = self._SUMMARY.match(lines[-1]) if lines else None
        if code == 0 and summary and summary.group(1) == "PASS" and int(summary.group(3)) > 0:
            return PASSED
        text = (lines[-1] if lines else err.strip())[:160]
        if summary and int(summary.group(4)) > 0:
            return Outcome(False, wrong=text, note=text)
        if code == 1 and lines and lines[-1].startswith("[FAIL]"):
            return Outcome(False, note=text)  # error verdict, no geometric claim
        return Outcome(False, wrong=f"exit {code}: {text}", note=text)

    def check_phase(self, lib, seed):
        return []


# ----------------------------------------------------------------------
# slice-rasters


class SliceRasters:
    """One op rasterizes one random complex line through the tube and
    counts its components (`verify_c_convexity` with one line): the
    raster-kernel and connected-component hot path."""

    name = "slice-rasters"
    index = 2
    trace_rounds = 1
    DOMAINS = ("triangle", "square", "ellipse")  # H rows, V rows, ellipsoid
    # The control (six lines) takes about as long as seven single lines.  At
    # ten lines per domain it is 3% of the ops, far enough above the 90th
    # percentile that the p90 estimate does not lean on it.
    LINES_PER_DOMAIN = 10
    RESOLUTION = 512
    STABILITY = 2
    # Criterion 08's negative control, unchanged: six lines of seed 5 on the
    # triangle punctured at (0.25, 0.25).  It is fixed rather than seeded
    # because a single seeded line misses a 0.08 puncture most of the time,
    # and a control that does not see its hole checks nothing.
    CONTROL = dict(n_lines=6, seed=5, puncture=((0.25, 0.25), 0.08))
    # Verdicts on which the verifier counted no components: the fitted
    # window cut off part of the region (a cusp tip thinner than the 256 px
    # probe's pixels sticks out past it), or the raster was empty.  The line
    # is undecided, which says nothing against the geometry, so the op
    # counts as failed but not as wrong.
    UNDECIDED = ("region clipped by the window", "empty raster")
    CHECK_PIXELS = 200
    INTERIOR = {"triangle": np.array([0.25, 0.25]), "square": np.zeros(2),
                "ellipse": np.zeros(2)}

    def setup(self, lib):
        self.domains = {name: lib.catalog.by_name(name) for name in self.DOMAINS}
        self.tubes = {name: lib.tube.Tube(d) for name, d in self.domains.items()}

    def round_ops(self, seed, r):
        seeds = derive_seeds(seed, self.index, r, len(self.DOMAINS) * self.LINES_PER_DOMAIN)
        ops = []
        for i, k in enumerate(seeds):
            name = self.DOMAINS[i % len(self.DOMAINS)]
            ops.append(Op(name, (name, k)))
        ops.append(Op("control", ("triangle", None)))
        return ops

    def run_op(self, lib, op):
        name, k = op.args
        if k is None:
            center, radius = self.CONTROL["puncture"]
            return lib.verify.verify_c_convexity(
                self.domains[name], n_lines=self.CONTROL["n_lines"],
                resolution=self.RESOLUTION, stability_factor=self.STABILITY,
                seed=self.CONTROL["seed"], puncture=(np.array(center), radius))
        return lib.verify.verify_c_convexity(
            self.domains[name], n_lines=1, resolution=self.RESOLUTION,
            stability_factor=self.STABILITY, seed=k)

    def judge(self, lib, op, report):
        name, k = op.args
        if k is None:
            if not report.passed and any("holes" in v for v in report.violations):
                return PASSED
            return Outcome(False, wrong="punctured control found no hole")
        if report.passed and report.samples_run == 1:
            return PASSED
        message = "; ".join(report.violations[:2]) or "no line was rasterized"
        if report.samples_run == 1 and all(v.endswith(self.UNDECIDED)
                                           for v in report.violations):
            return Outcome(False, note=f"seed {k}: {message}")
        return Outcome(False, wrong=f"seed {k}: {message}")

    def check_phase(self, lib, seed):
        """Raster pixels must agree with ``Tube.contains`` at their centres,
        boundary pixels (by ``boundary_classify``) excluded."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.index, 10**6]))
        problems = []
        for name in self.DOMAINS:
            tube = self.tubes[name]
            # a tube point: an interior real point moved by less than 0.05
            anchor = (self.INTERIOR[name] + rng.uniform(-0.05, 0.05, size=2)
                      + 1j * rng.uniform(-0.05, 0.05, size=2))
            direction = rng.normal(size=2) + 1j * rng.normal(size=2)
            raster = lib.verify.rasterize_line(tube, anchor, direction,
                                               resolution=self.RESOLUTION)
            picks = []
            for value in (0, 1):
                rows, cols = np.nonzero(raster.bitmap == value)
                take = rng.choice(len(rows), size=min(self.CHECK_PIXELS // 2, len(rows)),
                                  replace=False)
                picks += [(rows[t], cols[t]) for t in take]
            if len(picks) < self.CHECK_PIXELS:
                problems.append(f"{name}: raster check saw only {len(picks)} pixels")
            bad = 0
            for i, j in picks:
                z = raster.point(raster.w_re[j] + 1j * raster.w_im[i])
                kind = tube.boundary_classify(z)
                if kind in (lib.tube.REAL_BOUNDARY, lib.tube.COMPLEX_BOUNDARY):
                    continue
                bad += bool(raster.bitmap[i, j]) != tube.contains(z)
            if bad:
                problems.append(f"{name}: {bad} raster pixels disagree with Tube.contains")
        return problems


# ----------------------------------------------------------------------
# point-queries


class PointQueries:
    """One op is one chain of per-point queries on a generated chart point:
    membership (both routes on row domains), then the gauge, core distance
    and tangent round trip inside, or the separator outside.  No sampler
    and no kernel runs; each answered query makes one ``line_clip``."""

    name = "point-queries"
    index = 3
    trace_rounds = 400
    POINTS_PER_DOMAIN = 4
    R2, R3 = math.sqrt(2.0), math.sqrt(3.0)
    # (real box lo, real box hi, imaginary half width).  The real box is the
    # base's chart bounding box; the imaginary half width puts about 40% of
    # the points inside the tube.  Inside chains cost about four times as
    # much as outside ones, so at a 50% share the median would sit in the
    # gap between the two latency modes and jump from run to run.
    BOXES = {
        "square": (np.array([-1.0, -1.0]), np.array([1.0, 1.0]), 1.13),
        "triangle": (np.array([0.0, 0.0]), np.array([1.0, 1.0]), 0.15),
        "simplex": (np.array([0.0, 0.0]), np.array([R3, R3]), 0.25),
        "ellipse": (np.array([-0.8, -0.5]), np.array([0.8, 0.5]), 0.53),
        "halfline": (np.array([0.0]), np.array([R2]), 1.39),
    }
    ROW_DOMAINS = ("square", "triangle", "simplex", "halfline")

    def setup(self, lib):
        self.state = {}
        for name in self.BOXES:
            domain = lib.catalog.by_name(name)
            hdomain = domain.as_hdomain() if name in self.ROW_DOMAINS else None
            manifold = None
            if name == "halfline":
                manifold = lib.quotients.ConvexRPManifold(domain, (lib.catalog.doubling_map(),))
            self.state[name] = (lib.tube.Tube(domain), hdomain,
                                lib.tube.Tube(hdomain) if hdomain is not None else None,
                                manifold)
        self.inside = 0
        self.answered = 0

    def round_ops(self, seed, r):
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.index, r]))
        ops = []
        for _ in range(self.POINTS_PER_DOMAIN):
            for name, (lo, hi, im_half) in self.BOXES.items():
                z = rng.uniform(lo, hi) + 1j * rng.uniform(-im_half, im_half, size=len(lo))
                ops.append(Op(name, (name, z)))
        return ops

    def run_op(self, lib, op):
        name, z = op.args
        tube, hdomain, htube, manifold = self.state[name]
        inside = tube.contains(z)
        pairwise = htube.contains_pairwise(z) if htube is not None else None
        if not inside:
            xi = lib.duality.tube_separator(hdomain, z) if hdomain is not None else None
            return inside, pairwise, xi
        u = tube.u_value(z)
        dist, _ = tube.core_distance(z)
        back = lib.tangent.from_tangent(tube, lib.tangent.to_tangent(tube, z))
        point = orbit = None
        if manifold is not None:
            point = tube.hpoint(z)
            orbit = lib.quotients.orbit_reduce(manifold, point)
        return inside, pairwise, u, dist, back, point, orbit

    def judge(self, lib, op, raw):
        name, z = op.args
        tube, hdomain, htube, manifold = self.state[name]
        inside, pairwise = raw[:2]
        self.answered += 1
        self.inside += bool(inside)
        if pairwise is not None and pairwise != inside:
            return Outcome(False, wrong=f"{name}: membership routes disagree at {z}")
        if not inside:
            xi = raw[2]
            if xi is not None:
                lift = hdomain.chart.inverse @ np.append(z, 1.0)
                value = abs(xi(lift)) / (np.linalg.norm(xi.coeffs) * np.linalg.norm(lift))
                if not value < 1e-10:
                    return Outcome(False, wrong=f"{name}: separator misses {z} ({value:.3e})")
            return PASSED
        u, dist, back, point, orbit = raw[2:]
        err = abs(u - 2.0 * math.atan(math.tanh(dist)))
        if not err < 1e-9:
            return Outcome(False, wrong=f"{name}: angle/distance mismatch {err:.3e} at {z}")
        err = float(np.linalg.norm(np.asarray(back) - z))
        if not err < 1e-8:
            return Outcome(False, wrong=f"{name}: tangent round trip off by {err:.3e} at {z}")
        if orbit is not None:
            power = np.linalg.matrix_power(manifold.generators[0].matrix, orbit.power)
            moved = power @ point.coords
            rep = orbit.point.coords
            cross = abs(moved[0] * rep[1] - moved[1] * rep[0])
            if not cross < 1e-9 * np.linalg.norm(moved) * np.linalg.norm(rep):
                return Outcome(False, wrong=f"{name}: orbit representative off the orbit of {z}")
        return PASSED

    def check_phase(self, lib, seed):
        return []

    def details(self):
        share = self.inside / self.answered if self.answered else 0.0
        return {"inside_share": share}


WORKLOADS = {w.name: w for w in (CheckSuites, SliceRasters, PointQueries)}


# ----------------------------------------------------------------------
# tracing plan


def _raster_label(op_resolution, stability):
    def label(bound):
        res = int(bound.get("resolution", 512))
        if res == op_resolution:
            return "verify.rasterize_line.final"
        if res == op_resolution * stability:
            return "verify.rasterize_line.stability"
        return "verify.rasterize_line.probe"
    return label


def _pairwise_hook(tracer, bound, result):
    pixels = len(bound["w_re"]) * len(bound["w_im"])
    m = len(bound["fam_a"])
    tracer.count("kernels.pairwise_bitmap.pixels", pixels)
    tracer.count("kernels.pairwise_bitmap.pair_tests", m * (m + 1) // 2 * pixels)


def _ellipsoid_hook(tracer, bound, result):
    tracer.count("kernels.ellipsoid_bitmap.pixels", len(bound["w_re"]) * len(bound["w_im"]))


def _accepted_hook(key):
    def hook(tracer, bound, result):
        tracer.count(key, len(result))
    return hook


def patch_library(lib, tracer):
    """Wrap every traced function where its callers look it up.

    Methods are patched on their class.  A module-level function is patched
    in every loaded elliptic_tubes module that holds it under that name
    (for instance ``verify.tube_separator`` as well as
    ``duality.tube_separator``).  Returns the names that were not found.
    """
    missing = []
    methods = [
        (lib.domains.ConvexDomain, "line_clip", "domains.line_clip", None),
        (lib.domains.ConvexDomain, "contains", "domains.contains", None),
        (lib.tube.Tube, "contains", "tube.contains", None),
        (lib.tube.Tube, "contains_pairwise", "tube.contains_pairwise", None),
        (lib.tube.Tube, "u_value", "tube.u_value", None),
        (lib.tube.Tube, "core_distance", "tube.core_distance", None),
        (lib.tube.Tube, "boundary_classify", "tube.boundary_classify", None),
        (lib.tube.Tube, "sample_points", "tube.sample_points",
         _accepted_hook("tube.sample_points.accepted")),
        (lib.tube.Tube, "sample_exterior", "tube.sample_exterior",
         _accepted_hook("tube.sample_exterior.accepted")),
    ]
    for owner, attr, name, hook in methods:
        if not hasattr(owner, attr):
            missing.append(name)
            continue
        tracer.wrap(owner, attr, name, hook)
    raster = _raster_label(SliceRasters.RESOLUTION, SliceRasters.STABILITY)
    functions = [
        (lib.tangent, "to_tangent", "tangent.to_tangent", None),
        (lib.tangent, "from_tangent", "tangent.from_tangent", None),
        (lib.duality, "tube_separator", "duality.tube_separator", None),
        (lib.duality, "dual_tube", "duality.dual_tube", None),
        (lib.verify, "rasterize_line", raster, None),
        (lib.verify, "connectivity_counts", "verify.connectivity_counts", None),
        (lib.kernels, "pairwise_bitmap", "kernels.pairwise_bitmap", _pairwise_hook),
        (lib.kernels, "ellipsoid_bitmap", "kernels.ellipsoid_bitmap", _ellipsoid_hook),
        (lib.quotients, "check_free_action", "quotients.check_free_action", None),
        (lib.quotients, "orbit_reduce", "quotients.orbit_reduce", None),
        (lib.cli, "main", "cli.main", None),
        (lib.domspec, "load_domain", "domspec.load_domain", None),
    ]
    # verifier entry points: traced so that cli.main's self time is the
    # CLI's own work; they are not reported as layers
    for attr in ("verify_linear_convexity", "verify_c_convexity", "verify_duality_identity",
                 "verify_metric_consistency", "verify_homeomorphism",
                 "verify_exhaustion_monotone"):
        functions.append((lib.verify, attr, f"verify.{attr}", None))
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "elliptic_tubes" or key.startswith("elliptic_tubes.")]
    for home, attr, name, hook in functions:
        original = getattr(home, attr, None)
        if original is None:
            missing.append(name if isinstance(name, str) else f"verify.{attr}")
            continue
        for module in modules:
            if module.__dict__.get(attr) is original:
                tracer.wrap(module, attr, name, hook)
    return missing
