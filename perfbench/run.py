"""Benchmark of the elliptic_tubes package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check-suites --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads: check-suites, slice-rasters, point-queries (see workloads.py).
The package is imported from ``src/`` of the current directory; the run
exits with code 2 when it is not there.

``--trace 0`` times whole rounds of operations until ``--seconds`` have
passed and reports the end-to-end metrics, scaled by a speed probe timed
between the operations (see `SpeedProbe`).  ``--trace 1`` runs the first
rounds of the same inputs three times (untraced, traced, traced), reports
per-layer metrics from the first traced pass, checks that the computed
counts repeat exactly in the second, and reports the tracing overhead as
the untraced minus the traced ops/s.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a readable report; the full result (environment, failures, per-layer
table) and the recorded spans go to ``.perfbench-out/``.
"""

from __future__ import annotations

import os

# one thread per process: no BLAS or OpenMP worker pools
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
# third-party modules the library imports lazily inside functions: loaded
# here so that neither a set-up nor the first op of a run pays for them
import scipy.linalg  # noqa: E402,F401
import scipy.ndimage  # noqa: E402,F401
import scipy.optimize  # noqa: E402,F401
import scipy.spatial  # noqa: E402,F401
from scipy.special import betainc  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Outcome,
    install_alarm,
    load_library,
    patch_library,
)

SETUPS = 9
OUT_DIR = ".perfbench-out"

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("passed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]

# reported layers: span name -> reported stats
LAYERS = {
    "domains.line_clip": ("calls", "self_s"),
    "domains.contains": ("calls",),
    "tube.sample_points": ("calls", "self_s"),
    "tube.sample_exterior": ("self_s",),
    "tube.contains": ("self_s",),
    "tube.contains_pairwise": ("self_s",),
    "tube.u_value": ("self_s",),
    "tube.core_distance": ("self_s",),
    "tangent.to_tangent": ("self_s",),
    "tangent.from_tangent": ("self_s",),
    "duality.tube_separator": ("calls", "self_s"),
    "duality.dual_tube": ("self_s",),
    "verify.rasterize_line.probe": ("self_s",),
    "verify.rasterize_line.final": ("self_s",),
    "verify.rasterize_line.stability": ("self_s",),
    "verify.connectivity_counts": ("calls", "self_s"),
    "kernels.pairwise_bitmap": ("calls", "self_s"),
    "kernels.ellipsoid_bitmap": ("calls", "self_s"),
    "quotients.check_free_action": ("self_s",),
    "quotients.orbit_reduce": ("self_s",),
    "cli.main": ("self_s",),
    "domspec.load_domain": ("self_s",),
}
# sampler -> the membership call that counts as one attempt
SAMPLERS = {
    "tube.sample_points": "tube.contains",
    "tube.sample_exterior": "tube.boundary_classify",
}
# computed counts recorded by call hooks
HOOK_COUNTS = (
    "kernels.pairwise_bitmap.pixels",
    "kernels.pairwise_bitmap.pair_tests",
    "kernels.ellipsoid_bitmap.pixels",
)
ROOT = "bench.op"


def per_layer_units():
    units = {}
    for layer, stats in LAYERS.items():
        for stat in stats:
            units[f"{layer}.{stat}"] = "s" if stat == "self_s" else "count"
    for sampler in SAMPLERS:
        units[f"{sampler}.attempts"] = "count"
        units[f"{sampler}.accepted"] = "count"
        units[f"{sampler}.accept_ratio"] = "ratio"
    for key in HOOK_COUNTS:
        units[key] = "count"
    units["trace.overhead_ops_per_s"] = "1/s"
    return units


# The host's speed drifts: the same fixed op, timed over 15 s windows, took
# up to 1.6 times as long in one window as in another, and a 30 s run can
# fall mostly in the slow or mostly in the fast state.  A fixed loop that
# calls no library code is therefore timed between ops, and every reported
# time is scaled by PROBE_REF_MS over that loop's mean time in the same
# run: what the time would be on a host where the loop takes PROBE_REF_MS.
# Of the loops tried, pure Python plus small NumPy calls (the kind of call
# the library makes) cancelled the drift best.
PROBE_REF_MS = 2.5
PROBE_SHARE = 0.15  # probe time per unit of timed op time
SETUP_PROBE_SHARE = 1.0  # set-ups are few and short: probe as long as they run
_PROBE_RNG = np.random.default_rng(0)
_PROBE_M = _PROBE_RNG.normal(size=(3, 3))
_PROBE_V = _PROBE_RNG.normal(size=3)


def probe_loop():
    total = 0.0
    for i in range(20_000):
        total += i * 0.5
    for _ in range(120):
        total += float(np.linalg.svd(_PROBE_M, compute_uv=False)[0])
        total += float(_PROBE_V @ (_PROBE_M @ _PROBE_V))
    return total


class SpeedProbe:
    """Runs `probe_loop` between timed steps so that its time keeps to
    ``share`` of theirs, and turns raw times into scaled ones."""

    def __init__(self, share):
        self.share = share
        self.timed_s = 0.0
        self.probe_s = 0.0
        self.probes = 0

    def keep_up(self, seconds):
        self.timed_s += seconds
        while self.probe_s < self.share * self.timed_s or not self.probes:
            t0 = time.perf_counter()
            probe_loop()
            self.probe_s += time.perf_counter() - t0
            self.probes += 1

    def mean_ms(self):
        return 1e3 * self.probe_s / self.probes

    def scale(self):
        return PROBE_REF_MS / self.mean_ms()


def environment(seed, lane):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lane": lane,
        "seed": seed,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# passes


def run_ops(workload, lib, ops, tracer=None, probe=None):
    """Run ops back to back; returns (wall seconds, latencies, raws, roots,
    per-op hook-count deltas).  An op that raises yields its exception as
    its raw result: a crashing op is a failed op, not a crashed run.  With
    a probe, the speed probe runs between ops (inside the wall time, outside
    every latency)."""
    latencies, raws, roots, deltas = [], [], [], []
    run = workload.run_op
    if tracer is not None:
        root_id = tracer.name_id(ROOT)

        def run(lib, op):
            return tracer.call(root_id, workload.run_op, (lib, op), {})
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            before = dict(tracer.counts)
            roots.append(len(tracer.span_name))
        t0 = time.perf_counter()
        try:
            raw = run(lib, op)
        except Exception as exc:
            raw = exc
        latencies.append(time.perf_counter() - t0)
        if probe is not None:
            probe.keep_up(latencies[-1])
        if tracer is not None:
            tracer.unwind()
            deltas.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
        raws.append(raw)
    return time.perf_counter() - start, latencies, raws, roots, deltas


def timed_rounds(workload, lib, seed, seconds, probe):
    """Whole rounds for about ``seconds`` of wall time (probes included):
    another round starts only while at least half of an average round still
    fits.  Each round is judged after its timing stops and kept as (wall,
    latencies, op kinds, outcomes), so memory does not grow with inputs."""
    rounds = []
    elapsed = 0.0
    while not rounds or elapsed + 0.5 * elapsed / len(rounds) < seconds:
        ops = workload.round_ops(seed, len(rounds))
        wall, latencies, raws, _, _ = run_ops(workload, lib, ops, probe=probe)
        outcomes = judge_all(workload, lib, ops, raws)
        rounds.append((wall, np.array(latencies), [op.kind for op in ops], outcomes))
        elapsed += wall
    return rounds


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics.  With a few dozen ops of different kinds, the
    single op at the quantile's rank jumps from kind to kind between runs;
    the weighted mean does not."""
    x = np.sort(values)
    n = len(x)
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def judge_all(workload, lib, ops, raws):
    return [Outcome(False, note=f"raised {raw!r}"[:160]) if isinstance(raw, Exception)
            else workload.judge(lib, op, raw) for op, raw in zip(ops, raws)]


def exact_counts(tracer, roots, deltas, outcomes):
    """Computed counts over the ops that completed.

    A timed-out op stops wherever its alarm lands, so its counts depend on
    machine speed; it is left out of the exact counts (not of self times).
    """
    names, parents, _, _ = tracer.arrays()
    n = len(names)
    root_of = np.where(parents >= 0, parents, np.arange(n))
    while True:
        nxt = root_of[root_of]
        if np.array_equal(nxt, root_of):
            break
        root_of = nxt
    completed = np.zeros(n, dtype=bool)
    for sid, outcome in zip(roots, outcomes):
        completed[sid] = not outcome.timed_out
    keep = completed[root_of]
    counts = {}
    for nid, label in enumerate(tracer.names):
        counts[f"{label}.calls"] = int(np.count_nonzero(keep & (names == nid)))
    parent_names = np.where(parents >= 0, names[np.maximum(parents, 0)], -1)
    for sampler, attempt in SAMPLERS.items():
        sid = tracer.name_id(sampler)
        aid = tracer.name_id(attempt)
        counts[f"{sampler}.attempts"] = int(
            np.count_nonzero(keep & (names == aid) & (parent_names == sid)))
    totals = Counter()
    for delta, outcome in zip(deltas, outcomes):
        if not outcome.timed_out:
            totals.update(delta)
    for key in HOOK_COUNTS + tuple(f"{s}.accepted" for s in SAMPLERS):
        counts[key] = int(totals.get(key, 0))
    return counts


def traced_pass(workload, lib, ops):
    tracer = Tracer()
    missing = patch_library(lib, tracer)
    try:
        wall, latencies, raws, roots, deltas = run_ops(workload, lib, ops, tracer)
    finally:
        tracer.restore()
    outcomes = judge_all(workload, lib, ops, raws)
    return tracer, wall, outcomes, exact_counts(tracer, roots, deltas, outcomes), missing


# ----------------------------------------------------------------------
# reporting


def failure_lines(kinds, outcomes):
    tally = Counter()
    notes = {}
    for kind, outcome in zip(kinds, outcomes):
        if not outcome.passed:
            key = (kind, "wrong" if outcome.wrong else "failed")
            tally[key] += 1
            notes.setdefault(key, outcome.wrong or outcome.note)
    return [f"{kind}: {how} x{count} ({notes[(kind, how)]})"
            for (kind, how), count in sorted(tally.items())]


def write_json(path, payload):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=str)


def run_untraced(workload, lib, args, setup_times, setup_probe):
    probe = SpeedProbe(PROBE_SHARE)
    rounds = timed_rounds(workload, lib, args.seed, args.seconds, probe)
    kinds = [kind for r in rounds for kind in r[2]]
    outcomes = [o for r in rounds for o in r[3]]
    latencies = np.concatenate([r[1] for r in rounds])
    problems = workload.check_phase(lib, args.seed)
    passed = sum(o.passed for o in outcomes)
    raw = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(kinds) / float(latencies.sum()),
        "op_p50_ms": hd_quantile(latencies * 1e3, 0.5),
        "op_p90_ms": hd_quantile(latencies * 1e3, 0.9),
    }
    values = {
        "setup_s": raw["setup_s"] * setup_probe.scale(),
        "ops_per_s": raw["ops_per_s"] / probe.scale(),
        "op_p50_ms": raw["op_p50_ms"] * probe.scale(),
        "op_p90_ms": raw["op_p90_ms"] * probe.scale(),
        "passed_frac": passed / len(kinds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    wrong = [o.wrong for o in outcomes if o.wrong] + problems
    by_kind = {}
    for kind, seconds in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(seconds * 1e3)
    details = {
        "rounds": len(rounds),
        "elapsed_s": sum(r[0] for r in rounds),
        "unscaled": raw,
        "probe_ms": probe.mean_ms(),
        "probes": probe.probes,
        "setup_probe_ms": setup_probe.mean_ms(),
        "setup_times_s": setup_times,
        "failures": failure_lines(kinds, outcomes),
        "check_phase_problems": problems,
        "median_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
    }
    if hasattr(workload, "details"):
        details.update(workload.details())
    return metrics, len(kinds), len(kinds) - passed, not wrong, wrong, details


def run_traced(workload, lib, args):
    ops = [op for r in range(workload.trace_rounds) for op in workload.round_ops(args.seed, r)]
    wall_u, _, raws, _, _ = run_ops(workload, lib, ops)
    outcomes = judge_all(workload, lib, ops, raws)
    tracer, wall_1, outcomes_1, counts_1, missing = traced_pass(workload, lib, ops)
    _, _, outcomes_2, counts_2, _ = traced_pass(workload, lib, ops)
    problems = workload.check_phase(lib, args.seed)

    stats = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    values = {}
    for layer, wanted in LAYERS.items():
        for stat in wanted:
            if stat == "calls":
                values[f"{layer}.calls"] = counts_1.get(f"{layer}.calls", 0)
            else:
                values[f"{layer}.self_s"] = stats.get(layer, zero)["self_s"]
    for sampler in SAMPLERS:
        attempts = counts_1[f"{sampler}.attempts"]
        accepted = counts_1[f"{sampler}.accepted"]
        values[f"{sampler}.attempts"] = attempts
        values[f"{sampler}.accepted"] = accepted
        values[f"{sampler}.accept_ratio"] = accepted / attempts if attempts else 0.0
    for key in HOOK_COUNTS:
        values[key] = counts_1[key]
    values["trace.overhead_ops_per_s"] = len(ops) / wall_u - len(ops) / wall_1
    units = per_layer_units()
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}

    wrong = [o.wrong for o in outcomes + outcomes_1 + outcomes_2 if o.wrong] + problems
    if counts_1 != counts_2:
        diff = sorted(k for k in set(counts_1) | set(counts_2)
                      if counts_1.get(k) != counts_2.get(k))
        wrong.append(f"computed counts differ between the two traced passes: {diff[:8]}")
    layer_self = sum(s["self_s"] for name, s in stats.items() if name != ROOT)
    if not layer_self <= wall_1:
        wrong.append(f"layer self times {layer_self:.6f} s exceed the traced wall {wall_1:.6f} s")
    if missing:
        print(f"# warning: not found, reported as zero: {', '.join(missing)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-spans.npz"))
    details = {
        "ops": len(ops),
        "untraced_wall_s": wall_u,
        "traced_wall_s": wall_1,
        "untraced_ops_per_s": len(ops) / wall_u,
        "traced_ops_per_s": len(ops) / wall_1,
        "layer_self_sum_s": layer_self,
        "unattributed_self_s": stats.get(ROOT, zero)["self_s"],
        "spans": stats,
        "computed_counts": counts_1,
        "counts_repeat": counts_1 == counts_2,
        "failures": failure_lines([op.kind for op in ops], outcomes_1),
        "missing": missing,
    }
    failed = sum(not o.passed for o in outcomes_1)
    return metrics, len(ops), failed, not wrong, wrong, details


# ----------------------------------------------------------------------
# entry points


def run_one(args):
    workload = WORKLOADS[args.workload]()
    install_alarm()
    setup_times = []
    setup_probe = SpeedProbe(SETUP_PROBE_SHARE)
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        lib = load_library()
        workload.setup(lib)
        setup_times.append(time.perf_counter() - t0)
        setup_probe.keep_up(setup_times[-1])
    source = os.path.realpath(lib.cli.__file__)
    if not source.startswith(os.path.realpath("src") + os.sep):
        print(f"error: elliptic_tubes was imported from {source}, not ./src", file=sys.stderr)
        return 2
    env = environment(args.seed, lib.lane)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, attempted, failed, correct, wrong, details = run_traced(workload, lib, args)
    else:
        metrics, attempted, failed, correct, wrong, details = run_untraced(
            workload, lib, args, setup_times, setup_probe)
    for line in details["failures"]:
        print(f"# failed op: {line}")
    for line in wrong[:20]:
        print(f"# WRONG: {line}")
    for key in ("inside_share", "rounds", "probe_ms", "setup_probe_ms", "unscaled",
                "traced_ops_per_s", "untraced_ops_per_s",
                "layer_self_sum_s", "traced_wall_s", "counts_repeat"):
        if key in details:
            print(f"# {key}: {details[key]}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    write_json(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
               {"env": env, "metrics": metrics, "attempted": attempted, "failed": failed,
                "correct": correct, "wrong": wrong, "details": details})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload, each in its own fresh interpreter, one after another."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    print(f"{'workload':<15} {'metric':<40} {'value':>14}  unit")
    for name, result in rows:
        print(f"{name:<15} {'correct / attempted / failed':<40} "
              f"{str(result['correct']):>5} / {result['attempted']} / {result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"{name:<15} {metric:<40} {entry['value']:>14.6g}  {entry['unit']}")
    return 0 if all(result["correct"] for _, result in rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "elliptic_tubes", "__init__.py")):
        print("error: run from a checkout root holding src/elliptic_tubes", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
