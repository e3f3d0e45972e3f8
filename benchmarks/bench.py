"""Compare two checkouts on the perfbench workloads and write a BENCH file.

Each checkout runs its own ``perfbench/run.py`` (``--trace 0``) from its
root, in a fresh interpreter.  The runs come in pairs, one per seed: both
checkouts run the same workload and seed back to back, and the order
alternates from pair to pair, so that a drift of the host's speed falls on
both sides alike.  Then each checkout runs the Tier-1 suite once, and the
acceptance suite ``CRITERIA_RUNS`` more times to time each criterion, the
sides again alternating which runs first.  Last, each checkout runs
``COLD_COMMANDS`` ``COLD_RUNS`` times as fresh ``python -m
elliptic_tubes.cli`` processes, the sides alternating from round to round:
the wall a user pays per command, interpreter start and imports included,
which perfbench's ``setup_s`` does not see (it re-imports only the
package's own modules).  Each checkout then prints the tables of its own
``benchmarks/bench_kernels.py`` (``KERNELS``): the raster kernel and the
component counts at 512² and 1024², and the stages of a line check.

    python3 benchmarks/bench.py --parent ../parent --change . --out BENCH_8.json [--seed 1]

The workloads and the run length are the change's ``BENCHMARK.json``'s
(``workloads`` and ``run_seconds``); every workload gets ten pairs, with
seeds ``seed`` to ``seed + 9``.

The JSON file holds, per workload and end-to-end metric, every pair's
values, the median and quartiles of each side and how many pairs the
change won (the direction comes from the change's ``BENCHMARK.json``);
per workload and side, ``kind_ms``: for each op kind, the median over the
pairs of each run's median latency of that kind in ms (the run record's
``details.median_ms_by_kind`` in ``.perfbench-out/``, unscaled); the
Tier-1 wall time and pass counts of each side; the median and quartiles
of each acceptance criterion's wall time on each side (the call phase,
from ``pytest --durations=0 tests/test_acceptance.py``); the median and
quartiles of each cold command's wall time on each side; each side's
kernel tables, as printed lines; and the machine: the number of CPUs and
the Python, NumPy and SciPy versions.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

PAIRS = 10
CRITERIA_RUNS = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
CRITERIA = TIER1 + ["--durations=0", "--durations-min=0", "tests/test_acceptance.py"]
COLD_RUNS = 7
COLD_COMMANDS = [["check", "--domain", name, "--suite", "all"]
                 for name in ("interval", "halfline", "disk", "ellipse", "square", "triangle",
                              "simplex")] + [["map", "--domain", "interval", "0.5i"]]
KERNELS = [sys.executable, os.path.join("benchmarks", "bench_kernels.py"),
           "--resolutions", "512,1024", "--lines", "20"]


def revision(root):
    """The checkout's commit (with ``-dirty`` for local edits), or None."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def perfbench(root, workload, seed, seconds):
    """The last-line JSON result of one perfbench run in ``root``, with the
    per-kind median latencies (ms) of its run record as ``kind_ms``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {root}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = os.path.join(root, ".perfbench-out", f"{workload}-seed{seed}-trace0.json")
    with open(record) as fh:
        result["kind_ms"] = json.load(fh)["details"]["median_ms_by_kind"]
    return result


def pytest(root, cmd):
    """One pytest run in ``root`` on its own ``src/``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=False)


def tier1(root):
    """Wall seconds and the summary line of one Tier-1 run in ``root``."""
    start = time.perf_counter()
    proc = pytest(root, TIER1)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    counts = {kind: int(num) for num, kind in
              re.findall(r"(\d+) (passed|failed|skipped|errors?)", lines[-1] if lines else "")}
    return {"wall_s": wall, "exit": proc.returncode, **counts}


def criterion_walls(roots):
    """Per side and acceptance criterion (by test name), the spread of its
    call time in seconds over ``CRITERIA_RUNS`` runs, the sides taking
    turns to run first."""
    walls = {side: {} for side in roots}
    for i in range(CRITERIA_RUNS):
        for side in (list(roots) if i % 2 == 0 else list(roots)[::-1]):
            out = pytest(roots[side], CRITERIA).stdout
            for sec, name in re.findall(r"([\d.]+)s call +tests/test_acceptance\.py::(\w+)", out):
                walls[side].setdefault(name, []).append(float(sec))
    return {side: {name: spread(runs) for name, runs in times.items()}
            for side, times in walls.items()}


def cold_walls(roots):
    """Per side and cold command (its arguments joined by spaces), the
    spread of the wall seconds of a fresh ``python -m elliptic_tubes.cli``
    process over ``COLD_RUNS`` rounds, the sides taking turns to run
    first, and the exit codes seen (``exit``)."""
    walls = {side: {} for side in roots}
    codes = {side: {} for side in roots}
    for i in range(COLD_RUNS):
        for side in (list(roots) if i % 2 == 0 else list(roots)[::-1]):
            env = dict(os.environ, PYTHONPATH=os.path.join(roots[side], "src"))
            for argv in COLD_COMMANDS:
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "elliptic_tubes.cli", *argv],
                                      cwd=roots[side], env=env, capture_output=True, check=False)
                walls[side].setdefault(" ".join(argv), []).append(time.perf_counter() - start)
                codes[side].setdefault(" ".join(argv), set()).add(proc.returncode)
    return {side: {cmd: {**spread(runs), "exit": sorted(codes[side][cmd])}
                   for cmd, runs in times.items()}
            for side, times in walls.items()}


def kernel_tables(roots):
    """Per side, the lines that its own ``KERNELS`` script printed."""
    tables = {}
    for side, root in roots.items():
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run(KERNELS, cwd=root, env=env, capture_output=True, text=True,
                              check=True)
        tables[side] = proc.stdout.splitlines()
    return tables


def spread(values):
    """Median and quartiles of a list of numbers."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, better):
    """Per end-to-end metric: each side's spread and the change's wins."""
    out = {}
    for name, direction in better.items():
        par = [p["parent"]["metrics"][name]["value"] for p in pairs]
        chg = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        out[name] = {
            "better": direction,
            "parent": spread(par),
            "change": spread(chg),
            "change_wins": sum(sign * (c - p) > 0.0 for p, c in zip(par, chg)),
            "pairs": len(pairs),
        }
    return out


def kind_medians(pairs, side):
    """Per op kind, the median over the pairs of one side's per-run
    median latencies in ms."""
    runs = [p[side]["kind_ms"] for p in pairs]
    kinds = sorted({kind for run in runs for kind in run})
    return {kind: statistics.median(run[kind] for run in runs if kind in run)
            for kind in kinds}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the changed checkout")
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for i in range(PAIRS):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = perfbench(roots[side], workload, seed, seconds)
            pairs.append(pair)
            ops = {side: pair[side]["metrics"]["ops_per_s"]["value"] for side in roots}
            print(f"{workload} seed {seed}: ops_per_s parent {ops['parent']:.4g} "
                  f"change {ops['change']:.4g}", flush=True)
        workloads[workload] = {
            "summary": summarize(pairs, better),
            "kind_ms": {side: kind_medians(pairs, side) for side in roots},
            "runs": pairs,
        }

    result = {
        "harness": f"perfbench/run.py --trace 0 --seconds {seconds:g}",
        "revisions": {side: revision(root) for side, root in roots.items()},
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
        "workloads": workloads,
        "tier1": {side: tier1(root) for side, root in roots.items()},
        "criterion_walls_s": criterion_walls(roots),
        "cold_start_s": cold_walls(roots),
        "kernel_tables": kernel_tables(roots),
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, entry in workloads.items():
        for name, s in entry["summary"].items():
            print(f"{workload:<14} {name:<12} parent {s['parent']['median']:<10.4g} "
                  f"change {s['change']['median']:<10.4g} wins {s['change_wins']}/{s['pairs']}")
    print("tier1 " + json.dumps(result["tier1"]))
    walls = result["criterion_walls_s"]
    for name in sorted(walls["change"]):
        par = walls["parent"].get(name, {}).get("median", float("nan"))
        print(f"{name:<50} parent {par:<8.3g} change {walls['change'][name]['median']:.3g}")
    cold = result["cold_start_s"]
    for cmd in cold["change"]:
        print(f"{cmd:<50} parent {cold['parent'][cmd]['median']:<8.3g} "
              f"change {cold['change'][cmd]['median']:.3g}")
    for side, lines in result["kernel_tables"].items():
        print(f"{side} kernels\n" + "\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
