"""Benchmark the one-point tube queries: microseconds per call.

For every catalog domain the table times, per call, the one-point queries
that the ``point-queries`` benchmark workload makes on tube points:
``Tube.contains``, ``Tube.u_value``, ``Tube.core_distance``,
``tangent.to_tangent``, ``tangent.from_tangent`` (of the ``to_tangent``
image), ``Tube.contains_pairwise`` (polytopes only; "-" for an ellipsoid)
and ``ConvexDomain.line_clip`` of the point's trace line.  The points are
``--points`` tube samples per domain (seed 0); each column is the best of
``--repeat`` passes over them, divided by the number of points.  The script
uses only public calls that have not changed their signatures, so it can
time an older checkout's ``src/`` as well.

    python3 benchmarks/bench_points.py [--points 200] [--repeat 5]
"""

import argparse
import time

import numpy as np

from elliptic_tubes import catalog
from elliptic_tubes.domains import Ellipsoid
from elliptic_tubes.tangent import from_tangent, to_tangent
from elliptic_tubes.tube import Tube

COLUMNS = ("contains", "u_value", "core_distance", "to_tangent", "from_tangent",
           "contains_pairwise", "line_clip")


def _calls(tube, points):
    """Per column, the one-argument call and its inputs."""
    vectors = [to_tangent(tube, z) for z in points]
    lines = [(z.real, z.imag) for z in points]
    calls = {
        "contains": (tube.contains, points),
        "u_value": (tube.u_value, points),
        "core_distance": (tube.core_distance, points),
        "to_tangent": (lambda z: to_tangent(tube, z), points),
        "from_tangent": (lambda vec: from_tangent(tube, vec), vectors),
        "contains_pairwise": (tube.contains_pairwise, points),
        "line_clip": (tube.base.line_clip, lines),
    }
    if isinstance(tube.base.rep, Ellipsoid):
        del calls["contains_pairwise"]
    return calls


def _best_us(func, inputs, repeat):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        for item in inputs:
            func(item)
        best = min(best, time.perf_counter() - t0)
    return best / len(inputs) * 1e6


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--points", type=int, default=200)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    print(f"{'us per call':<12} " + " ".join(f"{c:>{max(len(c), 8)}}" for c in COLUMNS))
    for name in catalog.names():
        tube = Tube(catalog.by_name(name))
        points = list(tube.sample_points(np.random.default_rng(0), args.points))
        calls = _calls(tube, points)
        cells = []
        for column in COLUMNS:
            width = max(len(column), 8)
            if column in calls:
                cells.append(f"{_best_us(*calls[column], args.repeat):>{width}.1f}")
            else:
                cells.append(f"{'-':>{width}}")
        print(f"{name:<12} " + " ".join(cells))


if __name__ == "__main__":
    main()
