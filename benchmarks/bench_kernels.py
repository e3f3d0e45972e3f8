"""Benchmark the raster kernels, component counts and the stages of a line.

The kernel table times, at each resolution, the run kernel
``_kernels.form_runs`` on the membership forms of the triangle (m = 3
rows, 3 pair forms), the square (m = 4, 6 pair forms) and the ellipse (one
form), on a random complex line through the tube over the window the
C-convexity verifier rasters: the box of the slice's boundary arcs, padded
by 2 px.  On the runs the kernel returned it times ``paint_runs`` (the
bitmap a ``SliceRaster`` paints when it is read) and ``run_counts`` (a
component count of the runs' graph), each on its own.  Each column is
headed by the function it times, and only ``paint_runs`` builds a bitmap:
a bitmap kernel (``pairwise_bitmap``, ``ellipsoid_bitmap``) costs about
``form_runs`` plus ``paint_runs``, and ``connectivity_counts`` of a bitmap
costs ``mask_runs`` plus ``run_counts``.  Times are the best of
``--repeat`` runs.

The stage table splits one-line ``verify_c_convexity`` calls (512 px with
the 2x stability raster, as the ``slice-rasters`` benchmark workload runs
them) into the boundary arcs (``slice_topology``, the verdict), the raster
runs (``verify._raster``, which ``rasterize_line`` calls as well: the bare
512 px one, and the 1024 px one on a line where it disagrees with the
arcs; no bitmap) and the component counts of the runs (``run_counts``),
averaged over ``--lines`` seeds per domain.  The line's forms, built once
for the arcs and the rasters, fall under "other".

The arcs table times ``slice_topology`` alone, in microseconds per call,
on the forms of ``--lines`` random lines (seeds 0, 1, ...) per case: the
triangle (3 forms), the square (6), the ellipse (1), the triangle's
punctured control lines (criterion 08's puncture, lines through its centre
drawn as ``verify_c_convexity`` draws them at seed 5; 4 forms) and
``perfbench/cube3.dom`` (15).  Each case is the best of ``--repeat``
passes over its lines.  The script uses only calls that have not changed
their signatures, so it can time an older checkout's ``src/`` as well.

    python3 benchmarks/bench_kernels.py [--resolutions 512,1024] [--repeat 5] [--lines 10]
"""

import argparse
import os
import time
from collections import defaultdict

import numpy as np

from elliptic_tubes import _kernels, catalog, verify
from elliptic_tubes.domspec import load_domain
from elliptic_tubes.tube import Tube

CASES = (("triangle", "pairwise m=3"), ("square", "pairwise m=4"), ("ellipse", "ellipsoid"))
CUBE3 = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench",
                     "cube3.dom")
# criterion 08's negative control: lines of seed 5 through the puncture
CONTROL_SEED = 5
PUNCTURE = (np.array([0.25, 0.25]), 0.08)


def _best(func, args, repeat):
    best, out = np.inf, None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = func(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def _kernel_args(tube, anchor, direction, resolution):
    """The forms and pixel centres ``rasterize_line`` would use in the line
    check's window."""
    forms = verify._line_forms(tube, anchor, direction)
    (re_lo, re_hi), (im_lo, im_hi) = verify._raster_window(_kernels.slice_topology(*forms)[2],
                                                           resolution)
    centres = (np.arange(resolution) + 0.5) / resolution
    return (*forms, re_lo + centres * (re_hi - re_lo), im_lo + centres * (im_hi - im_lo))


def kernel_table(resolutions, repeat):
    print(f"{'case':<24} {'res':>5} {'form_runs ms':>12} {'paint_runs ms':>13} "
          f"{'run_counts ms':>13} {'filled':>7}")
    for name, label in CASES:
        tube = Tube(catalog.by_name(name))
        rng = np.random.default_rng(np.random.SeedSequence([0]))
        anchor, direction, _ = verify._random_line(tube, rng)
        for res in resolutions:
            args = _kernel_args(tube, anchor, direction, res)
            t_runs, runs = _best(_kernels.form_runs, args, repeat)
            t_paint, bitmap = _best(_kernels.paint_runs, (*runs, (res, res)), repeat)
            t_counts, _ = _best(verify.run_counts, (*runs, res + 1), repeat)
            print(f"{name + ' (' + label + ')':<24} {res:>5} {t_runs * 1e3:>12.2f} "
                  f"{t_paint * 1e3:>13.2f} {t_counts * 1e3:>13.2f} {bitmap.mean():>7.1%}")


def stage_table(lines, resolution=512, stability=2):
    totals = {}
    spent = defaultdict(float)
    stages = ("arcs", "raster runs", "run_counts")
    patched = [(module, attr, getattr(module, attr)) for module, attr in
               ((_kernels, "slice_topology"), (verify, "_raster"),
                (verify, "run_counts"))]

    def timed(func, stage):
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                spent[stage] += time.perf_counter() - t0
        return run

    for (module, attr, func), stage in zip(patched, stages):
        setattr(module, attr, timed(func, stage))
    try:
        for name, _ in CASES:
            domain = catalog.by_name(name)
            spent.clear()
            t0 = time.perf_counter()
            for seed in range(lines):
                verify.verify_c_convexity(domain, n_lines=1, resolution=resolution,
                                          stability_factor=stability, seed=seed)
            totals[name] = (time.perf_counter() - t0, dict(spent))
    finally:
        for module, attr, func in patched:
            setattr(module, attr, func)
    print(f"{'per line, ms':<12} " + " ".join(f"{s:>11}" for s in stages)
          + f" {'other':>8} {'total':>8}")
    for name, (wall, parts) in totals.items():
        other = wall - sum(parts.values())
        print(f"{name:<12} " + " ".join(f"{parts.get(s, 0.0) / lines * 1e3:>11.2f}" for s in stages)
              + f" {other / lines * 1e3:>8.2f} {wall / lines * 1e3:>8.2f}")


def _arc_cases(lines):
    """``(case, form count, forms of each line)`` of the arcs table."""
    cube3 = load_domain(CUBE3).domain
    cases = [(name, catalog.by_name(name), None) for name, _ in CASES]
    cases += [("control", catalog.by_name("triangle"), PUNCTURE), ("cube3", cube3, None)]
    out = []
    for name, domain, puncture in cases:
        tube = Tube(domain)
        if puncture is None:
            rngs = (np.random.default_rng(np.random.SeedSequence([seed])) for seed in range(lines))
            drawn = [verify._random_line(tube, rng) for rng in rngs]
        else:
            rng = np.random.default_rng(np.random.SeedSequence([CONTROL_SEED]))
            drawn = [verify._random_line(tube, rng, through=puncture[0]) for _ in range(lines)]
        forms = [verify._line_forms(tube, anchor, direction, puncture)
                 for anchor, direction, _ in drawn]
        out.append((name, np.size(forms[0][0]), forms))
    return out


def arc_table(lines, repeat):
    print(f"{'case':<10} {'forms':>5} {'slice_topology us':>17}")
    for name, count, forms in _arc_cases(lines):
        best = np.inf
        for _ in range(repeat):
            t0 = time.perf_counter()
            for line in forms:
                _kernels.slice_topology(*line)
            best = min(best, time.perf_counter() - t0)
        print(f"{name:<10} {count:>5} {best / len(forms) * 1e6:>17.1f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--resolutions", default="512,1024")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--lines", type=int, default=10)
    args = parser.parse_args()
    kernel_table([int(tok) for tok in args.resolutions.split(",")], args.repeat)
    print()
    stage_table(args.lines)
    print()
    arc_table(args.lines, args.repeat)


if __name__ == "__main__":
    main()
