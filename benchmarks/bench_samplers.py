"""Benchmark the rejection samplers: time per accepted sample and acceptance.

For every catalog domain (or every entry of ``--domains``: catalog names or
``.dom`` files) it times ``Tube.sample_points``,
``Tube.sample_exterior`` and ``ConvexDomain.sample_interior`` (best of
``--repeat`` runs) and reports the microseconds per accepted sample, the
box acceptance rate, accepted samples over box draws used, and the
``screened`` share: of the box draws evaluated (the rows that
``ConvexDomain._screen`` saw), those that its screen left to the exact
test (the rows passed on to ``Tube._parts`` by the tube samplers and to
``ConvexDomain.contains_rows`` by ``sample_interior``).  It is counted on
one more, untimed run.

The draw count is recovered from the generator stream: every sampler maps
consecutive ``rng.random`` rows to its box (``lo + (hi - lo) u``, as
``Generator.uniform`` does) and its last sample is the last draw it
evaluated, so regenerating the stream and finding that row gives the count.

    python3 benchmarks/bench_samplers.py [--count 200] [--repeat 3] [--seed 0]
        [--domains square,triangle,perfbench/cube3.dom]
"""

import argparse
import time

import numpy as np

from elliptic_tubes import Tube, catalog
from elliptic_tubes.domspec import load_domain


def _draws_used(seed, lo, hi, last, chunk=65536):
    """Rows of the seed's stream, mapped to the box [lo, hi], up to and
    including the first one equal to ``last``."""
    rng = np.random.default_rng(seed)
    width = hi - lo
    used = 0
    while True:
        rows = lo + width * rng.random((chunk, len(lo)))
        hits = np.flatnonzero(np.all(rows == last, axis=1))
        if len(hits):
            return used + int(hits[0]) + 1
        used += chunk


def _tube_box(tube, spread=0.0):
    # the boxes of Tube.sample_points (spread 0) and sample_exterior
    lo, hi, im_half = tube.bounding_box()
    if spread:
        center = 0.5 * (lo + hi)
        lo = center + (1.0 + spread) * (lo - center)
        hi = center + (1.0 + spread) * (hi - center)
        im_half = (1.0 + spread) * im_half
    return np.concatenate([lo, -im_half]), np.concatenate([hi, im_half])


def _domain(entry):
    """(label, domain) of a catalog name or a ``.dom`` file path."""
    if entry.endswith(".dom"):
        spec = load_domain(entry)
        return spec.name or entry, spec.domain
    return entry, catalog.by_name(entry)


def _samplers(domain):
    """(label, run(rng, count), box lo, box hi, flat(sample) -> box row,
    name of the exact test's entry)."""
    tube = Tube(domain)
    split = lambda z: np.concatenate([z.real, z.imag])  # noqa: E731
    lo, hi = domain.bbox
    return (
        ("sample_points", tube.sample_points, *_tube_box(tube), split, "_parts"),
        ("sample_exterior", tube.sample_exterior, *_tube_box(tube, 1.0), split, "_parts"),
        ("sample_interior", domain.sample_interior, lo, hi, lambda x: x, "contains_rows"),
    )


def _screened(run, exact, seed, count):
    """(rows the screen saw, rows passed to the exact test ``exact``) in
    one run of the bound sampler ``run``, counted through instance
    attributes that shadow the methods and are removed afterwards."""
    owner = run.__self__
    domain = getattr(owner, "base", owner)
    make_screen, method = domain._screen, getattr(owner, exact)
    seen = [0, 0]

    def screen(rows, lo, hi):
        inner, slack = make_screen(rows, lo, hi)

        def counted(x):
            seen[0] += len(x)
            return inner(x)
        return counted, slack

    def decided(rows):
        seen[1] += len(rows)
        return method(rows)

    domain._screen = screen
    setattr(owner, exact, decided)
    try:
        run(np.random.default_rng(seed), count)
    finally:
        del domain._screen
        delattr(owner, exact)
    return seen


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200, help="samples per call")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--domains", default=",".join(catalog.names()),
                        help="comma-separated catalog names or .dom paths")
    args = parser.parse_args()

    header = (f"{'domain':<10} {'sampler':<16} {'us/sample':>10} {'acceptance':>11} "
              f"{'screened':>9} {'draws':>9}")
    print(header)
    print("-" * len(header))
    for entry in args.domains.split(","):
        name, domain = _domain(entry)
        for label, run, lo, hi, flat, exact in _samplers(domain):
            best = np.inf
            for _ in range(args.repeat):
                rng = np.random.default_rng(args.seed)
                start = time.perf_counter()
                out = run(rng, args.count)
                best = min(best, time.perf_counter() - start)
            draws = _draws_used(args.seed, lo, hi, flat(out[-1]))
            seen, exact_rows = _screened(run, exact, args.seed, args.count)
            print(f"{name:<10} {label:<16} {best / args.count * 1e6:>10.1f} "
                  f"{args.count / draws:>11.4f} {exact_rows / seen:>9.4f} {draws:>9}")


if __name__ == "__main__":
    main()
