"""Compare the fixed-seed CLI outputs of two checkouts.

Each checkout runs the same commands as fresh ``python -m
elliptic_tubes.cli`` processes, from its root and on its own ``src/``:

* ``check --suite all --verbose --seed k`` for k = 0, 1, 2 on every
  catalog domain, and at ``--samples 5`` on ``perfbench/cube3.dom`` and
  ``perfbench/simplex4.dom``;
* ``map`` and ``dist`` on ``POINTS`` seeded points of each of these
  domains: ``map z``, and ``dist z w`` with ``w = Re z + i Im z / 2`` (on
  the complexified line of z) or, for every other point, with w the
  previous point's real part (a real pair);
* ``dual`` on each of these domains.

The points come from the parent's ``Tube.sample_points`` (seed
``POINT_SEED``), so both checkouts get the same input.  For each command
whose standard output, standard error or exit code differs between the
checkouts it prints a unified diff, then one summary line.  It exits 1
when an exit code, a report's verdict word, a sample count or a violation
count differs, and 0 when only other digits (``max_error``, the numbers
``map`` and ``dist`` print) moved.

    python3 benchmarks/compare_reports.py --parent ../parent --change .
"""

import argparse
import difflib
import math
import os
import re
import subprocess
import sys

import numpy as np

CATALOG = ("interval", "halfline", "disk", "ellipse", "square", "triangle", "simplex")
FILES = ("cube3", "simplex4")
SEEDS = (0, 1, 2)
POINTS = 6
POINT_SEED = 20
# the lines that must not move: a summary's verdict word and counts (not
# its max_error), and the verdict and count lines of a verbose report
_SUMMARY = re.compile(r"^\[(PASS|FAIL|SKIP)\] ([^:]+):(?: (\d+) samples, (\d+) violations)?")
_COUNTS = ("verdict:", "samples_run:", "skipped:", "violations:")


def domain_args():
    """``(label, CLI arguments)`` of each compared domain; a ``--file`` path
    is relative to the checkout's root."""
    out = [(name, ["--domain", name]) for name in CATALOG]
    return out + [(name, ["--file", os.path.join("perfbench", f"{name}.dom")]) for name in FILES]


def _coord(z):
    """One complex coordinate in the CLI's ``a+bi`` notation, each part
    written as ``repr`` writes it, so that it parses back to the same
    doubles."""
    sign = "+" if math.copysign(1.0, z.imag) > 0.0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _point(z):
    return ",".join(_coord(c) for c in np.atleast_1d(z))


def sample_points(parent):
    """Per domain label, ``POINTS`` interior tube points drawn by the
    parent's ``Tube.sample_points``."""
    sys.path.insert(0, os.path.join(parent, "src"))
    from elliptic_tubes import Tube, catalog
    from elliptic_tubes.domspec import load_domain

    points = {}
    for label, argv in domain_args():
        if label in FILES:
            domain = load_domain(os.path.join(parent, argv[1])).domain
        else:
            domain = catalog.by_name(label)
        rng = np.random.default_rng(np.random.SeedSequence([POINT_SEED]))
        points[label] = Tube(domain).sample_points(rng, POINTS)
    return points


def commands(parent):
    """Every compared command's CLI arguments."""
    points = sample_points(parent)
    out = []
    for label, argv in domain_args():
        extra = ["--samples", "5"] if label in FILES else []
        for seed in SEEDS:
            out.append(["check", *argv, "--suite", "all", "--verbose", "--seed", str(seed), *extra])
        zs = points[label]
        for k, z in enumerate(zs):
            out.append(["map", *argv, "--", _point(z)])
            pair = (z, z.real + 0.5j * z.imag) if k % 2 == 0 else (z.real + 0j, zs[k - 1].real + 0j)
            out.append(["dist", *argv, "--", *map(_point, pair)])
        out.append(["dual", *argv])
    return out


def run(root, argv):
    """``(stdout, stderr, exit code)`` of one fresh CLI process in root."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "elliptic_tubes.cli", *argv], cwd=root,
                          env=env, capture_output=True, text=True, check=False, timeout=600)
    return proc.stdout, proc.stderr, proc.returncode


def verdicts(result):
    """What may not move: the exit code, each summary's verdict word, name
    and counts, and each report's verdict and count lines."""
    stdout, _, code = result
    kept = [code]
    for line in stdout.splitlines():
        match = _SUMMARY.match(line)
        if match:
            kept.append(match.groups())
        elif line.startswith(_COUNTS):
            kept.append(line)
    return kept


def _lines(result):
    stdout, stderr, code = result
    return stdout.splitlines() + ["--- stderr"] + stderr.splitlines() + [f"--- exit {code}"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the changed checkout")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    moved = broken = 0
    todo = commands(roots["parent"])
    for cmd in todo:
        parent, change = (run(roots[side], cmd) for side in ("parent", "change"))
        if parent == change:
            continue
        moved += 1
        name = " ".join(cmd)
        print("\n".join(difflib.unified_diff(_lines(parent), _lines(change), f"parent: {name}",
                                             f"change: {name}", n=0, lineterm="")))
        if verdicts(parent) != verdicts(change):
            broken += 1
            print(f"!! verdict, count or exit code differs: {name}")
    print(f"{len(todo)} commands: {moved} outputs differ, "
          f"{broken} in a verdict, count or exit code")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
