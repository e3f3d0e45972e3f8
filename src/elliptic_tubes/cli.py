"""Command line interface.

Subcommands
-----------
check   run verification suites and print one summary line per report
slice   write a slice grid of boundary angles as CSV or PGM
dist    two-point tube distance
map     tangent-vector coordinates of a tube point
dual    emit the dual complement as a domain file

Exit status: 0 on success (all checks passed), 1 when a verification or a
geometric query fails, 2 on usage or input errors.  Complex numbers on the
command line use ``a+bi`` notation, e.g. ``0.5i`` or ``-1+0.25i``; points
are comma-separated component lists.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys

import numpy as np

from . import catalog
from .domspec import DomainSpec, DomainSpecError, format_domain_text, load_domain
from .duality import dual_of
from .errors import GeometryError
from .quotients import ConvexRPManifold, check_free_action
from .tangent import to_tangent
from .tube import Tube, interval_gauges
from .verify import (
    verify_c_convexity,
    verify_duality_identity,
    verify_exhaustion_monotone,
    verify_homeomorphism,
    verify_linear_convexity,
    verify_metric_consistency,
)

_FMT = ".15g"


def _parse_complex(token: str) -> complex:
    text = token.strip()
    if not text:
        raise ValueError("empty number")
    # only the imaginary unit's suffix: "inf" and "nan" keep their letters
    value = complex(text[:-1] + "j" if text[-1] in "iI" else text)
    if not cmath.isfinite(value):
        raise ValueError(f"non-finite coordinate {text!r}")
    return value


def _parse_point(token: str) -> np.ndarray:
    return np.array([_parse_complex(part) for part in token.split(",")])


def _point_arg(token: str, n: int) -> np.ndarray:
    """The point of a command-line argument, which must have n coordinates."""
    point = _parse_point(token)
    if len(point) != n:
        raise ValueError(f"expected {n} coordinates, not {len(point)}, in {token!r}")
    return point


def _positive_int(token: str) -> int:
    if not token.isdecimal() or int(token) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {token!r}")
    return int(token)


def _nonnegative_int(token: str) -> int:
    if not token.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {token!r}")
    return int(token)


def _fmt_float(value: float) -> str:
    return format(float(value), _FMT)


def _load_setup(args) -> DomainSpec:
    if getattr(args, "file", None):
        return load_domain(args.file)
    name = getattr(args, "domain", None) or "square"
    domain = catalog.by_name(name)
    if name == "halfline":
        return DomainSpec(domain, (catalog.doubling_map(),))
    if name == "simplex":
        return DomainSpec(domain, catalog.simplex_diagonal_maps())
    return DomainSpec(domain)


# ----------------------------------------------------------------------
# check


_SUITES = ("linconv", "cconv", "duality", "metric", "homeo", "exhaust", "action")


def _run_suite(suite, setup, seed, samples, resolution):
    domain = setup.domain
    if suite == "linconv":
        return verify_linear_convexity(domain, n_points=max(10, samples // 10),
                                       n_kernel_samples=samples, seed=seed)
    if suite == "cconv":
        return verify_c_convexity(domain, n_lines=max(4, samples // 40),
                                  resolution=resolution, seed=seed,
                                  puncture=setup.puncture)
    if suite == "duality":
        return verify_duality_identity(domain, n_samples=samples, seed=seed)
    if suite == "metric":
        return verify_metric_consistency(domain, n_pairs=samples, seed=seed)
    if suite == "homeo":
        return verify_homeomorphism(domain, n_samples=samples, seed=seed,
                                    group_elements=setup.generators)
    if suite == "exhaust":
        return verify_exhaustion_monotone(domain, n_samples=samples, seed=seed)
    if suite == "action":
        if not setup.generators:
            raise DomainSpecError("the action suite needs generators")
        manifold = ConvexRPManifold(domain, setup.generators)
        return check_free_action(manifold, word_length=6)
    raise DomainSpecError(f"unknown suite {suite!r}")


def cmd_check(args) -> int:
    setup = _load_setup(args)
    suites = _SUITES if args.suite == "all" else (args.suite,)
    failed = 0
    for suite in suites:
        if suite == "action" and not setup.generators:
            print(f"[SKIP] {suite}: no generators for this domain")
            continue
        try:
            report = _run_suite(suite, setup, args.seed, args.samples, args.resolution)
        except GeometryError as exc:
            print(f"[FAIL] {suite}: {exc}")
            failed += 1
            continue
        skipped = report.passed and not report.samples_run
        print(f"[SKIP] {suite}: 0 samples at --samples {args.samples}" if skipped
              else report.summary())
        if args.verbose:
            sys.stdout.write(report.to_text())
        if not report.passed:
            failed += 1
    return 1 if failed else 0


# ----------------------------------------------------------------------
# slice


def cmd_slice(args) -> int:
    setup = _load_setup(args)
    tube = Tube(setup.domain)
    anchor = _point_arg(args.anchor, tube.n).real if args.anchor else np.atleast_1d(
        setup.domain.reference
    )
    if args.direction:
        direction = _point_arg(args.direction, tube.n).real
    else:
        direction = np.zeros(tube.n)
        direction[0] = 1.0
    disk = tube.slice_on_line(anchor, direction)
    a, b = disk.a, disk.b
    half = 0.5 * (b - a)
    res = args.resolution
    s = a + (np.arange(res) + 0.5) * (b - a) / res
    t = -half + (np.arange(res) + 0.5) * (2 * half) / res
    sg, tg = np.meshgrid(s, t)
    p_plus, p_minus = interval_gauges(a, b, sg, tg)
    prod = p_plus * p_minus
    inside = (sg > a) & (sg < b) & (prod < 1.0)
    band = np.abs(prod - 1.0) < 1e-6
    u = np.where(inside, np.arctan2(p_plus + p_minus, 1.0 - prod), -1.0)
    u = np.where(band, -2.0, u)
    if args.format == "csv":
        lines = []
        for row in range(res):
            lines.append(",".join(_fmt_float(v) for v in u[row]))
        text = "\n".join(lines) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    else:
        gray = np.full(u.shape, 255, dtype=np.uint8)
        valid = u >= 0.0
        gray[valid] = np.clip(
            np.round(u[valid] / (0.5 * math.pi) * 254.0), 0, 254
        ).astype(np.uint8)
        header = f"P5\n{res} {res}\n255\n".encode("ascii")
        payload = header + gray[::-1].tobytes()
        out = args.output or "slice.pgm"
        with open(out, "wb") as handle:
            handle.write(payload)
        print(f"wrote {out}")
    return 0


# ----------------------------------------------------------------------
# dist / map


def cmd_dist(args) -> int:
    setup = _load_setup(args)
    tube = Tube(setup.domain)
    z = _point_arg(args.z, tube.n)
    w = _point_arg(args.w, tube.n)
    try:
        value = tube.kobayashi_supported(z, w)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_fmt_float(value))
    return 0


def cmd_map(args) -> int:
    setup = _load_setup(args)
    tube = Tube(setup.domain)
    z = _point_arg(args.z, tube.n)
    try:
        vec = to_tangent(tube, z)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    base = ",".join(_fmt_float(v) for v in np.atleast_1d(vec.base))
    direction = ",".join(
        format(float(v), "+.15g") for v in np.atleast_1d(vec.direction)
    )
    if vec.magnitude == 0.0:
        direction = ",".join("0" for _ in np.atleast_1d(vec.direction))
    print(f"{base};{direction};{_fmt_float(vec.magnitude)}")
    return 0


# ----------------------------------------------------------------------
# dual


def cmd_dual(args) -> int:
    setup = _load_setup(args)
    try:
        dual = dual_of(setup.domain)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = format_domain_text(dual.domain, name=(setup.domain.name or "domain") + "-dual")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elliptic-tubes",
        description="Elliptic tubes over properly convex domains: checks and queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_domain_args(p):
        p.add_argument("--domain", choices=catalog.names(), help="catalog domain")
        p.add_argument("--file", help="domain description file")

    p_check = sub.add_parser("check", help="run verification suites")
    add_domain_args(p_check)
    p_check.add_argument("--suite", default="all", choices=("all",) + _SUITES)
    p_check.add_argument("--seed", type=_nonnegative_int, default=0)
    p_check.add_argument("--samples", type=_positive_int, default=200)
    p_check.add_argument("--resolution", type=_positive_int, default=256)
    p_check.add_argument("--verbose", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_slice = sub.add_parser("slice", help="slice grid of boundary angles")
    add_domain_args(p_slice)
    p_slice.add_argument("--anchor", help="real chart point on the slice line")
    p_slice.add_argument("--direction", help="real direction of the slice line")
    p_slice.add_argument("--resolution", type=_positive_int, default=256)
    p_slice.add_argument("--format", default="csv", choices=("csv", "pgm"))
    p_slice.add_argument("--output", help="output path (default: stdout / slice.pgm)")
    p_slice.set_defaults(func=cmd_slice)

    p_dist = sub.add_parser("dist", help="two-point tube distance")
    add_domain_args(p_dist)
    p_dist.add_argument("z", help="first point, e.g. 0.1+0.2i,0.3")
    p_dist.add_argument("w", help="second point")
    p_dist.set_defaults(func=cmd_dist)

    p_map = sub.add_parser("map", help="tangent coordinates of a tube point")
    add_domain_args(p_map)
    p_map.add_argument("z", help="tube point, e.g. 0.5i")
    p_map.set_defaults(func=cmd_map)

    p_dual = sub.add_parser("dual", help="dual complement as a domain file")
    add_domain_args(p_dual)
    p_dual.add_argument("--output", help="output path (default: stdout)")
    p_dual.set_defaults(func=cmd_dual)

    return parser


_PARSER = None


def main(argv=None) -> int:
    # argparse makes a fresh namespace per call, so one parser serves every
    # call in a process; building it costs more than a quick check does
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DomainSpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
