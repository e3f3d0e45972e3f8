import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from elliptic_tubes.cli import _parse_complex, _parse_point, main
from elliptic_tubes.domspec import format_domain_text, load_domain, parse_domain_text


BENCH_DOMAINS = Path(__file__).resolve().parents[1] / "perfbench"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------- parsing helpers --------------------------------------------------------


def test_parse_complex_notation():
    assert _parse_complex("0.5i") == 0.5j
    assert _parse_complex("-1+0.25i") == -1 + 0.25j
    assert _parse_complex("2") == 2 + 0j
    assert _parse_complex("1-I") == 1 - 1j


def test_parse_point():
    np.testing.assert_allclose(
        _parse_point("0.1+0.2i,0.3"), np.array([0.1 + 0.2j, 0.3 + 0j])
    )


# ---------- map / dist --------------------------------------------------------------


def test_map_anchor_line(capsys):
    code, out, _ = run(capsys, "map", "--domain", "interval", "0.5i")
    assert code == 0
    assert out.strip() == "0;+1;0.549306144334055"


def test_map_real_point_zero_vector(capsys):
    code, out, _ = run(capsys, "map", "--domain", "interval", "0.25")
    assert code == 0
    base, direction, magnitude = out.strip().split(";")
    assert float(base) == pytest.approx(0.25)
    assert float(direction) == 0.0
    assert float(magnitude) == 0.0


@pytest.mark.parametrize("z", ["2i", "1i"])
def test_map_off_the_open_tube_is_geometry_error(capsys, z):
    # 2i lies outside the closed tube, i on its boundary
    code, out, err = run(capsys, "map", "--domain", "interval", "--", z)
    assert code == 1
    assert out == ""
    assert err.strip() == "error: point lies outside the open tube"


def test_dist_matches_library(capsys, interval):
    code, out, _ = run(capsys, "dist", "--domain", "interval", "0", "0.5")
    assert code == 0
    assert float(out.strip()) == pytest.approx(math.atanh(0.5), abs=1e-12)


def test_dist_outside_is_geometry_error(capsys):
    code, out, err = run(capsys, "dist", "--domain", "interval", "3", "0.5")
    assert code == 1


# ---------- slice --------------------------------------------------------------------


def test_slice_csv(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys,
        "slice",
        "--domain",
        "interval",
        "--resolution",
        "16",
        "--output",
        str(out_path),
    )
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().strip().splitlines()]
    assert len(rows) == 16
    assert all(len(r) == 16 for r in rows)
    values = np.array([[float(v) for v in r] for r in rows])
    # exterior encoded as -1, chart infinity as -2, interior angles in [0, pi/2)
    assert values.max() < math.pi / 2
    assert (values == -1.0).any()
    inside = values[values >= 0]
    assert inside.size > 0


def test_slice_pgm(tmp_path, capsys):
    out_path = tmp_path / "grid.pgm"
    code, _, _ = run(
        capsys,
        "slice",
        "--domain",
        "square",
        "--resolution",
        "24",
        "--format",
        "pgm",
        "--output",
        str(out_path),
    )
    assert code == 0
    blob = out_path.read_bytes()
    assert blob.startswith(b"P5")
    header = blob.split(b"\n")
    assert header[1] == b"24 24"
    assert header[2] == b"255"


def test_slice_explicit_line(capsys, tmp_path):
    out_path = tmp_path / "line.csv"
    code, _, _ = run(
        capsys,
        "slice",
        "--domain",
        "square",
        "--anchor",
        "0.1,0.2",
        "--direction",
        "1,0.5",
        "--resolution",
        "12",
        "--output",
        str(out_path),
    )
    assert code == 0
    assert len(out_path.read_text().strip().splitlines()) == 12


# ---------- dual ---------------------------------------------------------------------


def test_dual_emits_parseable_spec(capsys):
    code, out, _ = run(capsys, "dual", "--domain", "square")
    assert code == 0
    spec = parse_domain_text(out)
    assert spec.domain.n == 2
    assert spec.name == "square-dual"
    # the dual of the square contains the origin of its chart
    assert spec.domain.contains(np.zeros(2))


def test_dual_round_trip_through_file(tmp_path, capsys):
    first = tmp_path / "dual.dom"
    code, out, _ = run(capsys, "dual", "--domain", "triangle", "--output", str(first))
    assert code == 0
    code2, out2, _ = run(capsys, "dual", "--file", str(first))
    assert code2 == 0
    spec = parse_domain_text(out2)
    # the double dual is the original subset of RP^2, but described in the
    # double-dual chart, so probe it with a homogeneous point
    from elliptic_tubes.projective import HPoint

    assert spec.domain.contains(HPoint([0.25, 0.25, 1.0]))
    assert not spec.domain.contains(HPoint([2.0, 2.0, 1.0]))


def test_cube_h_form_checks_and_dualizes(tmp_path, capsys):
    # qhull triangulates the cube's faces: its H-form has 6 pairs of equal rows
    spec = tmp_path / "cube3-h.dom"
    cube = load_domain(BENCH_DOMAINS / "cube3.dom").domain
    spec.write_text(format_domain_text(cube.as_hdomain(), name="cube3-h"))
    code, out, _ = run(capsys, "check", "--file", str(spec), "--suite", "duality",
                       "--samples", "5")
    assert code == 0, out
    code, out, _ = run(capsys, "dual", "--file", str(spec))
    assert code == 0
    assert len(parse_domain_text(out).domain.rep.vertices) == 6


# ---------- check --------------------------------------------------------------------


def test_check_path_imports_no_scipy_optimize():
    # in a fresh interpreter: only the tangent sets and barycentric
    # membership use scipy.optimize, and no check suite calls them
    script = (
        "import sys\n"
        "from elliptic_tubes import cli\n"
        "for name in ('triangle', 'halfline'):\n"
        "    cli.main(['check', '--domain', name, '--suite', 'all', '--samples', '10'])\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    assert proc.stdout.splitlines()[-1] == "False"


def test_cli_and_check_path_import_no_scipy():
    # in a fresh interpreter: only qhull (polytope hulls), scipy.optimize
    # and the test references load SciPy, and none of these domains needs them
    script = (
        "import sys\n"
        "from elliptic_tubes import cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "for name in ('interval', 'halfline', 'disk', 'ellipse'):\n"
        "    cli.main(['check', '--domain', name, '--suite', 'all', '--samples', '10'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[]"


def test_check_skips_suites_that_ran_no_samples(capsys):
    # at --samples 1 the duality check runs 1 // 2 samples per direction
    # and the exhaustion check 1 // 3 per stage and 1 // 2 at the end
    code, out, _ = run(capsys, "check", "--domain", "square", "--samples", "1")
    assert code == 0
    assert "[SKIP] duality: 0 samples at --samples 1" in out
    assert "[SKIP] exhaust: 0 samples at --samples 1" in out
    assert ": 0 samples," not in out
    assert "[PASS] linear_convexity: 10 samples" in out


def test_check_quick_suite(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--domain",
        "triangle",
        "--suite",
        "linconv",
        "--samples",
        "30",
    )
    assert code == 0
    assert "[PASS] linear_convexity" in out


def test_check_all_on_halfline(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--domain",
        "halfline",
        "--samples",
        "40",
        "--resolution",
        "64",
    )
    assert code == 0
    assert "[PASS]" in out
    assert "free_action" in out


def test_check_skips_group_suites_without_generators(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--domain",
        "ellipse",
        "--suite",
        "action",
        "--samples",
        "20",
    )
    assert code == 0
    assert "SKIP" in out


def test_check_punctured_file_fails(capsys, tmp_path):
    spec = tmp_path / "punct.dom"
    spec.write_text(
        "dimension: 1\n"
        "type: vpolytope\n"
        "vertices: (-1, 1); (1, 1)\n"
        "puncture: (0); 0.3\n"
    )
    code, out, _ = run(
        capsys,
        "check",
        "--file",
        str(spec),
        "--suite",
        "cconv",
        "--resolution",
        "96",
    )
    assert code == 1
    assert "[FAIL]" in out


def test_check_verbose_prints_report_body(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--domain",
        "square",
        "--suite",
        "metric",
        "--samples",
        "25",
        "--verbose",
    )
    assert code == 0
    assert "report: metric_consistency" in out
    assert "max_error:" in out


# ---------- usage errors -------------------------------------------------------------


def test_unknown_domain_is_usage_error(capsys):
    code, _, err = run(capsys, "map", "--domain", "dodecahedron", "0.5i")
    assert code == 2


def test_bad_complex_is_usage_error(capsys):
    code, _, err = run(capsys, "map", "--domain", "interval", "zebra")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("map", "--domain", "square", "nan,0"), "non-finite coordinate 'nan'"),
    (("map", "--domain", "square", "inf,0"), "non-finite coordinate 'inf'"),
    (("dist", "--domain", "square", "nan,0", "0,0"), "non-finite coordinate 'nan'"),
    (("map", "--domain", "square", "0.5i"), "expected 2 coordinates, not 1"),
    (("slice", "--domain", "square", "--anchor", "1,2,3"), "expected 2 coordinates, not 3"),
    (("slice", "--domain", "square", "--direction", "1"), "expected 2 coordinates, not 1"),
])
def test_bad_coordinates_are_input_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [("check", "--suite", "linconv"), ("dual",)])
def test_unbounded_h_domain_file_is_an_input_error(tmp_path, capsys, argv):
    spec = tmp_path / "unbounded.dom"
    spec.write_text("name: unbounded\ndimension: 2\ntype: hdomain\n"
                    "functionals: (1, 0, 0); (0, 1, 0); (1, 1, 0)\nreference_point: (0.5, 0.5)\n")
    code, out, err = run(capsys, *argv, "--file", str(spec))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "H-domain is unbounded or has empty interior in its chart" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "dist", "--file", "/nonexistent.dom", "0", "0.5")
    assert code == 2


@pytest.mark.parametrize("value", ["0", "-3", "1.5", "many"])
@pytest.mark.parametrize("argv", [("check", "--domain", "triangle", "--suite", "cconv"),
                                  ("slice", "--domain", "square")])
def test_resolution_must_be_a_positive_integer(capsys, argv, value):
    code, out, err = run(capsys, *argv, "--resolution", value)
    assert code == 2
    assert out == ""
    assert "--resolution: must be a positive integer" in err


@pytest.mark.parametrize("option, value, message", [
    ("--samples", "0", "--samples: must be a positive integer"),
    ("--samples", "-5", "--samples: must be a positive integer"),
    ("--seed", "-1", "--seed: must be a non-negative integer"),
])
def test_check_rejects_counts_and_seeds_it_cannot_use(capsys, option, value, message):
    # a usage error before the first suite runs
    code, out, err = run(capsys, "check", "--domain", "square", "--suite", "all", option, value)
    assert code == 2
    assert out == ""
    assert message in err


def test_c_convexity_verdict_does_not_depend_on_pixels(capsys):
    # one pixel per raster: whatever the rasters count, the arcs decide
    code, out, _ = run(capsys, "check", "--domain", "triangle", "--suite", "cconv",
                       "--resolution", "1", "--verbose")
    assert code == 0, out
    assert out.startswith("[PASS] c_convexity")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["cube3", "simplex4"])
def test_check_all_suites_in_three_and_four_dimensions(capsys, name, seed):
    code, out, _ = run(capsys, "check", "--file", str(BENCH_DOMAINS / f"{name}.dom"),
                       "--suite", "all", "--samples", "5", "--seed", str(seed))
    assert code == 0, out


def test_one_parser_serves_every_call_without_leaking_arguments(capsys):
    from elliptic_tubes import cli

    first = run(capsys, "check", "--domain", "triangle", "--suite", "exhaust",
                "--seed", "5", "--samples", "20", "--verbose")
    parser = cli._PARSER
    assert run(capsys, "dist", "--domain", "interval", "0.1", "0.5")[0] == 0
    # nothing of the two calls above may carry over: square, seed 0, 200 samples
    again = run(capsys, "check", "--suite", "exhaust")
    explicit = run(capsys, "check", "--domain", "square", "--suite", "exhaust",
                   "--seed", "0", "--samples", "200")
    assert cli._PARSER is parser
    assert again == explicit
    assert "seed=0" in again[1] and "report:" not in again[1]
    assert run(capsys, "check", "--domain", "triangle", "--suite", "exhaust",
               "--seed", "5", "--samples", "20", "--verbose") == first
