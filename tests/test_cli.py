"""Tests for the command-line interface: flags, formats, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coulomb_kit import cli
from coulomb_kit.coulomb_core import PhysicalParams, closed_amplitude
from coulomb_kit.errors import MAX_L, MIN_THETA
from coulomb_kit.summation import default_config, series_amplitude, unregularized_partial_sums


def run_capture(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


AMPLITUDE_ARGS = [
    "amplitude", "--k", "1", "--beta", "1",
    "--theta-min", "0.1", "--theta-max", "3.14159", "--count", "64",
    "--format", "csv",
]


def test_amplitude_csv_shape(capsys):
    code, out, err = run_capture(capsys, AMPLITUDE_ARGS)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta,re_f,im_f,abs_f_sq,method"
    assert len(lines) == 65
    assert all(line.endswith(",closed_form") for line in lines[1:])


def test_amplitude_csv_round_trips_exactly(capsys):
    code, out, _ = run_capture(capsys, AMPLITUDE_ARGS)
    assert code == 0
    p = PhysicalParams(k=1.0, beta=1.0)
    for line in out.splitlines()[1:]:
        theta_s, re_s, im_s, sq_s, _ = line.split(",")
        theta = float(theta_s)
        r = closed_amplitude(theta, p)
        assert float(re_s) == r.f.real
        assert float(im_s) == r.f.imag
        assert float(sq_s) == abs(r.f) ** 2


def test_amplitude_repeated_runs_byte_identical(capsys):
    _, out1, _ = run_capture(capsys, AMPLITUDE_ARGS)
    _, out2, _ = run_capture(capsys, AMPLITUDE_ARGS)
    assert out1 == out2


def test_amplitude_series_method(capsys):
    code, out, _ = run_capture(capsys, [
        "amplitude", "--k", "1", "--beta", "1",
        "--theta-min", "1.0", "--theta-max", "2.0", "--count", "3",
        "--method", "series", "--lmax", "2000",
    ])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.endswith(",regularized_series") for line in lines[1:])
    # the grid path gives exactly the per-angle library value
    p = PhysicalParams(k=1.0, beta=1.0)
    cfg = default_config(l_max=2000)
    for line in lines[1:]:
        theta_s, re_s, im_s, sq_s, _ = line.split(",")
        r = series_amplitude(float(theta_s), p, cfg)
        assert float(theta_s) == r.theta
        assert complex(float(re_s), float(im_s)) == r.f
        assert float(sq_s) == abs(r.f) ** 2


def test_amplitude_series_default_is_the_reduced_series(capsys):
    # without --lmax the CLI runs the library default, bit for bit
    code, out, _ = run_capture(capsys, [
        "amplitude", "--k", "1.5", "--beta", "-2", "--theta-min", "0.3",
        "--theta-max", "3.14159", "--count", "20", "--method", "series",
    ])
    assert code == 0
    p = PhysicalParams(k=1.5, beta=-2.0)
    for line in out.splitlines()[1:]:
        theta_s, re_s, im_s, _, method = line.split(",")
        r = series_amplitude(float(theta_s), p)
        assert complex(float(re_s), float(im_s)) == r.f
        assert method == "regularized_series"
        assert abs(r.f - closed_amplitude(r.theta, p).f) <= 1e-9 * abs(r.f)


def test_series_at_large_beta_matches_closed_form(capsys):
    # the Abel default returned 0.986+23.13i here, 0.99 relative error, with exit 0
    grid = ["--beta", "1000", "--theta-min", "1", "--theta-max", "1", "--count", "1"]
    code, out, _ = run_capture(capsys, ["amplitude", "--method", "series", *grid])
    assert code == 0
    _, re_s, im_s, _, _ = out.splitlines()[1].split(",")
    f_ref = closed_amplitude(1.0, PhysicalParams(k=1.0, beta=1000.0)).f
    assert abs(complex(float(re_s), float(im_s)) - f_ref) <= 1e-8 * abs(f_ref)


def test_series_beyond_the_cap_is_domain_error(capsys):
    for argv in (["verify", "--beta", "1e4", "--theta", "1"],
                 ["amplitude", "--method", "series", "--beta", "1e4", "--theta-min", "1",
                  "--theta-max", "1", "--count", "1"]):
        code, out, err = run_capture(capsys, argv)
        assert code == 3, argv
        assert out == ""
        assert "beta=10000.0" in err and "theta=1.0" in err and "L=" in err


def test_series_near_forward_is_domain_error(capsys):
    # the series' rounding floor exceeds |f| here: no number may be printed
    code, out, err = run_capture(capsys, ["amplitude", "--method", "series", "--k", "1",
                                          "--beta", "1", "--theta-min", "1e-7",
                                          "--theta-max", "1e-7", "--count", "1"])
    assert code == 3
    assert out == ""
    assert "relative exceeds 1e-06 (beta=1.0, theta=1e-07)" in err


def test_verify_backward_angle_small_beta_passes(capsys):
    # the Abel default missed the 1e-3 budget here (exit 4)
    code, out, _ = run_capture(capsys, ["verify", "--beta", "0.1", "--theta", "3.141592653589793"])
    assert code == 0
    assert float(out.splitlines()[1].split(",")[-1]) <= 1e-9


def test_degrees_flag(capsys):
    code, out, _ = run_capture(capsys, [
        "amplitude", "--k", "1", "--beta", "1",
        "--theta-min", "90", "--theta-max", "90", "--count", "1", "--degrees",
    ])
    assert code == 0
    theta = float(out.splitlines()[1].split(",")[0])
    assert theta == pytest.approx(math.pi / 2, rel=1e-12)


def test_json_meta_echoes_flags(capsys):
    code, out, _ = run_capture(capsys, [
        "phase-shifts", "--beta", "2", "--lmax", "20", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["beta"] == 2.0
    assert payload["meta"]["lmax"] == 20
    assert payload["meta"]["format"] == "json"
    assert payload["meta"]["command"] == "phase-shifts"
    rows = payload["rows"]
    assert len(rows) == 21
    for row in rows:
        assert set(row) == {"l", "delta", "re_S", "im_S"}
        assert math.hypot(row["re_S"], row["im_S"]) == pytest.approx(1.0, abs=1e-13)


def test_json_round_trip_floats(capsys):
    _, out, _ = run_capture(capsys, [
        "cross-section", "--k", "2", "--beta", "1.5",
        "--theta-min", "0.5", "--theta-max", "2.5", "--count", "5",
        "--format", "json",
    ])
    payload = json.loads(out)
    from coulomb_kit.coulomb_core import differential_cross_section
    p = PhysicalParams(k=2.0, beta=1.5)
    for row in payload["rows"]:
        assert row["dsigma_domega"] == differential_cross_section(row["theta"], p)


def test_verify_exit_codes(capsys):
    ok_args = ["verify", "--k", "1", "--beta", "1",
               "--theta", "1.5707963", "--lmax", "4000"]
    code, out, _ = run_capture(capsys, ok_args)
    assert code == 0
    header, row = out.splitlines()
    assert header.split(",")[-2:] == ["abs_error", "rel_error"]
    rel = float(row.split(",")[-1])
    assert rel <= 1e-3
    # same computation must fail a tolerance below its actual error
    code, _, _ = run_capture(capsys, ok_args + ["--tol", "1e-9"])
    assert code == 4
    # a tolerance no result can meet is a usage error, not a failed check
    for tol in ("nan", "-1", "inf"):
        code, _, err = run_capture(capsys, ok_args + ["--tol", tol])
        assert code == 2, tol
        assert "--tol" in err
    # it is checked after the summation settings and before the angle
    code, _, err = run_capture(capsys, ok_args + ["--tol", "nan", "--lmax", "0"])
    assert code == 2 and "l_max" in err
    code, _, err = run_capture(capsys, ok_args[:-4] + ["--theta", "0", "--tol", "nan"])
    assert code == 2 and "--tol" in err


def test_damping_flag_is_gone(capsys):
    series_args = ["amplitude", "--k", "1", "--beta", "1", "--method", "series",
                   "--theta-min", "1.0", "--theta-max", "2.0", "--count", "2",
                   "--lmax", "500"]
    code, _, _ = run_capture(capsys, series_args + ["--damping", "abel"])
    assert code == 2
    code, _, _ = run_capture(capsys, [
        "verify", "--k", "1", "--beta", "1", "--theta", "1.5707963",
        "--damping", "heat",
    ])
    assert code == 2
    code, out, _ = run_capture(capsys, series_args + ["--format", "json"])
    assert code == 0
    assert json.loads(out)["meta"] == {
        "E": None, "beta": 1.0, "command": "amplitude", "count": 2,
        "degrees": False, "format": "json", "hbar": None, "k": 1.0, "kappa": None, "lmax": 500, "method": "series", "mu": None,
        "output": "-", "spacing": "linear", "theta_max": 2.0, "theta_min": 1.0,
    }


def test_verify_tol_flag_accepts_larger(capsys):
    code, _, _ = run_capture(capsys, [
        "verify", "--k", "1", "--beta", "1", "--theta", "0.7854",
        "--lmax", "1500", "--tol", "0.05",
    ])
    assert code == 0


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_capture(capsys, AMPLITUDE_ARGS + ["--frobnicate", "1"])
    assert code == 2
    assert "usage" in err.lower()


def test_conflicting_parameterizations(capsys):
    code, _, err = run_capture(capsys, [
        "amplitude", "--beta", "1", "--kappa", "1",
        "--theta-min", "0.1", "--theta-max", "1.0",
    ])
    assert code == 2
    assert "conflicting" in err


def test_incomplete_physical_set(capsys):
    code, _, err = run_capture(capsys, [
        "amplitude", "--mu", "1", "--kappa", "1",
        "--theta-min", "0.1", "--theta-max", "1.0",
    ])
    assert code == 2
    assert "--E" in err


def test_physical_parameterization_works(capsys):
    # mu=2, kappa=-3, E=1: k=2, beta=-3
    code, out, _ = run_capture(capsys, [
        "cross-section", "--mu", "2", "--kappa", "-3", "--E", "1",
        "--theta-min", "1.0", "--theta-max", "1.0", "--count", "1",
    ])
    assert code == 0
    value = float(out.splitlines()[1].split(",")[1])
    ref = 9.0 / (16.0 * math.sin(0.5) ** 4)
    assert value == pytest.approx(ref, rel=1e-12)


def test_missing_parameters(capsys):
    code, _, err = run_capture(capsys, [
        "amplitude", "--theta-min", "0.1", "--theta-max", "1.0",
    ])
    assert code == 2
    assert "--beta" in err


def test_forward_angle_is_domain_error(capsys):
    code, _, err = run_capture(capsys, [
        "amplitude", "--k", "1", "--beta", "1",
        "--theta-min", "0", "--theta-max", "1.0",
    ])
    assert code == 3
    code, _, _ = run_capture(capsys, [
        "partial-sum", "--k", "1", "--beta", "1", "--theta", "0",
    ])
    assert code == 3
    # parameters are checked before the grid, the grid before the summation
    code, _, err = run_capture(capsys, [
        "amplitude", "--k", "-1", "--beta", "1",
        "--theta-min", "0", "--theta-max", "1.0",
    ])
    assert code == 3 and "wavenumber" in err
    code, _, _ = run_capture(capsys, [
        "amplitude", "--k", "1", "--beta", "1",
        "--theta-min", "0", "--theta-max", "1.0", "--lmax", "0",
    ])
    assert code == 3


def test_bad_grid_is_usage_error(capsys):
    code, _, _ = run_capture(capsys, [
        "amplitude", "--k", "1", "--beta", "1",
        "--theta-min", "2.0", "--theta-max", "1.0",
    ])
    assert code == 2
    code, _, _ = run_capture(capsys, [
        "amplitude", "--k", "1", "--beta", "1",
        "--theta-min", "0.5", "--theta-max", "1.0", "--count", "0",
    ])
    assert code == 2
    # --count is checked before the grid's ends
    code, _, _ = run_capture(capsys, [
        "amplitude", "--k", "1", "--beta", "1",
        "--theta-min", "0", "--theta-max", "1.0", "--count", "0",
    ])
    assert code == 2
    # the summation settings are checked for --method closed too
    code, _, _ = run_capture(capsys, [
        "amplitude", "--k", "1", "--beta", "1", "--method", "closed",
        "--theta-min", "0.5", "--theta-max", "1.0", "--lmax", "0",
    ])
    assert code == 2


def test_count_above_cap_is_usage_error(capsys):
    # --count sizes the table: checked before anything is allocated
    count = ["--count", str(MAX_L + 1)]
    for argv in (["amplitude", "--beta", "1", "--theta-min", "1", "--theta-max", "2", *count],
                 ["cross-section", "--beta", "1", "--theta-min", "1", "--theta-max", "2", *count],
                 ["kernel-demo", "--epsilon", "0.1", *count]):
        code, out, err = run_capture(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert "--count" in err


def test_eps_schedule_flags_are_gone(capsys):
    # the eps schedule is fixed; --lmax is the only summation flag
    for argv in (["amplitude", "--beta", "1", "--theta-min", "1", "--theta-max", "2",
                  "--method", "series", "--count", "2", "--lmax", "500"],
                 ["verify", "--beta", "1", "--theta", "1", "--lmax", "500"]):
        for flag in ("--eps-first", "--eps-ratio", "--eps-count", "--extrapolation-order"):
            code, out, err = run_capture(capsys, argv + [flag, "2"])
            assert code == 2, (argv[0], flag)
            assert out == ""
            assert "unrecognized arguments" in err


def test_nonpositive_energy_is_domain_error(capsys):
    code, _, _ = run_capture(capsys, [
        "cross-section", "--mu", "1", "--kappa", "1", "--E", "-1",
        "--theta-min", "0.5", "--theta-max", "1.0",
    ])
    assert code == 3


def test_nonpositive_wavenumber_is_domain_error(capsys):
    code, _, _ = run_capture(capsys, [
        "amplitude", "--k", "-1", "--beta", "1",
        "--theta-min", "0.5", "--theta-max", "1.0",
    ])
    assert code == 3


def test_kernel_demo_runs(capsys):
    code, out, _ = run_capture(capsys, [
        "kernel-demo", "--epsilon", "0.1", "--lmax", "200",
        "--x-min", "-1", "--x-max", "1", "--count", "5",
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,kernel"
    assert len(lines) == 6


def test_kernel_demo_rejects_bad_epsilon(capsys):
    code, _, _ = run_capture(capsys, [
        "kernel-demo", "--epsilon", "-0.1", "--lmax", "10",
    ])
    assert code == 2


def test_kernel_demo_rejects_nan_abscissa(capsys):
    code, out, err = run_capture(capsys, [
        "kernel-demo", "--epsilon", "0.1", "--lmax", "10",
        "--x-min", "nan", "--count", "3",
    ])
    assert code == 3
    assert out == ""
    assert "[-1, 1]" in err


def test_partial_sum_rows(capsys):
    code, out, _ = run_capture(capsys, [
        "partial-sum", "--k", "1", "--beta", "1", "--theta", "1.5707963",
        "--lmax", "10",
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,re_sum,im_sum,abs_sum"
    assert len(lines) == 12
    assert lines[1].split(",")[0] == "0"


def test_partial_sum_rows_parse_back_exactly(capsys):
    # the rows hold np.float64 values; CSV and JSON must carry them exactly
    args = ["partial-sum", "--k", "0.7", "--beta", "-1.3", "--theta", "2.1", "--lmax", "40"]
    sums = unregularized_partial_sums(2.1, PhysicalParams(k=0.7, beta=-1.3), 40)
    code, out, _ = run_capture(capsys, args)
    assert code == 0
    csv_rows = [line.split(",") for line in out.splitlines()[1:]]
    code, out, _ = run_capture(capsys, args + ["--format", "json"])
    assert code == 0
    json_rows = json.loads(out)["rows"]
    assert len(csv_rows) == len(json_rows) == 41
    for n, (c, j, s) in enumerate(zip(csv_rows, json_rows, sums)):
        assert int(c[0]) == j["n"] == n
        assert float(c[1]) == j["re_sum"] == s.real
        assert float(c[2]) == j["im_sum"] == s.imag
        assert float(c[3]) == j["abs_sum"] == abs(s)


def test_nonfinite_amplitude_is_domain_error(capsys):
    # k = 1e-320 overflows f = g / (2ik) and each raw partial sum: an error,
    # not inf rows or a failed verify; at theta = 0.01 2k sin^2(theta/2)
    # underflows to 0 first
    grid = ["--theta-min", "0.5", "--theta-max", "1.0", "--count", "3"]
    small = ["--theta-min", "0.01", "--theta-max", "0.02", "--count", "2"]
    for argv in (["amplitude", "--k", "1e-320", "--beta", "1", *grid],
                 ["cross-section", "--k", "1e-320", "--beta", "1", *grid],
                 ["amplitude", "--k", "1e-320", "--beta", "1", *small],
                 ["cross-section", "--k", "1e-320", "--beta", "1", *small],
                 ["verify", "--k", "1e-320", "--beta", "1", "--theta", "1"],
                 ["verify", "--k", "1e-320", "--beta", "1", "--theta", "0.01"],
                 ["partial-sum", "--k", "1e-320", "--beta", "1", "--theta", "1", "--lmax", "3"]):
        code, out, err = run_capture(capsys, argv)
        assert code == 3, argv
        assert out == ""
        assert "not finite" in err


def test_underflowing_velocity_is_domain_error(capsys):
    # v = sqrt(2E/mu) underflows to 0 or overflows (beta would read 0.0), or
    # k = sqrt(2 mu E) does: one stderr line naming the inputs, not a division
    for mu, E in (("1e300", "1e-300"), ("1e-300", "1e300"), ("1e-300", "1e-300"),
                  ("1e300", "1e300")):
        code, out, err = run_capture(capsys, ["cross-section", "--mu", mu, "--kappa", "1",
                                              "--E", E, "--theta-min", "1",
                                              "--theta-max", "2", "--count", "2"])
        assert code == 3, (mu, E)
        assert out == ""
        assert err.count("\n") == 1
        assert f"mu={float(mu)!r}, E={float(E)!r}, hbar=1.0" in err
    # k and hbar v are finite, but kappa / (hbar v) overflows: the line names kappa
    code, out, err = run_capture(capsys, ["cross-section", "--mu", "1", "--kappa", "1e300",
                                          "--E", "1", "--hbar", "1e-308", "--theta-min", "1",
                                          "--theta-max", "2", "--count", "2"])
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "hbar * sqrt(2 E / mu) = 1.414213562373095e-308" in err
    assert "at kappa=1e+300, mu=1.0, E=1.0, hbar=1e-308" in err


def test_cross_section_past_a_double_is_one_line_domain_error(capsys):
    # at k = 1e-160, |f| is about 2.2e160: f fits a double, |f|^2 does not,
    # and the one stderr line names the angle instead of errno 34
    grid = ["--k", "1e-160", "--beta", "1", "--theta-min", "1", "--theta-max", "2",
            "--count", "2"]
    for argv in (["cross-section", *grid], ["amplitude", *grid],
                 ["amplitude", *grid, "--method", "series"]):
        code, out, err = run_capture(capsys, argv)
        assert code == 3, argv
        assert out == ""
        assert err == "coulomb-kit: domain error: |f|^2 at theta = 1.0 is not finite\n", argv


def test_huge_beta_is_domain_error(capsys):
    for argv in (["amplitude", "--beta", "1e200", "--theta-min", "1", "--theta-max", "2"],
                 ["phase-shifts", "--beta", "1e200", "--lmax", "3"]):
        code, out, err = run_capture(capsys, argv)
        assert code == 3, argv
        assert out == ""
        assert "beta" in err


@pytest.mark.parametrize("argv, flag, value, expected", [
    (["phase-shifts", "--k", "1", "--lmax", "1"], "--beta", "-1e6", 0),
    (["phase-shifts", "--k", "1", "--lmax", "1"], "--beta", "-1E+06", 0),
    (["phase-shifts", "--k", "1", "--lmax", "1"], "--beta", "-inf", 3),
    (["phase-shifts", "--k", "1", "--lmax", "1"], "--beta", "-nan", 3),
    (["phase-shifts", "--beta", "1", "--lmax", "1"], "--k", "-Infinity", 3),
    (["cross-section", "--mu", "1", "--E", "1", "--theta-min", "1", "--theta-max", "2",
      "--count", "2"], "--kappa", "-1e300", 3),
    (["cross-section", "--k", "1", "--beta", "1", "--theta-min", "1", "--count", "2"],
     "--theta-max", "-1e6", 3),
])
def test_negative_value_after_a_space_parses_as_after_an_equals_sign(
        capsys, argv, flag, value, expected):
    # a negative exponent form or -inf/-nan is the flag's value in either spelling
    spaced = run_capture(capsys, [*argv, flag, value])
    joined = run_capture(capsys, [*argv, f"{flag}={value}"])
    assert spaced == joined
    code, out, err = spaced
    assert code == expected
    if expected:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("coulomb-kit: ")


def test_lmax_above_cap_is_rejected(capsys):
    # the config's l_max is a usage error; a length that sizes a table is a domain error
    lmax = ["--lmax", str(MAX_L + 1)]
    for argv, expected in (
        (["amplitude", "--method", "series", "--beta", "1", "--theta-min", "1",
          "--theta-max", "2", "--count", "2", *lmax], 2),
        (["verify", "--beta", "1", "--theta", "1", *lmax], 2),
        (["kernel-demo", "--epsilon", "0.1", *lmax], 3),
        (["partial-sum", "--beta", "1", "--theta", "1", *lmax], 3),
        (["phase-shifts", "--beta", "1", *lmax], 3),
    ):
        code, out, err = run_capture(capsys, argv)
        assert code == expected, argv
        assert out == ""
        assert f"<= {MAX_L}" in err


def test_ladder_drift_is_domain_error(capsys):
    # at |beta| = 1e5 the S ladder drifts past its tolerance: exit 3, no traceback
    for argv in (["verify", "--beta", "1e5", "--theta", "1"],
                 ["amplitude", "--method", "series", "--beta", "1e5", "--theta-min", "1",
                  "--theta-max", "1", "--count", "1"]):
        code, out, err = run_capture(capsys, argv)
        assert code == 3, argv
        assert out == ""
        assert "drifted" in err


def run_child(code, argv=()):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_subnormal_beta_series_is_one_line_domain_error():
    # below 1/DBL_MAX, 1/beta overflows: exit 3 with one line on stderr and
    # no numpy RuntimeWarning from NaN coefficients (a child's raw stderr)
    argv = ["amplitude", "--method", "series", "--beta", "1e-310", "--theta-min", "1",
            "--theta-max", "1", "--count", "1"]
    result = run_child("from coulomb_kit import cli; cli.main()", argv)
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == ("coulomb-kit: domain error: 1/beta overflows at beta=1e-310 "
                             "in the reduced series\n")


def test_kernel_demo_prints_no_numpy_warning():
    # a child's raw stderr: Abel weights past a double are 0 with no overflow
    # warning, and an abscissa range that is not finite is rejected by the
    # kernel, not warned about by np.linspace
    argv = ["kernel-demo", "--epsilon", "1.7e308", "--lmax", "3", "--x-min", "0.5", "--count", "1"]
    result = run_child("from coulomb_kit import cli; cli.main()", argv)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[1:] == ["5.0000000000000000e-01,1.0000000000000000e+00"]
    argv = ["kernel-demo", "--epsilon", "1e-7", "--lmax", "50", "--x-min", "inf",
            "--x-max", "inf", "--count", "3"]
    result = run_child("from coulomb_kit import cli; cli.main()", argv)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == "coulomb-kit: domain error: all kernel abscissae must lie in [-1, 1]\n"


def test_series_cli_runs_without_scipy(capsys):
    # a fresh interpreter in which any import of scipy, lazy ones included, fails
    argv = ["amplitude", "--method", "series", "--k", "1", "--beta", "-1.5",
            "--theta-min", "0.5", "--theta-max", "3", "--count", "5"]
    code, expected, _ = run_capture(capsys, argv)
    assert code == 0
    child = "import sys; sys.modules['scipy'] = None; from coulomb_kit import cli; cli.main()"
    result = run_child(child, argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected


@pytest.mark.parametrize("argv", [
    ["cross-section", "--beta", "-0.7", "--theta-min", "0.2", "--theta-max", "3.1",
     "--count", "7"],
    ["cross-section", "--mu", "2", "--kappa", "1.5", "--E", "0.8", "--theta-min", "10",
     "--theta-max", "170", "--count", "4", "--degrees", "--format", "json"],
    ["phase-shifts", "--k", "1.3", "--beta", "2.5", "--lmax", "12"],
    ["amplitude", "--method", "closed", "--k", "0.5", "--beta", "1", "--theta-min", "0.5",
     "--theta-max", "0.5", "--count", "1"],
])
def test_closed_form_commands_run_without_numpy(capsys, argv):
    # a fresh interpreter in which any import of numpy, lazy ones included, fails
    code, expected, _ = run_capture(capsys, argv)
    assert code == 0
    child = "import sys; sys.modules['numpy'] = None; from coulomb_kit import cli; cli.main()"
    result = run_child(child, argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected


def test_package_and_cli_imports_load_no_numpy():
    # dir() lists the series names without loading them; the first series
    # name then brings in the series module, and numpy with it.  Neither
    # step loads dataclasses, and the package import loads no inspect; for
    # those two what counts is what the imports add, as a site hook may
    # preload them
    child = ("import sys\n"
             "before = set(sys.modules)\n"
             "import coulomb_kit, coulomb_kit.cli\n"
             "added = lambda: set(sys.modules) - before\n"
             "loaded = lambda: sorted({'numpy', 'coulomb_kit.summation'} & set(sys.modules))\n"
             "print(set(coulomb_kit.__all__) <= set(dir(coulomb_kit)), loaded(),\n"
             "      sorted({'dataclasses', 'inspect'} & added()))\n"
             "coulomb_kit.series_amplitude; print(loaded(), 'dataclasses' in added())")
    result = run_child(child)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True [] []\n['coulomb_kit.summation', 'numpy'] False\n"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    ends=st.lists(st.floats(MIN_THETA, math.pi), min_size=2, max_size=2),
    count=st.integers(1, 5000),
)
@example(ends=[0.5, 2.0], count=1)
@example(ends=[0.5, 2.0], count=2)
@example(ends=[1.25, 1.25], count=9)
@example(ends=[MIN_THETA, math.pi], count=5000)
def test_linear_grid_equals_numpy_linspace_bitwise(ends, count):
    # the CLI builds the linear grid without numpy; its points keep linspace's
    # bits.  The ends are checked angles, so none lies below MIN_THETA
    a, b = sorted(ends)
    args = SimpleNamespace(count=count, theta_min=a, theta_max=b,
                           spacing=cli.LINEAR_SPACING, degrees=False)
    grid = cli._grid_thetas(args)
    assert [t.hex() for t in grid] == [float(t).hex() for t in np.linspace(a, b, count)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    ends=st.lists(st.floats(MIN_THETA, math.pi), min_size=2, max_size=2),
    count=st.integers(1, 5000),
)
@example(ends=[0.5, 2.0], count=1)
@example(ends=[1.25, 1.25], count=9)
@example(ends=[MIN_THETA, math.pi], count=5000)
def test_log_grid_equals_numpy_geomspace_bitwise(ends, count):
    # the log grid is np.geomspace itself: numpy's log10 and power round
    # differently from math's, so a pure-Python grid would move interior points
    a, b = sorted(ends)
    args = SimpleNamespace(count=count, theta_min=a, theta_max=b,
                           spacing=cli.LOG_SPACING, degrees=False)
    grid = cli._grid_thetas(args)
    assert [t.hex() for t in grid] == [float(t).hex() for t in np.geomspace(a, b, count)]


def test_output_file_written(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_capture(capsys, AMPLITUDE_ARGS + ["--output", str(target)])
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert len(lines) == 65


PARAM_FLAGS = {"k", "beta", "mu", "kappa", "E", "hbar"}
GRID_FLAGS = {"theta_min", "theta_max", "count", "spacing", "degrees"}
ANGLE_FLAGS = {"theta", "degrees"}

# one invocation per table (verify both passing and failing), its exit code,
# and the flags of its subcommand
TABLES = [
    (["amplitude", "--beta", "1", "--theta-min", "1", "--theta-max", "2", "--count", "3",
      "--method", "series"], 0, PARAM_FLAGS | GRID_FLAGS | {"lmax", "method"}),
    (["cross-section", "--mu", "2", "--kappa", "1.5", "--E", "0.8", "--theta-min", "10",
      "--theta-max", "170", "--count", "3", "--degrees"], 0, PARAM_FLAGS | GRID_FLAGS),
    (["phase-shifts", "--k", "1.3", "--beta", "2.5", "--lmax", "4"], 0, PARAM_FLAGS | {"lmax"}),
    (["partial-sum", "--beta", "-1.3", "--theta", "2.1", "--lmax", "5"], 0,
     PARAM_FLAGS | ANGLE_FLAGS | {"lmax"}),
    (["kernel-demo", "--epsilon", "0.1", "--lmax", "20", "--count", "3"], 0,
     {"epsilon", "lmax", "x_min", "x_max", "count"}),
    (["verify", "--k", "1", "--beta", "1", "--theta", "1.5707963"], 0,
     PARAM_FLAGS | ANGLE_FLAGS | {"lmax", "tol"}),
    (["verify", "--k", "1", "--beta", "1", "--theta", "3.141592653589793", "--lmax", "300"], 4,
     PARAM_FLAGS | ANGLE_FLAGS | {"lmax", "tol"}),
]


@pytest.mark.parametrize("argv, expected, flags", TABLES,
                         ids=[f"{argv[0]}-{expected}" for argv, expected, _ in TABLES])
def test_every_table_goes_through_the_one_writer(tmp_path, capsys, argv, expected, flags):
    # JSON meta echoes exactly the subcommand's flags and the command name,
    # never the parser's handler or columns
    code, out, _ = run_capture(capsys, argv + ["--format", "json"])
    assert code == expected
    meta = json.loads(out)["meta"]
    assert set(meta) == flags | {"command", "format", "output"}
    assert meta["command"] == argv[0]
    # --output gets the bytes stdout gets, and the same exit code, even for a failed verify
    code, out, _ = run_capture(capsys, argv)
    assert code == expected
    target = tmp_path / "table.csv"
    code, written, _ = run_capture(capsys, argv + ["--output", str(target)])
    assert code == expected
    assert written == ""
    assert target.read_bytes() == out.encode("utf-8")


def test_unwritable_output_is_io_error(tmp_path, capsys):
    code, _, err = run_capture(capsys, AMPLITUDE_ARGS + ["--output", str(tmp_path)])
    assert code == 5
    assert "i/o" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_capture(capsys, ["--help"])
    assert code == 0
    assert "amplitude" in out


def test_subcommand_help_documents_columns(capsys):
    # each --help ends with the CSV header its command writes, same names,
    # same order; argparse wraps the epilog to the terminal, so compare words.
    # Its usage line lists the options in declaration order, the table's flag
    # groups first and the shared --format, --output last
    params = ["--k", "--beta", "--mu", "--kappa", "--E", "--hbar"]
    grid_flags = ["--theta-min", "--theta-max", "--count", "--spacing", "--degrees"]
    shared = ["--format", "--output"]
    usage = {
        "amplitude": [*params, *grid_flags, "--lmax", "--method", *shared],
        "cross-section": [*params, *grid_flags, *shared],
        "phase-shifts": [*params, "--lmax", *shared],
        "partial-sum": [*params, "--theta", "--degrees", "--lmax", *shared],
        "kernel-demo": ["--epsilon", "--lmax", "--x-min", "--x-max", "--count", *shared],
        "verify": [*params, "--theta", "--degrees", "--lmax", "--tol", *shared],
    }
    grid = ["--beta", "1", "--theta-min", "1", "--theta-max", "2", "--count", "2"]
    for argv in (["amplitude", *grid], ["cross-section", *grid],
                 ["phase-shifts", "--beta", "1", "--lmax", "2"],
                 ["partial-sum", "--beta", "1", "--theta", "1", "--lmax", "2"],
                 ["kernel-demo", "--epsilon", "0.1", "--lmax", "10", "--count", "2"],
                 ["verify", "--beta", "1", "--theta", "1"]):
        code, out, _ = run_capture(capsys, argv)
        assert code == 0, argv
        header = out.splitlines()[0].split(",")
        code, out, _ = run_capture(capsys, [argv[0], "--help"])
        assert code == 0, argv
        assert " ".join(out.split()).endswith("output columns: " + ", ".join(header)), argv
        usage_line = out.split("\n\n")[0]
        options = re.findall(r"(?<![\w-])(--?[A-Za-z][\w-]*)", usage_line)
        assert options == ["-h", *usage[argv[0]]], argv


def test_empty_table_header_only():
    import io, sys
    buffer = io.StringIO()
    old = sys.stdout
    sys.stdout = buffer
    try:
        cli.emit_table(("a", "b"), [], "csv", "-", {})
    finally:
        sys.stdout = old
    assert buffer.getvalue() == "a,b\n"


def test_log_spacing_grid(capsys):
    code, out, _ = run_capture(capsys, [
        "cross-section", "--k", "1", "--beta", "1",
        "--theta-min", "0.1", "--theta-max", "3.1", "--count", "4",
        "--spacing", "log",
    ])
    assert code == 0
    thetas = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    ratios = [b / a for a, b in zip(thetas, thetas[1:])]
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)
