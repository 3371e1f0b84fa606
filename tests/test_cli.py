"""Tests for the command-line interface: flags, formats, exit codes."""

import json
import math

import pytest

from coulomb_kit import cli
from coulomb_kit.coulomb_core import PhysicalParams, closed_amplitude
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
    code, _, err = run_capture(capsys, ok_args + ["--tol", "nan", "--eps-ratio", "1"])
    assert code == 2 and "eps_ratio" in err
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
        "degrees": False, "eps_count": 6, "eps_first": 0.1, "eps_ratio": 2.0,
        "extrapolation_order": 4, "format": "json", "hbar": None, "k": 1.0,
        "kappa": None, "lmax": 500, "method": "series", "mu": None,
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
        "--theta-min", "0", "--theta-max", "1.0", "--eps-ratio", "1",
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
        "--theta-min", "0.5", "--theta-max", "1.0", "--eps-ratio", "1",
    ])
    assert code == 2
    # a bad eps schedule is a usage error, not a traceback
    for flag, value in (("--eps-first", "nan"), ("--eps-first", "0"), ("--eps-ratio", "inf")):
        code, out, err = run_capture(capsys, [
            "amplitude", "--method", "series", "--beta", "1", "--theta-min", "1",
            "--theta-max", "2", "--count", "2", flag, value,
        ])
        assert code == 2, (flag, value)
        assert out == ""
        assert flag[2:].replace("-", "_") in err


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
    # k = 1e-320 overflows f = g / (2ik): an error, not inf rows or a failed verify
    grid = ["--theta-min", "0.5", "--theta-max", "1.0", "--count", "3"]
    for argv in (["amplitude", "--k", "1e-320", "--beta", "1", *grid],
                 ["cross-section", "--k", "1e-320", "--beta", "1", *grid],
                 ["verify", "--k", "1e-320", "--beta", "1", "--theta", "1"]):
        code, out, err = run_capture(capsys, argv)
        assert code == 3, argv
        assert out == ""
        assert "not finite" in err


def test_huge_beta_is_domain_error(capsys):
    for argv in (["amplitude", "--beta", "1e200", "--theta-min", "1", "--theta-max", "2"],
                 ["phase-shifts", "--beta", "1e200", "--lmax", "3"]):
        code, out, err = run_capture(capsys, argv)
        assert code == 3, argv
        assert out == ""
        assert "beta" in err


def test_output_file_written(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_capture(capsys, AMPLITUDE_ARGS + ["--output", str(target)])
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert len(lines) == 65


def test_unwritable_output_is_io_error(tmp_path, capsys):
    code, _, err = run_capture(capsys, AMPLITUDE_ARGS + ["--output", str(tmp_path)])
    assert code == 5
    assert "i/o" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_capture(capsys, ["--help"])
    assert code == 0
    assert "amplitude" in out


def test_subcommand_help_documents_columns(capsys):
    code, out, _ = run_capture(capsys, ["amplitude", "--help"])
    assert code == 0
    assert "theta, re_f, im_f, abs_f_sq, method" in out
    code, out, _ = run_capture(capsys, ["verify", "--help"])
    assert code == 0
    assert "abs_error" in out and "rel_error" in out


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
