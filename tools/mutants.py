#!/usr/bin/env python3
"""Mutation check: every listed mutant must fail the tests named for it.

Each entry of MUTANTS is a deliberate defect: a file, a text that must
occur in it exactly once, the text that replaces it, and the ids of the
tests expected to catch it.  For each entry the script copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory, applies the
change there, runs only the named tests and prints ``killed`` (some
failed) or ``survived`` (all passed), with the count that failed.  A
mutant failed by one test alone marks a thin spot in the suite.

Before the mutants it runs every named test on an unchanged copy: a test
that fails there would make its mutants look killed.

    python3 tools/mutants.py

Standard library only; the tests themselves need pytest.  Exit status:
0 when every mutant is killed, 1 when any survives, 2 when an entry no
longer applies (its old text is not found exactly once, or a named test
fails on the unchanged copy or cannot be run).
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SUMMATION = "src/coulomb_kit/summation.py"
CORE = "src/coulomb_kit/coulomb_core.py"
SPECIAL = "src/coulomb_kit/special_functions.py"

_FLOOR = "floor = (2 * m + 2) * _YRW_FLOOR * np.abs(terms).sum() / scale"
_PHASE_MEMO_BODY = """\
        return _phase_memo[beta]
    except KeyError:
        if len(_phase_memo) >= 1024:
            _phase_memo.clear()
        phase = _phase_memo[beta] = """

# the vector step: row l starts as (2l-1) x, then times P_{l-1}, minus (l-1) P_{l-2}, over l
_STEP_PRODUCT = "nxt *= p_cur"
_STEP_SUBTRAHEND = "np.multiply(b, p_prev, out=u)"
_STEP_PREFILL = "np.arange(1.0, 2 * L, 2.0)"
_HANDOFF = 'np.frombuffer(struct.pack(f"{len(values)}d", *values))'
_HEAD_TABLE = "_legendre_table(block, _YRW_FIRST_L)"
_AMPLITUDE_SETTERS = "_set_theta, _set_f, _set_method, _set_error_estimate = ("
# the S_0 and phase lines recur in the closed forms: each old text carries its neighbour
_ODE_S0 = ("    S0 = cmath.exp(2j * _s0_phase(beta))\n"
           "    derivative = (g_plus - g_minus) / (2.0 * h)\n")
_AUX_PHASE = ("    phase = cmath.exp(1j * beta * math.log((1.0 - x) / 2.0))\n"
              "    return S0 * (1.0 - 2.0 * phase)\n")
_KERNEL_CALL = "_damped_sums(xs, np.ones(L + 1, dtype=complex), [epsilon])"
_LADDER_PRODUCT = "    np.multiply.accumulate(ladder[1:], out=ladder[1:])\n"
_DAMPING = "np.sum(terms[:, None] * weights, axis=-1)"
_CLI_IMPORT = "import coulomb_kit as kit  # the package object: a relative import cannot name it\n"
_STIRLING_TERMS = "1 if abs(z) > 1e150 else len(_STIRLING)"
_DEGREE_ENTRY = "(float(l), 2.0 * l + 1, l + 1.0)"
_RANGE_CHECK = "if (abs(z.real) > big or abs(z.imag) > big or abs(z) > big"

# (name, file, exact old text, new text, test ids expected to fail)
_S = "tests/test_summation.py::test_default_series_"
_V = "tests/test_public_api.py::test_value_class_"
# the tests that run the vector sweep (24 abscissae or more) against the scalar loop
_VECTOR_SWEEP = [
    "tests/test_special_functions.py::test_legendre_table_rows_equal_scalar_recurrence_bitwise",
    "tests/test_summation.py::test_kernel_equals_per_abscissa_damped_sum_at_block_edges",
    "tests/test_summation.py::test_abel_grid_equals_per_abscissa_damped_sums_at_block_edges",
]
_EXTREME_FLOATS = ("tests/test_coulomb_core.py::"
                   "test_closed_forms_at_extreme_floats_give_a_finite_value_or_a_typed_error")
_GAUSS_KERNEL = "tests/test_summation.py::test_vector_swept_kernel_equals_its_closed_form_on_gauss_nodes"
_C06 = "tests/test_acceptance.py::test_c06_ode_residual"
_C08 = "tests/test_acceptance.py::test_c08_completeness_kernel"
_CLOSED_BITS = "tests/test_coulomb_core.py::test_closed_forms_keep_the_bits_of_one_log_gamma_per_call"
_SF = "tests/test_special_functions.py::"
_SF_EXTREME = _SF + "test_special_functions_at_extreme_floats_give_a_finite_value_or_a_typed_error"
# the tests that sweep past 2^14, where the scalar loop hands its degree table over to counters
_DEGREE_BOUND = [_SF + "test_legendre_values_match_integer_counter_recurrence_bitwise",
                 _SF + "test_concurrent_scalar_sweeps_growing_a_cleared_table_match_serial"]
# the tests that run a default-engine grid of 24 angles or more through its first-rung table
_HEAD_ROWS = ["tests/test_summation.py::test_series_grid_equals_single_angle_calls_bitwise",
              "tests/test_summation.py::test_series_grid_resumes_each_angle_sweep",
              "tests/test_summation.py::test_series_amplitudes_equal_per_angle_values_bitwise"]
MUTANTS = [
    ("reduced-series floor counts half its roundings", SUMMATION,
     _FLOOR, "floor = (m + 1) * _YRW_FLOOR * np.abs(terms).sum() / scale",
     [_S + "at_tiny_beta_is_within_its_estimate",
      _S + "estimate_bounds_the_error",
      _S + "reach_near_forward",
      _S + "bounds_the_error_on_both_sides_of_the_order_switch",
      _S + "small_angles_raise_or_bound_the_error"]),
    ("reduced-series floor dropped", SUMMATION, _FLOOR, "floor = 0.0",
     ["tests/test_summation.py::test_grid_across_the_switch_builds_each_order_once",
      _S + "at_tiny_beta_is_within_its_estimate",
      _S + "gives_up_once_the_floor_passes_the_ceiling",
      _S + "estimate_bounds_the_error",
      _S + "near_forward_raises",
      _S + "reach_near_forward",
      _S + "bounds_the_error_on_both_sides_of_the_order_switch",
      _S + "small_angles_raise_or_bound_the_error",
      "tests/test_cli.py::test_series_near_forward_is_domain_error"]),
    ("reduced-series tolerance 1e-8", SUMMATION,
     "_YRW_TOL = 1e-10", "_YRW_TOL = 1e-8",
     ["tests/test_summation.py::test_grid_across_the_switch_builds_each_order_once",
      _S + "beyond_the_cap_raises",
      _S + "bounds_the_error_on_both_sides_of_the_order_switch",
      "tests/test_cli.py::test_series_beyond_the_cap_is_domain_error"]),
    ("tail estimate over the last L/4 terms, not L/2", SUMMATION,
     "terms[: L // 2 : -1]", "terms[: 3 * L // 4 : -1]",
     [_S + "reach_near_forward", _S + "estimate_is_the_tail_over_the_last_half_of_its_rung"]),
    ("reduced-series ceiling 1e-4", SUMMATION,
     "_YRW_CEILING = 1e-6", "_YRW_CEILING = 1e-4",
     [_S + "gives_up_once_the_floor_passes_the_ceiling",
      _S + "near_forward_raises",
      _S + "reach_near_forward",
      _S + "small_angles_raise_or_bound_the_error",
      "tests/test_cli.py::test_series_near_forward_is_domain_error"]),
    ("S_0 phase kept for -beta returned at beta", CORE,
     _PHASE_MEMO_BODY, _PHASE_MEMO_BODY.replace("[beta]", "[abs(beta)]"),
     ["tests/test_coulomb_core.py::test_max_abs_beta_keeps_closed_form_and_s_matrix_within_1e8",
      "tests/test_coulomb_core.py::test_amplitude_conjugation_symmetry",
      "tests/test_coulomb_core.py::test_closed_forms_keep_the_bits_of_one_log_gamma_per_call",
      _S + "meets_tolerance_at_backward_angle",
      "tests/test_acceptance.py::test_c03_series_vs_closed_oracle",
      "tests/test_acceptance.py::test_c06_ode_residual",
      "tests/test_acceptance.py::test_c07_auxiliary_boundary_condition"]),
    ("S_0 phase memo never emptied", CORE,
     "            _phase_memo.clear()\n", "            pass\n",
     ["tests/test_coulomb_core.py::test_phase_memo_holds_at_most_1024_betas_and_keeps_cold_bits",
      "tests/test_coulomb_core.py::test_closed_forms_over_fresh_betas_hold_bounded_memory"]),
    ("vector Legendre step reassociated as (b + c) * (xs * p_cur)", SPECIAL,
     _STEP_PRODUCT, "nxt[:] = (b + c) * (xs * p_cur)", _VECTOR_SWEEP),
    ("vector Legendre step writes b * p_prev into its own row, not u", SPECIAL,
     _STEP_SUBTRAHEND, "np.multiply(b, p_prev, out=nxt)", _VECTOR_SWEEP + [_GAUSS_KERNEL]),
    ("vector Legendre rows prefilled one degree off, (2l+1) x", SPECIAL,
     _STEP_PREFILL, "np.arange(3.0, 2 * L + 2, 2.0)", _VECTOR_SWEEP + _HEAD_ROWS),
    ("scalar Legendre values handed over as float32", SPECIAL,
     _HANDOFF, _HANDOFF.replace('d", *values))', 'f", *values), np.float32)'),
     _DEGREE_BOUND + [_SF + "test_packed_handoff_matches_integer_counter_recurrence_bitwise",
                      _SF + "test_legendre_table_rows_equal_scalar_recurrence_bitwise"]),
    ("a grid's first-rung table offset by one degree", SUMMATION,
     _HEAD_TABLE, "_legendre_table(block, _YRW_FIRST_L + 1)[:, 1:]", _HEAD_ROWS),
    ("a grid's last head table kept while the next is built", SUMMATION,
     "block, heads = xs[i : i + step], None", "block = xs[i : i + step]",
     ["tests/test_summation.py::test_series_grid_holds_one_head_block_at_a_time"]),
    ("scalar Legendre table entries one degree off", SPECIAL,
     _DEGREE_ENTRY, "(l + 1.0, 2.0 * l + 3, l + 2.0)",
     _DEGREE_BOUND + [_SF + "test_legendre_low_orders_exact",
                      _SF + "test_legendre_table_rows_equal_scalar_recurrence_bitwise"]),
    ("scalar Legendre counters take over one degree late", SPECIAL,
     "b = float(max(m, n))", "b = float(max(m, n) + 1)", _DEGREE_BOUND),
    ("scalar Legendre table grown past 2^14", SPECIAL,
     "_DEGREES, min(L, 1 << 14)", "_DEGREES, L", _DEGREE_BOUND),
    ("ode_residual's difference one-sided", CORE,
     "derivative = (g_plus - g_minus) / (2.0 * h)", "derivative = (g_plus - g_mid) / h",
     [_C06, "tests/test_coulomb_core.py::test_ode_residual_small_at_center",
      "tests/test_coulomb_core.py::test_ode_residual_second_order_in_h", _CLOSED_BITS]),
    ("ode_residual's S_0 conjugated", CORE,
     _ODE_S0, _ODE_S0.replace("_s0_phase(beta))", "_s0_phase(beta)).conjugate()"),
     [_C06, "tests/test_coulomb_core.py::test_ode_residual_small_at_center",
      "tests/test_coulomb_core.py::test_ode_residual_second_order_in_h", _CLOSED_BITS]),
    ("closed_auxiliary_sum's phase at -beta", CORE,
     _AUX_PHASE, _AUX_PHASE.replace("1j * beta", "-1j * beta"),
     [_C06, "tests/test_coulomb_core.py::test_auxiliary_sum_at_zero", _CLOSED_BITS,
      "tests/test_summation.py::test_auxiliary_sum_matches_closed_form"]),
    ("_damped_sums drops (2l+1)", SUMMATION,
     "coefficients = (2 * np.arange(L + 1) + 1) * S", "coefficients = S",
     [_C08, _GAUSS_KERNEL, "tests/test_summation.py::test_kernel_value_at_minus_one_small_and_bounded",
      "tests/test_summation.py::test_kernel_equals_per_abscissa_damped_sum_at_block_edges",
      "tests/test_summation.py::test_abel_grid_equals_per_abscissa_damped_sums_at_block_edges",
      "tests/test_summation.py::test_damped_and_auxiliary_sums_bitwise",
      "tests/test_acceptance.py::test_c03_series_vs_closed_oracle"]),
    ("completeness_kernel's weights at eps = 0.1 whatever eps is", SUMMATION,
     _KERNEL_CALL, _KERNEL_CALL.replace("[epsilon]", "[0.1]"),
     [_C08, _GAUSS_KERNEL, "tests/test_summation.py::test_kernel_peak_grows_as_eps_shrinks",
      "tests/test_summation.py::test_kernel_matches_free_smoothed_sum_bitwise",
      "tests/test_summation.py::test_kernel_equals_per_abscissa_damped_sum_at_block_edges"]),
    ("one S-ladder factor off by 1e-9 relative", SUMMATION,
     _LADDER_PRODUCT, "    ladder[10] *= 1.0 + 1e-9\n" + _LADDER_PRODUCT,
     ["tests/test_acceptance.py::test_c04_ladder_recurrences_and_drift",
      "tests/test_summation.py::test_ladder_matches_direct_definition",
      "tests/test_summation.py::test_ladder_checkpoint_drift_tiny",
      "tests/test_summation.py::test_ladder_recurrence_residuals"]),
    ("the ladder check on l+1+i beta", SUMMATION,
     "complex(1.0, -p.beta)", "complex(1.0, p.beta)",
     ["tests/test_acceptance.py::test_c04_ladder_recurrences_and_drift",
      "tests/test_summation.py::test_ladder_matches_direct_definition",
      "tests/test_summation.py::test_ladder_checkpoint_drift_tiny",
      "tests/test_summation.py::test_ladder_recurrence_residuals"]),
    ("s_matrix_sequence takes S_0 from log_gamma, not s_matrix", SUMMATION,
     "    S0 = s_matrix(0, p).S\n", "    from .special_functions import log_gamma\n"
          "    S0 = np.exp(2j * log_gamma(complex(1.0, -p.beta)).imag)\n",
     ["tests/test_module_boundaries.py::test_every_traced_name_is_reached_with_every_memo_warm",
      "tests/test_coulomb_core.py::test_closed_forms_call_log_gamma_once_per_beta"]),
    ("every rung rebuilds its order", SUMMATION,
     "if len(a) <= L:", "if True:",
     ["tests/test_summation.py::test_series_calls_at_one_beta_build_once",
      "tests/test_summation.py::test_grid_across_the_switch_builds_each_order_once",
      "tests/test_summation.py::test_reduced_coefficient_memo_is_invisible"]),
    ("stop at the first strike", SUMMATION,
     "strikes == 2", "strikes == 1",
     [_S + "survives_one_rung_whose_floor_passes_the_ceiling",
      _S + "gives_up_once_the_floor_passes_the_ceiling",
      _S + "reach_near_forward"]),
    ("AmplitudeResult's theta and f setters cross-wired", CORE,
     _AMPLITUDE_SETTERS, _AMPLITUDE_SETTERS.replace("_set_theta, _set_f", "_set_f, _set_theta"),
     [_V + "construction_and_repr[AmplitudeResult]",
      _V + "pickle_and_deepcopy_round_trip[AmplitudeResult]"]),
    ("AmplitudeResult's method and error_estimate setters cross-wired", CORE,
     _AMPLITUDE_SETTERS,
     _AMPLITUDE_SETTERS.replace("_set_method, _set_error_estimate",
                                "_set_error_estimate, _set_method"),
     [_V + "construction_and_repr[AmplitudeResult]",
      _V + "pickle_and_deepcopy_round_trip[AmplitudeResult]"]),
    ("PhysicalParams never sets beta", CORE,
     "        _set_beta(self, beta)\n", "",
     [_V + "construction_and_repr[PhysicalParams]",
      _V + "equality_and_hash_by_value[PhysicalParams]",
      _V + "pickle_and_deepcopy_round_trip[PhysicalParams]",
      _EXTREME_FLOATS]),
    ("ConvergenceReport's tail and noise setters cross-wired", SUMMATION,
     "_set_tail, _set_noise = (", "_set_noise, _set_tail = (",
     [_V + "construction_and_repr[ConvergenceReport]",
      _V + "pickle_and_deepcopy_round_trip[ConvergenceReport]"]),
    ("_damped_sums damps with the eps rows reversed", SUMMATION,
     _DAMPING, _DAMPING.replace("weights,", "weights[::-1],"),
     ["tests/test_summation.py::test_abel_grid_equals_per_abscissa_damped_sums_at_block_edges",
      "tests/test_summation.py::test_kernel_matches_free_smoothed_sum_bitwise",
      "tests/test_summation.py::test_damped_and_auxiliary_sums_bitwise",
      "tests/test_acceptance.py::test_c03_series_vs_closed_oracle"]),
    ("cli imports the series module at import time", "src/coulomb_kit/cli.py",
     _CLI_IMPORT, _CLI_IMPORT + "from . import summation  # noqa: F401\n",
     ["tests/test_module_boundaries.py::test_closed_form_side_imports_no_numpy",
      "tests/test_cli.py::test_package_and_cli_imports_load_no_numpy"]),
    ("log_gamma sums the full Stirling series at every |z|", SPECIAL,
     _STIRLING_TERMS, "len(_STIRLING)",
     [_SF + f"test_log_gamma_where_z_squared_overflows[{signs}-{z}]"
      for signs in ("signs0", "signs1", "signs2", "signs3")
      for z in ("1e+200-1e+200", "1e+155-1e+155", "1.3e+154-1e+200", "-1e+200-1e+200")]
     + [_SF_EXTREME]),
    ("log_gamma checks the modulus only, not the parts first", SPECIAL,
     _RANGE_CHECK, "if (abs(z) > big",
     [_SF + "test_log_gamma_beyond_the_float_range_raises_its_own_message[(1.7e+308+1.7e+308j)]",
      _SF + "test_log_gamma_beyond_the_float_range_raises_its_own_message[(-1.7e+308+1.7e+308j)]",
      _SF_EXTREME]),
]


def _copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(tree: Path, tests) -> tuple:
    """pytest's exit code and the ids of the tests that failed, run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rf", "-p", "no:cacheprovider",
         *tests],
        cwd=tree, capture_output=True, text=True,
    )
    return proc.returncode, re.findall(r"^FAILED (\S+)", proc.stdout, re.M)


def main() -> int:
    named = sorted({t for *_, tests in MUTANTS for t in tests})
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        code, failed = _run_tests(tree, named)
    if code != 0:
        print(f"error: the named tests do not pass unchanged (pytest exit {code}): "
              f"{' '.join(failed)}")
        return 2
    status = 0
    for name, path, old, new, tests in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            _copy_tree(tree)
            target = tree / path
            text = target.read_text()
            if text.count(old) != 1:
                print(f"error     {name}: the old text occurs {text.count(old)} times in {path}")
                return 2
            target.write_text(text.replace(old, new))
            code, failed = _run_tests(tree, tests)
        if code == 0:
            print(f"survived  {name}: all {len(tests)} named tests passed")
            status = 1
        elif code == 1:
            print(f"killed    {name}: {len(failed)} of {len(tests)} named tests failed")
        else:
            print(f"error     {name}: pytest exit {code}")
            return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
