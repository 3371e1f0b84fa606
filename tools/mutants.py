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

_FLOOR = "floor = (2 * m + 2) * _YRW_FLOOR * np.abs(terms).sum() / scale"
_PHASE_MEMO_BODY = """\
        return _phase_memo[beta]
    except KeyError:
        if len(_phase_memo) >= 1024:
            _phase_memo.clear()
        phase = _phase_memo[beta] = """

# (name, file, exact old text, new text, test ids expected to fail)
_S = "tests/test_summation.py::test_default_series_"
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
     [_S + "reach_near_forward"]),
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
     ["tests/test_coulomb_core.py::test_phase_memo_holds_at_most_1024_betas_and_keeps_cold_bits"]),
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
