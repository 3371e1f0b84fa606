"""Shared pytest hooks: print one PASS/FAIL line per acceptance criterion."""

import contextlib
import warnings

# hypothesis imports this module (and libcst) only once a property fails, inside a
# pytest hook; there libcst's DeprecationWarning, made an error by filterwarnings,
# would abort the whole session.  Imported once here, the warning is not raised again.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

_outcomes = {}
_labels = {}


def pytest_collection_modifyitems(items):
    for item in items:
        if "test_acceptance.py" in item.nodeid:
            doc = (item.function.__doc__ or "").strip().splitlines()
            _labels[item.nodeid] = doc[0] if doc else item.name


def pytest_runtest_logreport(report):
    # a test that errors in setup has no "call" report, and a failing
    # teardown fails a passed call: record both, so no criterion drops out
    if "test_acceptance.py" in report.nodeid and (report.when == "call" or report.failed):
        _outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for nodeid in sorted(_outcomes):
        label = "PASS" if _outcomes[nodeid] == "passed" else "FAIL"
        terminalreporter.write_line(f"{label}  {_labels.get(nodeid, nodeid)}")
