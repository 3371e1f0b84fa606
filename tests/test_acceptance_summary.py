"""The acceptance summary lists every criterion with its real outcome."""

import os
import subprocess
import sys
from pathlib import Path

ACCEPTANCE_STUB = '''
import pytest


@pytest.fixture
def broken_setup():
    raise RuntimeError("fixture failure")


@pytest.fixture
def broken_teardown():
    yield
    raise RuntimeError("teardown failure")


def test_setup_error(broken_setup):
    """criterion A: fixture raises in setup"""


def test_teardown_error(broken_teardown):
    """criterion B: fixture raises in teardown"""


def test_passes():
    """criterion C: passes"""


def test_fails():
    """criterion D: fails"""
    assert False
'''


def test_summary_reports_setup_and_teardown_errors_as_fail(tmp_path):
    conftest = Path(__file__).with_name("conftest.py")
    (tmp_path / "conftest.py").write_text(conftest.read_text())
    (tmp_path / "test_acceptance.py").write_text(ACCEPTANCE_STUB)
    env = dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "."],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    summary = result.stdout.split("acceptance criteria", 1)[-1].splitlines()
    assert "FAIL  criterion A: fixture raises in setup" in summary, result.stdout
    assert "FAIL  criterion B: fixture raises in teardown" in summary, result.stdout
    assert "PASS  criterion C: passes" in summary, result.stdout
    assert "FAIL  criterion D: fails" in summary, result.stdout


PROPERTY_STUB = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n < 10


def test_after_the_property():
    pass
'''


def test_failing_property_is_reported_and_later_tests_run(tmp_path):
    # under the repo's pytest settings, warnings as errors included
    tests = Path(__file__).parent
    for name, text in (("pyproject.toml", (tests.parent / "pyproject.toml").read_text()),
                       ("conftest.py", (tests / "conftest.py").read_text()),
                       ("test_property.py", PROPERTY_STUB)):
        (tmp_path / name).write_text(text)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr, result.stdout
    assert "1 failed, 1 passed" in result.stdout, result.stdout
