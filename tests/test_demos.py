"""Every script in demos/ and every README example runs to completion."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from coulomb_kit import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, MPLBACKEND="Agg",
               PYTHONPATH=src if not path else src + os.pathsep + path)
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def _readme_block(heading: str) -> str:
    """The body of the first fenced block after a README section heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1]
    return section.split("```")[1].split("\n", 1)[1]


def test_readme_examples_run():
    exec(_readme_block("Library quick start"), {})
    lines = _readme_block("Command line").splitlines()
    commands = [c for c in lines if c.startswith("coulomb-kit ")]
    assert commands
    for command in commands:
        assert cli.run(shlex.split(command)[1:]) == cli.EXIT_OK, command
