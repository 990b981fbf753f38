"""The CI workflow runs what the repository documents and installs what it declares.

The workflow is matched as text: PyYAML is not a declared dependency.
"""

import ast
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()


def run_commands():
    return [m.strip() for m in re.findall(r"^\s*(?:-\s+)?run:\s*(.+)$", WORKFLOW, re.M)]


def test_runs_the_tier1_command_and_the_selftest():
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert tier1 is not None, "ROADMAP.md names no tier-1 command"
    commands = run_commands()
    assert tier1.group(1) in commands
    assert "python3 perfbench/selftest.py" in commands


def step_lines(name):
    """The stripped lines of the workflow step called ``name``, up to the next step."""
    m = re.search(rf"^(\s*)- name: {re.escape(name)}\n(.*?)(?=^\1- |\Z)", WORKFLOW, re.M | re.S)
    assert m is not None, f"the workflow has no step {name!r}"
    return [line.strip() for line in m.group(2).splitlines()]


def test_runs_every_workload_untraced_and_checks_its_last_line():
    lines = step_lines("Untraced benchmark runs")
    assert "shell: bash" in lines  # bash -eo pipefail, so a failing run fails the step
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    for w in workloads:
        run = f"python3 perfbench/run.py --workload {w['name']} --seed 0 --seconds 2 --trace 0"
        assert f'{run} | python3 -c "$check"' in lines
    check = shlex.split(next(line for line in lines if line.startswith("check=")))[0]
    for last, passes in [
        ({"correct": True, "failed": 0}, True),
        ({"correct": False, "failed": 0}, False),
        ({"correct": True, "failed": 1}, False),
    ]:
        out = "sets 10, pool 10\n" + json.dumps({**last, "attempted": 30, "metrics": {}})
        code = subprocess.run(
            [sys.executable, "-c", check[len("check="):]], input=out, text=True, timeout=60
        ).returncode
        assert (code == 0) == passes, last


def test_runs_on_python_3_10_and_3_11():
    versions = re.search(r"^\s*python-version:\s*(\[[^\]]*\])", WORKFLOW, re.M)
    assert versions is not None, "the workflow has no python-version matrix"
    assert ast.literal_eval(versions.group(1)) == ["3.10", "3.11"]
    assert "python-version: ${{ matrix.python-version }}" in WORKFLOW


def test_installs_every_declared_requirement():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = project["dependencies"] + project["optional-dependencies"]["test"]
    installs = [c for c in run_commands() if "pip install" in c]
    assert len(installs) == 1
    installed = set(shlex.split(installs[0]))
    assert [r for r in declared if r not in installed] == []
