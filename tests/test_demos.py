"""Smoke test of the demo scripts: each runs to the end in a child process."""

import os
import subprocess
import sys
from pathlib import Path

import switchmux

DEMOS = Path(__file__).parents[1] / "demos"


def run_demo(name):
    # the child finds the package where this process imported it from
    src = str(Path(switchmux.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_power_budget_prints_every_arch_row():
    proc = run_demo("power_budget.py")
    assert proc.returncode == 0, proc.stderr
    # the component table: unindented, a header and one seven-column row per arch
    lines = proc.stdout.splitlines()
    table = [line.split() for line in lines if line[:1].isalpha() and len(line.split()) == 7]
    assert [row[0] for row in table] == ["arch", "switched", "dbf", "hbf_full", "fdma"]
