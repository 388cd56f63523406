"""Smoke test of the demo scripts: each runs to the end in a child process."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    # the efficiency rows, and the closing line naming the arch that leads them
    rows = re.findall(r"^  (\w+) +median goodput .*, +([\d.]+) Gbit/J$", proc.stdout, re.M)
    gbit_per_j = {arch: float(value) for arch, value in rows}
    assert list(gbit_per_j) == ["switched", "dbf", "fdma"]
    closing = r"archs, (\w+) delivers the most bits per joule: ([\d.]+) Gbit/J"
    leader = re.fullmatch(closing, lines[-1])
    assert leader, lines[-1]
    assert gbit_per_j[leader[1]] == max(gbit_per_j.values()) == float(leader[2])


@pytest.mark.parametrize(
    "name", sorted(p.name for p in DEMOS.glob("*.py") if p.name != "power_budget.py")
)
def test_demo_runs_to_a_closing_line(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and lines[-1].strip()
