"""Byte-identical sweeps of the benchmark workloads.

Each workload config (taken from ``bench/run.py`` so it is defined once) is
swept at seed 1 and its CSV must equal ``bench/reference/<workload>.csv``
byte for byte, at 1 and at 2 workers.  The workloads all keep the modem
keys at their defaults, so one more config sets both
``ofdm.lts_repeats`` and ``ofdm.bandwidth_hz`` off them and must equal
``tests/reference/modem_keys.csv``.  The bench ray-traces only at one
reflection, gamma 0.6 and 10 MHz, so one more config traces two
reflections at gamma 0.3 and 20 MHz and must equal
``tests/reference/raytrace_keys.csv``.  Any change that moves a single
digit of a row is a behaviour change and fails here, and the failure
message is ``csvdiff.report``: the cells that moved, per column and combo.
"""

import sys
from pathlib import Path

import pytest

from switchmux import config, runner

TESTS_DIR = Path(__file__).resolve().parent
BENCH_DIR = TESTS_DIR.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

import run as bench_run  # noqa: E402
from csvdiff import report  # noqa: E402

CASES = [
    ("decode_heavy", 1),
    ("decode_heavy", 2),
    ("large_room", 1),
    ("large_room", 2),
    ("grid_parallel", 1),
    ("grid_parallel", 2),
]


@pytest.mark.parametrize("workload, workers", CASES)
def test_sweep_matches_reference_bytes(tmp_path, workload, workers):
    cfg_path = tmp_path / f"{workload}.cfg"
    cfg_path.write_text(bench_run.config_text(workload, 1), encoding="utf-8")
    out = tmp_path / f"{workload}.csv"
    runner.run_sweep(config.load_config(str(cfg_path)), str(out), workers=workers)
    reference = BENCH_DIR / "reference" / f"{workload}.csv"
    assert out.read_bytes() == reference.read_bytes(), report(reference, out)


def sweep_matches_reference(tmp_path, name, text):
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / f"{name}.csv"
    runner.run_sweep(config.load_config(str(cfg_path)), str(out))
    reference = TESTS_DIR / "reference" / f"{name}.csv"
    assert out.read_bytes() == reference.read_bytes(), report(reference, out)


# its rows differ from the same config at ofdm.lts_repeats = 2 and at the
# default 10 MHz, so the reference pins how both keys reach the trial
MODEM_KEYS = (
    "users = 2\nantennas = 4\npayload_symbols = 2\nofdm.lts_repeats = 3\n"
    "ofdm.bandwidth_hz = 20e6\ntrials = 2\nseed = 3\nsweep.arch = switched, fdma\n"
)


def test_modem_keys_match_reference_bytes(tmp_path):
    sweep_matches_reference(tmp_path, "modem_keys", MODEM_KEYS)


# the images past one bounce, a gamma whose square is not the bench's and
# a 20 MHz subcarrier spacing, through all four ray-traced front ends
RAYTRACE_KEYS = (
    "users = 3\nantennas = 12\nscenario = raytrace\nscene.max_reflections = 2\n"
    "scene.gamma = 0.3\nofdm.bandwidth_hz = 20e6\npayload_symbols = 2\n"
    "sweep.arch = switched, dbf, hbf_full, hbf_partial\ntrials = 2\nseed = 5\n"
)


def test_raytrace_keys_match_reference_bytes(tmp_path):
    sweep_matches_reference(tmp_path, "raytrace_keys", RAYTRACE_KEYS)
