"""Byte-identical sweeps of the benchmark workloads.

Each workload config (taken from ``bench/run.py`` so it is defined once) is
swept at seed 1 and its CSV must equal ``bench/reference/<workload>.csv``
byte for byte, at 1 and at 2 workers.  The workloads all keep the modem
keys at their defaults, so one more config sets both
``ofdm.lts_repeats`` and ``ofdm.bandwidth_hz`` off them and must equal
``tests/reference/modem_keys.csv``.  Any change that moves a single digit
of a row is a behaviour change and fails here.
"""

import sys
from pathlib import Path

import pytest

from switchmux import config, runner

TESTS_DIR = Path(__file__).resolve().parent
BENCH_DIR = TESTS_DIR.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

import run as bench_run  # noqa: E402

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
    assert out.read_bytes() == reference.read_bytes()


# its rows differ from the same config at ofdm.lts_repeats = 2 and at the
# default 10 MHz, so the reference pins how both keys reach the trial
MODEM_KEYS = (
    "users = 2\nantennas = 4\npayload_symbols = 2\nofdm.lts_repeats = 3\n"
    "ofdm.bandwidth_hz = 20e6\ntrials = 2\nseed = 3\nsweep.arch = switched, fdma\n"
)


def test_modem_keys_match_reference_bytes(tmp_path):
    cfg_path = tmp_path / "modem_keys.cfg"
    cfg_path.write_text(MODEM_KEYS, encoding="utf-8")
    out = tmp_path / "modem_keys.csv"
    runner.run_sweep(config.load_config(str(cfg_path)), str(out))
    assert out.read_bytes() == (TESTS_DIR / "reference" / "modem_keys.csv").read_bytes()
