"""Time switchmux's set-up in a fresh interpreter; print it and a host-speed
probe taken right after it, both in seconds.

    python3 bench/setup_probe.py <config file>

Set-up is importing switchmux, loading the config, expanding its sweep grid
and finishing one warm-up trial, so work moved into import or a first call
shows here.  The probe is the median of three ``hostspeed.probe`` calls.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from switchmux import config, runner  # noqa: E402

combos = runner.sweep_combos(config.load_config(sys.argv[1]))
runner.run_trial(combos[0], 0)
setup = time.perf_counter() - START

import statistics  # noqa: E402

import hostspeed  # noqa: E402

print(setup, statistics.median(hostspeed.probe() for _ in range(3)))
