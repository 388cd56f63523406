"""Release-gate battery: one test per end-to-end validation check.

Each test delegates to switchmux.acceptance and asserts the check's
verdict, so ``pytest -v`` prints one pass/fail line per requirement with
the measured numbers in the failure message.

Ten checks pass.  antenna_hardening gates what the model promises: the
median SINR and the share of rooms in which all four users clear 10 dB
both rise strictly over M = 4, 6, 8 (15/27/39% at the check's seed); the
90% share at M = 8 is reported as a target, not gated, because even an
exhaustive search over the grouped selector's candidate sets reaches
only about 83% there.  test_antenna_hardening_gates_medians_and_shares
runs that gate on stubbed trials to show it can fail.

large_array_ordering is left failing on purpose, with its thresholds:
the ordering holds, but the DBF - switched gap is 9.60 dB against a
5 +/- 2 dB envelope.  Its message splits the gap into on/off combining
and selector loss against single-user MRC (about 6.5 dB), the 0.5 dB
switch insertion loss, and about 2.6 dB of extra zero-forcing noise
enhancement of the square 8 x 8 inverse.  Closing it needs a selector
that takes the other users into account.
"""

import pytest

from switchmux import acceptance, runner
from switchmux.config import with_overrides


def _run(check):
    result = check()
    assert result.passed, f"{result.name}: {result.detail}"


def test_code_math():
    _run(acceptance.check_code_math)


def test_despread_equivalence():
    _run(acceptance.check_despread_equivalence)


def test_virtual_equals_physical():
    _run(acceptance.check_virtual_equals_physical)


def test_virtual_equals_physical_rows_match_the_full_capture(monkeypatch, tmp_path):
    """The check's switched rows come from the closed-form chains; at a few
    trials they are the rows of the full K*B capture and despread."""
    cfg = with_overrides(acceptance._config(acceptance.VIRTUAL_EQUALS_PHYSICAL), trials=3)
    closed = tmp_path / "closed.csv"
    runner.run_sweep(cfg, str(closed))
    calls = []

    def full_capture(rx, S, sigma2, rng, loss_amp=1.0):
        calls.append(1)
        capture, noise = runner.capture_switched(rx, S, sigma2, rng, loss_amp=loss_amp)
        return runner.time_despread(capture, S.shape[1]), noise

    monkeypatch.setattr(runner, "switched_chains", full_capture)
    full = tmp_path / "full.csv"
    runner.run_sweep(cfg, str(full))
    assert len(calls) == 4 * 3  # every switched trial, 4 SNR points x 3 trials
    assert full.read_bytes() == closed.read_bytes()


def test_interference_floor():
    _run(acceptance.check_interference_floor)


def test_grouped_vs_random():
    _run(acceptance.check_grouped_vs_random)


def test_antenna_hardening():
    _run(acceptance.check_antenna_hardening)


@pytest.mark.parametrize(
    "medians, shares, passed",
    [
        ((7.0, 8.0, 11.0), (40, 30, 20), False),
        ((7.0, 8.0, 11.0), (20, 30, 40), True),
        ((8.0, 8.0, 11.0), (20, 30, 40), False),
    ],
)
def test_antenna_hardening_gates_medians_and_shares(monkeypatch, medians, shares, passed):
    """The hardening gate on stubbed trials: both the median and the share
    of rooms with every user above 10 dB must rise with M."""
    by_m = dict(zip((4, 6, 8), zip(medians, shares)))

    def fake_trial(cfg, trial_id, block=None):
        median, share = by_m[cfg.antennas]
        if trial_id < share:
            return {"sinr_db": [median + 5.0] * cfg.users, "mean_sinr_db": median}
        if trial_id % 2:  # one user below the bar
            return {"sinr_db": [median] * (cfg.users - 1) + [5.0], "mean_sinr_db": median}
        nan = float("nan")  # a grouping failure
        return {"sinr_db": [nan] * cfg.users, "mean_sinr_db": nan}

    monkeypatch.setattr(runner, "run_trial", fake_trial)
    result = acceptance.check_antenna_hardening()
    assert result.passed is passed, result.detail
    assert "{}/{}/{}%".format(*shares) in result.detail


def test_large_array_ordering():
    _run(acceptance.check_large_array_ordering)


def test_power_arithmetic():
    _run(acceptance.check_power_arithmetic)


def test_rate_and_capacity():
    _run(acceptance.check_rate_and_capacity)


def test_sync_insensitivity():
    _run(acceptance.check_sync_insensitivity)


def test_sweep_determinism():
    _run(acceptance.check_sweep_determinism)
