"""Oracle test of the stacked FDMA link.

An FDMA trial runs its users as one link whose leading axis stacks the
users' one-user links.  The oracle here runs each user the way a lone
one-user link would: its own frame with its training at slot 0, the
user's antenna-0 channel, its own kept noise stream derived from the
trial's, and its own estimate, zero-forcing combiner, SINR and EVM.  The
rows of run_trial and of a multi-combo run_grid, at 1 and 2 workers, must
equal the oracle's bit for bit.  Each shared stage is also held, on a
stack of multi-user links, to its per-link calls byte for byte.
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings

from config_strategies import fdma_texts
from switchmux import channel, metrics, runner
from switchmux.config import build_config, parse_config_text
from switchmux.dsp import KeptNormals, Rng
from switchmux.equalize import apply_combiner, estimate_channel, true_effective_channel, zf_weights
from switchmux.frontend import capture_physical, noise_power, received_power
from switchmux.waveform import (
    CP_LEN,
    SYMBOL_LEN,
    build_frame,
    payload_bits_for_symbols,
    recover_bits,
    symbol_spectra,
)


def _derandomized(examples: int):
    return settings(
        max_examples=examples,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


def oracle_row(cfg, trial_id: int) -> dict:
    """sinr_db, ber, goodput_bps and evm_pct of an fdma trial, each user
    run as its own one-user link."""
    trial_rng = Rng(cfg.seed, trial_id)
    bits = runner._payload_bits(cfg, trial_rng)
    gains = runner._draw_channel(cfg, trial_rng)
    noise = trial_rng.derive(runner._P_NOISE)
    grids, sinrs, evms = [], [], []
    for u in range(cfg.users):
        tx, tx_grids = build_frame(bits[u : u + 1], cfg.lts_repeats)
        link_gains = gains[u : u + 1, :1]
        rx = channel.apply(link_gains, tx, CP_LEN)
        sigma2 = noise_power(received_power(rx), cfg.snr_db, 1)
        chains, law = capture_physical(rx, sigma2, KeptNormals(noise.derive(u)))
        spectra = symbol_spectra(chains)
        comb = zf_weights(estimate_channel(spectra, 1, cfg.lts_repeats), cfg.rank_tolerance)
        user_grids = apply_combiner(spectra, comb, cfg.lts_repeats)
        grids.append(user_grids)
        sinrs.append(metrics.sinr(comb.weights, true_effective_channel(link_gains), law))
        evms.append(metrics.evm(user_grids, tx_grids))
    grids = np.concatenate(grids)
    airtime_s = grids.shape[1] * (SYMBOL_LEN / cfg.bandwidth_hz)
    goodput, ber = metrics.goodput_and_ber(recover_bits(grids), bits, airtime_s)
    return {
        "sinr_db": [float(v) for v in np.concatenate(sinrs)],
        "ber": float(ber),
        "goodput_bps": float(goodput),
        "evm_pct": float(np.mean(evms)),
    }


def assert_rows_equal_oracle(rows, combos, trials: int) -> None:
    for index, row in enumerate(rows):
        combo, trial_id = combos[index // trials], index % trials
        want = oracle_row(combo, trial_id)
        got = {key: row[key] for key in want}
        # bit for bit; a NaN equals a NaN
        assert np.array(got["sinr_db"]).tobytes() == np.array(want["sinr_db"]).tobytes()
        for key in ("ber", "goodput_bps", "evm_pct"):
            assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes(), key


@_derandomized(40)
@given(fdma_texts())
def test_run_trial_equals_one_link_per_user(text):
    cfg = build_config(parse_config_text(text))
    assert_rows_equal_oracle([runner.run_trial(cfg, t) for t in range(2)], [cfg], 2)


@_derandomized(8)
@given(fdma_texts())
def test_grid_rows_equal_one_link_per_user_at_1_and_2_workers(text):
    cfg = build_config(parse_config_text(text + "sweep.snr_db = -5, 10, 40\n"))
    cfg = replace(cfg, trials=2)
    for workers in (1, 2):
        combos, rows = runner.run_grid(cfg, workers)
        assert_rows_equal_oracle(rows, combos, cfg.trials)


def fresh(rng: Rng) -> Rng:
    """A new Rng of rng's stream, drawn from its start."""
    return Rng(rng.master_seed, rng.stream_id)


def test_each_stage_over_a_stack_equals_the_stage_per_link():
    # three links of 2 users on 3 antennas: every shared stage takes the
    # leading link axis and gives each link the bytes of its own call
    links, users, antennas, repeats = 3, 2, 3, 2
    rng = Rng(11, 2)
    n = payload_bits_for_symbols(2)
    bits = rng.bits((links, users, n))
    gains = channel.rayleigh(links * users, antennas, 64, rng.derive(1), 3)
    gains = gains.reshape(links, users, antennas, 64)
    streams = [rng.derive(10 + link) for link in range(links)]

    tx, tx_grids = build_frame(bits, repeats)
    rx = channel.apply(gains, tx, CP_LEN)
    sigma2 = noise_power(received_power(rx), 12.0, users)
    chains, law = capture_physical(rx, sigma2, KeptNormals(*map(fresh, streams)))
    spectra = symbol_spectra(chains)
    comb = zf_weights(estimate_channel(spectra, users, repeats))
    grids = apply_combiner(spectra, comb, repeats)
    sinr_db = metrics.sinr(comb.weights, true_effective_channel(gains), law)
    evm_pct = metrics.evm(grids, tx_grids)

    for link in range(links):
        want_tx, want_tx_grids = build_frame(bits[link], repeats)
        want_rx = channel.apply(gains[link], want_tx, CP_LEN)
        want_sigma2 = noise_power(received_power(want_rx), 12.0, users)
        want_chains, want_law = capture_physical(want_rx, want_sigma2, fresh(streams[link]))
        want_spectra = symbol_spectra(want_chains)
        want_comb = zf_weights(estimate_channel(want_spectra, users, repeats))
        want_grids = apply_combiner(want_spectra, want_comb, repeats)
        for got, want in [
            (tx[link], want_tx),
            (tx_grids[link], want_tx_grids),
            (rx[link], want_rx),
            (sigma2[link], want_sigma2),
            (chains[link], want_chains),
            (law[link], want_law),
            (comb.weights[link], want_comb.weights),
            (comb.erased[link], want_comb.erased),
            (grids[link], want_grids),
            (
                sinr_db[link],
                metrics.sinr(want_comb.weights, true_effective_channel(gains[link]), want_law),
            ),
            (evm_pct[link], metrics.evm(want_grids, want_tx_grids)),
        ]:
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
