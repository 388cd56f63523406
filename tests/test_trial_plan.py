"""Differential tests of the trial plan over grids drawn from the config
table (``config_strategies.grid_texts``):

* the draw stage reads no link field: each combo draws the same arrays,
  received powers and noise streams as the combo with every link-stage
  field at its default, where arch keeps only whether it is fdma;
* the grid's rows do not depend on how its (combo, trial) pairs are cut
  into blocks: run_grid at 1 and 2 workers and at 3 forced blocks writes
  the rows that a fresh run_trial gives each pair;
* nor on how a block batches its decodes: a pair whose selection fails
  mid-block, and a block that decodes several times, give the rows of
  fresh trials;
* nor on the switch matrices its combos share: a grid whose combos share
  them gives fresh rows on any block split, with the quantizer on or off;
* nor on how a block shares its noise streams: every front end of a draw
  reads one kept stream per link, drawn once, in either order of the
  short switched read and the long dbf read.
"""

import gc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from config_strategies import accepted_combos, grid_texts
from switchmux import runner
from switchmux.config import ExperimentConfig, build_config, parse_config_text
from switchmux.dsp import Rng
from switchmux.grouping import GroupingError

_LINK_DEFAULTS = {
    f.name: f.default for f in fields(ExperimentConfig) if f.metadata["stage"] == "link"
}


def _link_fields_reset(combo: ExperimentConfig) -> ExperimentConfig:
    reset = dict(_LINK_DEFAULTS, arch="fdma") if combo.arch == "fdma" else _LINK_DEFAULTS
    return replace(combo, **reset)


def _in_process(task, blocks) -> list:
    """Stand-in for runner._forked: every block's task in this process."""
    return [task(block) for block in blocks]


def _derandomized(examples: int):
    return settings(
        max_examples=examples,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@_derandomized(100)
@given(grid_texts())
def test_draw_reads_no_link_field(text):
    accepted = accepted_combos(text)
    if accepted is None:
        return
    _, combos = accepted
    draws = {}
    for combo in combos:
        reset = _link_fields_reset(combo)
        if reset not in draws:
            draws[reset] = runner.draw_trial(reset, 0)
        want_bits, want_links = draws[reset]
        bits, links = runner.draw_trial(combo, 0)
        np.testing.assert_array_equal(bits, want_bits)
        assert len(links) == len(want_links)
        for link, want in zip(links, want_links):
            *arrays, p_rx, noise = link
            *want_arrays, want_p_rx, want_noise = want
            for got, expected in zip(arrays, want_arrays, strict=True):
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)
            assert p_rx == want_p_rx
            # as many normals as the longest read, dbf's, takes of the stream
            n = 2 * link[3].size
            np.testing.assert_array_equal(noise.normals(n), want_noise.normals(n))


@_derandomized(30)
@given(grid_texts())
def test_grid_rows_equal_fresh_trials_on_any_block_split(text):
    accepted = accepted_combos(text)
    if accepted is None:
        return
    # the texts' trials run to the default 100; two per combo still give
    # each worker count its own cut of the pairs
    cfg = replace(accepted[0], trials=min(accepted[0].trials, 2))
    combos = runner.sweep_combos(cfg)
    expected = [
        runner.format_row(runner.run_trial(c, t), c.users) for c in combos for t in range(cfg.trials)
    ]
    with pytest.MonkeyPatch.context() as mp:
        # the blocks run one after another in this process, so the test is
        # of the split, and TestSharedDraw covers the worker processes
        mp.setattr(runner, "_forked", _in_process)
        mp.setattr(runner.os, "cpu_count", lambda: 3)
        for workers in (1, 2, 3):
            _, rows = runner.run_grid(cfg, workers)
            assert [runner.format_row(row, row["users"]) for row in rows] == expected


# one draw key (switched and dbf are not fdma), so the 1-worker grid is one
# block that runs each trial's switched pair, then its dbf pair
BLOCK = (
    "users = 2\nantennas = 4\npayload_symbols = 1\ntrials = 3\nseed = 3\n"
    "sweep.arch = switched, dbf\n"
)


def _fresh_rows(cfg) -> list:
    return [
        runner.format_row(runner.run_trial(c, t), c.users)
        for c in runner.sweep_combos(cfg)
        for t in range(cfg.trials)
    ]


def _grid_rows(cfg) -> list:
    _, rows = runner.run_grid(cfg, 1)
    return [runner.format_row(row, row["users"]) for row in rows]


def test_a_pair_that_fails_mid_block_leaves_the_others_rows(monkeypatch):
    cfg = build_config(parse_config_text(BLOCK))
    _, links = runner.draw_trial(cfg, 1)
    failing = links[0][1][:, :, runner.REFERENCE_BIN]
    select = runner.inphase_select

    def fail_on_trial_1(h_ref, **kwargs):
        if np.array_equal(h_ref, failing):
            raise GroupingError("injected")
        return select(h_ref, **kwargs)

    monkeypatch.setattr(runner, "inphase_select", fail_on_trial_1)
    expected = _fresh_rows(cfg)
    # rows are in (combo, trial) order; the switched pair of trial 1, the
    # third of the block's six, is the only NaN row
    assert ["nan" in line.split(",")[7:9] for line in expected] == [
        False, True, False, False, False, False
    ]
    assert _grid_rows(cfg) == expected


def test_a_block_that_decodes_several_times_gives_fresh_rows(monkeypatch):
    cfg = build_config(parse_config_text(BLOCK + "sweep.snr_db = 5, 25\n"))
    expected = _fresh_rows(cfg)
    decodes = []
    recover_bits = runner.recover_bits
    monkeypatch.setattr(
        runner, "recover_bits", lambda grids: decodes.append(len(grids)) or recover_bits(grids)
    )
    # each pair holds 2 codewords of 96 steps, so the cap decodes every
    # third pending pair; each pair of the last trial (the block's last
    # draw) decodes at once, the first with the two pairs before it
    monkeypatch.setattr(runner, "_DECODE_STEPS", 3 * 2 * 96)
    assert _grid_rows(cfg) == expected
    assert decodes == [6, 6, 6, 2, 2, 2]


# three select policies at two SNRs: each trial's three switch matrices are
# each shared by two combos
SHARED = (
    "users = 2\nantennas = 4\npayload_symbols = 1\ntrials = 2\nseed = 3\n"
    "sweep.select = grouped, random, identity\nsweep.snr_db = 5, 25\n"
)


def _shared_config(quantizer_bits: int) -> ExperimentConfig:
    return build_config(
        parse_config_text(SHARED + f"frontend.quantizer_bits = {quantizer_bits}\n")
    )


@pytest.mark.parametrize("quantizer_bits", [0, 8])
def test_shared_switched_signals_give_fresh_rows_on_any_block_split(monkeypatch, quantizer_bits):
    cfg = _shared_config(quantizer_bits)
    expected = _fresh_rows(cfg)
    assert _grid_rows(cfg) == expected
    _, rows = runner.run_grid(cfg, 2)  # worker processes
    assert [runner.format_row(row, row["users"]) for row in rows] == expected
    # the blocks run one after another in this process, so 3 blocks fit 2 cores
    monkeypatch.setattr(runner, "_forked", _in_process)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 3)
    _, rows = runner.run_grid(cfg, 3)
    assert [runner.format_row(row, row["users"]) for row in rows] == expected


def test_a_block_releases_its_previous_draw():
    cfg = _shared_config(8)
    grouped = [c for c in runner.sweep_combos(cfg) if c.select == "grouped"]
    block = runner.TrialBlock([(c, t) for t in range(2) for c in grouped])
    runner.run_trial(grouped[0], 0, block)
    _, _, _, rx, _, noise = block.draw[1][0]
    old = [weakref.ref(rx), weakref.ref(noise)]
    del rx, noise
    runner.run_trial(grouped[0], 1, block)
    gc.collect()
    assert all(ref() is None for ref in old)


# users = 2 at antennas = 4, so of each trial's noise stream a switched link
# reads 2 * 2 * samples values and dbf and both hybrids read 2 * 4 * samples
NOISE = "users = 2\nantennas = 4\npayload_symbols = 1\ntrials = 2\nseed = 5\n"

# (arch, frontend.quantizer_bits) in block order within a draw; the
# quantizer is no sweep key, so the grid's combos are listed here
NOISE_ORDERS = {
    "switched first": [
        ("switched", 0), ("switched", 8), ("dbf", 0), ("hbf_full", 0), ("hbf_partial", 0),
        ("fdma", 0),
    ],
    "dbf first": [
        ("dbf", 0), ("hbf_full", 0), ("hbf_partial", 0), ("switched", 0), ("switched", 8),
        ("fdma", 0),
    ],
}


@pytest.mark.parametrize("order", NOISE_ORDERS)
def test_each_link_noise_stream_is_drawn_once_per_draw(monkeypatch, order):
    cfg = build_config(parse_config_text(NOISE))
    combos = [
        replace(cfg, arch=arch, quantizer_bits=bits, snr_db=snr_db)
        for arch, bits in NOISE_ORDERS[order]
        for snr_db in (5.0, 25.0)
    ]
    monkeypatch.setattr(runner, "sweep_combos", lambda _: combos)
    expected = _fresh_rows(cfg)
    drawn: dict = {}  # stream_id -> the count of each normals call
    normals = Rng.normals

    def spy(rng, n):
        drawn.setdefault(rng.stream_id, []).append(n)
        return normals(rng, n)

    monkeypatch.setattr(Rng, "normals", spy)
    assert _grid_rows(cfg) == expected

    # one noise stream per draw and link, keyed by trial and link: the
    # trial's noise stream for its one link, and a stream per fdma user's
    # link (the channel draws its own streams too)
    noise = [Rng(cfg.seed, t).derive(runner._P_NOISE) for t in range(cfg.trials)]
    fdma = {rng.derive(u).stream_id for rng in noise for u in range(cfg.users)}
    assert set(drawn) >= {rng.stream_id for rng in noise} | fdma
    # each drawn once: the dbf read in one call, or the switched read and
    # then only the rest of dbf's
    samples = runner.draw_trial(cfg, 0)[1][0][3].shape[1]
    fdma_samples = runner.draw_trial(combos[-1], 0)[1][0][3].shape[1]
    linked = [[8 * samples]] if order == "dbf first" else [[4 * samples, 4 * samples]]
    assert sorted(drawn[rng.stream_id] for rng in noise) == linked * cfg.trials
    assert all(drawn[stream] == [2 * fdma_samples] for stream in fdma)

    _, rows = runner.run_grid(cfg, 2)  # worker processes
    assert [runner.format_row(row, row["users"]) for row in rows] == expected
    # the blocks run one after another in this process, so 3 blocks fit 2 cores
    monkeypatch.setattr(runner, "_forked", _in_process)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 3)
    _, rows = runner.run_grid(cfg, 3)
    assert [runner.format_row(row, row["users"]) for row in rows] == expected
