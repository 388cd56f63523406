"""Differential tests of the trial plan over grids drawn from the config
table (``config_strategies.grid_texts``):

* the draw stage reads no link field: each combo draws the same arrays as
  the combo with every link-stage field at its default, where arch keeps
  only whether it is fdma;
* the grid's rows do not depend on how its (combo, trial) pairs are cut
  into blocks: run_grid at 1 and 2 workers and at 3 forced blocks writes
  the rows that a fresh run_trial gives each pair.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from config_strategies import accepted_combos, grid_texts
from switchmux import runner
from switchmux.config import ExperimentConfig

_LINK_DEFAULTS = {
    f.name: f.default for f in fields(ExperimentConfig) if f.metadata["stage"] == "link"
}


def _link_fields_reset(combo: ExperimentConfig) -> ExperimentConfig:
    reset = dict(_LINK_DEFAULTS, arch="fdma") if combo.arch == "fdma" else _LINK_DEFAULTS
    return replace(combo, **reset)


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
            for got, expected in zip(link, want, strict=True):
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)


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
        # threads keep the blocks in this process, so the test is of the
        # split, and TestSharedDraw covers the worker processes
        mp.setattr(
            runner,
            "ProcessPoolExecutor",
            lambda max_workers, mp_context: ThreadPoolExecutor(max_workers),
        )
        mp.setattr(runner.os, "cpu_count", lambda: 3)
        for workers in (1, 2, 3):
            _, rows = runner.run_grid(cfg, workers)
            assert [runner.format_row(row, row["users"]) for row in rows] == expected
