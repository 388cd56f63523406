"""Trial runner and sweep writer tests.

Small geometries and short payloads keep these fast; statistical claims
about the architectures live in the acceptance suite instead.
"""

import ast
import inspect
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import switchmux
from switchmux import runner, waveform
from switchmux.config import (
    ARCH_CHOICES,
    ConfigError,
    build_config,
    parse_config_text,
    with_overrides,
)
from switchmux.dsp import Rng

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402


def cfg_from(text):
    return build_config(parse_config_text(text))


SMALL = "users = 2\nantennas = 4\npayload_symbols = 2\ntrials = 2\nseed = 7\n"


def loop_positions(cfg, rng):
    """Oracle: user drops one coordinate draw at a time, with the 101st
    draw taken after 100 rejected tries; also returns the fallback count."""
    margin = 1.0
    placed, fallbacks = [], 0
    for _ in range(cfg.users):
        for attempt in range(101):
            x = rng.uniform(margin, cfg.room_x_m - margin)
            y = rng.uniform(margin, cfg.room_y_m - margin)
            clear = math.hypot(x - cfg.ap_x_m, y - cfg.ap_y_m) >= 1.0 and all(
                math.hypot(x - px, y - py) >= 0.5 for px, py in placed
            )
            if clear:
                break
        fallbacks += not clear
        placed.append((x, y))
    return np.array(placed), fallbacks


@pytest.mark.parametrize(
    "scene, fallbacks",
    [("", 0), ("scene.room_x_m = 2.4\nscene.room_y_m = 2.4\nscene.ap_x_m = 1.2\n", 3)],
    ids=["default_room", "cramped_room"],
)
def test_drawn_positions_match_the_per_draw_oracle(scene, fallbacks):
    # the cramped room leaves a 0.4 m square of drops, all within 1 m of
    # the array center, so every user takes the 101st draw
    cfg = cfg_from(f"scenario = raytrace\nusers = 3\nantennas = 4\n{scene}")
    for t in range(3):
        got = runner._draw_positions(cfg, Rng(cfg.seed, t))
        want, taken = loop_positions(cfg, Rng(cfg.seed, t))
        assert got.shape == (3, 2)
        assert np.array_equal(got, want)
        assert taken == fallbacks


class TestRunTrial:
    def test_deterministic_repeat(self):
        cfg = cfg_from(SMALL)
        first = runner.run_trial(cfg, 3)
        second = runner.run_trial(cfg, 3)
        assert first == second

    def test_trials_differ(self):
        cfg = cfg_from(SMALL)
        a = runner.run_trial(cfg, 0)
        b = runner.run_trial(cfg, 1)
        assert a["mean_sinr_db"] != b["mean_sinr_db"]

    def test_seed_changes_outcome(self):
        base = cfg_from(SMALL)
        other = with_overrides(base, seed=8)
        assert runner.run_trial(base, 0) != runner.run_trial(other, 0)

    def test_high_snr_switched_hits_cap_with_zero_errors(self):
        cfg = cfg_from(SMALL + "snr_db = 300\nfrontend.insertion_loss_db = 0\n")
        row = runner.run_trial(cfg, 0)
        assert row["ber"] == 0.0
        assert row["mean_sinr_db"] == pytest.approx(80.0)
        assert row["goodput_bps"] > 0

    @pytest.mark.parametrize(
        "arch,chains,total_mw",
        [
            ("switched", 2, 354 + 4 * 1.0 + 200),
            ("dbf", 4, 4 * 408 + 400),
            ("hbf_full", 2, 2 * 408 + 200),
            ("hbf_partial", 2, 2 * 408 + 200),
            ("fdma", 1, 354 + 200),
        ],
    )
    def test_each_arch_yields_finite_row(self, arch, chains, total_mw):
        cfg = cfg_from(SMALL + f"arch = {arch}\n")
        row = runner.run_trial(cfg, 0)
        assert (row["arch"], row["K"]) == (arch, chains)
        assert math.isfinite(row["mean_sinr_db"])
        assert math.isfinite(row["ber"])
        assert row["capacity_bps"] > 0
        assert row["total_mw"] == pytest.approx(total_mw)

    @pytest.mark.parametrize(
        "arch, shapes",
        [
            ("switched", [(2,)]),
            ("dbf", [(4,)]),
            ("hbf_full", [(2, 2)]),
            ("hbf_partial", [(2, 2)]),
            ("fdma", [(1,), (1,)]),
        ],
    )
    def test_chain_noise_is_passed_by_shape(self, monkeypatch, arch, shapes):
        # independent chains pass their variances, correlated ones a
        # covariance, and metrics.sinr gets the very law the capture drew
        drawn, seen = [], []
        for name in ("capture_switched", "switched_chains", "capture_hybrid", "capture_physical"):

            def recording_capture(*args, front_end=getattr(runner, name), **kwargs):
                output, noise = front_end(*args, **kwargs)
                drawn.append(noise)
                return output, noise

            monkeypatch.setattr(runner, name, recording_capture)
        sinr = runner.metrics.sinr

        def recording(weights, heff, noise):
            seen.append(noise)
            return sinr(weights, heff, noise)

        monkeypatch.setattr(runner.metrics, "sinr", recording)
        runner.run_trial(cfg_from(SMALL + f"arch = {arch}\n"), 0)
        assert [noise.shape for noise in seen] == shapes
        assert len(drawn) == len(seen)
        assert all(got is law for got, law in zip(seen, drawn))

    def test_raytrace_scenario_runs(self):
        cfg = cfg_from(SMALL + "scenario = raytrace\n")
        row = runner.run_trial(cfg, 0)
        assert math.isfinite(row["mean_sinr_db"])

    def test_pinned_positions_reused(self):
        pinned = (
            "scenario = raytrace\n"
            "scene.user0_x_m = 4.0\nscene.user0_y_m = 3.0\n"
            "scene.user1_x_m = 10.0\nscene.user1_y_m = 3.0\n"
        )
        cfg = cfg_from(SMALL + pinned)
        assert runner.run_trial(cfg, 0) == runner.run_trial(cfg, 0)

    def test_degenerate_channel_flags_trial(self):
        # both users at the same spot: identical rows, no invertible grouping
        pinned = (
            "scenario = raytrace\n"
            "scene.user0_x_m = 8.0\nscene.user0_y_m = 3.0\n"
            "scene.user1_x_m = 8.0\nscene.user1_y_m = 3.0\n"
        )
        cfg = cfg_from(SMALL + pinned)
        row = runner.run_trial(cfg, 0)
        assert math.isnan(row["mean_sinr_db"])
        assert math.isnan(row["ber"])
        assert row["goodput_bps"] == 0.0
        assert row["total_mw"] > 0
        # the failed row's bytes: NaN capacity, zero se and bits per joule,
        # and the 2-chain switched receiver's 354 + 4 + 200 mW
        assert runner.format_row(row, 2) == "0,switched,4,2,2,15,7,nan,nan,nan,nan,0,nan,0,558,0"

    def test_offset_sync_tracks_aligned(self):
        aligned = cfg_from(SMALL + "snr_db = 25\n")
        offset = cfg_from(
            SMALL + "snr_db = 25\nsync_mode = offset\nsync.max_offset_samples = 0.5\n"
        )
        diffs = [
            abs(
                runner.run_trial(aligned, t)["mean_sinr_db"]
                - runner.run_trial(offset, t)["mean_sinr_db"]
            )
            for t in range(3)
        ]
        assert np.median(diffs) < 1.0

    @pytest.mark.parametrize("arch,chains", [("switched", 4), ("fdma", 1)])
    def test_one_decode_call_per_trial(self, monkeypatch, arch, chains):
        # fdma's four one-user links are decoded together, not link by link
        calls = []
        decode = waveform.viterbi_decode

        def counted(coded):
            calls.append(np.shape(coded))
            return decode(coded)

        monkeypatch.setattr(waveform, "viterbi_decode", counted)
        cfg = cfg_from(f"users = 4\nantennas = 4\npayload_symbols = 2\narch = {arch}\n")
        row = runner.run_trial(cfg, 0)
        assert row["K"] == chains
        assert math.isfinite(row["ber"])
        assert len(calls) == 1
        assert calls[0][0] == 4

    @pytest.mark.parametrize(
        "line", ["rayleigh.taps = 17\n", "frontend.quantizer_bits = 53\n"], ids=["taps", "bits"]
    )
    def test_largest_taps_and_quantizer_bits_run(self, line):
        row = runner.run_trial(cfg_from(SMALL + line), 0)
        assert math.isfinite(row["mean_sinr_db"])
        assert math.isfinite(row["ber"])

    def test_nullspace_combiner_runs(self):
        cfg = cfg_from(SMALL + "combiner = nullspace\nsnr_db = 30\n")
        row = runner.run_trial(cfg, 0)
        assert row["ber"] == 0.0

    @pytest.mark.parametrize("arch", ["switched", "dbf", "hbf_full", "hbf_partial"])
    @pytest.mark.parametrize(
        "scene",
        [
            "scenario = rayleigh\n",
            "scenario = raytrace\n",
            "scenario = raytrace\nsync_mode = offset\nfrontend.quantizer_bits = 8\n",
        ],
        ids=["rayleigh", "raytrace", "raytrace_offset_quantized"],
    )
    def test_nullspace_rows_equal_zero_forcing_rows(self, arch, scene):
        # config takes nullspace only on square channels, where each user's
        # null-space row is its row of the inverse; dbf's are square when
        # antennas == users
        zf = cfg_from(SMALL + scene + f"arch = {arch}\n")
        if arch == "dbf":
            zf = with_overrides(zf, antennas=2)
        ns = with_overrides(zf, combiner="nullspace")
        for t in range(3):
            got = runner.format_row(runner.run_trial(ns, t), ns.users)
            assert got == runner.format_row(runner.run_trial(zf, t), zf.users)


# (arch, combiner) -> the antenna counts 1..4 config accepts at 2 users:
# every arch but fdma needs an antenna per user, hbf_partial a whole block
# of antennas per user, and nullspace a square channel, which a dbf link
# has only at antennas == users and every fdma link has
ACCEPTED_ANTENNAS = {
    ("switched", "zf"): [2, 3, 4],
    ("dbf", "zf"): [2, 3, 4],
    ("hbf_full", "zf"): [2, 3, 4],
    ("hbf_partial", "zf"): [2, 4],
    ("fdma", "zf"): [1, 2, 3, 4],
    ("switched", "nullspace"): [2, 3, 4],
    ("dbf", "nullspace"): [2],
    ("hbf_full", "nullspace"): [2, 3, 4],
    ("hbf_partial", "nullspace"): [2, 4],
    ("fdma", "nullspace"): [1, 2, 3, 4],
}


@pytest.mark.parametrize("arch, combiner", sorted(ACCEPTED_ANTENNAS))
def test_every_accepted_chain_count_runs_a_trial(arch, combiner):
    # config alone decides the chain count, so every array it accepts must
    # run trial 0 to a row with that count
    accepted = []
    for antennas in range(1, 5):
        text = (
            f"arch = {arch}\ncombiner = {combiner}\nantennas = {antennas}\n"
            "users = 2\npayload_symbols = 1\n"
        )
        try:
            cfg = cfg_from(text)
        except ConfigError:
            continue
        row = runner.run_trial(cfg, 0)
        assert (row["trial_id"], row["K"], len(row["sinr_db"])) == (0, cfg.chains, 2)
        accepted.append(antennas)
    assert accepted == ACCEPTED_ANTENNAS[(arch, combiner)]


class TestSweepGrid:
    def test_no_sweep_keys_single_combo(self):
        cfg = cfg_from(SMALL)
        assert runner.sweep_combos(cfg) == [cfg]

    def test_grid_order_outer_to_inner(self):
        cfg = cfg_from(SMALL + "sweep.antennas = 4, 6\nsweep.snr_db = 0, 10\n")
        combos = runner.sweep_combos(cfg)
        seen = [(c.antennas, c.snr_db) for c in combos]
        assert seen == [(4, 0.0), (4, 10.0), (6, 0.0), (6, 10.0)]

    def test_users_nest_inside_antennas_and_chains(self):
        # dbf's chains follow the antennas, so users nest inside both
        cfg = cfg_from(
            "arch = dbf\nusers = 1\nantennas = 4\n"
            "sweep.users = 1, 2\nsweep.antennas = 4, 8\n"
        )
        seen = [(c.antennas, c.chains, c.users) for c in runner.sweep_combos(cfg)]
        assert seen == [(4, 4, 1), (4, 4, 2), (8, 8, 1), (8, 8, 2)]

    def test_arch_sweep_reresolves_chains(self):
        cfg = cfg_from(SMALL + "sweep.arch = switched, dbf, fdma\n")
        chains = [c.chains for c in runner.sweep_combos(cfg)]
        assert chains == [2, 4, 1]


def _blas_threads_here(block):
    """Stand-in grid task: this worker's pid and OpenBLAS thread count."""
    return [(os.getpid(), runner._openblas_threads_entry("get")())] * len(block)


def test_a_grid_holds_openblas_to_one_thread_here_and_in_its_workers(monkeypatch):
    if not runner.one_blas_thread():
        pytest.skip("no OpenBLAS thread-count entry in this numpy")
    runner._openblas_threads_entry("set")(2)
    monkeypatch.setattr(runner, "_grid_task", _blas_threads_here)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)  # a pool even on one core
    _, rows = runner.run_grid(cfg_from(SMALL), workers=2)
    assert runner._openblas_threads_entry("get")() == 1
    # this process runs the first block and a forked worker the other
    assert {pid for pid, _ in rows} - {os.getpid()}
    assert [threads for _, threads in rows] == [1, 1]


class TestCsvFormat:
    def test_header_layout(self):
        head = runner.csv_header(2)
        assert head[:7] == ["trial_id", "arch", "M", "K", "users", "snr_db", "seed"]
        assert head[7:9] == ["sinr_db_u0", "sinr_db_u1"]
        assert head[-1] == "bits_per_joule"

    def test_row_pads_missing_users(self):
        cfg = cfg_from(SMALL)
        row = runner.run_trial(cfg, 0)
        line = runner.format_row(row, 4)
        cells = line.split(",")
        assert len(cells) == len(runner.csv_header(4))
        assert cells[9] == "" and cells[10] == ""

    def test_floats_use_10_significant_digits(self):
        assert runner._fmt(1 / 3) == "0.3333333333"
        assert runner._fmt(float("nan")) == "nan"


class TestRunSweep:
    def test_writes_rows_and_manifest(self, tmp_path):
        cfg = cfg_from(SMALL + "sweep.snr_db = 10, 20\n")
        out = tmp_path / "grid.csv"
        count, combos = runner.run_sweep(cfg, str(out))
        assert (count, combos) == (4, 2)  # 2 snr points x 2 trials
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + count
        assert lines[0] == ",".join(runner.csv_header(2))
        manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
        assert manifest["rows"] == 4
        assert manifest["combos"] == 2
        assert len(manifest["config_sha256"]) == 64

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = cfg_from(SMALL + "sweep.snr_db = 10, 20\n")
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        runner.run_sweep(cfg, str(first))
        runner.run_sweep(cfg, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path):
        cfg = cfg_from(SMALL + "sweep.snr_db = 10, 20\n")
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        runner.run_sweep(cfg, str(serial), workers=1)
        runner.run_sweep(cfg, str(parallel), workers=2)
        assert serial.read_bytes() == parallel.read_bytes()
        combos = runner.sweep_combos(cfg)
        expected = [runner.run_trial(c, t) for c in combos for t in range(c.trials)]
        for workers in (1, 2):
            assert runner.run_grid(cfg, workers) == (combos, expected)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_nonpositive_workers(self, tmp_path, workers):
        out = tmp_path / "rows.csv"
        with pytest.raises(ValueError, match="workers"):
            runner.run_sweep(cfg_from(SMALL), str(out), workers=workers)
        assert not out.exists()

    @staticmethod
    def recorded_pools(monkeypatch, cpus) -> tuple:
        """Make the runner see cpus CPUs and run its pools in-process; the
        returned lists gather each pool's max_workers and mp_context."""
        seen, contexts = [], []

        class RecordingPool:
            def __init__(self, max_workers, mp_context=None):
                seen.append(max_workers)
                contexts.append(mp_context)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
        return seen, contexts

    @pytest.mark.parametrize("cpus, pool_sizes", [(3, [2]), (None, [])])
    def test_workers_capped_at_cpu_count(self, tmp_path, monkeypatch, cpus, pool_sizes):
        seen, _ = self.recorded_pools(monkeypatch, cpus)
        cfg = cfg_from(SMALL + "sweep.snr_db = 10, 20\n")  # 4 pairs
        capped = tmp_path / "capped.csv"
        serial = tmp_path / "serial.csv"
        runner.run_sweep(cfg, str(capped), workers=1000)
        runner.run_sweep(cfg, str(serial), workers=1)
        assert seen == pool_sizes
        assert capped.read_bytes() == serial.read_bytes()

    def test_one_pair_runs_without_a_pool(self, tmp_path, monkeypatch):
        seen, _ = self.recorded_pools(monkeypatch, 2)
        cfg = replace(cfg_from(SMALL), trials=1)
        pooled = tmp_path / "pooled.csv"
        serial = tmp_path / "serial.csv"
        runner.run_sweep(cfg, str(pooled), workers=2)
        runner.run_sweep(cfg, str(serial), workers=1)
        assert seen == []
        assert pooled.read_bytes() == serial.read_bytes()

    def test_pool_forks_its_workers(self, tmp_path, monkeypatch):
        # forked workers inherit the one-thread OpenBLAS pin, whatever the
        # interpreter's default start method
        _, contexts = self.recorded_pools(monkeypatch, 2)
        runner.run_sweep(cfg_from(SMALL), str(tmp_path / "rows.csv"), workers=2)
        assert [context.get_start_method() for context in contexts] == ["fork"]

    def test_failed_manifest_write_keeps_previous_output(self, tmp_path, monkeypatch):
        out = tmp_path / "rows.csv"
        manifest = tmp_path / "rows.csv.manifest.json"
        out.write_bytes(b"old rows\n")
        manifest.write_bytes(b"old manifest\n")

        def failing_dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(runner.json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            runner.run_sweep(cfg_from(SMALL), str(out))
        assert out.read_bytes() == b"old rows\n"
        assert manifest.read_bytes() == b"old manifest\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "rows.csv.manifest.json"]

    def test_mixed_user_counts_pad_short_rows(self, tmp_path):
        cfg = cfg_from(
            "antennas = 4\npayload_symbols = 2\ntrials = 1\nseed = 3\n"
            "sweep.users = 1, 2\n"
        )
        out = tmp_path / "mixed.csv"
        runner.run_sweep(cfg, str(out))
        lines = out.read_text().splitlines()
        assert "sinr_db_u1" in lines[0]
        one_user = lines[1].split(",")
        assert one_user[8] == ""


class TestSharedDraw:
    """Combos with equal draw keys share each trial's read-only draw, and
    their rows equal independent trials at any worker count."""

    MIXED = (
        "users = 2\nantennas = 4\npayload_symbols = 1\ntrials = 2\nseed = 11\n"
        "scenario = raytrace\nsync_mode = offset\nfrontend.quantizer_bits = 8\n"
        "sweep.arch = switched, dbf, fdma\nsweep.snr_db = 5, 25\n"
        "sweep.select = grouped, random\n"
    )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_rows_equal_independent_trials(self, workers):
        cfg = cfg_from(self.MIXED)
        combos = runner.sweep_combos(cfg)
        assert len({runner.draw_key(c) for c in combos}) == 2  # fdma or not
        expected = [
            runner.format_row(runner.run_trial(c, t), c.users)
            for c in combos
            for t in range(c.trials)
        ]
        got_combos, rows = runner.run_grid(cfg, workers)
        assert got_combos == combos
        got = [runner.format_row(row, row["users"]) for row in rows]
        assert got == expected

    def test_ray_trace_runs_once_per_trial(self, monkeypatch):
        cfg = cfg_from(
            "users = 2\nantennas = 4\npayload_symbols = 1\ntrials = 3\n"
            "scenario = raytrace\nsweep.arch = switched, dbf, hbf_full, hbf_partial\n"
        )
        calls = []
        ray_trace = runner.channel.ray_trace
        monkeypatch.setattr(
            runner.channel, "ray_trace", lambda *a, **k: calls.append(1) or ray_trace(*a, **k)
        )
        _, rows = runner.run_grid(cfg, workers=1)
        assert len(rows) == 12
        assert len(calls) == 3

    # two draw-key groups (fdma or not) of 12 and 6 pairs and a trial count
    # 2 workers do not divide, so one block ends inside a trial
    TWO_GROUPS = (
        "users = 2\nantennas = 2\npayload_symbols = 1\ntrials = 3\nseed = 5\n"
        "combiner = nullspace\nsweep.arch = switched, dbf, fdma\nsweep.snr_db = 5, 25\n"
    )

    def test_each_trial_drawn_once_per_draw_key(self, monkeypatch):
        cfg = cfg_from(self.TWO_GROUPS)
        drawn = []
        draw_trial = runner.draw_trial

        def counted(combo, trial_id):
            drawn.append((runner.draw_key(combo), trial_id))
            return draw_trial(combo, trial_id)

        monkeypatch.setattr(runner, "draw_trial", counted)
        _, rows = runner.run_grid(cfg, workers=1)
        assert len(rows) == 18
        assert len(drawn) == len(set(drawn)) == 2 * 3

    def test_blocks_give_the_same_bytes_on_any_worker_count(self, tmp_path):
        cfg = cfg_from(self.TWO_GROUPS)
        combos = runner.sweep_combos(cfg)
        assert len({runner.draw_key(c) for c in combos}) == 2
        written = []
        for workers in (1, 2):
            out = tmp_path / f"rows{workers}.csv"
            runner.run_sweep(cfg, str(out), workers=workers)
            written.append(out.read_bytes())
        assert written[0] == written[1]
        lines = written[0].decode().splitlines()[1:]
        expected = [
            runner.format_row(runner.run_trial(c, t), c.users)
            for c in combos
            for t in range(c.trials)
        ]
        assert lines == expected

    def test_one_draws_dict_keeps_draw_keys_apart(self, monkeypatch):
        # one TrialBlock shared by calls of three draw keys: each row equals
        # a fresh trial's, and only the dbf call reuses the draw before it
        cfgs = [
            with_overrides(cfg_from(SMALL), arch=arch, users=users)
            for arch, users in [("switched", 2), ("dbf", 2), ("fdma", 2), ("switched", 3)]
        ]
        fresh = [runner.format_row(runner.run_trial(cfg, 1), cfg.users) for cfg in cfgs]
        drawn = []
        draw_trial = runner.draw_trial
        monkeypatch.setattr(
            runner, "draw_trial", lambda cfg, t: drawn.append(cfg) or draw_trial(cfg, t)
        )
        block = runner.TrialBlock([(cfg, 1) for cfg in cfgs])
        rows = [runner.run_trial(cfg, 1, block) for cfg in cfgs]
        assert [runner.format_row(row, cfg.users) for row, cfg in zip(rows, cfgs)] == fresh
        assert [cfg.arch for cfg in drawn] == ["switched", "fdma", "switched"]

    def test_draw_arrays_are_read_only(self):
        for arch in ("switched", "fdma"):
            cfg = cfg_from(SMALL + f"arch = {arch}\n")
            bits, links = runner.draw_trial(cfg, 0)
            arrays = [bits] + [a for link in links for a in link[:4]]
            # the kept noise values, as far as a dbf capture reads them
            arrays += [noise.normals(2 * rx.size) for *_, rx, _, noise in links]
            assert len(arrays) == 1 + 5 * (cfg.users if arch == "fdma" else 1)
            for a in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[0] = 1

    def test_draw_key_follows_the_draw_stage(self):
        cfg = cfg_from("scenario = raytrace\n")
        key = runner.draw_key(cfg)
        changed = {
            "users": 2,
            "antennas": 6,
            "seed": 2,
            "payload_symbols": 3,
            "scenario": "rayleigh",
            "sync_mode": "offset",
            "sync_max_offset_samples": 0.25,
            "rayleigh_taps": 2,
            "lts_repeats": 3,
            "bandwidth_hz": 20e6,
            "room_x_m": 11.0,
            "room_y_m": 6.0,
            "ap_x_m": 5.0,
            "ap_y_m": 0.75,
            "scene_gamma": 0.5,
            "max_reflections": 2,
            "user_positions": ((2.0, 3.0),) * 4,
        }
        draw_fields = {f.name for f in fields(cfg) if f.metadata["stage"] == "draw"}
        assert set(changed) == draw_fields
        for name, value in changed.items():
            assert runner.draw_key(replace(cfg, **{name: value})) != key, name
        # the other sweep keys leave the draw alone, arch up to fdma or not
        for name, value in [
            ("arch", "dbf"), ("arch", "hbf_full"), ("arch", "hbf_partial"),
            ("snr_db", -5.0), ("select", "random"),
        ]:
            assert runner.draw_key(replace(cfg, **{name: value})) == key, name
        assert runner.draw_key(replace(cfg, arch="fdma")) != key


# the functions runner calls from other modules that the benchmark's
# tracer does not wrap, each with the reason it may stay unwrapped
UNTRACED = {
    "runner.config_digest": "grid level, not per trial",
    "runner.sweep_combos": "grid level, not per trial",
    "runner.hybrid_weights": "cheap per-link helper",
    "runner.noise_power": "cheap per-link helper",
    "runner.received_power": "cheap per-draw helper",
    "runner.payload_bits_for_symbols": "cheap per-link helper",
    "channel.ula_positions": "cheap per-link helper",
    "runner.switched_chains": "hot, unwrapped until the benchmark harness next changes",
    "runner.symbol_spectra": "hot, unwrapped until the benchmark harness next changes",
}


def runner_calls() -> set:
    """Every function runner imports from another switchmux module, as
    "runner.<name>", and every channel, metrics, waveform or frontend
    attribute it calls, as "<module>.<name>"."""
    imported = {
        f"runner.{name}"
        for name, value in vars(runner).items()
        if inspect.isfunction(value)
        and value.__module__.startswith("switchmux.")
        and value.__module__ != runner.__name__
    }
    modules = ("channel", "metrics", "waveform", "frontend")
    called = {
        f"{node.func.value.id}.{node.func.attr}"
        for node in ast.walk(ast.parse(inspect.getsource(runner)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in modules
    }
    return imported | called


class TestBenchTrace:
    """The benchmark's tracer wraps runner and module attributes by name and
    reads GroupingResult.fallback_level and CombinerMatrix.erased; these
    keep that contract from the package side."""

    def test_every_runner_call_is_traced_or_named_untraced(self):
        # a call a refactor adds or moves is either wrapped by the tracer
        # or listed in UNTRACED with its reason
        traced = {
            f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            for owner, attr, _, _ in tracing.trial_targets(switchmux)
        }
        calls = runner_calls()
        assert sorted(calls - traced - UNTRACED.keys()) == []
        assert sorted(UNTRACED.keys() - calls) == []
        assert sorted(UNTRACED.keys() & traced) == []

    def test_a_traced_grid_decodes_inside_its_trials(self):
        # the benchmark times runner.run_trial once per pair and sums layer
        # self times to it, so a block's decode runs inside a trial's call
        cfg = cfg_from(SMALL + "sweep.arch = switched, fdma\n")
        tracer = tracing.Tracer()
        with tracer.installed(tracing.trial_targets(switchmux)):
            _, rows = runner.run_grid(cfg, 1)
        spans = tracer.spans
        assert len(tracer.durations("runner.run_trial")) == len(rows) == 4
        scored = [
            i for i, span in enumerate(spans)
            if span.name.startswith(("metrics.", "waveform.recover_bits", "waveform.viterbi"))
        ]
        assert any(spans[i].name == "waveform.viterbi_decode" for i in scored)
        for i in scored:
            while spans[i].name != "runner.run_trial":
                i = spans[i].parent
                assert i >= 0
        metrics = tracing.layer_metrics(tracer)
        accounted = sum(metrics[m] for m in tracing.SELF_MS)
        assert accounted == pytest.approx(metrics["runner.run_trial.ms"], rel=1e-9)

    def test_every_traced_attribute_exists(self):
        missing = [
            f"{owner.__name__}.{attr}"
            for owner, attr, _, _ in tracing.sweep_targets(switchmux)
            if not hasattr(owner, attr)
        ]
        assert missing == []

    @pytest.mark.parametrize(
        "arch, combiner",
        [pytest.param(arch, "zf", id=arch) for arch in ARCH_CHOICES]
        + [pytest.param("switched", "nullspace", id="switched_nullspace")],
    )
    def test_traced_trial_keeps_its_row_and_counters(self, arch, combiner):
        cfg = cfg_from(SMALL + f"arch = {arch}\ncombiner = {combiner}\n")
        plain = runner.run_trial(cfg, 0)
        tracer = tracing.Tracer()
        with tracer.installed(tracing.trial_targets(switchmux)):
            traced = runner.run_trial(cfg, 0)
        assert traced == plain
        counts = tracer.counts
        # grouped selection runs only on the switched front end
        assert ("grouping.inphase_select.fallbacks" in counts) == (arch == "switched")
        assert counts["grouping.inphase_select.fallbacks"] == 0
        bins = counts[f"equalize.{combiner}_weights.bins"]
        assert bins > 0
        assert 0 <= counts[f"equalize.{combiner}_weights.erased"] <= bins
