"""Tests of the benchmark's own logic.

    python3 -m pytest bench/tests -q
"""

import json
import os
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import switchmux  # noqa: E402
import tracing  # noqa: E402
from switchmux import config, runner  # noqa: E402
from tracing import Span  # noqa: E402

SMALL = "trials = 2\npayload_symbols = 1\n"


def small_config():
    return config.build_config(config.parse_config_text(SMALL))


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),  # overlaps a: [1, 5] is covered once
        Span("c", 8.0, 12.0, 0),  # runs past the root: only [8, 10] counts
        Span("leaf", 1.5, 2.5, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_self_times_of_nested_spans_add_up_to_the_root():
    spans = [
        Span("trial", 0.0, 9.0, -1),
        Span("frame", 1.0, 4.0, 0),
        Span("encode", 1.5, 2.0, 1),
        Span("encode", 2.5, 3.5, 1),
        Span("decode", 5.0, 8.5, 0),
    ]
    assert sum(tracing.self_times(spans)) == pytest.approx(9.0)


def test_percentile_reports_samples_above_it():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50) == (50, 50)
    assert run.percentile(values, 90) == (90, 10)
    assert run.percentile(values[:50], 90) == (95, 5)
    assert run.percentile([7.0], 90) == (7.0, 0)


def test_host_scale_brings_timings_to_reference_speed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale([ref]) == pytest.approx(1.0)
    # a host running at half speed doubles the probe: a 3 s sweep counts as 1.5 s
    assert 3.0 * hostspeed.scale([2 * ref]) == pytest.approx(1.5)
    assert hostspeed.scale([ref, 3 * ref]) == pytest.approx(0.5)
    assert run.host_scale([0.05, 0.05], 2) == pytest.approx(hostspeed.REFERENCE_PAIR_S / 0.05)
    assert hostspeed.probe() > 0


def test_probe_pair_times_both_copies_and_reaps_the_fork():
    mine, theirs = hostspeed.probe_pair()
    assert mine > 0 and theirs > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_trials_counts_differing_missing_and_raised_rows():
    expected = "head\n0,a\n1,b\n2,c\n"
    assert run.failed_trials(expected, expected, 3) == 0
    assert run.failed_trials("head\n0,a\n1,X\n2,c\n", expected, 3) == 1
    assert run.failed_trials("head\n0,a\n1,b\n", expected, 3) == 1
    assert run.failed_trials("other\n0,a\n1,b\n2,c\n", expected, 3) == 3
    assert run.failed_trials(None, expected, 3) == 3


def test_sweep_counts_a_corrupted_row_and_a_raised_trial(tmp_path, monkeypatch):
    bench = run.Run(switchmux, "decode_heavy", 5, tmp_path)
    cfg = small_config()
    bench.sweep(cfg, 1)
    assert (bench.attempted, bench.failed) == (2, 0)

    format_row = runner.format_row

    def corrupt_first(row, num_users):
        line = format_row(row, num_users)
        return line + "9" if row["trial_id"] == 0 else line

    monkeypatch.setattr(runner, "format_row", corrupt_first)
    bench.sweep(cfg, 1)
    assert (bench.attempted, bench.failed) == (4, 1)
    monkeypatch.undo()

    run_trial = runner.run_trial

    def raise_second(cfg, trial_id):
        if trial_id == 1:
            raise RuntimeError("injected")
        return run_trial(cfg, trial_id)

    monkeypatch.setattr(runner, "run_trial", raise_second)
    assert bench.sweep(cfg, 1) is None
    assert (bench.attempted, bench.failed) == (6, 3)


def test_wrappers_leave_module_attributes_as_found():
    targets = tracing.sweep_targets(switchmux)
    owners = {owner.__name__ for owner, _, _, _ in targets}
    assert {"switchmux.runner", "switchmux.channel", "switchmux.waveform",
            "switchmux.frontend"} <= owners
    originals = [getattr(owner, attr) for owner, attr, _, _ in targets]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            assert all(getattr(o, a) is not f for (o, a, _, _), f in zip(targets, originals))
            raise RuntimeError("leave the block early")
    assert tracing.not_restored(targets, originals) == []


def test_traced_trial_keeps_its_row_and_layers_account_for_it():
    cfg = small_config()
    plain = runner.run_trial(cfg, 0)
    tracer = tracing.Tracer()
    with tracer.installed(tracing.trial_targets(switchmux)):
        traced = runner.run_trial(cfg, 0)
    assert runner.format_row(traced, cfg.users) == runner.format_row(plain, cfg.users)
    metrics = tracing.layer_metrics(tracer)
    accounted = sum(metrics[m] for m in tracing.SELF_MS)
    assert accounted == pytest.approx(metrics["runner.run_trial.ms"], rel=1e-9)
    payload = runner._ofdm(cfg).payload_bits_for_symbols(cfg.payload_symbols)
    assert metrics["waveform.viterbi_decode.bits"] == cfg.users * payload
    assert metrics["frontend.upsample.calls"] == cfg.antennas


def test_benchmark_json_names_match_what_the_benchmark_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    per_layer = list(tracing.layer_metrics(tracing.Tracer()))
    per_layer += ["trace.traced_trials_per_s", "trace.untraced_trials_per_s"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(per_layer)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric["name"]
