"""Spans recorded around switchmux's functions from outside the package.

A ``Tracer`` replaces module attributes with wrappers.  Each call records one
span holding its name, start, end and the index of the span that was open when
it began.  Spans stay in memory and ``write`` puts them out at the end.  The
attributes wrapped are the ones a trial looks up at call time: the names
``runner`` imported from other modules (``runner.zf_weights``), the module
attributes it calls through (``channel.ray_trace``), and the helpers the
modules call internally (``waveform.viterbi_decode``, ``frontend.upsample``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for none


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()  # "<span name>.<counter>" -> total
        self._open: list = []

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording a span per call; ``count(result)`` returns counter
        increments, and a call that raises adds one to ``<name>.raised``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = Span(name, time.perf_counter(), float("nan"), parent)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                for key, value in count(result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, attribute, span name, counter)`` target for the
        duration of the block, then put each original attribute back."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def durations(self, name: str) -> list:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def not_restored(targets, originals) -> list:
    """Names of the targets whose attribute is no longer the original."""
    return [
        f"{owner.__name__}.{attr}"
        for (owner, attr, _, _), original in zip(targets, originals)
        if getattr(owner, attr) is not original
    ]


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        pieces = sorted(
            (max(c.start, span.start), min(c.end, span.end)) for c in children[index]
        )
        covered, reach = 0.0, span.start
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _captured(result) -> dict:
    streams = result if isinstance(result, list) else [result]
    return {"samples": sum(len(s) for s in streams)}


def _fallbacks(result) -> dict:
    return {"fallbacks": result.fallback_level}


def _erasures(result) -> dict:
    return {"erased": int(result.erased.sum()), "bins": int(result.erased.size)}


def trial_targets(sm) -> list:
    """Every function a trial calls through a looked-up attribute, with the
    span name of the module that defines it.  ``sm`` is the switchmux package."""
    runner, channel, waveform, frontend, metrics = (
        sm.runner, sm.channel, sm.waveform, sm.frontend, sm.metrics
    )
    return [
        (runner, "run_trial", "runner.run_trial", None),
        (runner, "build_frame", "waveform.build_frame", None),
        (waveform, "conv_encode", "waveform.conv_encode", None),
        (runner, "recover_bits", "waveform.recover_bits", None),
        (waveform, "viterbi_decode", "waveform.viterbi_decode", lambda r: {"bits": len(r)}),
        (channel, "rayleigh", "channel.rayleigh", None),
        (channel, "ray_trace", "channel.ray_trace", None),
        (channel, "apply", "channel.apply", None),
        (channel, "with_user_delays", "channel.with_user_delays", None),
        (runner, "capture_switched", "frontend.capture_switched", _captured),
        (runner, "capture_physical", "frontend.capture_physical", _captured),
        (runner, "capture_hybrid", "frontend.capture_hybrid", _captured),
        (frontend, "upsample", "frontend.upsample", None),
        (frontend, "quantize", "frontend.quantize", None),
        (runner, "time_despread", "despread.time_despread", None),
        (runner, "inphase_select", "grouping.inphase_select", _fallbacks),
        (runner, "random_switch_matrix", "grouping.random_switch_matrix", None),
        (runner, "estimate_channel", "equalize.estimate_channel", None),
        (runner, "zf_weights", "equalize.zf_weights", _erasures),
        (runner, "nullspace_weights", "equalize.nullspace_weights", _erasures),
        (runner, "apply_combiner", "equalize.apply_combiner", None),
        (runner, "true_effective_channel", "equalize.true_effective_channel", None),
        (metrics, "sinr", "metrics.sinr", None),
        (metrics, "evm", "metrics.evm", None),
        (metrics, "goodput_and_ber", "metrics.goodput_and_ber", None),
        (metrics, "capacity", "metrics.capacity", None),
        (metrics, "power", "metrics.power", None),
        (metrics, "bits_per_joule", "metrics.bits_per_joule", None),
    ]


def sweep_targets(sm) -> list:
    """The trial targets plus the config load and sweep call around them."""
    return [
        (sm.config, "load_config", "config.load_config", None),
        (sm.runner, "run_sweep", "runner.run_sweep", None),
    ] + trial_targets(sm)


# per-trial self-time metric -> the spans it sums; together they cover every
# span inside a trial, so they add up to the trial time
SELF_MS = {
    "waveform.viterbi_decode.ms": ("waveform.viterbi_decode",),
    "waveform.recover_bits.self_ms": ("waveform.recover_bits",),
    "waveform.build_frame.self_ms": ("waveform.build_frame",),
    "waveform.conv_encode.ms": ("waveform.conv_encode",),
    "channel.ray_trace.ms": ("channel.ray_trace",),
    "channel.rayleigh.ms": ("channel.rayleigh",),
    "channel.apply.ms": ("channel.apply",),
    "channel.with_user_delays.ms": ("channel.with_user_delays",),
    "frontend.capture_switched.self_ms": ("frontend.capture_switched",),
    "frontend.upsample.ms": ("frontend.upsample",),
    "frontend.quantize.ms": ("frontend.quantize",),
    "frontend.capture_physical.ms": ("frontend.capture_physical",),
    "frontend.capture_hybrid.ms": ("frontend.capture_hybrid",),
    "despread.time_despread.ms": ("despread.time_despread",),
    "grouping.inphase_select.ms": ("grouping.inphase_select",),
    "grouping.random_switch_matrix.ms": ("grouping.random_switch_matrix",),
    "equalize.zf_weights.ms": ("equalize.zf_weights",),
    "equalize.nullspace_weights.ms": ("equalize.nullspace_weights",),
    "equalize.estimate_channel.ms": ("equalize.estimate_channel",),
    "equalize.apply_combiner.ms": ("equalize.apply_combiner",),
    "equalize.true_effective_channel.ms": ("equalize.true_effective_channel",),
    "metrics.sinr.ms": ("metrics.sinr",),
    "metrics.other.ms": (
        "metrics.evm",
        "metrics.goodput_and_ber",
        "metrics.capacity",
        "metrics.power",
        "metrics.bits_per_joule",
    ),
    "runner.run_trial.self_ms": ("runner.run_trial",),
}

CAPTURES = ("frontend.capture_switched", "frontend.capture_physical", "frontend.capture_hybrid")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the spans of traced sweeps: ``.ms`` figures are
    mean self time per trial, counts are per trial, ratios are over calls."""
    selfs = self_times(tracer.spans)
    self_s, calls = defaultdict(float), Counter()
    for span, own in zip(tracer.spans, selfs):
        self_s[span.name] += own
        calls[span.name] += 1
    counts = tracer.counts
    trials = max(calls["runner.run_trial"], 1)
    out = {
        metric: 1e3 * sum(self_s[n] for n in names) / trials
        for metric, names in SELF_MS.items()
    }
    out["runner.run_trial.ms"] = 1e3 * sum(tracer.durations("runner.run_trial")) / trials
    out["runner.sweep.overhead_ms"] = 1e3 * self_s["runner.run_sweep"] / trials
    out["config.load_config.ms"] = 1e3 * self_s["config.load_config"] / max(
        calls["config.load_config"], 1
    )
    out["waveform.viterbi_decode.bits"] = counts["waveform.viterbi_decode.bits"] / trials
    out["frontend.upsample.calls"] = calls["frontend.upsample"] / trials
    out["frontend.samples_out"] = sum(counts[n + ".samples"] for n in CAPTURES) / trials
    out["grouping.fallbacks"] = counts["grouping.inphase_select.fallbacks"] / trials
    out["grouping.errors"] = counts["grouping.inphase_select.raised"] / max(
        calls["grouping.inphase_select"], 1
    )
    bins = counts["equalize.zf_weights.bins"] + counts["equalize.nullspace_weights.bins"]
    erased = counts["equalize.zf_weights.erased"] + counts["equalize.nullspace_weights.erased"]
    out["equalize.erased_bin_frac"] = erased / max(bins, 1)
    return out
