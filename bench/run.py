"""Benchmark of switchmux sweeps: trial throughput, latency and set-up time.

    python3 bench/run.py --workload decode_heavy --seed 1 --seconds 20 --trace 0

Each workload is a config file.  It is loaded with ``config.load_config`` and
run through ``runner.run_sweep``, the path ``switchmux sweep`` takes, again and
again for ``--seconds``; ``--seed`` becomes the config's ``seed``.  One line is
printed per metric, and the last line is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` gives the end-to-end metrics, with nothing but a timer around
``runner.run_trial``.  The host is shared and its speed drifts, so every
end-to-end time is brought to reference host speed with ``hostspeed``: each
sweep is scaled by the probes taken just before and after it, on one core for a
1-worker sweep and on both for a 2-worker one, and each set-up by a probe in its
own interpreter.  The raw figures and the host factors are printed and saved
alongside.  ``parallel_speedup`` is the median ratio of a 1-worker and a
2-worker sweep run one after the other, unscaled: the drift mostly cancels in
it, and scaling would take out the slowdown the second worker meets.

``--trace 1`` alternates sweeps traced by ``tracing.Tracer`` with untraced
ones, all at one worker, and gives per-layer self times and counts plus both
throughputs, so the tracing overhead shows.  These times are not scaled.

Every sweep's CSV must equal the expected rows.  At the default seed these are
the stored reference rows (``reference/<workload>.csv``, written by
``make_reference.py``); at another seed they are the rows of the run's first
sweep, so 1 and 2 workers must give identical bytes, and the default seed is
also run once, untimed, against the reference rows.  A trial fails when its row
differs or its sweep raises.  The exit code is 1 when any trial failed or a
check did not hold, and 2 when the switchmux sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
PARALLEL_WORKERS = 2
SETUP_PROBES = 9


@dataclass(frozen=True)
class Workload:
    config: str  # config file text, less the seed line
    workers: int  # worker count trials_per_s is taken at


WORKLOADS = {
    # decode and per-bin ZF dominate; ray tracer, K*B capture and pool idle
    "decode_heavy": Workload(
        "users = 4\nantennas = 8\nscenario = rayleigh\npayload_symbols = 4\n"
        "sweep.arch = switched, fdma\ntrials = 10\n",
        workers=1,
    ),
    # large_array_ordering traffic: ray tracing, channel.apply and all three
    # front ends at M=64, each arch using the frontend layer differently
    "large_room": Workload(
        "users = 8\nantennas = 64\nscenario = raytrace\npayload_symbols = 2\n"
        "sweep.arch = switched, dbf, hbf_full, hbf_partial\ntrials = 3\n",
        workers=1,
    ),
    # the only pool and multi-combo workload; null-space combining, random
    # selection, per-user delays and the quantized K*B capture
    "grid_parallel": Workload(
        "users = 4\nantennas = 8\nscenario = raytrace\npayload_symbols = 2\n"
        "combiner = nullspace\nsync_mode = offset\nfrontend.quantizer_bits = 8\n"
        "sweep.select = grouped, random, identity\nsweep.snr_db = 5, 15, 25\n"
        "trials = 3\n",
        workers=PARALLEL_WORKERS,
    ),
}

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "parallel_speedup": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def config_text(workload: str, seed: int) -> str:
    return WORKLOADS[workload].config + f"seed = {seed}\n"


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith("trials_per_s"):
        return "1/s"
    if metric.endswith(("_frac", ".errors")):
        return "frac"
    return "count"


def percentile(values, q: float) -> tuple:
    """Nearest-rank ``q``-th percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def failed_trials(text, expected, trials: int) -> int:
    """Trials of one sweep that count as failed: all of them when the sweep
    raised (``text`` is None), else every row, missing or extra rows
    included, that differs from ``expected``."""
    if text is None:
        return trials
    got, want = text.splitlines(), expected.splitlines()
    if got[:1] != want[:1]:
        return trials
    differing = sum(a != b for a, b in zip(got[1:], want[1:]))
    return min(trials, differing + abs(len(got) - len(want)))


class Run:
    """One benchmark run: its sweeps, their row checks and scratch files."""

    def __init__(self, sm, workload: str, seed: int, work: Path) -> None:
        self.sm = sm
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.cfg_path = self._write_config(workload, seed)
        self.reference = (BENCH_DIR / "reference" / f"{workload}.csv").read_text(
            encoding="utf-8"
        )
        self.reference_cfg = self._write_config(workload, DEFAULT_SEED)
        self.expected = self.reference if seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []  # checks other than rows that did not hold

    def _write_config(self, workload: str, seed: int) -> Path:
        path = self.work / f"seed{seed}.cfg"
        path.write_text(config_text(workload, seed), encoding="utf-8")
        return path

    def trials(self, cfg) -> int:
        return sum(c.trials for c in self.sm.runner.sweep_combos(cfg))

    def sweep(self, cfg, workers: int, expected=None):
        """One sweep, checked against ``expected`` (the run's expected rows
        when None); returns its wall time, or None when it raised."""
        runner = self.sm.runner
        trials = self.trials(cfg)
        out = self.work / "rows.csv"
        start = time.perf_counter()
        try:
            runner.run_sweep(cfg, str(out), workers=workers)
            wall = time.perf_counter() - start
            text = out.read_text(encoding="utf-8")
        except Exception:
            traceback.print_exc(file=sys.stderr)
            wall, text = None, None
        if expected is None:
            if self.expected is None:
                self.expected = text
            expected = self.expected
        self.attempted += trials
        self.failed += failed_trials(text, expected, trials)
        return wall

    def check_reference(self, workers: int) -> None:
        """Run the default seed once, untimed, against the reference rows."""
        if self.seed != DEFAULT_SEED:
            cfg = self.sm.config.load_config(str(self.reference_cfg))
            self.sweep(cfg, workers, expected=self.reference)

    def csv_sha256(self) -> str:
        return hashlib.sha256((self.expected or "").encode("utf-8")).hexdigest()


def setup_seconds(cfg_path: Path) -> tuple:
    """Set-up seconds of one fresh interpreter, raw and at reference speed."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(cfg_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    setup, probe = (float(x) for x in done.stdout.split()[-2:])
    return setup, setup * hostspeed.scale([probe])


def peak_rss_mb(workers: int) -> float:
    """Own peak RSS plus, for each worker that can run at once, the largest
    peak of any child process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def host_probe(workers: int) -> list:
    """Host-speed probe seconds of each core a sweep at ``workers`` keeps busy."""
    return [hostspeed.probe()] if workers == 1 else list(hostspeed.probe_pair())


def host_scale(probes, workers: int) -> float:
    reference = hostspeed.REFERENCE_S if workers == 1 else hostspeed.REFERENCE_PAIR_S
    return hostspeed.scale(probes, reference)


def end_to_end(run: Run, seconds: float) -> tuple:
    sm = run.sm
    setup_raw, setup = zip(*(setup_seconds(run.cfg_path) for _ in range(SETUP_PROBES)))
    run.check_reference(run.workload.workers)
    cfg = sm.config.load_config(str(run.cfg_path))
    trials = run.trials(cfg)
    timer_targets = [(sm.runner, "run_trial", "runner.run_trial", None)]
    walls: dict = {1: [], PARALLEL_WORKERS: []}  # at reference host speed
    raw_walls: dict = {1: [], PARALLEL_WORKERS: []}
    trial_ms: dict = {}  # a trial's place in the sweep -> its latencies
    speedups: list = []  # per round, the 1-worker over the 2-worker wall
    probes: dict = {1: [], PARALLEL_WORKERS: []}  # seconds, per busy core
    order = [1, PARALLEL_WORKERS]  # the first sweep, at 1 worker, sets the rows
    deadline = time.perf_counter() + seconds
    while True:
        round_walls = {}
        for workers in order:
            before = host_probe(workers)
            timer = tracing.Tracer()
            with timer.installed(timer_targets if workers == 1 else []):
                wall = run.sweep(cfg, workers)
            after = host_probe(workers)
            probes[workers] += before + after
            factor = host_scale(before + after, workers)
            for place, d in enumerate(timer.durations("runner.run_trial")):
                trial_ms.setdefault(place, []).append(1e3 * d * factor)
            if wall is not None:
                walls[workers].append(wall * factor)
                raw_walls[workers].append(wall)
                round_walls[workers] = wall
        if len(round_walls) == 2:
            speedups.append(round_walls[1] / round_walls[PARALLEL_WORKERS])
        order.reverse()
        if time.perf_counter() >= deadline:
            break
    if not speedups or not trial_ms:
        raise RuntimeError("no sweep completed")
    tps_walls = walls[run.workload.workers]
    # each trial's latency is its median over the sweeps, so the percentiles
    # rank the workload's trials and not the host's bursts
    latencies = [statistics.median(v) for v in trial_ms.values()]
    repeats = min(len(v) for v in trial_ms.values())
    p50, above50 = percentile(latencies, 50)
    p90, above90 = percentile(latencies, 90)
    metrics = {
        "trials_per_s": trials / statistics.median(tps_walls),
        "trial_ms_p50": p50,
        "trial_ms_p90": p90,
        "parallel_speedup": statistics.median(speedups),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(PARALLEL_WORKERS),
    }
    raw = {
        "trials_per_s": trials / statistics.median(raw_walls[run.workload.workers]),
        "setup_s": statistics.median(setup_raw),
        "host_factor": statistics.median(host_scale([p], 1) for p in probes[1]),
        "host_factor_2": statistics.median(
            host_scale([p], PARALLEL_WORKERS) for p in probes[PARALLEL_WORKERS]
        ),
    }
    samples = {
        "trials_per_s": f"median of {len(tps_walls)} sweeps of {trials} trials "
        f"at {run.workload.workers} worker(s), at reference host speed",
        "trial_ms_p50": f"{len(latencies)} trials, {above50} above, each the median "
        f"of {repeats}+ sweeps, so {above50 * repeats}+ timings above",
        "trial_ms_p90": f"{len(latencies)} trials, {above90} above, each the median "
        f"of {repeats}+ sweeps, so {above90 * repeats}+ timings above",
        "parallel_speedup": f"median of {len(speedups)} rounds of one sweep at 1 worker "
        f"and one at {PARALLEL_WORKERS}",
        "setup_s": f"median of {len(setup)} fresh interpreters, at reference host speed",
        "peak_rss_mb": f"own peak + {PARALLEL_WORKERS} x largest child peak",
    }
    return metrics, samples, raw


def traced(run: Run, seconds: float, spans_path: Path) -> tuple:
    sm = run.sm
    targets = tracing.sweep_targets(sm)
    originals = [getattr(owner, attr) for owner, attr, _, _ in targets]

    def restored() -> None:
        lost = tracing.not_restored(targets, originals)
        if lost:
            run.problems.append("not restored after tracing: " + ", ".join(lost))

    with tracing.Tracer().installed(targets):
        run.check_reference(1)
    restored()
    trials = run.trials(sm.config.load_config(str(run.cfg_path)))
    tracer = tracing.Tracer()
    walls: dict = {True: [], False: []}
    order = [True, False]
    deadline = time.perf_counter() + seconds
    while True:
        for on in order:
            if on:
                with tracer.installed(targets):
                    cfg = sm.config.load_config(str(run.cfg_path))
                    wall = run.sweep(cfg, 1)
                restored()
            else:
                cfg = sm.config.load_config(str(run.cfg_path))
                wall = run.sweep(cfg, 1)
            if wall is not None:
                walls[on].append(wall)
        order.reverse()
        if time.perf_counter() >= deadline:
            break
    if not all(walls.values()):
        raise RuntimeError("no sweep completed")
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer)
    accounted = sum(metrics[m] for m in tracing.SELF_MS)
    if not math.isclose(accounted, metrics["runner.run_trial.ms"], rel_tol=1e-9):
        run.problems.append(
            f"layer self times sum to {accounted} ms of {metrics['runner.run_trial.ms']} ms"
        )
    metrics["trace.traced_trials_per_s"] = trials / statistics.median(walls[True])
    metrics["trace.untraced_trials_per_s"] = trials / statistics.median(walls[False])
    n = len(tracer.durations("runner.run_trial"))
    samples = {m: f"{n} traced trials" for m in metrics}
    samples["runner.sweep.overhead_ms"] = f"{len(walls[True])} traced sweeps, {n} trials"
    samples["config.load_config.ms"] = f"{len(walls[True])} loads"
    samples["trace.traced_trials_per_s"] = f"median of {len(walls[True])} sweeps"
    samples["trace.untraced_trials_per_s"] = f"median of {len(walls[False])} sweeps"
    return metrics, samples, {}


def git_commit() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    return head


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(sm, workers: int) -> dict:
    import numpy

    sources = sorted((ROOT / "src" / "switchmux").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "src_sha256": digest,
        "switchmux": sm.__version__,
        "workers": workers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")

    src = ROOT / "src"
    if not (src / "switchmux" / "__init__.py").is_file():
        print(f"error: no switchmux sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import switchmux

    results = ROOT / ".bench_build" / "switchmux-bench"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = results / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(switchmux, args.workload, args.seed, work)
        if args.trace:
            metrics, samples, raw = traced(run, args.seconds, results / f"{stem}.spans.jsonl")
        else:
            metrics, samples, raw = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    workers = 1 if args.trace else PARALLEL_WORKERS
    correct = run.failed == 0 and not run.problems
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(switchmux, workers),
        "csv_sha256": run.csv_sha256(),
        "attempted": run.attempted,
        "failed": run.failed,
        "error_frac": run.failed / max(run.attempted, 1),
        "problems": run.problems,
        "metrics": {
            m: {"value": v, "unit": unit_of(m), "samples": samples[m]} for m, v in metrics.items()
        },
        "raw": raw,
    }
    (results / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print(f"csv_sha256 {report['csv_sha256']} (seed {args.seed})")
    for metric, value in metrics.items():
        print(f"{metric} = {value:.6g} {unit_of(metric)} ({samples[metric]})")
    for metric, value in raw.items():
        if metric.startswith("host_factor"):
            print(f"{metric} = {value:.6g} (median scale of the run's host-speed probes)")
        else:
            print(f"raw {metric} = {value:.6g} {unit_of(metric)} (as timed, before scaling)")
    if args.trace:
        lost = 1 - metrics["trace.traced_trials_per_s"] / metrics["trace.untraced_trials_per_s"]
        print(f"tracing overhead = {100 * lost:.3g} % of untraced trials_per_s")
    print(f"error_frac = {report['error_frac']:.6g} ({run.failed} of {run.attempted} trials)")
    for problem in run.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
