"""Thin command line front end over the simulator library.

Subcommands map one-to-one onto library calls: `simulate` runs a single
config, `sweep` expands its grid keys, `codes` and `power` print the
closed-form tables, and `validate` runs the self-check suite.  Exit codes:
0 success, 1 bad config, bad option value or a file that cannot be read or
written, 2 validation failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import codes as codes_mod
from . import metrics, runner
from .config import (
    MAX_BANDWIDTH_HZ,
    MAX_TRIAL_ELEMENTS,
    ConfigError,
    ExperimentConfig,
    load_config,
    with_overrides,
)
from .frontend import control_word


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = with_overrides(cfg, seed=args.seed)
    return cfg


def _out_path(args, cfg) -> str:
    return args.out or cfg.out or "results.csv"


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    out = _out_path(args, cfg)
    # the base combo alone, checked as it runs, so the manifest's digest
    # describes these rows
    rows, _ = runner.run_sweep(with_overrides(cfg, sweep=()), out, workers=args.workers)
    print(f"wrote {rows} rows to {out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    out = _out_path(args, cfg)
    rows, combos = runner.run_sweep(cfg, out, workers=args.workers)
    print(f"wrote {rows} rows ({combos} configs) to {out}")
    return 0


def _cmd_codes(args) -> int:
    K = args.slots
    # the code and phase tables hold K x K entries; bound them like a trial's arrays
    if K < 1 or K * K > MAX_TRIAL_ELEMENTS:
        raise ConfigError(f"--slots must be >= 1 with a square <= {MAX_TRIAL_ELEMENTS}, got {K}")
    all_codes = codes_mod.generate_codes(K)
    print(f"switching codes, {K} slots per period")
    for i, code in enumerate(all_codes):
        pattern = "".join(str(b) for b in code)
        print(f"  code {i}: {pattern}")
    print(f"identity control word: {control_word(all_codes)}")
    print("harmonic phases (degrees), rows = code, cols = harmonic m*B")
    header = "".join(f"{f'm={m}':>10}" for m in range(K))
    print("  " + header)
    deg = np.degrees(codes_mod.phase_matrix(K)) % 360
    for i in range(K):
        row = "".join(f"{-d + 0.0:>10.1f}" for d in deg[i])
        print("  " + row)
    return 0


def _cmd_power(args) -> int:
    bw = args.bandwidth_hz
    # bound the counts like a trial's arrays and the bandwidth like a config's;
    # fdma's users x bandwidth is then finite too
    counts_ok = all(1 <= n <= MAX_TRIAL_ELEMENTS for n in (args.antennas, args.users))
    if not (counts_ok and 0 < bw <= MAX_BANDWIDTH_HZ):
        raise ConfigError(
            f"--antennas and --users must be >= 1 and <= {MAX_TRIAL_ELEMENTS}, "
            f"and --bandwidth-hz positive and finite, <= {MAX_BANDWIDTH_HZ:g}"
        )
    table = [("arch", "M", "chains", "rfe_mw", "switch_mw", "adc_mw", "total_mw")]
    # the hybrid row prices hbf_full, whose power equals hbf_partial's; the
    # table needs only each arch's receiver, so its config is not checked
    for arch in ("switched", "dbf", "hbf_full", "fdma"):
        cfg = ExperimentConfig(arch, args.users, args.antennas, bandwidth_hz=bw)
        report = metrics.power(cfg)
        mw = (report.rfe_mw, report.switch_mw, report.adc_mw, report.total_mw)
        # fdma's users share one antenna
        m = 1 if arch == "fdma" else cfg.antennas
        table.append((arch, str(m), str(cfg.chains), *(f"{v:.1f}" for v in mw)))
    # each column keeps its usual width unless a cell needs more, and then
    # takes the widest cell plus one space
    widths = [
        max(width, 1 + max(len(row[c]) for row in table))
        for c, width in enumerate((10, 4, 8, 10, 11, 9, 10))
    ]
    for row in table:
        cells = [row[0].ljust(widths[0])] + [v.rjust(w) for v, w in zip(row[1:], widths[1:])]
        print("".join(cells))
    return 0


def _cmd_validate(args) -> int:
    from . import acceptance

    results = acceptance.run_all(quick=args.quick)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += not res.passed
        print(f"{status} {res.name}: {res.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchmux", description="switched-antenna multi-user receiver simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p):
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    sim = sub.add_parser("simulate", help="run one configuration")
    add_run_args(sim)
    sim.set_defaults(func=_cmd_simulate)

    swp = sub.add_parser("sweep", help="run the config's sweep grid")
    add_run_args(swp)
    swp.set_defaults(func=_cmd_sweep)

    cds = sub.add_parser("codes", help="print switching codes and harmonic phases")
    cds.add_argument("--slots", type=int, default=4, help="slots per switching period")
    cds.set_defaults(func=_cmd_codes)

    pwr = sub.add_parser("power", help="print the receiver power table")
    pwr.add_argument("--antennas", type=int, default=8)
    pwr.add_argument("--users", type=int, default=4)
    pwr.add_argument("--bandwidth-hz", type=float, default=10e6)
    pwr.set_defaults(func=_cmd_power)

    val = sub.add_parser("validate", help="run the acceptance checks")
    val.add_argument(
        "--quick", action="store_true", help="only the fast deterministic checks"
    )
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
