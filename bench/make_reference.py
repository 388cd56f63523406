"""Write each workload's reference rows at the default seed.

    python3 bench/make_reference.py

The benchmark counts every row that differs from these files as a failed
trial, so write them only from the commit whose rows are the reference.
"""

import shutil
import sys

from run import BENCH_DIR, DEFAULT_SEED, ROOT, WORKLOADS, config_text

sys.path.insert(0, str(ROOT / "src"))

from switchmux import config, runner  # noqa: E402


def main() -> None:
    work = ROOT / ".bench_build" / "switchmux-bench" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            cfg_path = work / f"{name}.cfg"
            cfg_path.write_text(config_text(name, DEFAULT_SEED), encoding="utf-8")
            out = work / f"{name}.csv"
            runner.run_sweep(config.load_config(str(cfg_path)), str(out), workers=1)
            shutil.copyfile(out, BENCH_DIR / "reference" / f"{name}.csv")
            print(f"wrote reference/{name}.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
