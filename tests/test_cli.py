"""Command line front end: subcommand wiring, output files, exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import switchmux
from switchmux import config, runner
from switchmux.cli import main
from switchmux.config import MAX_BANDWIDTH_HZ, MAX_TRIAL_ELEMENTS, config_digest, load_config

SMALL = "users = 2\nantennas = 4\npayload_symbols = 2\ntrials = 2\nseed = 7\n"


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL, encoding="utf-8")
    return path


def test_simulate_writes_csv(tmp_path, config_file, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["simulate", "--config", str(config_file), "--out", str(out)])
    assert rc == 0
    assert "wrote 2 rows" in capsys.readouterr().out
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("trial_id,arch,")
    assert (tmp_path / "rows.csv.manifest.json").exists()


def test_sweep_expands_grid(tmp_path, config_file, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SMALL + "sweep.snr_db = 10, 20\n", encoding="utf-8")
    out = tmp_path / "grid.csv"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert "wrote 4 rows (2 configs)" in capsys.readouterr().out
    assert len(out.read_text(encoding="utf-8").splitlines()) == 5


@pytest.mark.parametrize(
    "seed, expansions", [([], 2), (["--seed", "8"], 3)], ids=["config_seed", "seed_override"]
)
def test_sweep_expands_its_grid_only_to_check_and_run_it(
    tmp_path, capsys, monkeypatch, seed, expansions
):
    # load checks the grid, --seed checks it again, and the run expands it;
    # the printed counts come from the run
    expanded = []
    sweep_combos = config.sweep_combos

    def counted(cfg):
        expanded.append(cfg)
        return sweep_combos(cfg)

    monkeypatch.setattr(config, "sweep_combos", counted)
    monkeypatch.setattr(runner, "sweep_combos", counted)
    path = tmp_path / "grid.cfg"
    path.write_text(SMALL + "sweep.snr_db = 10, 20\n", encoding="utf-8")
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)] + seed) == 0
    assert capsys.readouterr().out == f"wrote 4 rows (2 configs) to {out}\n"
    assert len(expanded) == expansions


def test_simulate_writes_the_base_combo_of_a_grid(tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text(SMALL + "sweep.snr_db = 0, 10, 20\n", encoding="utf-8")
    base = tmp_path / "base.cfg"
    base.write_text(SMALL, encoding="utf-8")
    simulated, swept = tmp_path / "simulated.csv", tmp_path / "swept.csv"
    assert main(["simulate", "--config", str(grid), "--out", str(simulated)]) == 0
    assert main(["sweep", "--config", str(base), "--out", str(swept)]) == 0
    assert simulated.read_bytes() == swept.read_bytes()
    # the manifest describes the rows beside it, not the grid they came from
    manifest = json.loads(Path(str(simulated) + ".manifest.json").read_text(encoding="utf-8"))
    cfg = load_config(str(grid))
    assert manifest["config_sha256"] == config_digest(replace(cfg, sweep=()))
    assert manifest["config_sha256"] != config_digest(cfg)
    assert (manifest["rows"], manifest["combos"]) == (2, 1)


def test_seed_override_changes_rows(tmp_path, config_file):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(config_file), "--out", str(a)]) == 0
    assert main(
        ["simulate", "--config", str(config_file), "--out", str(b), "--seed", "8"]
    ) == 0
    assert a.read_bytes() != b.read_bytes()


def test_missing_config_exits_1(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_config_directory_exits_1(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_non_utf8_config_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(SMALL.encode("utf-8") + b"# caf\xe9\n")
    assert main(["simulate", "--config", str(path)]) == 1
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_unwritable_out_path_exits_1_before_any_trial(tmp_path, config_file, capsys, monkeypatch):
    calls = []
    trial = runner.run_trial
    monkeypatch.setattr(runner, "run_trial", lambda *a: calls.append(a) or trial(*a))
    blocker = tmp_path / "plain.txt"
    blocker.write_text("", encoding="utf-8")
    rc = main(["simulate", "--config", str(config_file), "--out", str(blocker / "rows.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


def test_out_path_naming_a_directory_exits_1_before_any_trial(
    tmp_path, config_file, capsys, monkeypatch
):
    calls = []
    trial = runner.run_trial
    monkeypatch.setattr(runner, "run_trial", lambda *a: calls.append(a) or trial(*a))
    rc = main(["simulate", "--config", str(config_file), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
    assert calls == []


def test_manifest_path_naming_a_directory_exits_1_and_keeps_the_csv(
    tmp_path, config_file, capsys, monkeypatch
):
    calls = []
    trial = runner.run_trial
    monkeypatch.setattr(runner, "run_trial", lambda *a: calls.append(a) or trial(*a))
    out = tmp_path / "rows.csv"
    out.write_text("old rows\n", encoding="utf-8")
    (tmp_path / "rows.csv.manifest.json").mkdir()
    rc = main(["simulate", "--config", str(config_file), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
    assert calls == []
    assert out.read_text(encoding="utf-8") == "old rows\n"


def test_bad_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL + "no_such_key = 1\n", encoding="utf-8")
    rc = main(["simulate", "--config", str(path)])
    assert rc == 1
    assert "no_such_key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("snr_db = nan", "snr_db: expected a finite number, got 'nan'"),
        ("users = four", "users: expected an integer, got 'four'"),
        ("sweep.antennas = 4, x", "sweep.antennas: expected an integer, got 'x'"),
        ("scene.user0_x_m = q", "scene.user0_x_m: expected a number, got 'q'"),
    ],
    ids=["nan", "word_for_int", "sweep_list", "user_position"],
)
def test_bad_value_error_names_its_key(tmp_path, capsys, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, keys",
    [
        ("users = 2\nantennas = 99999999999\n", "users x antennas"),
        (
            "payload_symbols = 99999999999\n",
            "antennas x (users x ofdm.lts_repeats + payload_symbols)",
        ),
    ],
    ids=["antennas", "payload_symbols"],
)
def test_trial_too_large_to_hold_exits_1(tmp_path, capsys, text, keys):
    path = tmp_path / "big.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {keys} is too large")
    assert "Traceback" not in err
    assert not out.exists()


def test_codes_table(capsys):
    assert main(["codes", "--slots", "4"]) == 0
    out = capsys.readouterr().out
    assert "code 1: 0100" in out
    assert "identity control word: 1248" in out
    assert "-270.0" in out


def test_power_table(capsys):
    assert main(["power"]) == 0
    out = capsys.readouterr().out
    lines = {line.split()[0]: line for line in out.splitlines()[1:]}
    assert lines["switched"].split()[-1] == "762.0"
    assert lines["dbf"].split()[-1] == "4064.0"
    assert lines["fdma"].split()[-1] == "754.0"
    # the hybrid row is named for the arch it prices
    assert list(lines) == ["switched", "dbf", "hbf_full", "fdma"]


def test_power_table_at_the_largest_arguments(capsys):
    # fdma's chain samples users x bandwidth, which stays finite at the bounds
    argv = ["power", "--users", str(MAX_TRIAL_ELEMENTS), "--antennas", str(MAX_TRIAL_ELEMENTS)]
    assert main(argv + ["--bandwidth-hz", str(MAX_BANDWIDTH_HZ)]) == 0
    out = capsys.readouterr().out.lower()
    assert "inf" not in out and "nan" not in out


def test_power_table_columns_stay_apart(capsys):
    # wide counts and figures widen their columns instead of running together
    assert main(["power", "--users", str(MAX_TRIAL_ELEMENTS), "--bandwidth-hz", "1e12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all(len(line.split()) == 7 for line in lines)
    assert lines[1].split()[:3] == ["switched", "8", str(MAX_TRIAL_ELEMENTS)]


def test_validate_quick_passes(capsys):
    assert main(["validate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_module_entry_point():
    # the child finds the package where this process imported it from
    src = str(Path(switchmux.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "switchmux.cli", "codes", "--slots", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "code 1: 01" in proc.stdout


@pytest.mark.parametrize("arch", ["hbf_full", "hbf_partial"])
def test_hbf_with_more_chains_than_users_exits_1_before_any_trial(
    tmp_path, capsys, monkeypatch, arch
):
    calls = []
    monkeypatch.setattr(runner, "run_trial", lambda *a: calls.append(a))
    path = tmp_path / "hbf.cfg"
    path.write_text(
        f"arch = {arch}\nusers = 2\nantennas = 8\nchains = 4\ntrials = 1\n", encoding="utf-8"
    )
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "rows.csv")]) == 1
    err = capsys.readouterr().err
    # the chain count follows from the architecture, so no key sets it
    assert err == "error: unknown key 'chains'\n"
    assert calls == []


@pytest.mark.parametrize(
    "line, message",
    [
        ("rayleigh.taps = 18", "rayleigh.taps must be >= 1 and <= 17"),
        ("frontend.quantizer_bits = 54", "frontend.quantizer_bits must be >= 0 and <= 53"),
        ("frontend.quantizer_bits = 1100", "frontend.quantizer_bits must be >= 0 and <= 53"),
        ("snr_db = 4000", "snr_db must be >= -300 and <= 300"),
        ("snr_db = -4000", "snr_db must be >= -300 and <= 300"),
        ("snr_db = 301", "snr_db must be >= -300 and <= 300"),
        ("snr_db = -301", "snr_db must be >= -300 and <= 300"),
        ("sync.max_offset_samples = 16.5", "sync.max_offset_samples must be >= 0 and <= 16"),
        ("sync.max_offset_samples = 1000", "sync.max_offset_samples must be >= 0 and <= 16"),
    ],
    ids=[
        "taps_18", "quantizer_bits_54", "quantizer_bits_1100", "snr_4000", "snr_minus_4000",
        "snr_301", "snr_minus_301", "offset_16.5", "offset_1000",
    ],
)
def test_out_of_range_taps_or_quantizer_exits_1_before_any_trial(
    tmp_path, capsys, monkeypatch, line, message
):
    # past these bounds the channel would lose its tail or leak past the
    # cyclic prefix, a user's delay would leak past it and fold modulo the
    # FFT size, and the quantizer step or the noise power would overflow
    # mid-sweep
    calls = []
    monkeypatch.setattr(runner, "run_trial", lambda *a: calls.append(a))
    path = tmp_path / "run.cfg"
    path.write_text(SMALL + line + "\n", encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ("combiner = nullspace\nsweep.arch = switched, dbf\n", "nullspace"),
        ("users = 2\nsweep.chains = 2, 4\nsweep.arch = hbf_full\n", "unknown key 'sweep.chains'"),
        ("users = 4\nsweep.antennas = 2, 8\n", "antenna per user"),
        ("scenario = raytrace\nscene.room_x_m = 1.5\n", "scene.room_x_m must be >= 2"),
        ("scenario = raytrace\nscene.ap_y_m = 9\n", "scene.ap_x_m/ap_y_m must lie"),
        ("scenario = raytrace\nsweep.antennas = 8, 400\n", "array of 400 antennas"),
        ("sweep.antennas = ,\n", "sweep.antennas needs at least one value"),
        (
            "scenario = raytrace\nusers = 1\nscene.user0_x_m = 6.0\nscene.user0_y_m = 0.5\n"
            "sweep.antennas = 2, 1\n",
            "scene.user0_x_m/y_m must keep",
        ),
        ("sweep.antennas = 8, 99999999999\n", "users x antennas is too large"),
    ],
    ids=[
        "nullspace_with_dbf", "hbf_chains_above_users", "fewer_antennas_than_users",
        "narrow_room", "ap_outside_room", "array_outside_room", "empty_sweep_list",
        "user_on_an_antenna", "oversized_combo",
    ],
)
def test_invalid_sweep_combo_exits_1_before_writing(tmp_path, capsys, grid, message):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("payload_symbols = 1\ntrials = 1\n" + grid, encoding="utf-8")
    out = tmp_path / "grid.csv"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_invalid_sweep_combo_error_names_its_swept_values(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("users = 4\nsweep.antennas = 2, 4, 8\n", encoding="utf-8")
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: sweep combo antennas = 2: need at least one antenna per user\n"
    assert not out.exists()


# grids whose every combo runs, though their base values fail, each with
# the fault of its base and a valid base for the same combos
UNRUN_BASE_GRIDS = [
    (
        "arch = hbf_partial\nusers = {}\nantennas = 8\nsweep.users = 2, 4\n",
        (3, 2),
        "hbf_partial needs antennas divisible by users",
    ),
    ("users = 4\nantennas = {}\nsweep.antennas = 4, 8\n", (2, 4), "need at least one antenna per user"),
]


@pytest.mark.parametrize("grid, bases, fault", UNRUN_BASE_GRIDS, ids=["users", "antennas"])
@pytest.mark.parametrize("seed", [[], ["--seed", "8"]], ids=["config_seed", "seed_override"])
def test_grid_runs_when_every_combo_does(tmp_path, capsys, grid, bases, fault, seed):
    for name, base in zip(("grid", "same"), bases):
        path = tmp_path / f"{name}.cfg"
        path.write_text("payload_symbols = 1\ntrials = 2\n" + grid.format(base), encoding="utf-8")
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)] + seed) == 0
        assert capsys.readouterr().out == f"wrote 4 rows (2 configs) to {out}\n"
    # the base value no combo runs changes no row
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "same.csv").read_bytes()


@pytest.mark.parametrize("grid, bases, fault", UNRUN_BASE_GRIDS, ids=["users", "antennas"])
def test_simulate_checks_the_base_it_runs(tmp_path, capsys, monkeypatch, grid, bases, fault):
    calls = []
    monkeypatch.setattr(runner, "run_trial", lambda *a: calls.append(a))
    path = tmp_path / "grid.cfg"
    path.write_text("payload_symbols = 1\ntrials = 1\n" + grid.format(bases[0]), encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {fault}\n"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    ["snr_db = 300", "snr_db = -300", "sync.max_offset_samples = 16"],
    ids=["snr_300", "snr_minus_300", "offset_16"],
)
def test_snr_and_offset_at_their_bounds_run(tmp_path, capsys, line):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL + "sync_mode = offset\n" + line + "\n", encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert "wrote 2 rows" in capsys.readouterr().out
    assert len(out.read_text(encoding="utf-8").splitlines()) == 3


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_nonpositive_workers_exit_1(tmp_path, config_file, capsys, workers):
    out = tmp_path / "rows.csv"
    rc = main(["simulate", "--config", str(config_file), "--out", str(out), "--workers", workers])
    assert rc == 1
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_exits_1(tmp_path, config_file, capsys, seed):
    out = tmp_path / "rows.csv"
    rc = main(["simulate", "--config", str(config_file), "--out", str(out), "--seed", seed])
    assert rc == 1
    assert "error: seed must fit in 64 bits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["codes", "--slots", "0"], "--slots must be >= 1"),
        (["power", "--antennas", "0"], "--antennas and --users must be >= 1"),
        (["power", "--users", "0"], "--antennas and --users must be >= 1"),
        (["power", "--bandwidth-hz", "-1"], "--bandwidth-hz positive"),
        (["codes", "--slots", "10000000"], "--slots must be >= 1 with a square <="),
        (["power", "--bandwidth-hz", "inf"], "--bandwidth-hz positive and finite"),
        (
            ["power", "--users", "1" + "0" * 400],
            f"error: --antennas and --users must be >= 1 and <= {MAX_TRIAL_ELEMENTS}",
        ),
        (
            ["power", "--antennas", str(10**20)],
            f"error: --antennas and --users must be >= 1 and <= {MAX_TRIAL_ELEMENTS}",
        ),
        (
            ["power", "--users", str(MAX_TRIAL_ELEMENTS), "--bandwidth-hz", "1e305"],
            f"--bandwidth-hz positive and finite, <= {MAX_BANDWIDTH_HZ:g}",
        ),
        (
            ["power", "--bandwidth-hz", "1e300"],
            f"--bandwidth-hz positive and finite, <= {MAX_BANDWIDTH_HZ:g}",
        ),
    ],
    ids=[
        "zero_slots", "zero_antennas", "zero_users", "negative_bandwidth", "huge_slots",
        "infinite_bandwidth", "huge_users", "huge_antennas", "infinite_fdma_bandwidth",
        "huge_bandwidth",
    ],
)
def test_bad_table_arguments_exit_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
