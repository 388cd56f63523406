"""Config parsing, schema validation and resolution tests."""

import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from switchmux import runner
from switchmux.config import (
    CONFIG_KEYS,
    MAX_GRID_TRIALS,
    STAGES,
    ConfigError,
    ExperimentConfig,
    build_config,
    canonical_text,
    config_digest,
    load_config,
    parse_config_text,
    sweep_combos,
    with_overrides,
    _float,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run as bench_run  # noqa: E402


def cfg_from(text):
    return build_config(parse_config_text(text))


class TestParsing:
    def test_defaults_fill_everything(self):
        cfg = cfg_from("")
        assert cfg.arch == "switched"
        assert cfg.users == 4
        assert cfg.antennas == 8
        assert cfg.chains == 4  # one per user
        assert cfg.snr_db == 15.0
        assert cfg.phi_rad == pytest.approx(np.pi / 3)
        assert cfg.sweep == ()

    def test_comments_and_blank_lines_ignored(self):
        cfg = cfg_from("# header\n\nusers = 2  # two of them\n")
        assert cfg.users == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            cfg_from("userz = 4")
        # a leading zero or a non-ASCII digit would name user 0 a second way,
        # and whichever key came last would set the coordinate silently
        for key in ("scene.user00_x_m", "scene.user٠_x_m"):
            with pytest.raises(ConfigError, match=re.escape(f"unknown key '{key}'")):
                cfg_from(f"scene.user0_x_m = 3\n{key} = 5")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            cfg_from("users = 2\nusers = 3")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            cfg_from("users 4")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            cfg_from("users = four")

    def test_bad_choice_rejected(self):
        with pytest.raises(ConfigError, match="one of"):
            cfg_from("arch = analog")

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("users = 3\nantennas = 6\nsnr_db = 12.5\n")
        cfg = load_config(str(path))
        assert (cfg.users, cfg.antennas, cfg.snr_db) == (3, 6, 12.5)


class TestChainResolution:
    def test_switched_chains_track_users(self):
        assert cfg_from("arch = switched\nusers = 3\nantennas = 6").chains == 3

    def test_switched_rejects_other_chain_count(self):
        # the count follows from the architecture, so no key can set it
        with pytest.raises(ConfigError, match="unknown key 'chains'"):
            cfg_from("arch = switched\nusers = 3\nantennas = 6\nchains = 6")

    def test_dbf_defaults_to_all_antennas(self):
        assert cfg_from("arch = dbf\nusers = 4\nantennas = 16").chains == 16

    def test_dbf_bounds_checked(self):
        # a chain per antenna, and at least one antenna per user
        with pytest.raises(ConfigError, match="antenna per user"):
            cfg_from("arch = dbf\nusers = 4\nantennas = 2")

    def test_hbf_defaults_to_users(self):
        assert cfg_from("arch = hbf_full\nusers = 4\nantennas = 16").chains == 4

    @pytest.mark.parametrize("arch", ["hbf_full", "hbf_partial"])
    def test_hbf_rejects_more_chains_than_users(self, arch):
        # each phase-shifter chain is steered at one user, and no key can
        # ask for more
        assert cfg_from(f"arch = {arch}\nusers = 2\nantennas = 8").chains == 2
        with pytest.raises(ConfigError, match="unknown key 'chains'"):
            cfg_from(f"arch = {arch}\nusers = 2\nantennas = 8\nchains = 4")

    def test_hbf_partial_needs_divisible_blocks(self):
        with pytest.raises(ConfigError, match="divisible"):
            cfg_from("arch = hbf_partial\nusers = 3\nantennas = 8")

    def test_fdma_single_chain(self):
        cfg = cfg_from("arch = fdma\nusers = 4\nantennas = 1")
        assert cfg.chains == 1

    def test_nullspace_needs_square_combining(self):
        with pytest.raises(ConfigError, match="nullspace"):
            cfg_from("arch = dbf\nusers = 4\nantennas = 8\ncombiner = nullspace")
        cfg = cfg_from("arch = dbf\nusers = 4\nantennas = 4\ncombiner = nullspace")
        assert cfg.chains == 4

    def test_nullspace_takes_fdma_one_chain_links(self):
        # each fdma user is its own one-chain link, a square channel
        cfg = cfg_from("users = 4\ncombiner = nullspace\nsweep.arch = switched, fdma\n")
        assert [c.chains for c in runner.sweep_combos(cfg)] == [4, 1]


class TestUserPositions:
    def test_full_set_accepted(self):
        cfg = cfg_from(
            "users = 2\nscenario = raytrace\n"
            "scene.user0_x_m = 3.0\nscene.user0_y_m = 4.0\n"
            "scene.user1_x_m = 8.0\nscene.user1_y_m = 4.5\n"
        )
        assert cfg.user_positions == ((3.0, 4.0), (8.0, 4.5))

    def test_partial_set_rejected(self):
        with pytest.raises(ConfigError):
            cfg_from("users = 2\nscene.user0_x_m = 3.0\nscene.user0_y_m = 4.0")

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ConfigError):
            cfg_from(
                "users = 1\nscene.user0_x_m = 1\nscene.user0_y_m = 1\n"
                "scene.user3_x_m = 2\nscene.user3_y_m = 2\n"
            )


class TestCrossValidation:
    def test_more_users_than_antennas_rejected(self):
        with pytest.raises(ConfigError):
            cfg_from("users = 5\nantennas = 4")

    def test_gamma_bounds(self):
        with pytest.raises(ConfigError):
            cfg_from("scene.gamma = 1.0")

    def test_reflection_depth_bounds(self):
        with pytest.raises(ConfigError):
            cfg_from("scene.max_reflections = 3")

    def test_trials_positive(self):
        with pytest.raises(ConfigError):
            cfg_from("trials = 0")

    @pytest.mark.parametrize(
        "text, keys",
        [
            ("users = 2\nantennas = 99999999999\n", "users x antennas"),
            (
                "payload_symbols = 1000000\n",
                "antennas x (users x ofdm.lts_repeats + payload_symbols)",
            ),
            (
                "arch = fdma\nusers = 1000\nantennas = 1\npayload_symbols = 1000\n",
                "users x payload_symbols",
            ),
            # 2000 x 140 x 80 = 22.4M stacked one-user links; every other
            # array fits (a single antenna's frame holds 16.0M samples)
            (
                "arch = fdma\nusers = 2000\nantennas = 1\nofdm.lts_repeats = 100\n"
                "payload_symbols = 40\n",
                "users x (ofdm.lts_repeats + payload_symbols)",
            ),
        ],
        ids=["gains", "received_signal", "fdma_coded_payload", "fdma_stacked_links"],
    )
    def test_trial_arrays_bounded(self, text, keys):
        with pytest.raises(ConfigError, match=re.escape(f"{keys} is too large")):
            cfg_from(text)

    def test_phi_passed_through_to_grouping(self):
        with pytest.raises(ConfigError):
            cfg_from("grouping.phi_rad = 3.2")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("scene.room_x_m = 1.5\n", "scene.room_x_m must be >= 2"),
            ("scene.room_y_m = 1.9\n", "scene.room_y_m must be >= 2"),
            ("scene.ap_y_m = 9\n", "scene.ap_x_m/ap_y_m must lie strictly inside"),
            (
                "users = 1\nscene.user0_x_m = 13\nscene.user0_y_m = 2\n",
                "scene.user0_x_m/y_m must lie strictly inside",
            ),
            ("antennas = 400\n", "array of 400 antennas"),
            (
                "users = 1\nantennas = 1\nscene.user0_x_m = 6.0\nscene.user0_y_m = 0.5\n",
                "scene.user0_x_m/y_m must keep 1e-06 m from every antenna",
            ),
        ],
        ids=[
            "narrow_room", "shallow_room", "ap_outside", "user_outside", "array_too_long",
            "user_on_antenna",
        ],
    )
    def test_raytrace_room_checked(self, text, message):
        with pytest.raises(ConfigError, match=message):
            cfg_from("scenario = raytrace\n" + text)
        cfg_from(text)  # the Rayleigh scenario has no room

    @pytest.mark.parametrize("antennas", [99999999999, 10**30])
    def test_array_far_too_long_is_refused_before_it_is_built(self, antennas):
        # at these sizes ula_positions cannot even allocate the array
        with pytest.raises(ConfigError, match=f"array of {antennas} antennas"):
            cfg_from(f"scenario = raytrace\nantennas = {antennas}\n")

    def test_pinned_users_need_no_drop_margin(self):
        cfg = cfg_from(
            "scenario = raytrace\nusers = 1\nantennas = 1\ntrials = 1\npayload_symbols = 1\n"
            "scene.room_x_m = 1.5\nscene.room_y_m = 1.5\nscene.ap_x_m = 0.75\n"
            "scene.ap_y_m = 0.2\nscene.user0_x_m = 0.75\nscene.user0_y_m = 1.2\n"
        )
        assert np.isfinite(runner.run_trial(cfg, 0)["mean_sinr_db"])


# every key the table parses as a float, its sweep key if it has one, and a
# pinned user coordinate
_FLOATS = [f.metadata for f in fields(ExperimentConfig) if f.metadata.get("parse") is _float]
FLOAT_KEYS = [m["key"] for m in _FLOATS] + ["scene.user0_x_m"]
FLOAT_KEYS += ["sweep." + m["key"] for m in _FLOATS if m["sweep"] is not None]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_floats_rejected(key, value):
    text = f"{key} = {value}\n"
    if key.startswith("sweep."):
        text = f"{key} = 10, {value}\n"
    with pytest.raises(ConfigError, match="expected a finite number"):
        cfg_from(text)


class TestSweepKeys:
    def test_lists_parse(self):
        cfg = cfg_from("sweep.antennas = 4, 6, 8\nsweep.snr_db = 0,10\n")
        assert dict(cfg.sweep)["antennas"] == (4, 6, 8)
        assert dict(cfg.sweep)["snr_db"] == (0.0, 10.0)

    def test_sweep_choice_validated(self):
        with pytest.raises(ConfigError):
            cfg_from("sweep.arch = switched, analog")

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError, match="sweep.antennas needs at least one value"):
            cfg_from("sweep.antennas = ,")


class TestSweepComboValidation:
    # a grid with one invalid combo is refused as it loads, by build_config
    def test_nullspace_rejects_a_non_square_combo(self):
        cfg = cfg_from("combiner = nullspace\nsweep.arch = switched\n")
        assert [c.chains for c in runner.sweep_combos(cfg)] == [4]
        with pytest.raises(ConfigError, match="nullspace"):
            cfg_from("combiner = nullspace\nsweep.arch = switched, dbf\n")

    def test_too_few_antennas_rejected(self):
        cfg = cfg_from("users = 4\nsweep.antennas = 8\n")
        assert [c.antennas for c in runner.sweep_combos(cfg)] == [8]
        with pytest.raises(ConfigError, match="antenna per user"):
            cfg_from("users = 4\nsweep.antennas = 2, 8\n")

    def test_combo_error_names_its_swept_values(self):
        # the grid's keys in grid order, each with the combo's value; a
        # config without a grid keeps the bare message
        message = "need at least one antenna per user"
        named = f"^sweep combo arch = switched, antennas = 2: {message}$"
        with pytest.raises(ConfigError, match=named):
            cfg_from("users = 4\nsweep.arch = switched, fdma\nsweep.antennas = 2, 8\n")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            cfg_from("users = 4\nantennas = 2\n")

    def test_oversized_combo_rejected(self):
        with pytest.raises(ConfigError, match="users x antennas is too large"):
            cfg_from("sweep.antennas = 8, 99999999999\n")

    def test_pinned_positions_must_match_user_count(self):
        pinned = "users = 1\nscene.user0_x_m = 3.0\nscene.user0_y_m = 2.0\n"
        assert cfg_from(pinned + "sweep.users = 1\n").users == 1
        with pytest.raises(ConfigError, match="cover users"):
            cfg_from(pinned + "sweep.users = 1, 2\n")

    @pytest.mark.parametrize(
        "text, chains",
        [
            ("arch = dbf\nsweep.chains = 4\nsweep.antennas = 8, 16\n", None),
            ("sweep.chains = 4\nsweep.arch = switched, dbf, hbf_full\n", None),
            ("arch = dbf\nsweep.antennas = 8, 16\n", [8, 16]),
            ("arch = dbf\nchains = 0\nsweep.antennas = 8, 16\n", None),
            ("arch = dbf\nchains = 4\nsweep.antennas = 8, 16\n", None),
            ("arch = dbf\nchains = 4\nsweep.chains = 4, 6\n", None),
        ],
        ids=[
            "pinned_across_antennas", "pinned_across_arch", "unset", "zero_is_unset",
            "set_resolves_per_combo", "swept",
        ],
    )
    def test_combo_chains(self, text, chains):
        # every combo derives its chain count from arch, users and antennas;
        # a text that sets chains in any form (None here) is refused
        if chains is None:
            with pytest.raises(ConfigError, match="unknown key '(sweep.)?chains'"):
                cfg_from(text)
        else:
            assert [c.chains for c in runner.sweep_combos(cfg_from(text))] == chains

    @pytest.mark.parametrize(
        "updates, message",
        [
            ({"seed": -1}, "seed must fit in 64 bits"),
            ({"seed": 2**64}, "seed must fit in 64 bits"),
            ({"trials": 0}, "trials must be >= 1"),
            ({"users": 0}, "users must be >= 1"),
            ({"insertion_loss_db": -1.0}, "frontend.insertion_loss_db must be >= 0"),
            ({"phi_rad": 3.2}, "phi_rad"),
            ({"phi_rad": 0.0}, r"grouping.phi_rad must lie in \(0, pi/2\]"),
            ({"rank_tolerance": 0.0}, r"grouping.rank_tolerance must lie in \(0, 1\)"),
            ({"rank_tolerance": 1.0}, r"grouping.rank_tolerance must lie in \(0, 1\)"),
            ({"max_fallbacks": -1}, "grouping.max_fallbacks must be >= 0"),
            ({"quantizer_bits": -1}, "frontend.quantizer_bits must be >= 0"),
            ({"quantizer_bits": 54}, "frontend.quantizer_bits must be >= 0 and <= 53"),
            ({"rayleigh_taps": 0}, "rayleigh.taps must be >= 1"),
            ({"rayleigh_taps": 18}, "rayleigh.taps must be >= 1 and <= 17"),
            ({"bandwidth_hz": 0.0}, "ofdm.bandwidth_hz must be positive"),
            ({"bandwidth_hz": 1e300}, r"ofdm.bandwidth_hz must be positive and <= 1e\+12"),
            ({"snr_db": 301.0}, "snr_db must be >= -300 and <= 300"),
            ({"snr_db": -301.0}, "snr_db must be >= -300 and <= 300"),
            ({"sync_max_offset_samples": -0.5}, "sync.max_offset_samples must be >= 0"),
            ({"sync_max_offset_samples": 16.5}, "sync.max_offset_samples must be >= 0 and <= 16"),
        ],
        ids=[
            "negative_seed", "seed_2_64", "zero_trials", "zero_users", "negative_loss", "wide_phi",
            "zero_phi", "zero_rank_tolerance", "unit_rank_tolerance",
            "negative_fallbacks", "negative_quantizer_bits",
            "quantizer_bits_past_float64", "zero_taps", "taps_past_cyclic_prefix",
            "zero_bandwidth", "huge_bandwidth", "snr_301", "snr_minus_301", "negative_offset",
            "offset_past_cyclic_prefix",
        ],
    )
    def test_overrides_run_the_per_key_checks(self, updates, message):
        with pytest.raises(ConfigError, match=message):
            with_overrides(cfg_from(""), **updates)


# grids whose base values no combo runs, and which the base alone fails
UNRUN_BASE_GRIDS = [
    ("arch = hbf_partial\nusers = 3\nantennas = 8\nsweep.users = 2, 4\n", "divisible"),
    ("users = 4\nantennas = 2\nsweep.antennas = 4, 8\n", "antenna per user"),
]


class TestOneRule:
    """A config is valid when every combo its grid runs passes every check."""

    @pytest.mark.parametrize("text, fault", UNRUN_BASE_GRIDS, ids=["users", "antennas"])
    def test_a_grid_is_judged_by_the_combos_it_runs(self, text, fault):
        cfg = cfg_from(text)
        assert len(sweep_combos(cfg)) == 2
        assert with_overrides(cfg, seed=8).seed == 8
        # the base alone is a config whose one combo fails
        with pytest.raises(ConfigError, match=fault):
            with_overrides(cfg, sweep=())

    def test_combos_carry_no_grid(self):
        cfg = cfg_from("sweep.arch = switched, dbf\nsweep.snr_db = 0, 10\n")
        combos = sweep_combos(cfg)
        assert [(c.arch, c.snr_db) for c in combos] == [
            ("switched", 0.0), ("switched", 10.0), ("dbf", 0.0), ("dbf", 10.0)
        ]
        assert all(c.sweep == () for c in combos)
        assert all(sweep_combos(c) == [c] for c in combos)
        assert sweep_combos(cfg_from("users = 2\n")) == [cfg_from("users = 2\n")]
        assert runner.sweep_combos is sweep_combos

    @pytest.mark.parametrize(
        "text", ["sweep.snr_db = 0, 301\n", "sweep.snr_db = -4000\n"], ids=["301", "minus_4000"]
    )
    def test_swept_snr_values_are_bounded(self, text):
        with pytest.raises(ConfigError, match="snr_db must be >= -300 and <= 300"):
            cfg_from(text)

    def test_a_swept_base_value_is_not_checked(self):
        # snr_db = 4000 is run by no combo of this grid
        cfg = cfg_from("snr_db = 4000\nsweep.snr_db = 300\n")
        assert [c.snr_db for c in sweep_combos(cfg)] == [300.0]

    # only build_config sees these grids: run, they would list every pair
    @pytest.mark.parametrize(
        "text",
        [
            f"trials = {MAX_GRID_TRIALS + 1}\n",
            f"trials = {MAX_GRID_TRIALS // 2 + 1}\nsweep.snr_db = 0, 10\n",
            "trials = 1000000000000\nsweep.snr_db = "
            + ", ".join(str(v) for v in range(25))
            + "\nsweep.select = grouped, random, identity\nsweep.arch = switched, dbf\n",
        ],
        ids=["one_combo", "two_combos", "150_combos"],
    )
    def test_grid_over_the_trial_budget_refused(self, text):
        with pytest.raises(ConfigError, match=f"trials is over the budget of {MAX_GRID_TRIALS}"):
            cfg_from(text)

    def test_grid_at_the_trial_budget_accepted(self):
        cfg = cfg_from(f"trials = {MAX_GRID_TRIALS // 2}\nsweep.snr_db = 0, 10\n")
        assert len(sweep_combos(cfg)) * cfg.trials == MAX_GRID_TRIALS


# one valid non-default value per schema key
DIGEST_VALUES = {
    "arch": "dbf",
    "users": 2,
    "antennas": 6,
    "snr_db": 10.0,
    "trials": 5,
    "seed": 2,
    "payload_symbols": 2,
    "combiner": "nullspace",
    "select": "random",
    "scenario": "raytrace",
    "sync_mode": "offset",
    "sync.max_offset_samples": 0.25,
    "rayleigh.taps": 3,
    "grouping.phi_rad": 0.5,
    "grouping.rank_tolerance": 1e-6,
    "grouping.max_fallbacks": 8,
    "ofdm.lts_repeats": 3,
    "ofdm.bandwidth_hz": 20e6,
    "frontend.insertion_loss_db": 1.0,
    "frontend.quantizer_bits": 8,
    "scene.room_x_m": 10.0,
    "scene.room_y_m": 6.0,
    "scene.ap_x_m": 5.0,
    "scene.ap_y_m": 1.0,
    "scene.gamma": 0.5,
    "scene.max_reflections": 2,
    "sweep.arch": "switched, dbf",
    "sweep.antennas": "4, 8",
    "sweep.users": "2, 4",
    "sweep.snr_db": "5, 15",
    "sweep.select": "grouped, random",
}


def test_every_field_declares_the_stage_that_reads_it():
    stages = {f.name: f.metadata.get("stage") for f in fields(ExperimentConfig)}
    assert {name for name, stage in stages.items() if stage not in STAGES} == set()
    assert stages["bandwidth_hz"] == "draw"  # ray_trace's subcarrier spacing
    assert stages["arch"] == "link"  # the draw sees it only as fdma or not


class TestOverridesAndDigest:
    def test_with_overrides_reresolves_chains(self):
        cfg = cfg_from("arch = switched\nusers = 4\nantennas = 8")
        dbf = with_overrides(cfg, arch="dbf")
        assert dbf.chains == 8
        fdma = with_overrides(cfg, arch="fdma")
        assert fdma.chains == 1

    def test_chains_is_not_a_key(self):
        # the count follows from arch, users and antennas alone
        assert "chains" not in {f.name for f in fields(ExperimentConfig)}
        assert {"chains", "sweep.chains"}.isdisjoint(CONFIG_KEYS)
        cfg = cfg_from("arch = dbf\nusers = 4\nantennas = 8")
        assert "chains" not in canonical_text(cfg)
        with pytest.raises(ConfigError, match="unknown key 'chains'"):
            with_overrides(cfg, chains=4)
        for line in ("chains = 8", "sweep.chains = 4, 8"):
            with pytest.raises(ConfigError, match=f"unknown key '{line.split()[0]}'"):
                cfg_from(line)

    def test_digest_tracks_content(self):
        a = cfg_from("seed = 1")
        b = cfg_from("seed = 2")
        assert config_digest(a) != config_digest(b)
        assert config_digest(a) == config_digest(cfg_from("seed = 1"))

    @pytest.mark.parametrize("key", sorted(set(CONFIG_KEYS) - {"out"}))
    def test_digest_tracks_every_key(self, key):
        default = cfg_from("")
        changed = cfg_from(f"{key} = {DIGEST_VALUES[key]}\n")
        assert config_digest(changed) != config_digest(default)
        assert config_digest(default) == config_digest(cfg_from(""))

    def test_digest_values_cover_the_schema(self):
        assert set(DIGEST_VALUES) == set(CONFIG_KEYS) - {"out"}

    def test_canonical_text_parses_back(self):
        cfg = cfg_from("users = 3\nantennas = 9\nsweep.snr_db = 1,2\n")
        again = build_config(parse_config_text(canonical_text(cfg)))
        assert config_digest(again) == config_digest(cfg)

        cfg = cfg_from(EVERY_KEY)
        for f in fields(ExperimentConfig):
            assert getattr(cfg, f.name) != f.default, f.name
        again = build_config(parse_config_text(canonical_text(cfg)))
        assert again == replace(cfg, out=None)

    @pytest.mark.parametrize(
        "text",
        [
            bench_run.config_text("decode_heavy", 1),
            bench_run.config_text("large_room", 1),
            bench_run.config_text("grid_parallel", 1),
            "users = 2\nantennas = 4\npayload_symbols = 2\nsweep.arch = switched, dbf, fdma\n",
        ],
        ids=["decode_heavy", "large_room", "grid_parallel", "arch_sweep"],
    )
    def test_canonical_text_runs_the_same_combos(self, text):
        cfg = cfg_from(text)
        again = build_config(parse_config_text(canonical_text(cfg)))
        assert runner.sweep_combos(again) == runner.sweep_combos(cfg)

    def test_sweep_lines_in_grid_order(self):
        cfg = cfg_from("sweep.select = random\nsweep.users = 1, 2\nsweep.antennas = 4, 8\n")
        lines = canonical_text(cfg).splitlines()[-3:]
        assert lines == ["sweep.antennas = 4,8", "sweep.users = 1,2", "sweep.select = random"]

    @pytest.mark.parametrize(
        "workload, digest",
        [
            ("decode_heavy", "a605c3c99c5818e887cabf61a8a997a36d3d082fa83a7ffaf068c501d6c5bbbd"),
            ("large_room", "f4aeafd935d94396c4ec06aead07ed71067048089ff84b057d00b7e12b58d9b2"),
            ("grid_parallel", "965bdb1314652112b1cc0b9c5592c7dc0a0eb9ffd764a0bd95c2a8696a646785"),
            (None, "11cce0fda75779993da937369f44eec2f4514815b2d05deaa7abce4461e5c73f"),
        ],
        ids=["decode_heavy", "large_room", "grid_parallel", "empty"],
    )
    def test_digest_pinned(self, workload, digest):
        text = bench_run.config_text(workload, 1) if workload else ""
        assert config_digest(cfg_from(text)) == digest


# every key at a non-default value, two pinned users and three sweep keys
EVERY_KEY = (
    "arch = hbf_full\nusers = 2\nantennas = 6\nsnr_db = 10\ntrials = 5\n"
    "seed = 2\npayload_symbols = 2\ncombiner = nullspace\nselect = random\n"
    "scenario = raytrace\nsync_mode = offset\nsync.max_offset_samples = 0.25\n"
    "rayleigh.taps = 3\ngrouping.phi_rad = 0.5\ngrouping.rank_tolerance = 1e-6\n"
    "grouping.max_fallbacks = 8\nofdm.lts_repeats = 3\nofdm.bandwidth_hz = 20e6\n"
    "frontend.insertion_loss_db = 1.0\nfrontend.quantizer_bits = 8\n"
    "scene.room_x_m = 10\nscene.room_y_m = 6\nscene.ap_x_m = 5\nscene.ap_y_m = 1\n"
    "scene.gamma = 0.5\nscene.max_reflections = 2\nout = rows.csv\n"
    "scene.user0_x_m = 2.5\nscene.user0_y_m = 3\n"
    "scene.user1_x_m = 7\nscene.user1_y_m = 4.25\n"
    "sweep.antennas = 4, 8\nsweep.snr_db = 5, 15\nsweep.select = grouped, random\n"
)

def test_readme_names_every_config_key():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Configuration keys", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    named = {key for row in rows for key in re.findall(r"`([^`]+)`", row.split(" | ")[0])}
    expected = set(CONFIG_KEYS) | {"scene.userN_x_m", "scene.userN_y_m"}
    assert named == expected
