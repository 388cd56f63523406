"""Config parsing, schema validation and resolution tests."""

import numpy as np
import pytest

from switchmux.config import (
    SCHEMA,
    ConfigError,
    build_config,
    canonical_text,
    config_digest,
    load_config,
    parse_config_text,
    with_overrides,
)


def cfg_from(text):
    return build_config(parse_config_text(text))


class TestParsing:
    def test_defaults_fill_everything(self):
        cfg = cfg_from("")
        assert cfg.arch == "switched"
        assert cfg.users == 4
        assert cfg.antennas == 8
        assert cfg.chains == 4  # resolved to users
        assert cfg.snr_db == 15.0
        assert cfg.grouping.phi_rad == pytest.approx(np.pi / 3)
        assert cfg.sweep == ()

    def test_comments_and_blank_lines_ignored(self):
        cfg = cfg_from("# header\n\nusers = 2  # two of them\n")
        assert cfg.users == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            cfg_from("userz = 4")

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
        with pytest.raises(ConfigError, match="chains == users"):
            cfg_from("arch = switched\nusers = 3\nantennas = 6\nchains = 6")

    def test_dbf_defaults_to_all_antennas(self):
        assert cfg_from("arch = dbf\nusers = 4\nantennas = 16").chains == 16

    def test_dbf_bounds_checked(self):
        with pytest.raises(ConfigError):
            cfg_from("arch = dbf\nusers = 4\nantennas = 8\nchains = 2")

    def test_hbf_defaults_to_users(self):
        assert cfg_from("arch = hbf_full\nusers = 4\nantennas = 16").chains == 4

    def test_hbf_partial_needs_divisible_blocks(self):
        with pytest.raises(ConfigError, match="divisible"):
            cfg_from("arch = hbf_partial\nusers = 3\nantennas = 8\nchains = 3")

    def test_fdma_single_chain(self):
        cfg = cfg_from("arch = fdma\nusers = 4\nantennas = 1")
        assert cfg.chains == 1

    def test_nullspace_needs_square_combining(self):
        with pytest.raises(ConfigError, match="nullspace"):
            cfg_from("arch = dbf\nusers = 4\nantennas = 8\ncombiner = nullspace")
        cfg = cfg_from(
            "arch = dbf\nusers = 4\nantennas = 8\nchains = 4\ncombiner = nullspace"
        )
        assert cfg.chains == 4


class TestUserPositions:
    def test_full_set_accepted(self):
        cfg = cfg_from(
            "users = 2\nscenario = raytrace\n"
            "scene.user0_x_m = 3.0\nscene.user0_y_m = 4.0\n"
            "scene.user1_x_m = 8.0\nscene.user1_y_m = 9.0\n"
        )
        assert cfg.user_positions == ((3.0, 4.0), (8.0, 9.0))

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

    def test_phi_passed_through_to_grouping(self):
        with pytest.raises(ConfigError):
            cfg_from("grouping.phi_rad = 3.2")


class TestSweepKeys:
    def test_lists_parse(self):
        cfg = cfg_from("sweep.antennas = 4, 6, 8\nsweep.snr_db = 0,10\n")
        assert dict(cfg.sweep)["sweep.antennas"] == (4, 6, 8)
        assert dict(cfg.sweep)["sweep.snr_db"] == (0.0, 10.0)

    def test_sweep_choice_validated(self):
        with pytest.raises(ConfigError):
            cfg_from("sweep.arch = switched, analog")


class TestSweepComboValidation:
    def test_nullspace_rejects_a_non_square_combo(self):
        cfg = cfg_from("combiner = nullspace\nsweep.arch = switched, dbf\n")
        assert with_overrides(cfg, arch="switched").chains == 4
        with pytest.raises(ConfigError, match="nullspace"):
            with_overrides(cfg, arch="dbf")

    def test_too_few_antennas_rejected(self):
        cfg = cfg_from("users = 4\nsweep.antennas = 2, 8\n")
        assert with_overrides(cfg, antennas=8).antennas == 8
        with pytest.raises(ConfigError, match="antenna per user"):
            with_overrides(cfg, antennas=2)

    def test_pinned_positions_must_match_user_count(self):
        cfg = cfg_from(
            "users = 1\nscene.user0_x_m = 3.0\nscene.user0_y_m = 2.0\nsweep.users = 1, 2\n"
        )
        with pytest.raises(ConfigError, match="cover users"):
            with_overrides(cfg, users=2)


# one valid non-default value per schema key
DIGEST_VALUES = {
    "arch": "dbf",
    "users": 2,
    "antennas": 6,
    "chains": 6,
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
    "sweep.chains": "4",
    "sweep.users": "2, 4",
    "sweep.snr_db": "5, 15",
    "sweep.select": "grouped, random",
}


class TestOverridesAndDigest:
    def test_with_overrides_reresolves_chains(self):
        cfg = cfg_from("arch = switched\nusers = 4\nantennas = 8")
        dbf = with_overrides(cfg, arch="dbf")
        assert dbf.chains == 8
        fdma = with_overrides(cfg, arch="fdma")
        assert fdma.chains == 1

    def test_explicit_chain_override_kept(self):
        cfg = cfg_from("arch = dbf\nusers = 4\nantennas = 8")
        four = with_overrides(cfg, chains=4)
        assert four.chains == 4

    def test_digest_tracks_content(self):
        a = cfg_from("seed = 1")
        b = cfg_from("seed = 2")
        assert config_digest(a) != config_digest(b)
        assert config_digest(a) == config_digest(cfg_from("seed = 1"))

    @pytest.mark.parametrize("key", sorted(set(SCHEMA) - {"out"}))
    def test_digest_tracks_every_key(self, key):
        # the switched default only admits chains == users, so chains is
        # varied on a dbf config
        base = "arch = dbf\n" if key == "chains" else ""
        default = cfg_from(base)
        changed = cfg_from(base + f"{key} = {DIGEST_VALUES[key]}\n")
        assert config_digest(changed) != config_digest(default)
        assert config_digest(default) == config_digest(cfg_from(base))

    def test_digest_values_cover_the_schema(self):
        assert set(DIGEST_VALUES) == set(SCHEMA) - {"out"}

    def test_canonical_text_parses_back(self):
        cfg = cfg_from("users = 3\nantennas = 9\nsweep.snr_db = 1,2\n")
        again = build_config(parse_config_text(canonical_text(cfg)))
        assert config_digest(again) == config_digest(cfg)
