"""Experiment configuration: flat ``key = value`` text with a strict schema.

Every key has a documented default; unknown keys are errors so a config
file cannot silently misspell a knob.  Dotted prefixes group related keys
but the file stays flat, one assignment per line, ``#`` starts a comment.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .grouping import GroupingConfig

ARCH_CHOICES = ("switched", "dbf", "hbf_full", "hbf_partial", "fdma")
SELECT_CHOICES = ("grouped", "random", "identity")
COMBINER_CHOICES = ("zf", "nullspace")
SCENARIO_CHOICES = ("rayleigh", "raytrace")
SYNC_CHOICES = ("aligned", "offset")


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration input."""


def _int(s: str) -> int:
    try:
        return int(s)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {s!r}") from exc


def _float(s: str) -> float:
    try:
        return float(s)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {s!r}") from exc


def _choice(options):
    def parse(s: str) -> str:
        if s not in options:
            raise ConfigError(f"expected one of {', '.join(options)}; got {s!r}")
        return s

    return parse


def _str(s: str) -> str:
    return s


def _int_list(s: str):
    return tuple(_int(v.strip()) for v in s.split(",") if v.strip())


def _float_list(s: str):
    return tuple(_float(v.strip()) for v in s.split(",") if v.strip())


def _choice_list(options):
    one = _choice(options)

    def parse(s: str):
        return tuple(one(v.strip()) for v in s.split(",") if v.strip())

    return parse


# key -> (parser, default). None default means "unset".
SCHEMA = {
    "arch": (_choice(ARCH_CHOICES), "switched"),
    "users": (_int, 4),
    "antennas": (_int, 8),
    "chains": (_int, 0),  # 0 resolves per architecture
    "snr_db": (_float, 15.0),
    "trials": (_int, 100),
    "seed": (_int, 1),
    "payload_symbols": (_int, 4),
    "combiner": (_choice(COMBINER_CHOICES), "zf"),
    "select": (_choice(SELECT_CHOICES), "grouped"),
    "scenario": (_choice(SCENARIO_CHOICES), "rayleigh"),
    "sync_mode": (_choice(SYNC_CHOICES), "aligned"),
    "sync.max_offset_samples": (_float, 0.5),
    "rayleigh.taps": (_int, 1),
    "grouping.phi_rad": (_float, float(np.pi / 3)),
    "grouping.rank_tolerance": (_float, 1e-9),
    "grouping.max_fallbacks": (_int, 64),
    "ofdm.lts_repeats": (_int, 2),
    "ofdm.bandwidth_hz": (_float, 10e6),
    "frontend.insertion_loss_db": (_float, 0.5),
    "frontend.quantizer_bits": (_int, 0),  # 0 disables the quantizer
    "scene.room_x_m": (_float, 12.0),
    "scene.room_y_m": (_float, 5.0),
    "scene.ap_x_m": (_float, 6.0),
    "scene.ap_y_m": (_float, 0.5),
    "scene.gamma": (_float, 0.6),
    "scene.max_reflections": (_int, 1),
    "out": (_str, None),
    "sweep.arch": (_choice_list(ARCH_CHOICES), None),
    "sweep.antennas": (_int_list, None),
    "sweep.chains": (_int_list, None),
    "sweep.users": (_int_list, None),
    "sweep.snr_db": (_float_list, None),
    "sweep.select": (_choice_list(SELECT_CHOICES), None),
}

SWEEP_KEY_ORDER = (
    "sweep.arch",
    "sweep.antennas",
    "sweep.chains",
    "sweep.users",
    "sweep.snr_db",
    "sweep.select",
)

_USER_POS_RE = re.compile(r"^scene\.user(\d+)_(x|y)_m$")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved experiment description."""

    arch: str = "switched"
    users: int = 4
    antennas: int = 8
    chains: int = 4
    snr_db: float = 15.0
    trials: int = 100
    seed: int = 1
    payload_symbols: int = 4
    combiner: str = "zf"
    select: str = "grouped"
    scenario: str = "rayleigh"
    sync_mode: str = "aligned"
    sync_max_offset_samples: float = 0.5
    rayleigh_taps: int = 1
    grouping: GroupingConfig = field(default_factory=GroupingConfig)
    lts_repeats: int = 2
    bandwidth_hz: float = 10e6
    insertion_loss_db: float = 0.5
    quantizer_bits: int = 0
    room_x_m: float = 12.0
    room_y_m: float = 5.0
    ap_x_m: float = 6.0
    ap_y_m: float = 0.5
    scene_gamma: float = 0.6
    max_reflections: int = 1
    user_positions: tuple | None = None
    out: str | None = None
    sweep: tuple = ()  # ((key, values), ...) in SWEEP_KEY_ORDER


def parse_config_text(text: str) -> dict:
    """Raw key -> string value mapping; duplicate keys are errors."""
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _check_combo(
    arch: str, users: int, antennas: int, chains: int, combiner: str, user_positions
) -> int:
    """Cross-field checks every runnable combo must pass; returns the chain
    count resolved for the architecture (chains = 0 picks its default).

    build_config runs them on the file's own values and with_overrides on
    every sweep combo, so a bad combo fails before any trial starts.
    """
    if users < 1 or antennas < 1:
        raise ConfigError("users and antennas must be >= 1")
    if arch != "fdma" and antennas < users:
        raise ConfigError("need at least one antenna per user")
    if user_positions is not None and len(user_positions) != users:
        raise ConfigError("scene.userN_x_m/y_m must cover users 0..users-1 exactly")
    if arch == "switched":
        resolved = chains or users
        if resolved != users:
            raise ConfigError("switched capture needs chains == users (one slot each)")
    elif arch == "dbf":
        resolved = chains or antennas
        if not users <= resolved <= antennas:
            raise ConfigError("dbf needs users <= chains <= antennas")
    elif arch in ("hbf_full", "hbf_partial"):
        resolved = chains or users
        if not users <= resolved <= antennas:
            raise ConfigError("hbf needs users <= chains <= antennas")
        if arch == "hbf_partial" and antennas % resolved != 0:
            raise ConfigError("hbf_partial needs antennas divisible by chains")
    else:  # fdma
        resolved = chains or 1
        if resolved != 1:
            raise ConfigError("fdma uses exactly one chain")
    if combiner == "nullspace" and resolved != users:
        raise ConfigError("nullspace combining needs chains == users")
    return resolved


def build_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping against the schema and resolve derived fields."""
    values = {}
    positions: dict = {}
    for key, text in raw.items():
        match = _USER_POS_RE.match(key)
        if match:
            positions[(int(match.group(1)), match.group(2))] = _float(text)
            continue
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        parser, _ = SCHEMA[key]
        values[key] = parser(text)
    for key, (_, default) in SCHEMA.items():
        values.setdefault(key, default)

    if values["trials"] < 1 or values["payload_symbols"] < 1:
        raise ConfigError("trials and payload_symbols must be >= 1")
    if not 0 <= values["seed"] < 2**64:
        raise ConfigError("seed must fit in 64 bits")
    if values["ofdm.lts_repeats"] < 1:
        raise ConfigError("ofdm.lts_repeats must be >= 1")
    if values["ofdm.bandwidth_hz"] <= 0:
        raise ConfigError("ofdm.bandwidth_hz must be positive")
    if values["frontend.quantizer_bits"] < 0:
        raise ConfigError("frontend.quantizer_bits must be >= 0")
    if not 0 <= values["scene.gamma"] < 1:
        raise ConfigError("scene.gamma must lie in [0, 1)")
    if not 0 <= values["scene.max_reflections"] <= 2:
        raise ConfigError("scene.max_reflections must be 0, 1 or 2")
    if values["rayleigh.taps"] < 1:
        raise ConfigError("rayleigh.taps must be >= 1")
    if values["sync.max_offset_samples"] < 0:
        raise ConfigError("sync.max_offset_samples must be >= 0")

    user_positions = None
    if positions:
        indices = sorted({i for (i, _) in positions})
        if indices != list(range(len(indices))):
            raise ConfigError("scene.userN_x_m/y_m must cover users 0..users-1 exactly")
        for i in indices:
            if (i, "x") not in positions or (i, "y") not in positions:
                raise ConfigError(f"user {i} needs both x and y coordinates")
        user_positions = tuple(
            (positions[(i, "x")], positions[(i, "y")]) for i in indices
        )
    chains = _check_combo(
        values["arch"],
        values["users"],
        values["antennas"],
        values["chains"],
        values["combiner"],
        user_positions,
    )

    try:
        grouping = GroupingConfig(
            phi_rad=values["grouping.phi_rad"],
            rank_tolerance=values["grouping.rank_tolerance"],
            max_fallbacks=values["grouping.max_fallbacks"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sweep = tuple(
        (key, values[key]) for key in SWEEP_KEY_ORDER if values[key] is not None
    )

    return ExperimentConfig(
        arch=values["arch"],
        users=values["users"],
        antennas=values["antennas"],
        chains=chains,
        snr_db=values["snr_db"],
        trials=values["trials"],
        seed=values["seed"],
        payload_symbols=values["payload_symbols"],
        combiner=values["combiner"],
        select=values["select"],
        scenario=values["scenario"],
        sync_mode=values["sync_mode"],
        sync_max_offset_samples=values["sync.max_offset_samples"],
        rayleigh_taps=values["rayleigh.taps"],
        grouping=grouping,
        lts_repeats=values["ofdm.lts_repeats"],
        bandwidth_hz=values["ofdm.bandwidth_hz"],
        insertion_loss_db=values["frontend.insertion_loss_db"],
        quantizer_bits=values["frontend.quantizer_bits"],
        room_x_m=values["scene.room_x_m"],
        room_y_m=values["scene.room_y_m"],
        ap_x_m=values["scene.ap_x_m"],
        ap_y_m=values["scene.ap_y_m"],
        scene_gamma=values["scene.gamma"],
        max_reflections=values["scene.max_reflections"],
        user_positions=user_positions,
        out=values["out"],
        sweep=sweep,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return build_config(parse_config_text(fh.read()))


def with_overrides(cfg: ExperimentConfig, **updates) -> ExperimentConfig:
    """Copy with field replacements, re-running the cross-field checks."""
    merged = replace(cfg, **updates)
    chains = merged.chains
    if "chains" not in updates and ("arch" in updates or "users" in updates or "antennas" in updates):
        chains = 0
    resolved = _check_combo(
        merged.arch,
        merged.users,
        merged.antennas,
        chains,
        merged.combiner,
        merged.user_positions,
    )
    return replace(merged, chains=resolved)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Stable one-line-per-field rendering used for hashing and manifests."""
    lines = [
        f"arch = {cfg.arch}",
        f"users = {cfg.users}",
        f"antennas = {cfg.antennas}",
        f"chains = {cfg.chains}",
        f"snr_db = {cfg.snr_db!r}",
        f"trials = {cfg.trials}",
        f"seed = {cfg.seed}",
        f"payload_symbols = {cfg.payload_symbols}",
        f"combiner = {cfg.combiner}",
        f"select = {cfg.select}",
        f"scenario = {cfg.scenario}",
        f"sync_mode = {cfg.sync_mode}",
        f"sync.max_offset_samples = {cfg.sync_max_offset_samples!r}",
        f"rayleigh.taps = {cfg.rayleigh_taps}",
        f"grouping.phi_rad = {cfg.grouping.phi_rad!r}",
        f"grouping.rank_tolerance = {cfg.grouping.rank_tolerance!r}",
        f"grouping.max_fallbacks = {cfg.grouping.max_fallbacks}",
        f"ofdm.lts_repeats = {cfg.lts_repeats}",
        f"ofdm.bandwidth_hz = {cfg.bandwidth_hz!r}",
        f"frontend.insertion_loss_db = {cfg.insertion_loss_db!r}",
        f"frontend.quantizer_bits = {cfg.quantizer_bits}",
        f"scene.room_x_m = {cfg.room_x_m!r}",
        f"scene.room_y_m = {cfg.room_y_m!r}",
        f"scene.ap_x_m = {cfg.ap_x_m!r}",
        f"scene.ap_y_m = {cfg.ap_y_m!r}",
        f"scene.gamma = {cfg.scene_gamma!r}",
        f"scene.max_reflections = {cfg.max_reflections}",
    ]
    if cfg.user_positions is not None:
        for i, (x, y) in enumerate(cfg.user_positions):
            lines.append(f"scene.user{i}_x_m = {x!r}")
            lines.append(f"scene.user{i}_y_m = {y!r}")
    for key, values in cfg.sweep:
        rendered = ",".join(str(v) for v in values)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()
