"""Experiment configuration: flat ``key = value`` text with a strict schema.

``ExperimentConfig`` is the one table of keys: each field declares its file
key, the trial stage that first reads it, parser, default and range check
once, and a sweepable field also its place in the grid, which makes
``sweep.<key>`` a comma list of the same values.  Parsing, defaults,
validation, sweep keys, overrides, the digest and the runner's draw key are
loops over that table, so adding a key means adding one field.

The grid is expanded here too (``sweep_combos``), and validity has one
rule: a config is valid when every combo its grid runs passes every check.
A config without a grid is its own single combo, and the base value of a
swept key, which no combo runs, is not checked.

Unknown keys are errors so a config file cannot silently misspell a knob.
Dotted prefixes group related keys but the file stays flat, one assignment
per line, ``#`` starts a comment.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import ARRAY_SPACING_M, MIN_CLEARANCE_M, ula_positions
from .waveform import CODED_BITS_PER_SYMBOL, CP_LEN, FFT_SIZE, SYMBOL_LEN

ARCH_CHOICES = ("switched", "dbf", "hbf_full", "hbf_partial", "fdma")
SELECT_CHOICES = ("grouped", "random", "identity")
COMBINER_CHOICES = ("zf", "nullspace")
SCENARIO_CHOICES = ("rayleigh", "raytrace")
SYNC_CHOICES = ("aligned", "offset")

# drawn raytrace users keep this distance from every wall
DROP_MARGIN_M = 1.0

# Element budget for each array a trial holds.  A trial keeps several
# temporaries the size of its largest array, so a combo whose gains,
# received signal or coded payload would exceed this is refused before any
# trial runs, where it would otherwise die of a MemoryError mid-sweep; one
# complex array of the budget is 256 MiB.
MAX_TRIAL_ELEMENTS = 2**24

# Upper bound of a per-user bandwidth, ofdm.bandwidth_hz in a config and
# `switchmux power --bandwidth-hz`: far above any radio channel, it keeps
# rates and the ADC power figures they feed finite and printable.
MAX_BANDWIDTH_HZ = 1e12

# Bound of a grid's trials, combos x trials.  run_sweep holds every row,
# its (combo, trial) bookkeeping and its CSV line until the file is
# written: about 2 KB a trial (tracemalloc's peak over a serial 2000-trial
# 8-user sweep), so a grid at the cap holds about 2 GiB.
MAX_GRID_TRIALS = 2**20


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration input."""


def _int(s: str) -> int:
    try:
        return int(s)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {s!r}") from exc


def _float(s: str) -> float:
    try:
        value = float(s)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {s!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {s!r}")
    return value


def _choice(options):
    def parse(s: str) -> str:
        if s not in options:
            raise ConfigError(f"expected one of {', '.join(options)}; got {s!r}")
        return s

    return parse


def _at_least(low):
    return (lambda v: v >= low), f"must be >= {low}"


def _between(low, high):
    return (lambda v: low <= v <= high), f"must be >= {low} and <= {high}"


# The first stage of a trial that reads a field (see the runner module):
# "draw" fields make trial t's bits, channel and received signal, which
# combos with equal draw keys share; "link" fields pick the front end,
# selection, noise and combiner; "grid" fields are read by no trial.
STAGES = ("draw", "link", "grid")


def _key(name, stage, parse, default, check=None, sweep=None):
    """One config-file key read first by stage.  check is (predicate,
    message) on the parsed value; sweep is the key's place in the grid
    nesting order (outermost first), or None when it cannot be swept."""
    meta = {"key": name, "stage": stage, "parse": parse, "check": check, "sweep": sweep}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment description.  Its chain count is not a key: chains
    follows from arch, users and antennas."""

    arch: str = _key("arch", "link", _choice(ARCH_CHOICES), "switched", sweep=0)
    users: int = _key("users", "draw", _int, 4, _at_least(1), sweep=2)
    antennas: int = _key("antennas", "draw", _int, 8, _at_least(1), sweep=1)
    # 10**(-snr_db/10) scales the noise power, which overflows float64
    # past about +-3000 dB; +-300 keeps it and its products finite
    snr_db: float = _key("snr_db", "link", _float, 15.0, _between(-300, 300), sweep=3)
    trials: int = _key("trials", "grid", _int, 100, _at_least(1))
    seed: int = _key(
        "seed", "draw", _int, 1, ((lambda s: 0 <= s < 2**64), "must fit in 64 bits")
    )
    payload_symbols: int = _key("payload_symbols", "draw", _int, 4, _at_least(1))
    combiner: str = _key("combiner", "link", _choice(COMBINER_CHOICES), "zf")
    select: str = _key("select", "link", _choice(SELECT_CHOICES), "grouped", sweep=4)
    scenario: str = _key("scenario", "draw", _choice(SCENARIO_CHOICES), "rayleigh")
    sync_mode: str = _key("sync_mode", "draw", _choice(SYNC_CHOICES), "aligned")
    # the cyclic prefix absorbs delays up to CP_LEN samples; a longer delay
    # or channel would leak each symbol into the next, which the per-symbol
    # channel model cannot show (it folds a delay modulo FFT_SIZE)
    sync_max_offset_samples: float = _key(
        "sync.max_offset_samples", "draw", _float, 0.5, _between(0, CP_LEN)
    )
    rayleigh_taps: int = _key("rayleigh.taps", "draw", _int, 1, _between(1, CP_LEN + 1))
    phi_rad: float = _key(
        "grouping.phi_rad",
        "link",
        _float,
        float(np.pi / 3),
        ((lambda p: 0 < p <= np.pi / 2), "must lie in (0, pi/2]"),
    )
    rank_tolerance: float = _key(
        "grouping.rank_tolerance",
        "link",
        _float,
        1e-9,
        ((lambda t: 0 < t < 1), "must lie in (0, 1)"),
    )
    max_fallbacks: int = _key("grouping.max_fallbacks", "link", _int, 64, _at_least(0))
    lts_repeats: int = _key("ofdm.lts_repeats", "draw", _int, 2, _at_least(1))
    bandwidth_hz: float = _key(
        "ofdm.bandwidth_hz",
        "draw",
        _float,
        10e6,
        ((lambda b: 0 < b <= MAX_BANDWIDTH_HZ), f"must be positive and <= {MAX_BANDWIDTH_HZ:g}"),
    )
    insertion_loss_db: float = _key(
        "frontend.insertion_loss_db", "link", _float, 0.5, _at_least(0)
    )
    quantizer_bits: int = _key(  # 0 is off; a float64 holds at most 53 bits
        "frontend.quantizer_bits", "link", _int, 0, _between(0, 53)
    )
    room_x_m: float = _key("scene.room_x_m", "draw", _float, 12.0)
    room_y_m: float = _key("scene.room_y_m", "draw", _float, 5.0)
    ap_x_m: float = _key("scene.ap_x_m", "draw", _float, 6.0)
    ap_y_m: float = _key("scene.ap_y_m", "draw", _float, 0.5)
    scene_gamma: float = _key(
        "scene.gamma", "draw", _float, 0.6, ((lambda g: 0 <= g < 1), "must lie in [0, 1)")
    )
    max_reflections: int = _key(
        "scene.max_reflections", "draw", _int, 1, ((lambda n: 0 <= n <= 2), "must be 0, 1 or 2")
    )
    out: str | None = _key("out", "grid", str, None)
    # from scene.userN_x_m / scene.userN_y_m
    user_positions: tuple | None = field(default=None, metadata={"stage": "draw"})
    # ((field name, values), ...), outermost grid key first
    sweep: tuple = field(default=(), metadata={"stage": "grid"})

    @property
    def chains(self) -> int:
        """RF chains: one switch slot, or one steered phase-shifter chain,
        per user; one per antenna for dbf; one wideband chain for fdma."""
        if self.arch == "dbf":
            return self.antennas
        return 1 if self.arch == "fdma" else self.users


_KEYS = [f for f in fields(ExperimentConfig) if "key" in f.metadata]
_FIELD_OF = {f.metadata["key"]: f for f in _KEYS}
_FIELD_KEY = {f.name: key for key, f in _FIELD_OF.items()}
_GRID = sorted(
    (f for f in _KEYS if f.metadata["sweep"] is not None), key=lambda f: f.metadata["sweep"]
)
_GRID_OF = {"sweep." + f.metadata["key"]: f for f in _GRID}
_USER_POS_RE = re.compile(r"^scene\.user(0|[1-9][0-9]*)_(x|y)_m$")

# every key a config file may set; scene.userN_x_m / _y_m come on top
CONFIG_KEYS = tuple(_FIELD_OF) + tuple(_GRID_OF)


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


def _check_links(cfg: ExperimentConfig) -> None:
    """Cross-field checks every runnable combo must pass."""
    users, antennas = cfg.users, cfg.antennas
    if cfg.arch != "fdma" and antennas < users:
        raise ConfigError("need at least one antenna per user")
    if cfg.user_positions is not None and len(cfg.user_positions) != users:
        raise ConfigError("scene.userN_x_m/y_m must cover users 0..users-1 exactly")
    if cfg.arch == "hbf_partial" and antennas % users != 0:
        raise ConfigError("hbf_partial needs antennas divisible by users")
    # every fdma link is one user on one chain, where null-space combining is ZF
    if cfg.combiner == "nullspace" and cfg.arch != "fdma" and cfg.chains != users:
        raise ConfigError("nullspace combining needs chains == users")


def _check_room(cfg: ExperimentConfig) -> None:
    """Raytrace geometry every trial's scene must fit, checked here only:
    drawn users need DROP_MARGIN_M of floor inside each wall, the AP,
    pinned users and the whole array must lie strictly inside the room,
    and pinned users must keep MIN_CLEARANCE_M from every antenna."""
    if cfg.user_positions is None:
        for key, side in (("scene.room_x_m", cfg.room_x_m), ("scene.room_y_m", cfg.room_y_m)):
            if side < 2 * DROP_MARGIN_M:
                raise ConfigError(
                    f"{key} must be >= {2 * DROP_MARGIN_M:g}: users are drawn "
                    f"{DROP_MARGIN_M:g} m from each wall"
                )

    def inside(x, y):
        return 0 < x < cfg.room_x_m and 0 < y < cfg.room_y_m

    if not inside(cfg.ap_x_m, cfg.ap_y_m):
        raise ConfigError("scene.ap_x_m/ap_y_m must lie strictly inside the room")
    too_long = f"an array of {cfg.antennas} antennas at the AP must fit in the room"
    # the end antennas sit (antennas - 1)/2 spacings either side of the AP;
    # an int compares exactly with a float at any size, so an array far too
    # long for the room is refused before ula_positions allocates it
    if cfg.antennas - 1 >= 2 * min(cfg.ap_x_m, cfg.room_x_m - cfg.ap_x_m) / ARRAY_SPACING_M:
        raise ConfigError(too_long)
    array = ula_positions(cfg.antennas, (cfg.ap_x_m, cfg.ap_y_m))
    for i, (x, y) in enumerate(cfg.user_positions or ()):
        if not inside(x, y):
            raise ConfigError(f"scene.user{i}_x_m/y_m must lie strictly inside the room")
        if np.min(np.linalg.norm(array - (x, y), axis=1)) < MIN_CLEARANCE_M:
            raise ConfigError(
                f"scene.user{i}_x_m/y_m must keep {MIN_CLEARANCE_M:g} m from every antenna"
            )
    if not all(inside(x, y) for x, y in array):
        raise ConfigError(too_long)


def _check_trial_size(cfg: ExperimentConfig) -> None:
    """Refuse a combo whose channel gains [users, antennas, 64], received
    signal [antennas, (users * lts_repeats + payload_symbols) * 80] or coded
    payload [users, payload_symbols * 192] exceeds MAX_TRIAL_ELEMENTS."""
    frame = (cfg.users * cfg.lts_repeats + cfg.payload_symbols) * SYMBOL_LEN
    for keys, elements in (
        ("users x antennas", cfg.users * cfg.antennas * FFT_SIZE),
        ("antennas x (users x ofdm.lts_repeats + payload_symbols)", cfg.antennas * frame),
        ("users x payload_symbols", cfg.users * cfg.payload_symbols * CODED_BITS_PER_SYMBOL),
    ):
        if elements > MAX_TRIAL_ELEMENTS:
            raise ConfigError(
                f"{keys} is too large: a trial would hold an array of {elements:.3g} "
                f"elements, over the budget of {MAX_TRIAL_ELEMENTS}"
            )


def _check_combo(cfg: ExperimentConfig) -> None:
    """Run every per-key, room, trial-size and cross-field check on one
    combo.  Rayleigh configs ignore the scene.* keys."""
    for f in _KEYS:
        check = f.metadata["check"]
        if check is not None and not check[0](getattr(cfg, f.name)):
            raise ConfigError(f"{f.metadata['key']} {check[1]}")
    if cfg.scenario == "raytrace":
        _check_room(cfg)
    _check_trial_size(cfg)
    _check_links(cfg)


def _check_message(cfg: ExperimentConfig):
    """The message of cfg's first failing check (_check_combo), or None."""
    try:
        _check_combo(cfg)
    except ConfigError as exc:
        return str(exc)
    return None


def sweep_combos(cfg: ExperimentConfig) -> list:
    """The grid's combos in deterministic grid order, the first sweep key
    outermost, each a checked config without a grid; cfg alone when it has
    no grid.  A grid over MAX_GRID_TRIALS trials is refused before any
    combo is built.  A combo's error names its swept values unless the
    fault lies in a base key: the base config alone, without its grid,
    and every combo fail with the same message."""
    count = math.prod(len(values) for _, values in cfg.sweep)
    if count * cfg.trials > MAX_GRID_TRIALS:
        raise ConfigError(
            f"a grid of {count} combos x {cfg.trials} trials is over the budget "
            f"of {MAX_GRID_TRIALS} trials"
        )
    names = [name for name, _ in cfg.sweep]
    grid = itertools.product(*(values for _, values in cfg.sweep))
    combos = [replace(cfg, sweep=(), **dict(zip(names, values))) for values in grid]
    for combo in combos:
        try:
            _check_combo(combo)
        except ConfigError as exc:
            base = replace(cfg, sweep=())
            if all(_check_message(c) == str(exc) for c in [base, *combos]):
                raise
            swept = ", ".join(f"{_FIELD_KEY[name]} = {getattr(combo, name)}" for name in names)
            raise ConfigError(f"sweep combo {swept}: {exc}") from exc
    return combos


def _validated(cfg: ExperimentConfig) -> ExperimentConfig:
    """Refuse cfg unless every combo of its grid passes every check
    (sweep_combos); returns cfg.  build_config and with_overrides reach
    the checks only here, so a bad value fails before any trial starts."""
    sweep_combos(cfg)
    return cfg


def _parsed(key: str, parse, text: str):
    try:
        return parse(text)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def build_config(raw: dict) -> ExperimentConfig:
    """Parse a raw mapping against the table; the config is refused unless
    every combo of its grid is valid (_validated)."""
    values, grids, positions = {}, {}, {}
    for key, text in raw.items():
        match = _USER_POS_RE.match(key)
        if match:
            positions[(int(match.group(1)), match.group(2))] = _parsed(key, _float, text)
        elif key in _FIELD_OF:
            f = _FIELD_OF[key]
            values[f.name] = _parsed(key, f.metadata["parse"], text)
        elif key in _GRID_OF:
            f = _GRID_OF[key]
            parse = f.metadata["parse"]
            grids[f.name] = tuple(
                _parsed(key, parse, v.strip()) for v in text.split(",") if v.strip()
            )
            if not grids[f.name]:
                raise ConfigError(f"{key} needs at least one value")
        else:
            raise ConfigError(f"unknown key {key!r}")

    user_positions = None
    if positions:
        users = range(1 + max(i for i, _ in positions))
        for i in users:
            if (i, "x") not in positions or (i, "y") not in positions:
                raise ConfigError(f"user {i} needs both x and y coordinates")
        user_positions = tuple((positions[(i, "x")], positions[(i, "y")]) for i in users)
    sweep = tuple((f.name, grids[f.name]) for f in _GRID if f.name in grids)
    return _validated(ExperimentConfig(**values, user_positions=user_positions, sweep=sweep))


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return build_config(parse_config_text(text))


def with_overrides(cfg: ExperimentConfig, **updates) -> ExperimentConfig:
    """Copy with field replacements, refused unless every combo of the
    copy's grid is valid (_validated); sweep=() gives the base alone."""
    unknown = sorted(updates.keys() - {f.name for f in fields(cfg)})
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    return _validated(replace(cfg, **updates))


def canonical_text(cfg: ExperimentConfig) -> str:
    """Stable one-line-per-key rendering used for hashing and manifests:
    the table's keys in order (out left out), then pinned user positions,
    then the sweep grid."""
    lines = [f"{f.metadata['key']} = {getattr(cfg, f.name)}" for f in _KEYS if f.name != "out"]
    for i, (x, y) in enumerate(cfg.user_positions or ()):
        lines += [f"scene.user{i}_x_m = {x}", f"scene.user{i}_y_m = {y}"]
    for name, values in cfg.sweep:
        lines.append(f"sweep.{_FIELD_KEY[name]} = " + ",".join(str(v) for v in values))
    return "\n".join(lines) + "\n"


def config_digest(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()
