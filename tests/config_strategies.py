"""Hypothesis strategies for config texts, drawn from the config table.

Every key of ``config.CONFIG_KEYS`` can appear, with values drawn by the
parser its table field declares: integers and numbers from ranges that
straddle the checks (small explicit ranges for the size keys, so a trial
stays cheap) and every choice.  A ``config_texts`` text may pin users and
may carry one fault: junk text as a value, a repeated or unknown key, a
line without ``=`` or a user missing a coordinate.  A ``grid_texts`` text
has no fault and only in-range values, and sweeps two archs.
"""

from hypothesis import strategies as st

from switchmux import config

# the options of the table's choice fields, by file key
CHOICES = {
    "arch": config.ARCH_CHOICES,
    "select": config.SELECT_CHOICES,
    "combiner": config.COMBINER_CHOICES,
    "scenario": config.SCENARIO_CHOICES,
    "sync_mode": config.SYNC_CHOICES,
}

# explicit ranges, just past the check at each end where it has one: the
# keys that size a trial's arrays stay small, so a trial stays cheap, and
# the narrow ranges are met often enough for texts to pass
RANGES = {
    "users": (0, 3),
    "antennas": (0, 8),
    "trials": (0, 3),
    "payload_symbols": (0, 2),
    "ofdm.lts_repeats": (0, 2),
    "rayleigh.taps": (0, 18),
    "grouping.max_fallbacks": (-1, 8),
    "frontend.quantizer_bits": (-1, 54),
    "scene.max_reflections": (-1, 3),
    "seed": (-1, 2**64),
    "grouping.phi_rad": (-0.1, 1.7),
    "scene.gamma": (-0.1, 1.1),
    "snr_db": (-310.0, 310.0),
    "sync.max_offset_samples": (-1.0, 17.0),
}

JUNK = st.sampled_from(["x", "1.5", "-1", "nan", "inf", "1e999", "2**3", "hbf", ""])
NUMBER = st.floats(-1.0, 13.0).map(repr)


def _values(f) -> st.SearchStrategy:
    """Value texts for one table field, by the parser it declares."""
    key, parse = f.metadata["key"], f.metadata["parse"]
    if parse is config._int:
        return st.integers(*RANGES.get(key, (-1, 4))).map(str)
    if parse is config._float:
        return st.floats(*RANGES[key]).map(repr) if key in RANGES else NUMBER
    if parse is str:
        return st.just("rows.csv")
    return st.sampled_from(CHOICES[key])


VALUES = {f.metadata["key"]: _values(f) for f in config._KEYS}


@st.composite
def _line(draw, key: str, values=None) -> str:
    """One assignment of key, from values or else from its field's values;
    a sweep key takes a list of one or two."""
    if key.startswith("sweep."):
        field_values = VALUES[key[len("sweep.") :]] if values is None else values
        return f"{key} = {', '.join(draw(st.lists(field_values, min_size=1, max_size=2)))}"
    return f"{key} = {draw(VALUES[key] if values is None else values)}"


@st.composite
def config_texts(draw) -> str:
    """A shuffled text of well-formed assignments to distinct keys, perhaps
    pinned users, and at most one fault: a junk value, a repeated or
    unknown key, a line without '=', or a user missing a coordinate."""
    keys = draw(st.lists(st.sampled_from(config.CONFIG_KEYS), unique=True, max_size=8))
    # the choice keys pick the pipeline, so each is set half the time
    keys += [key for key in CHOICES if key not in keys and draw(st.booleans())]
    lines = [draw(_line(key)) for key in keys]
    pinned = draw(st.integers(0, 3))
    if pinned:
        lines.append(f"users = {pinned}")
    for i in range(pinned):
        lines.append(f"scene.user{i}_x_m = {draw(st.floats(-1.0, 13.0))!r}")
        lines.append(f"scene.user{i}_y_m = {draw(st.floats(-1.0, 6.0))!r}")
    faults = [_line(key, JUNK) for key in config.CONFIG_KEYS]
    faults += [st.just("bogus.key = 1"), st.just("no equals sign")]
    if lines:
        faults.append(st.sampled_from(lines))  # a repeated key
    if pinned:
        faults.append(st.just(f"scene.user{pinned}_x_m = 1.0"))  # a user without y
    lines += draw(st.lists(st.one_of(faults), max_size=1))
    lines += draw(st.lists(st.just("# a comment"), max_size=1))
    return "\n".join(draw(st.permutations(lines))) + "\n"


# every key a file may set but a sweep key, and the sweep keys but sweep.arch
PLAIN_KEYS = [k for k in config.CONFIG_KEYS if not k.startswith("sweep.")]
OTHER_SWEEP_KEYS = [k for k in config.CONFIG_KEYS if k.startswith("sweep.") and k != "sweep.arch"]


def _in_range(key: str) -> st.SearchStrategy:
    """The value texts of a table key that pass its range check."""
    f = config._FIELD_OF[key]
    parse, check = f.metadata["parse"], f.metadata["check"]
    return VALUES[key].filter(lambda v: check is None or check[0](parse(v)))


@st.composite
def grid_texts(draw) -> str:
    """A text of in-range assignments to a few distinct keys, the choice
    keys each set half the time, perhaps one more grid key, and a sweep
    over two archs, which split the draw keys (fdma or not) and the link
    paths."""
    keys = draw(st.lists(st.sampled_from(PLAIN_KEYS), unique=True, max_size=6))
    keys += [key for key in CHOICES if key not in keys and draw(st.booleans())]
    lines = [draw(_line(key, _in_range(key))) for key in keys]
    for key in draw(st.lists(st.sampled_from(OTHER_SWEEP_KEYS), max_size=1)):
        lines.append(draw(_line(key, _in_range(key[len("sweep.") :]))))
    archs = draw(st.lists(st.sampled_from(config.ARCH_CHOICES), min_size=2, max_size=2, unique=True))
    return "\n".join(lines + [f"sweep.arch = {', '.join(archs)}"]) + "\n"


def accepted_combos(text: str):
    """The config and combos of text, or None when config refuses it.  The
    reader (parse_config_text, then build_config) is the one place a text
    is refused: build_config accepts a grid only when each of its combos
    is valid, so sweep_combos refuses no accepted config."""
    try:
        cfg = config.build_config(config.parse_config_text(text))
    except config.ConfigError:
        return None
    return cfg, config.sweep_combos(cfg)
