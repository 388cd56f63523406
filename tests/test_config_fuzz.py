"""Property test of the config reader over texts drawn from the config table.

Every key of ``config.CONFIG_KEYS`` can appear, with values drawn by the
parser its table field declares: integers and numbers from ranges that
straddle the checks (small explicit ranges for the size keys, so a trial
stays cheap) and every choice.  A text may pin users and may carry one
fault: junk text as a value, a repeated or unknown key, a line without
``=`` or a user missing a coordinate.  Three properties hold for every
text:

* a rejected text raises ConfigError, never another exception, whether
  build_config refuses it or sweep_combos refuses one of its combos;
* every combo of an accepted text runs trial 0 to a row, a NaN row when
  its selection fails;
* canonical_text reads back to equal combos and an equal digest.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from switchmux import config, runner

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
    "chains": (-1, 8),
    "trials": (0, 3),
    "payload_symbols": (0, 2),
    "ofdm.lts_repeats": (0, 2),
    "rayleigh.taps": (0, 3),
    "grouping.max_fallbacks": (-1, 8),
    "frontend.quantizer_bits": (-1, 12),
    "scene.max_reflections": (-1, 3),
    "seed": (-1, 2**64),
    "grouping.phi_rad": (-0.1, 1.7),
    "scene.gamma": (-0.1, 1.1),
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


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config_texts())
def test_config_texts_are_refused_or_run_and_read_back(text):
    # a text is accepted once it reads and each of its combos resolves
    try:
        cfg = config.build_config(config.parse_config_text(text))
        combos = runner.sweep_combos(cfg)
    except config.ConfigError:
        return
    for combo in combos:
        row = runner.run_trial(replace(combo, trials=1), 0)
        assert len(row["sinr_db"]) == combo.users
        runner.format_row(row, combo.users)

    canonical = config.canonical_text(cfg)
    again = config.build_config(config.parse_config_text(canonical))
    assert config.canonical_text(again) == canonical
    assert config.config_digest(again) == config.config_digest(cfg)
    # canonical_text leaves out the output path
    assert runner.sweep_combos(again) == [replace(c, out=None) for c in combos]
