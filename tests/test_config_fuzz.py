"""Property test of the config reader over texts drawn from the config table
(the strategies of ``config_strategies``).  Three properties hold for every
text:

* a rejected text raises ConfigError, never another exception, and the
  reader is the one place a text is refused: build_config refuses a grid
  with one invalid combo, and sweep_combos then refuses no accepted text;
* every combo of an accepted text runs trial 0 to a row, a NaN row when
  its selection fails;
* canonical_text reads back to equal combos and an equal digest.

Over in-range grid texts (``grid_texts``), a refused grid's error names
the key at fault: a base key out of range gives its message alone, as it
does without the grid, and a swept value out of range is named with its
combo.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from config_strategies import RANGES, accepted_combos, config_texts, grid_texts
from switchmux import config, runner


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config_texts())
def test_config_texts_are_refused_or_run_and_read_back(text):
    accepted = accepted_combos(text)
    if accepted is None:
        return
    cfg, combos = accepted
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


def _out_of_range(key: str) -> list:
    """The value texts of a number key that fail its range check, among
    the ends of the range config_strategies draws it from."""
    f = config._FIELD_OF[key]
    parse, check = f.metadata["parse"], f.metadata["check"]
    if check is None or parse not in (config._int, config._float):
        return []
    ends = RANGES.get(key, (-1, 4) if parse is config._int else (-1.0, 13.0))
    return [str(end) for end in ends if not check[0](parse(str(end)))]


# each number key with a range check, with its out-of-range value texts
OUT_OF_RANGE = {key: values for key in config._FIELD_OF if (values := _out_of_range(key))}
# the swept number keys
SWEPT_NUMBERS = sorted(key for key in OUT_OF_RANGE if "sweep." + key in config.CONFIG_KEYS)

GRID_SETTINGS = settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _refusal(text: str) -> str:
    with pytest.raises(config.ConfigError) as info:
        config.build_config(config.parse_config_text(text))
    return str(info.value)


def _set_keys(text: str) -> set:
    """The keys text assigns, a sweep key by the key it sweeps."""
    keys = {line.split("=")[0].strip() for line in text.splitlines()}
    return keys | {key[len("sweep.") :] for key in keys if key.startswith("sweep.")}


@GRID_SETTINGS
@given(grid_texts(), st.data())
def test_a_base_key_out_of_range_is_named_alone(text, data):
    assume(accepted_combos(text) is not None)
    free = sorted(set(OUT_OF_RANGE) - _set_keys(text))
    key = data.draw(st.sampled_from(free))
    bad = f"{key} = {data.draw(st.sampled_from(OUT_OF_RANGE[key]))}\n"
    message = f"{key} {config._FIELD_OF[key].metadata['check'][1]}"
    assert _refusal(text + bad) == message
    # as it reads without the grid
    base = "".join(line + "\n" for line in text.splitlines() if not line.startswith("sweep."))
    assert _refusal(base + bad) == message


@GRID_SETTINGS
@given(grid_texts(), st.data())
def test_a_swept_value_out_of_range_is_named_with_its_combo(text, data):
    key = data.draw(st.sampled_from(SWEPT_NUMBERS))
    assume("sweep." + key not in _set_keys(text))
    f = config._FIELD_OF[key]
    good = data.draw(st.sampled_from(["1", "2"] if f.metadata["parse"] is config._int else ["0.0"]))
    # every combo with the good value runs, so only the bad value's fail
    assume(accepted_combos(text + f"sweep.{key} = {good}\n") is not None)
    bad = data.draw(st.sampled_from(OUT_OF_RANGE[key]))
    message = _refusal(text + f"sweep.{key} = {good}, {bad}\n")
    assert message.startswith("sweep combo ")
    assert f"{key} = {f.metadata['parse'](bad)}" in message.split(": ")[0]
    assert message.endswith(f": {key} {f.metadata['check'][1]}")
