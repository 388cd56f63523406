"""Property test of the config reader over texts drawn from the config table
(the strategies of ``config_strategies``).  Three properties hold for every
text:

* a rejected text raises ConfigError, never another exception, and the
  reader is the one place a text is refused: build_config refuses a grid
  with one invalid combo, and sweep_combos then refuses no accepted text;
* every combo of an accepted text runs trial 0 to a row, a NaN row when
  its selection fails;
* canonical_text reads back to equal combos and an equal digest.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings

from config_strategies import accepted_combos, config_texts
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
