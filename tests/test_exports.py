"""The package's surface: ``switchmux.__all__`` lists its submodules and
``__version__``, every function and class is imported from the
submodule that defines it, and every ``module.name`` README.md names
exists."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import switchmux
from switchmux.config import CONFIG_KEYS

MODULES = (
    "channel",
    "codes",
    "config",
    "despread",
    "dsp",
    "equalize",
    "frontend",
    "grouping",
    "metrics",
    "runner",
    "waveform",
)

# the names the package root re-exported before it listed only its
# submodules, each with the submodule that defines it
MOVED = {
    "Rng": "dsp",
    "code_spectrum": "codes",
    "generate_codes": "codes",
    "phase_matrix": "codes",
    "ConfigError": "config",
    "ExperimentConfig": "config",
    "build_config": "config",
    "load_config": "config",
    "parse_config_text": "config",
    "freq_despread": "despread",
    "time_despread": "despread",
    "capture_hybrid": "frontend",
    "capture_physical": "frontend",
    "capture_switched": "frontend",
    "control_word": "frontend",
    "GroupingError": "grouping",
    "inphase_select": "grouping",
    "random_switch_matrix": "grouping",
    "ray_trace": "channel",
    "rayleigh": "channel",
    "ula_positions": "channel",
    "build_frame": "waveform",
    "recover_bits": "waveform",
    "apply_combiner": "equalize",
    "estimate_channel": "equalize",
    "true_effective_channel": "equalize",
    "zf_weights": "equalize",
    "PowerReport": "metrics",
    "adc_power": "metrics",
    "bits_per_joule": "metrics",
    "capacity": "metrics",
    "evm": "metrics",
    "power": "metrics",
    "sinr": "metrics",
    "run_sweep": "runner",
    "run_trial": "runner",
    "sweep_combos": "config",
}


def test_all_lists_the_submodules_and_version():
    assert sorted(switchmux.__all__) == sorted(MODULES + ("__version__",))


@pytest.mark.parametrize("name", switchmux.__all__ + sorted(MOVED))
def test_exported_name_resolves(name):
    if name in MOVED:
        # defined in its submodule, and no longer a second path at the root
        module = getattr(switchmux, MOVED[name])
        assert getattr(module, name).__module__ == module.__name__
        assert not hasattr(switchmux, name)
    else:
        assert getattr(switchmux, name) is not None


def test_exports_are_listed_once():
    assert len(set(switchmux.__all__)) == len(switchmux.__all__)


def test_import_loads_exactly_the_submodules():
    src = str(Path(switchmux.__file__).parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import switchmux; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('switchmux'))))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout.split()
    assert loaded == sorted(["switchmux"] + [f"switchmux.{m}" for m in MODULES])


README = Path(__file__).parents[1] / "README.md"


def readme_names() -> list:
    """Each backticked ``module.name`` in README.md, or ``module.name(...)``
    with its arguments dropped, whose module is ``switchmux`` or one of its
    submodules, in order of first mention. Config keys such as
    ``frontend.quantizer_bits`` and file names such as ``grouping.py`` are
    not names of the package."""
    spans = re.findall(r"`((\w+)\.(\w+))(?:\([^`]*\))?`", README.read_text())
    modules = {"switchmux", "acceptance", *MODULES}
    named = [
        dotted
        for dotted, module, name in spans
        if module in modules and dotted not in CONFIG_KEYS and name not in ("py", "json", "csv")
    ]
    return list(dict.fromkeys(named))


def test_readme_names_some_of_the_package():
    assert {"dsp.KeptNormals", "runner.run_grid", "switchmux.acceptance"} <= set(readme_names())


@pytest.mark.parametrize("dotted", readme_names())
def test_readme_name_resolves(dotted):
    module, name = dotted.split(".")
    if module == "switchmux":
        # a package attribute, or a submodule loaded or not (acceptance)
        assert hasattr(switchmux, name) or importlib.util.find_spec(dotted)
    else:
        owner = importlib.import_module(f"switchmux.{module}")
        assert hasattr(owner, name), f"README.md names {dotted}, which {owner.__name__} lacks"
