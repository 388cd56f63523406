"""The package's surface: ``switchmux.__all__`` lists its submodules and
``__version__``, and every function and class is imported from the
submodule that defines it."""

import subprocess
import sys
from pathlib import Path

import pytest

import switchmux

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
