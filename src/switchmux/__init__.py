"""switchmux: link-level simulator of a switched-antenna multi-user receiver.

A single RF chain sampled at K times the per-user bandwidth, with each
antenna gated by a 1/K duty-cycled on-off code, carries K "virtual" receive
chains. The package implements the switching-code math, the despreading that
recovers the virtual chains, phase-aligned antenna grouping, OFDM modem,
channel models, digital combining, baseline architectures (digital, hybrid,
FDMA) and the power/energy models, plus a deterministic Monte-Carlo
experiment runner.
"""

__version__ = "0.1.0"

from .dsp import Rng, fractional_delay
from .codes import code_spectrum, generate_codes, phase_matrix
from .config import ConfigError, ExperimentConfig, build_config, load_config, parse_config_text
from .despread import freq_despread, time_despread
from .frontend import capture_hybrid, capture_physical, capture_switched, control_word
from .grouping import GroupingError, inphase_select, random_switch_matrix
from .channel import ray_trace, rayleigh, ula_positions
from .waveform import build_frame, recover_bits
from .equalize import (
    apply_combiner,
    estimate_channel,
    nullspace_weights,
    true_effective_channel,
    zf_weights,
)
from .metrics import PowerReport, adc_power, bits_per_joule, capacity, evm, power, sinr
from .runner import run_sweep, run_trial, sweep_combos

__all__ = [
    "Rng",
    "fractional_delay",
    "code_spectrum",
    "generate_codes",
    "phase_matrix",
    "ConfigError",
    "ExperimentConfig",
    "build_config",
    "load_config",
    "parse_config_text",
    "freq_despread",
    "time_despread",
    "capture_hybrid",
    "capture_physical",
    "capture_switched",
    "control_word",
    "GroupingError",
    "inphase_select",
    "random_switch_matrix",
    "ray_trace",
    "rayleigh",
    "ula_positions",
    "build_frame",
    "recover_bits",
    "apply_combiner",
    "estimate_channel",
    "nullspace_weights",
    "true_effective_channel",
    "zf_weights",
    "PowerReport",
    "adc_power",
    "bits_per_joule",
    "capacity",
    "evm",
    "power",
    "sinr",
    "run_sweep",
    "run_trial",
    "sweep_combos",
    "__version__",
]
