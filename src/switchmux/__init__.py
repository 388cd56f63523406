"""switchmux: link-level simulator of a switched-antenna multi-user receiver.

A single RF chain sampled at K times the per-user bandwidth, with each
antenna gated by a 1/K duty-cycled on-off code, carries K "virtual" receive
chains. The package implements the switching-code math, the despreading that
recovers the virtual chains, phase-aligned antenna grouping, OFDM modem,
channel models, digital combining, baseline architectures (digital, hybrid,
FDMA) and the power/energy models, plus a deterministic Monte-Carlo
experiment runner.

The public API is the submodules listed in ``__all__``; each name is
imported from the module that defines it, e.g. ``from switchmux.dsp import
Rng`` or ``from switchmux import runner``.
"""

__version__ = "0.1.0"

from . import (
    channel,
    codes,
    config,
    despread,
    dsp,
    equalize,
    frontend,
    grouping,
    metrics,
    runner,
    waveform,
)

__all__ = [
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
    "__version__",
]
