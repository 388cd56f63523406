"""Where the watts go: one switched chain versus a chain per antenna.

An RF chain costs hundreds of mW before the ADC even samples; an on-off
switch costs about one.  Serving K users from M antennas therefore prices
out very differently depending on whether every antenna gets a chain
(digital beamforming), chains get phase-shifter networks (hybrid), or one
K-times-faster chain serves switched antennas.  The script prints the
component budgets and folds in a quick throughput run for bits per joule.
"""

import numpy as np

from switchmux import metrics, runner
from switchmux.config import build_config, parse_config_text

BW = 10e6

print("component power (mW), 8 antennas, 4 users, 10 MHz per user:\n")
rows = [
    ("switched", metrics.power("switched", 8, 4, BW)),
    ("dbf", metrics.power("dbf", 8, 8, BW)),
    ("hbf_full", metrics.power("hbf_full", 8, 4, BW)),
    ("fdma", metrics.power("fdma", 1, 1, 4 * BW)),
]
print(f"{'arch':<10}{'rfe':>8}{'switch':>8}{'adc':>8}{'total':>8}")
for name, rep in rows:
    print(
        f"{name:<10}{rep.rfe_mw:>8.0f}{rep.switch_mw:>8.0f}"
        f"{rep.adc_mw:>8.0f}{rep.total_mw:>8.0f}"
    )

# Same watts question asked as efficiency: run a short experiment per
# architecture and divide delivered goodput by the power draw.
base = (
    "users = 4\nantennas = 8\nsnr_db = 20\nscenario = raytrace\n"
    "payload_symbols = 8\nseed = 4\n"
)
print("\nbits per joule over 30 random rooms at 20 dB SNR:")
for arch in ("switched", "dbf", "fdma"):
    cfg = build_config(parse_config_text(base + f"arch = {arch}\n"))
    rows = [runner.run_trial(cfg, t) for t in range(30)]
    bpj = np.nanmedian([r["bits_per_joule"] for r in rows])
    goodput = np.nanmedian([r["goodput_bps"] for r in rows])
    print(
        f"  {arch:<9} median goodput {goodput / 1e6:>6.1f} Mbps, "
        f"{bpj / 1e9:>6.2f} Gbit/J"
    )

print("\nthe switched front end multiplexes the same four users as digital")
print("beamforming from a fraction of its wall power, so every delivered")
print("bit costs several times fewer joules")
