"""Where the watts go: one switched chain versus a chain per antenna.

An RF chain costs hundreds of mW before the ADC even samples; an on-off
switch costs about one.  Serving K users from M antennas therefore prices
out very differently depending on whether every antenna gets a chain
(digital beamforming), chains get phase-shifter networks (hybrid), or one
K-times-faster chain serves switched antennas.  The script prints the
component budgets and folds in a quick throughput run for bits per joule.
"""

import numpy as np

from switchmux import cli, runner
from switchmux.config import build_config, parse_config_text

# the power command's defaults are this demo's 8 antennas, 4 users, 10 MHz
print("component power (mW), 8 antennas, 4 users, 10 MHz per user:\n")
cli.main(["power"])

# Same watts question asked as efficiency: run a short experiment per
# architecture and divide delivered goodput by the power draw.
base = (
    "users = 4\nantennas = 8\nsnr_db = 20\nscenario = raytrace\n"
    "payload_symbols = 8\nseed = 4\n"
)
print("\nbits per joule over 30 random rooms at 20 dB SNR:")
bpj = {}  # arch -> median bits per joule
for arch in ("switched", "dbf", "fdma"):
    cfg = build_config(parse_config_text(base + f"arch = {arch}\n"))
    rows = [runner.run_trial(cfg, t) for t in range(30)]
    bpj[arch] = np.nanmedian([r["bits_per_joule"] for r in rows])
    goodput = np.nanmedian([r["goodput_bps"] for r in rows])
    print(
        f"  {arch:<9} median goodput {goodput / 1e6:>6.1f} Mbps, "
        f"{bpj[arch] / 1e9:>6.2f} Gbit/J"
    )

# the closing claim is read off the medians above, not asserted beforehand
leader = max(bpj, key=bpj.get)
ratio = bpj["switched"] / bpj["dbf"]
print("\nthe switched front end multiplexes the same four users as digital")
print(f"beamforming at {ratio:.1f}x the bits per joule of dbf; of the three")
print(f"archs, {leader} delivers the most bits per joule: {bpj[leader] / 1e9:.2f} Gbit/J")
