"""Why the switch matrix is chosen by channel phase, not at random.

Four users stand across a 12 m x 5 m room served by an 8-antenna wall
array.  Every slot can gate any subset of antennas, so each virtual chain
is free to sum several antennas.  Summing antennas whose phases for one
user agree (within an acute cone) beams at that user before any digital
processing; summing random antennas just stirs the interference.  This
script prints the chosen matrix and the SINR gap against random and
one-antenna-per-chain switching.
"""

import numpy as np

from switchmux import runner
from switchmux.config import build_config, parse_config_text
from switchmux.dsp import Rng
from switchmux.frontend import control_word

TRIALS = 60

positions = ((2.0, 2.5), (4.5, 4.0), (7.5, 4.0), (10.0, 2.5))
pin = "".join(
    f"scene.user{i}_x_m = {x}\nscene.user{i}_y_m = {y}\n"
    for i, (x, y) in enumerate(positions)
)
base = (
    "users = 4\nantennas = 8\nsnr_db = 15\nscenario = raytrace\n"
    "payload_symbols = 2\nseed = 5\n" + pin
)

# Show the matrix the phase-cone selector picks for this room.
cfg = build_config(parse_config_text(base + "select = grouped\n"))
gains = runner._draw_channel(cfg, Rng(cfg.seed, 0))
matrix = runner._select_matrix(cfg, gains[:, :, runner.REFERENCE_BIN], Rng(cfg.seed, 0))
print("selected switch matrix (rows antennas, cols virtual chains):")
print(matrix)
print(f"control word: {control_word(matrix)}")
print(f"antennas per chain: {matrix.sum(axis=0)}")

print(f"\nmedian mean-SINR over {TRIALS} noise draws, same room:")
for select in ("grouped", "random", "identity"):
    cfg = build_config(parse_config_text(base + f"select = {select}\n"))
    med = np.median([runner.run_trial(cfg, t)["mean_sinr_db"] for t in range(TRIALS)])
    print(f"  {select:<9} {med:>7.2f} dB")

print("\ngrouped switching wins because each chain's antennas add nearly")
print("coherently for its user, making the effective channel diagonal heavy")
