"""Walk through the switching codes that make one ADC act like K chains.

Each antenna is gated by a 1/K duty-cycle on-off code.  Gating at K times
the signal bandwidth copies every antenna's spectrum onto harmonics of the
slot rate, each copy tagged with a code-specific phase ramp.  Those phases
are what despreading later inverts, so this script prints them next to the
closed form to show where they come from.
"""

import numpy as np

from switchmux import codes
from switchmux.frontend import control_word

K = 4
family = codes.generate_codes(K)

print(f"{K}-slot switching codes (one period):")
for i, code in enumerate(family):
    pattern = "".join(str(b) for b in code)
    print(f"  code {i}: {pattern}")

# Orthogonality: no two codes share a slot, so one wire can carry all K
# gated signals without them ever colliding in time.
print("\npairwise slot overlaps (should be the identity):")
print(family @ family.T)

# The DFT of a repeated code is nonzero only at multiples of the slot
# rate. For a 10 MHz user bandwidth the harmonics sit at 0, B, 2B, 3B.
N = 64
print("\nspectrum of each code over one 64-sample window:")
print(f"{'code':>6} {'harmonic':>9} {'bin':>5} {'magnitude':>10} {'phase':>8}")
for i, code in enumerate(family):
    spec = codes.code_spectrum(code, N)
    for m in range(K):
        bin_idx = m * (N // K)
        mag = abs(spec[bin_idx])
        deg = np.degrees(np.angle(spec[bin_idx])) % -360.0 + 0.0
        print(f"{i:>6} {f'{m}B':>9} {bin_idx:>5} {mag:>10.1f} {deg:>8.1f}")

# The closed form behind the table: magnitude N/K at every harmonic and
# phase -2*pi*i*m/K for code i at harmonic m.
print("\nphase matrix 2*pi*i*m/K (degrees, negated on receive):")
print(np.round(np.degrees(codes.phase_matrix(K)), 1))

# Hardware drives the switches from a per-antenna control word: one bit
# per slot, antenna 0 first. The identity assignment (antenna k on in
# slot k) is the pattern used when comparing against per-antenna chains.
print(f"\nidentity switch matrix control word: {control_word(family)}")
