"""Ground-truth wireless channels between K users and M antennas.

A channel is a complex gain array [users, antennas, subcarriers] in fft bin
order (upper half = negative frequencies), matching the OFDM grid it
multiplies. Two sources: i.i.d. Rayleigh draws and image-source ray
tracing in a rectangular room, whose mirror images of up to two
reflections are the rows of one table (_IMAGES). Each path's phase across
the subcarriers is its carrier phase times a power ladder of one
per-subcarrier step, so a path costs two complex exps per antenna, not one
per subcarrier. Channels are frozen per packet (every experiment uses
static scenes) and applied per OFDM symbol in the frequency domain, so the
per-subcarrier product the combining math assumes holds exactly, with no
inter-symbol interference.
"""

from __future__ import annotations

import numpy as np

from .dsp import Rng, bins_first, bins_last, signed_bins, unit_complex

SPEED_OF_LIGHT = 299_792_458.0
CARRIER_HZ = 2.4e9
# ray-traced arrays are uniform lines with half-wavelength spacing
ARRAY_SPACING_M = SPEED_OF_LIGHT / CARRIER_HZ / 2.0
# a ray-traced user must stand at least this far from every antenna
MIN_CLEARANCE_M = 1e-6


def rayleigh(K: int, M: int, F: int, rng: Rng, num_taps: int = 1) -> np.ndarray:
    """i.i.d. unit-variance complex Gaussian per (user, antenna).

    Draws num_taps unit-total-power taps (uniform profile) per (user,
    antenna), unit_complex of rng, and takes their transfer function
    across the F bins, so num_taps may not exceed F (an F-point transform
    would drop the taps past F). num_taps = 1 gives a flat channel: the
    transform of one tap is that tap, bit for bit, in every bin.
    """
    if min(K, M, F) < 1 or num_taps < 1:
        raise ValueError("K, M, F, num_taps must be >= 1")
    if num_taps > F:
        raise ValueError(f"num_taps must be <= F = {F}, got {num_taps}")
    taps = unit_complex(rng, (K, M, num_taps)) / np.sqrt(num_taps)
    return np.fft.fft(taps, n=F, axis=2)


def ula_positions(M: int, ap_xy) -> np.ndarray:
    """Antenna positions [M, 2] of the ray-traced array: a uniform line
    along x with ARRAY_SPACING_M spacing, centered on the AP at ap_xy."""
    out = np.zeros((M, 2))
    out[:, 0] = (np.arange(M) - (M - 1) / 2.0) * ARRAY_SPACING_M
    return out + np.asarray(ap_xy, float)


# The image-source lattice of the room [0, lx] x [0, ly], which is exact for a
# rectangle: row (sx, ox, sy, oy, bounces) places the image of a user at
# (x, y) at (sx*x + ox*lx, sy*y + oy*ly).  The first 1, 5 or 13 rows hold the
# images of up to 0, 1 or 2 reflections: the direct path, one per wall, then
# two per pair of parallel walls and one per corner.
_IMAGES = (
    (1, 0, 1, 0, 0),
    (-1, 0, 1, 0, 1), (-1, 2, 1, 0, 1), (1, 0, -1, 0, 1), (1, 0, -1, 2, 1),
    (1, -2, 1, 0, 2), (1, 2, 1, 0, 2), (1, 0, 1, -2, 2), (1, 0, 1, 2, 2),
    (-1, 0, -1, 0, 2), (-1, 0, -1, 2, 2), (-1, 2, -1, 0, 2), (-1, 2, -1, 2, 2),
)


def ray_trace(
    room_m,
    antennas_m: np.ndarray,
    users_m,
    F: int,
    *,
    gamma: float,
    max_reflections: int,
    subcarrier_spacing_hz: float = 10e6 / 64,
) -> np.ndarray:
    """Image-source channel [users, antennas, F] for antennas_m [M, 2] and
    users_m [K, 2] inside the room [0, room_m[0]] x [0, room_m[1]], whose
    walls all reflect with gamma (the config checks the geometry).  Each
    user's paths are the first 1, 5 or 13 rows of the _IMAGES table for
    max_reflections 0, 1 or 2.  Per path of length d, amplitude
    gamma^bounces / d and phase e^{-j 2 pi (f_c + k df) d / c} at signed bin
    k, f_c = CARRIER_HZ and df = subcarrier_spacing_hz; a path of zero
    amplitude (gamma = 0) is skipped.  The phase factors into a carrier
    term e^{-j 2 pi f_c d / c} and a step s = e^{-j 2 pi df d / c} raised
    to k, so each path takes two exps per antenna: the powers s^1 .. s^(F//2)
    come from one cumprod, and the negative bins take their conjugates
    (|s| = 1)."""
    if max_reflections not in (0, 1, 2):
        raise ValueError("max_reflections must be 0, 1 or 2")
    if F < 1:
        raise ValueError("F must be >= 1")
    ants = np.asarray(antennas_m, float)
    users = np.asarray(users_m, float)
    lx, ly = float(room_m[0]), float(room_m[1])
    images = _IMAGES[: (1, 5, 13)[max_reflections]]
    amps = (1.0, gamma, gamma * gamma)
    half = F // 2  # bins 1 .. F-1-half, then -half .. -1
    powers = np.ones((len(ants), F), dtype=np.complex128)
    gains = np.zeros((len(users), len(ants), F), dtype=np.complex128)
    for u, user in enumerate(users):
        direct = np.linalg.norm(ants - user[None, :], axis=1)
        if np.min(direct) < MIN_CLEARANCE_M:
            raise ValueError("user coincides with an antenna position")
        x, y = float(user[0]), float(user[1])
        for sx, ox, sy, oy, bounces in images:
            amp = amps[bounces]
            if amp == 0.0:
                continue
            image = np.array([sx * x + ox * lx, sy * y + oy * ly])
            d = np.linalg.norm(ants - image[None, :], axis=1)
            carrier = np.exp(-2j * np.pi * (d * CARRIER_HZ) / SPEED_OF_LIGHT)
            step = np.exp(-2j * np.pi * (d * subcarrier_spacing_hz) / SPEED_OF_LIGHT)
            ladder = np.cumprod(np.broadcast_to(step[:, None], (len(d), half)), axis=1)
            powers[:, 1 : F - half] = ladder[:, : F - 1 - half]
            powers[:, F - half :] = ladder[:, ::-1].conj()
            gains[u] += ((amp / d) * carrier)[:, None] * powers
    return gains


def with_user_delays(gains: np.ndarray, offsets_samples) -> np.ndarray:
    """Fold per-user fractional-sample timing offsets into the channel as
    per-subcarrier linear phase ramps (exact within the cyclic prefix)."""
    offsets = np.asarray(offsets_samples, float)
    if offsets.shape != (gains.shape[0],):
        raise ValueError("one offset per user required")
    F = gains.shape[2]
    ramp = np.exp(-2j * np.pi * np.outer(offsets, signed_bins(F)) / F)
    return gains * ramp[:, None, :]


def apply(gains: np.ndarray, tx: np.ndarray, cp_len: int) -> np.ndarray:
    """Pass transmit signals [users, samples] through the channel gains
    [users, antennas, subcarriers]; returns the received signals [antennas,
    samples].  Leading axes, equal on both, stack independent links.

    Signals must be whole OFDM symbols of (F + cp_len) samples, with
    0 <= cp_len <= F (the prefix is a copy of the body's tail). Each symbol
    is filtered per subcarrier and its cyclic prefix is rebuilt from the
    filtered tail, which realizes exact circular convolution per symbol.
    """
    tx = np.asarray(tx)
    if gains.ndim < 3:
        raise ValueError("gains must be [users][antennas][subcarriers]")
    if tx.ndim != gains.ndim - 1 or tx.shape[:-1] != gains.shape[:-2]:
        raise ValueError("one stream per user required")
    *lead, num_users, total = tx.shape
    F = gains.shape[-1]
    sym_len = F + cp_len
    if cp_len < 0 or cp_len > F or total % sym_len != 0:
        raise ValueError("need 0 <= cp_len <= F and a whole number of symbols")
    bodies = tx.reshape(*lead, num_users, total // sym_len, sym_len)[..., cp_len:]
    spectra = np.fft.fft(bodies, axis=-1)
    # per link and subcarrier, gains [antennas, users] @ spectra [users, symbols]
    out_spectra = np.matmul(
        np.ascontiguousarray(gains.swapaxes(-1, -3)),
        np.ascontiguousarray(bins_first(spectra)),
    )
    out_bodies = np.fft.ifft(bins_last(out_spectra), axis=-1)
    symbols = np.concatenate([out_bodies[..., F - cp_len :], out_bodies], axis=-1)
    return symbols.reshape(*lead, gains.shape[-2], -1)
