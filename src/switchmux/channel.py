"""Ground-truth wireless channels between K users and M antennas.

A channel is a complex gain array [users, antennas, subcarriers] in fft bin
order (upper half = negative frequencies), matching the OFDM grid it
multiplies. Two sources: i.i.d. Rayleigh draws and image-source ray
tracing in a rectangular room. Channels are frozen per packet (every
experiment uses static scenes) and applied per OFDM symbol in the
frequency domain, so the per-subcarrier product the combining math assumes
holds exactly, with no inter-symbol interference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsp import Rng, signed_bins

SPEED_OF_LIGHT = 299_792_458.0
CARRIER_HZ = 2.4e9
# ray-traced arrays are uniform lines with half-wavelength spacing
ARRAY_SPACING_M = SPEED_OF_LIGHT / CARRIER_HZ / 2.0


def rayleigh(K: int, M: int, F: int, rng: Rng, num_taps: int = 1) -> np.ndarray:
    """i.i.d. unit-variance complex Gaussian per (user, antenna).

    num_taps = 1 gives a flat channel across subcarriers; num_taps > 1
    draws that many unit-total-power taps (uniform profile) and takes
    their transfer function across the F bins.
    """
    if min(K, M, F) < 1 or num_taps < 1:
        raise ValueError("K, M, F, num_taps must be >= 1")
    if num_taps == 1:
        flat = rng.normal_complex((K, M))
        return np.repeat(flat[:, :, None], F, axis=2)
    taps = rng.normal_complex((K, M, num_taps)) / np.sqrt(num_taps)
    return np.fft.fft(taps, n=F, axis=2)


def ula_offsets(M: int, spacing_m: float, axis: str = "x") -> np.ndarray:
    """Uniform linear array offsets centered on the AP position."""
    line = (np.arange(M) - (M - 1) / 2.0) * spacing_m
    out = np.zeros((M, 2))
    out[:, 0 if axis == "x" else 1] = line
    return out


@dataclass(frozen=True)
class RoomScene:
    """Rectangular floor plan [0, room_x] x [0, room_y] with reflective walls.

    wall_gammas are the reflection coefficients of the walls at
    x=0, x=room_x, y=0, y=room_y in that order.
    """

    room_x_m: float
    room_y_m: float
    ap_xy_m: tuple
    user_xy_m: list
    antenna_offsets_m: np.ndarray = field(default_factory=lambda: np.zeros((1, 2)))
    wall_gammas: tuple = (0.6, 0.6, 0.6, 0.6)

    def __post_init__(self) -> None:
        object.__setattr__(self, "antenna_offsets_m", np.asarray(self.antenna_offsets_m, float))
        if self.room_x_m <= 0 or self.room_y_m <= 0:
            raise ValueError("room dimensions must be positive")
        if len(self.wall_gammas) != 4:
            raise ValueError("wall_gammas must list 4 walls")
        for p in [self.ap_xy_m, *self.user_xy_m]:
            if not (0 < p[0] < self.room_x_m and 0 < p[1] < self.room_y_m):
                raise ValueError("AP and users must be strictly inside the room")
        for pos in self.antenna_positions():
            if not (0 < pos[0] < self.room_x_m and 0 < pos[1] < self.room_y_m):
                raise ValueError("antenna positions must stay inside the room")

    def antenna_positions(self) -> np.ndarray:
        return np.asarray(self.ap_xy_m, float)[None, :] + self.antenna_offsets_m


def _image_sources(scene: RoomScene, user_xy, max_reflections: int):
    """Image positions and amplitude coefficients up to two bounces.

    For a rectangle the image lattice is exact: 1 direct image, 4 single
    bounce, 8 double bounce (2 per parallel wall pair + 4 corners).
    """
    sx, sy = float(user_xy[0]), float(user_xy[1])
    lx, ly = scene.room_x_m, scene.room_y_m
    gx0, gx1, gy0, gy1 = scene.wall_gammas
    images = [((sx, sy), 1.0)]
    if max_reflections >= 1:
        images += [
            ((-sx, sy), gx0),
            ((2 * lx - sx, sy), gx1),
            ((sx, -sy), gy0),
            ((sx, 2 * ly - sy), gy1),
        ]
    if max_reflections >= 2:
        images += [
            ((sx - 2 * lx, sy), gx1 * gx0),
            ((sx + 2 * lx, sy), gx0 * gx1),
            ((sx, sy - 2 * ly), gy1 * gy0),
            ((sx, sy + 2 * ly), gy0 * gy1),
            ((-sx, -sy), gx0 * gy0),
            ((-sx, 2 * ly - sy), gx0 * gy1),
            ((2 * lx - sx, -sy), gx1 * gy0),
            ((2 * lx - sx, 2 * ly - sy), gx1 * gy1),
        ]
    return images


def ray_trace(
    scene: RoomScene,
    F: int,
    max_reflections: int = 1,
    carrier_hz: float = CARRIER_HZ,
    subcarrier_spacing_hz: float = 10e6 / 64,
) -> np.ndarray:
    """Image-source channel: per path, amplitude gamma^bounces / distance and
    phase e^{-j 2 pi (f_c + f_sc) d / c} per subcarrier."""
    if max_reflections not in (0, 1, 2):
        raise ValueError("max_reflections must be 0, 1 or 2")
    if F < 1:
        raise ValueError("F must be >= 1")
    ants = scene.antenna_positions()
    K, M = len(scene.user_xy_m), len(ants)
    freqs = carrier_hz + signed_bins(F) * subcarrier_spacing_hz
    gains = np.zeros((K, M, F), dtype=np.complex128)
    for u, user in enumerate(scene.user_xy_m):
        direct = np.linalg.norm(ants - np.asarray(user, float)[None, :], axis=1)
        if np.min(direct) < 1e-6:
            raise ValueError("user coincides with an antenna position")
        for (ix, iy), amp in _image_sources(scene, user, max_reflections):
            if amp == 0.0:
                continue
            d = np.linalg.norm(ants - np.array([ix, iy])[None, :], axis=1)
            phase = np.exp(-2j * np.pi * np.outer(d, freqs) / SPEED_OF_LIGHT)
            gains[u] += (amp / d)[:, None] * phase
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
    """Pass transmit signals [users, samples] through the channel; returns
    the received signals [antennas, samples].

    Signals must be whole OFDM symbols of (F + cp_len) samples. Each symbol
    is filtered per subcarrier and its cyclic prefix is rebuilt from the
    filtered tail, which realizes exact circular convolution per symbol.
    """
    tx = np.asarray(tx)
    if gains.ndim != 3:
        raise ValueError("gains must be [users][antennas][subcarriers]")
    if tx.ndim != 2 or tx.shape[0] != gains.shape[0]:
        raise ValueError("one stream per user required")
    num_users, total = tx.shape
    F = gains.shape[2]
    sym_len = F + cp_len
    if cp_len < 0 or total % sym_len != 0:
        raise ValueError("stream length must be a whole number of symbols")
    bodies = tx.reshape(num_users, total // sym_len, sym_len)[:, :, cp_len:]
    spectra = np.fft.fft(bodies, axis=2)
    out_spectra = np.einsum("umf,usf->msf", gains, spectra)
    out_bodies = np.fft.ifft(out_spectra, axis=2)
    if cp_len:
        symbols = np.concatenate([out_bodies[:, :, -cp_len:], out_bodies], axis=2)
    else:
        symbols = out_bodies
    return symbols.reshape(gains.shape[1], -1)
