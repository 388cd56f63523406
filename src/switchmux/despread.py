"""Extract the K virtual B-rate chains from one K*B-rate capture.

The capture is a 1-D array of K*samples; the chains come back as one
[K, samples] array, chain k fed by slot k. Two equivalent paths. The time
path slices samples Kn+k into chain k and removes the k/K-sample sampling
advance with an exact fractional delay; it is the canonical path used in
experiments. The frequency path partitions the spectrum into K zones
centered on the code harmonics and inverts the harmonic phase matrix; it
exists to validate the zone algebra and must agree with the time path to
numerical precision for any input.

time_spread is the time path's inverse: it interleaves K chains [K,
samples] into one K*samples stream, chain k advanced by k/K of a sample
into slot k. Despreading its output gives the chains back to rounding, so
the switched front end builds its noiseless K*B stream from the K slot
sums of the antennas it gates.
"""

from __future__ import annotations

import functools

import numpy as np

from .codes import phase_matrix
from .dsp import signed_bins


def _split(y: np.ndarray, K: int) -> int:
    if K < 1:
        raise ValueError("K must be >= 1")
    if y.ndim != 1 or y.size % K != 0:
        raise ValueError("capture must be 1-D with a length that divides by K")
    return y.size // K


@functools.lru_cache(maxsize=16)
def _delay_ramps(n: int, K: int) -> np.ndarray:
    """The bin ramps e^{-j2*pi*f*d/n} (signed bins f) of the circular
    delays d = k/K, k = 1..K-1, as [K-1, n], read-only; each chain gets
    the bytes of a one-chain circular delay by this expression."""
    f = signed_bins(n)
    delays = (np.arange(1, K) / K)[:, None]
    ramps = np.exp(-2j * np.pi * f * delays / n)
    ramps.flags.writeable = False
    return ramps


def time_despread(y: np.ndarray, K: int) -> np.ndarray:
    """Chain k = y[Kn+k], co-phased to chain 0.

    Slot k samples the underlying band-limited signal k/K of a B-sample
    early relative to slot 0, so co-phasing delays chain k by +k/K: chains
    1..K-1 take that exact circular delay in one batched FFT pair.
    """
    n = _split(y, K)
    slots = y.reshape(n, K).T
    chains = np.empty((K, n), dtype=np.complex128)
    chains[0] = slots[0]
    if K > 1:
        chains[1:] = np.fft.ifft(np.fft.fft(slots[1:]) * _delay_ramps(n, K))
    return chains


def time_spread(chains: np.ndarray) -> np.ndarray:
    """The K*samples stream [K*samples] whose time_despread is chains
    [K, samples]: slot k of each period is chain k advanced by k/K of a
    B-sample, chains 1..K-1 in one batched FFT pair by the conjugate of
    time_despread's ramps."""
    K, n = chains.shape
    slots = np.empty((K, n), dtype=np.complex128)
    slots[0] = chains[0]
    if K > 1:
        slots[1:] = np.fft.ifft(np.fft.fft(chains[1:]) * _delay_ramps(n, K).conj())
    return slots.T.reshape(-1)


def spectrum_zones(y: np.ndarray, K: int) -> np.ndarray:
    """K x N zone matrix: row m holds the spectrum around code harmonic
    m*B (offsets -B/2..B/2, stored in length-N fft bin order)."""
    n = _split(y, K)
    Y = np.fft.fft(y)
    g = signed_bins(n)
    return np.stack([Y[(m * n + g) % (n * K)] for m in range(K)])


def freq_despread(y: np.ndarray, K: int) -> np.ndarray:
    """Recover the chains by inverting the harmonic mixing.

    Each zone is a phase-matrix mix of the K slot signals; multiplying the
    zone stack by e^{+jP} unmixes them, and 1/K rescales the K*B-rate
    spectrum to a B-rate one.
    """
    unmixed = np.exp(1j * phase_matrix(K)) @ spectrum_zones(y, K)
    return np.fft.ifft(unmixed / K, axis=1)
