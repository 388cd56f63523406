"""1/K duty-cycled on-off switching codes and the harmonic phase matrix.

Code i of K is on in slot i of every K-sample period. Its spectrum over any
whole number of periods is a comb: equal-magnitude peaks at the K harmonics
m*B with phase -2*pi*i*m/K, which is what lets K gated antenna signals share
one stream sampled at K*B and still be separated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SwitchCode:
    """One period of an on-off switching code: on in exactly one of K slots."""

    num_slots: int
    phase_index: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.int64)
        object.__setattr__(self, "bits", bits)
        if self.num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        if not 0 <= self.phase_index < self.num_slots:
            raise ValueError("phase_index out of range")
        if bits.shape != (self.num_slots,):
            raise ValueError("bits must have length num_slots")
        expected = np.zeros(self.num_slots, dtype=np.int64)
        expected[self.phase_index] = 1
        if not np.array_equal(bits, expected):
            raise ValueError("bits must be one-hot at phase_index")


def generate_codes(K: int) -> list[SwitchCode]:
    """The K orthogonal on-off codes; code i is on in slot i."""
    if K < 1:
        raise ValueError("K must be >= 1")
    out = []
    for i in range(K):
        bits = np.zeros(K, dtype=np.int64)
        bits[i] = 1
        out.append(SwitchCode(K, i, bits))
    return out


def code_spectrum(code: SwitchCode, num_samples: int) -> np.ndarray:
    """DFT of the code repeated to num_samples.

    Nonzero only at bins m*(num_samples/K) for m = 0..K-1, each with
    magnitude num_samples/K and phase -2*pi*phase_index*m/K.
    """
    if num_samples < 1 or num_samples % code.num_slots != 0:
        raise ValueError("num_samples must be a positive multiple of K")
    reps = num_samples // code.num_slots
    return np.fft.fft(np.tile(code.bits, reps).astype(np.complex128))


def phase_matrix(K: int) -> np.ndarray:
    """Phase matrix P with P[i][j] = 2*pi*i*j/K (not reduced mod 2*pi).

    e^{-jP} is an unnormalized DFT matrix that mixes the K slot signals
    into harmonic zones; (1/K) e^{+jP} is its exact inverse.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    idx = np.arange(K)
    return 2.0 * np.pi * np.outer(idx, idx) / K
