"""1/K duty-cycled on-off switching codes and the harmonic phase matrix.

Code i of K is on in slot i of every K-sample period. Its spectrum over any
whole number of periods is a comb: equal-magnitude peaks at the K harmonics
m*B with phase -2*pi*i*m/K, which is what lets K gated antenna signals share
one stream sampled at K*B and still be separated.
"""

from __future__ import annotations

import numpy as np


def generate_codes(K: int) -> np.ndarray:
    """The K orthogonal on-off codes as a K x K int64 identity: row i is
    code i, on in slot i."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return np.eye(K, dtype=np.int64)


def code_spectrum(code: np.ndarray, num_samples: int) -> np.ndarray:
    """DFT of one code period (a row of generate_codes) repeated to
    num_samples.

    For code i of K it is nonzero only at bins m*(num_samples/K) for
    m = 0..K-1, each with magnitude num_samples/K and phase -2*pi*i*m/K.
    """
    code = np.asarray(code)
    if code.ndim != 1 or code.size < 1:
        raise ValueError("code must be one period of K slots")
    K = code.size
    if num_samples < 1 or num_samples % K != 0:
        raise ValueError("num_samples must be a positive multiple of K")
    return np.fft.fft(np.tile(code, num_samples // K).astype(np.complex128))


def phase_matrix(K: int) -> np.ndarray:
    """Phase matrix P with P[i][j] = 2*pi*i*j/K (not reduced mod 2*pi).

    e^{-jP} is an unnormalized DFT matrix that mixes the K slot signals
    into harmonic zones; (1/K) e^{+jP} is its exact inverse.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    idx = np.arange(K)
    return 2.0 * np.pi * np.outer(idx, idx) / K
