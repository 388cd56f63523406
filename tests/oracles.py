"""Plain reference operators that tests hold the package to.  Nothing in
``switchmux`` calls them: the package computes the same thing another way,
batched or in closed form."""

import numpy as np

from switchmux.dsp import signed_bins


def fractional_delay(x: np.ndarray, delay_samples: float) -> np.ndarray:
    """Delay a 1-D signal by a (possibly fractional) number of samples.

    Circular: multiplies DFT bin f by e^{-j2*pi*f*delay/N} with signed f, so
    the output content is x[n - delay] under periodic extension.
    """
    if not np.isfinite(delay_samples):
        raise ValueError("delay must be finite")
    n = len(x)
    if not abs(delay_samples) < n / 2:
        raise ValueError("|delay_samples| must be < length/2")
    if delay_samples == 0:
        return x
    f = signed_bins(n)
    return np.fft.ifft(np.fft.fft(x) * np.exp(-2j * np.pi * f * delay_samples / n))
