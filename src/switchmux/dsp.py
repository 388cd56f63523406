"""Deterministic signal utilities shared by every other module.

Signals are plain complex ndarrays of baseband samples. This module holds
the signed-bin DFT convention, the bins-first layout of per-bin stacks
(bins_first, bins_last), band-limited resampling and a counter-based
seeded RNG, with a kept prefix of one or more of its streams (KeptNormals)
for consumers that share the streams' leading values.
Everything here is pure: same inputs, same outputs, on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    # splitmix64 finalizer; integer-only so it is platform independent.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass
class Rng:
    """Counter-based random stream keyed by (master_seed, stream_id).

    Two Rng values built with the same pair produce identical draw
    sequences. Derived child streams (``derive``) are statistically
    independent of the parent and of each other; trials and purposes get
    their own stream_id, so concurrent use never shares mutable state.
    normals feeds unit_complex and KeptNormals, bits draws payloads, and
    any other draw reads generator.
    """

    master_seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must fit in 64 bits")
        if not 0 <= self.stream_id <= _MASK64:
            raise ValueError("stream_id must fit in 64 bits")

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = self.master_seed | (self.stream_id << 64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def derive(self, purpose: int) -> "Rng":
        """Child stream for a sub-task; deterministic in (stream_id, purpose)."""
        mixed = _splitmix64(self.stream_id ^ _splitmix64(purpose & _MASK64))
        return Rng(self.master_seed, mixed)

    def normals(self, n: int) -> np.ndarray:
        """The stream's next n standard normals."""
        return self.generator.standard_normal(n)

    def bits(self, shape) -> np.ndarray:
        """Random payload bits of the given shape as an int array of 0/1."""
        return self.generator.integers(0, 2, shape).astype(np.int64)


class KeptNormals:
    """The leading standard normals of one or more Rng streams, drawn once
    and kept.

    normals(n) returns, on every call and read-only, the first n / L values
    of each of its L streams, stream after stream; with one stream, the
    stream's first n values.  The first call draws them straight into the
    kept buffer, and a longer call later draws only the values past it.  A
    consumer that makes one normals call on a fresh Rng gets the same
    values from a KeptNormals of that stream, so consumers that read one
    stream share its draw, and a consumer of L stacked links reads each
    link's stream as a lone consumer of that link would.
    """

    def __init__(self, *rngs: Rng) -> None:
        if not rngs:
            raise ValueError("KeptNormals needs at least one stream")
        self.rngs = rngs
        self.values = np.empty((len(rngs), 0))  # [streams, kept]
        self.values.flags.writeable = False

    def normals(self, n: int) -> np.ndarray:
        """The first n / L normals of each of the L streams, read-only."""
        streams, kept = self.values.shape
        each, rest = divmod(n, streams)
        if rest:
            raise ValueError(f"{n} normals do not split evenly over {streams} streams")
        if each > kept:
            drawn = [rng.normals(each - kept) for rng in self.rngs]
            # a lone stream's draw is kept as it is, without a copy
            more = drawn[0][None] if streams == 1 else np.stack(drawn)
            self.values = np.concatenate((self.values, more), axis=1) if kept else more
            self.values.flags.writeable = False
        out = self.values[:, :each].reshape(-1)
        out.flags.writeable = False
        return out


def unit_complex(source, shape) -> np.ndarray:
    """Circularly-symmetric complex normals of shape, unit variance per
    element, from one source.normals(2 * size) call (source is an Rng or a
    KeptNormals): the first half of the values are the real parts in C
    order, the second half the imaginary parts."""
    out = np.empty(shape, dtype=np.complex128)
    z = source.normals(2 * out.size)
    out.real = z[: out.size].reshape(out.shape)
    out.imag = z[out.size :].reshape(out.shape)
    out /= np.sqrt(2.0)
    return out


def bins_first(a: np.ndarray) -> np.ndarray:
    """a [..., x, y, bins] viewed as [..., bins, x, y], the layout of the
    per-bin stacks a batched matmul reads: np.moveaxis(a, -1, -3) as two
    swaps, since moveaxis checks its arguments in Python at several times
    the cost of the swaps."""
    return a.swapaxes(-1, -2).swapaxes(-2, -3)


def bins_last(a: np.ndarray) -> np.ndarray:
    """a [..., bins, x, y] viewed as [..., x, y, bins], bins_first undone:
    np.moveaxis(a, -3, -1) as two swaps."""
    return a.swapaxes(-3, -2).swapaxes(-2, -1)


def signed_bins(n: int) -> np.ndarray:
    """Signed bin indices in fft order: [0, 1, .., n/2-1, -n/2, .., -1].

    For even n the single bin n/2 is read as -n/2 (no Nyquist split);
    upsample below and despread's fractional-delay ramps share this
    convention.
    """
    return np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)


def upsample(x: np.ndarray, factor: int) -> np.ndarray:
    """Exact band-limited upsampling of a 1-D signal by an integer factor.

    Frequency-domain zero insertion: the N input bins land on the central
    zone of the N*factor grid (bin N/2 goes to -N/2), everything else is
    zero. Output sample factor*n equals input sample n exactly.
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError("factor must be a positive integer")
    if factor == 1:
        return x
    n = len(x)
    out = np.zeros(n * factor, dtype=np.complex128)
    out[signed_bins(n)] = np.fft.fft(x)
    return np.fft.ifft(out) * factor
