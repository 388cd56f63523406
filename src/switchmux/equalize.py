"""Channel estimation and inter-user interference cancellation.

Each user sends known training symbols in its own time slot, so every
chain-user pair gets a clean per-subcarrier estimate of the effective
channel (physical channel times switch matrix).  Per-bin stacks are
bins-first, the layout a batched matmul reads: effective channels are heff
arrays [data bins, chains, users] on the physical scale (transmit power
normalization undone), one matrix per entry of DATA_BINS, and combiner
weights are [data bins, users, chains].  The pilot bins carry nothing this
receiver reads, so they are neither estimated nor combined.  The digital
combiner inverts heff bin by bin and nulls interference exactly on
full-rank bins.  A square stack (chains == users) is inverted in one call,
and a bin keeps that inverse when its condition number certifies full
rank; every other bin, and every stack that is not square (dbf's), takes
the pseudo-inverse from one stacked SVD, whose singular values also give
each bin's rank.  Null-space combining (config's ``combiner =
nullspace``) projects each user onto the directions the others cannot
reach; config admits it only on square channels (chains == users, or one
user), where that projection is the user's row of the inverse, so it is
zero-forcing and has no function of its own.

Estimation and combining read a capture's symbol spectra [chains, symbols,
fft bins] (``waveform.symbol_spectra`` of a [chains, samples] capture of a
build_frame frame), taken once per link; the user count and the training
repeats locate its training slots and payload.  Every array may carry
leading axes that stack independent links of one shape, as an FDMA trial's
one-user links do: spectra [..., chains, symbols, fft bins] give heff
[..., data bins, chains, users], weights [..., data bins, users, chains],
erased bins [..., data bins] and grids [..., users, payload symbols, data
bins], each link estimated, inverted and combined on its own.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dsp import bins_first, bins_last
from .waveform import DATA_BINS, LTS_FREQ, TX_SCALE


class CombinerMatrix(NamedTuple):
    """Per-bin combining weights: weights[data bin][user][chain].

    ``erased`` marks bins whose effective channel could not be inverted;
    their symbols are zeroed downstream and count as errors.
    """

    weights: np.ndarray
    erased: np.ndarray


def true_effective_channel(
    gains: np.ndarray, mixing: np.ndarray | None = None, loss_amp: float = 1.0
) -> np.ndarray:
    """Ground-truth effective channel for a linear antenna front end.

    ``mixing`` is the M x C antenna-to-chain matrix (binary switch columns
    or phase-shifter weights):
    heff[f, c, u] = loss_amp * sum_m mixing[m, c] * H[u, m, f] on the data bins.
    Dedicated chains, one per antenna, pass no matrix: heff[f, m, u] =
    loss_amp * H[u, m, f], and gains [..., users, antennas, bins] with
    leading link axes give heff [..., data bins, antennas, users].
    """
    picked = gains[..., DATA_BINS]
    if mixing is None:
        return loss_amp * picked.swapaxes(-1, -3)
    mixing = np.asarray(mixing, dtype=np.complex128)
    if mixing.ndim != 2 or mixing.shape[0] != gains.shape[1]:
        raise ValueError("mixing must be antennas x chains")
    users, antennas, bins = picked.shape
    # one product over every (user, bin) column
    columns = picked.transpose(1, 0, 2).reshape(antennas, users * bins)
    return np.moveaxis(loss_amp * (mixing.T @ columns).reshape(-1, users, bins), 2, 0)


def estimate_channel(spectra: np.ndarray, num_users: int, lts_repeats: int) -> np.ndarray:
    """Estimate heff[..., data bin, chain, user] from the staggered training
    slots of a capture's symbol spectra [..., chains, symbols, fft bins],
    whose leading axes stack independent links.

    Each user's slot holds only that user's training symbol, so division by
    the known transmitted value gives the effective channel directly;
    repetitions are averaged.
    """
    preamble = num_users * lts_repeats
    if spectra.ndim < 3 or spectra.shape[-2] < preamble:
        raise ValueError("spectra must be [chains, symbols, bins] holding every training slot")
    slots = spectra[..., :preamble, DATA_BINS].reshape(
        *spectra.shape[:-2], num_users, lts_repeats, -1
    )
    return bins_first(slots.mean(axis=-2) / (TX_SCALE * LTS_FREQ[DATA_BINS]))


def zf_weights(heff: np.ndarray, rank_tolerance: float = 1e-9) -> CombinerMatrix:
    """Per-bin pseudo-inverse of the effective channel, all bins stacked.

    heff is [..., data bins, chains, users]; any leading axes stack more
    bins, each inverted on its own.  A bin is erased when the effective
    matrix has rank below the user count at the given singular-value
    cutoff; its weights are still the truncated pseudo-inverse, but
    downstream symbols are not trusted.

    A square stack (chains == users) is inverted in one call.  A bin keeps
    its inverse when its Frobenius condition number certifies full rank,
    kappa_F * rank_tolerance < 1/2: since kappa_2 <= kappa_F, its
    sigma_min / sigma_max then exceeds 2 * rank_tolerance, a factor 2 above
    the cutoff that covers the SVD's rounding, so the SVD rule would not
    erase it either.  Every other bin, a whole stack holding an exactly
    singular bin, and every stack that is not square take the SVD
    pseudo-inverse.
    """
    chains, users = heff.shape[-2:]
    if chains != users:
        return _svd_weights(heff, rank_tolerance)
    try:
        weights = np.linalg.inv(heff)
    except np.linalg.LinAlgError:  # a bin with an exact zero pivot
        return _svd_weights(heff, rank_tolerance)
    kappa = np.linalg.norm(heff, axis=(-2, -1)) * np.linalg.norm(weights, axis=(-2, -1))
    # written so that a nan or inf condition number counts as doubtful
    doubtful = ~(kappa * rank_tolerance < 0.5)
    erased = np.zeros(heff.shape[:-2], dtype=bool)
    if doubtful.any():
        weights[doubtful], erased[doubtful] = _svd_weights(heff[doubtful], rank_tolerance)
    return CombinerMatrix(weights=weights, erased=erased)


def _svd_weights(heff: np.ndarray, rank_tolerance: float) -> CombinerMatrix:
    """The truncated pseudo-inverse of each bin, from one stacked SVD, and
    the bins whose rank at the cutoff is below the user count."""
    users = heff.shape[-1]
    # np.linalg.pinv step for step, keeping the singular values it cuts
    u, sing, vt = np.linalg.svd(heff.conj(), full_matrices=False)  # sing descending
    # an all-zero bin has no singular value above 0, so its rank is 0
    large = sing > rank_tolerance * sing[..., :1]
    inv = np.divide(1, sing, where=large, out=sing)
    inv[~large] = 0
    pinv = np.matmul(vt.swapaxes(-1, -2), inv[..., None] * u.swapaxes(-1, -2))
    return CombinerMatrix(weights=pinv, erased=large.sum(axis=-1) < users)


def apply_combiner(spectra: np.ndarray, comb: CombinerMatrix, lts_repeats: int) -> np.ndarray:
    """Equalize the payload: [..., users, payload symbols, data bins] QAM
    grids, one per leading index of the spectra and the weights.

    Every symbol of the capture's spectra [..., chains, symbols, fft bins]
    after the users' training slots is payload.  Output is on the unit
    constellation scale; erased bins are zeroed and therefore decode as
    errors.
    """
    preamble = comb.weights.shape[-2] * lts_repeats
    if spectra.ndim < 3 or spectra.shape[-2] <= preamble:
        raise ValueError("spectra must be [chains, symbols, bins] holding a payload symbol")
    payload = spectra[..., preamble:, DATA_BINS] / TX_SCALE
    # per bin, weights [users, chains] @ payload [chains, symbols]
    grids = np.matmul(comb.weights, np.ascontiguousarray(bins_first(payload)))
    grids[comb.erased] = 0.0
    return np.ascontiguousarray(bins_last(grids))
