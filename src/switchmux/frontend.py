"""Analog front ends: switched single-chain capture and baselines.

capture_switched models the system under study: M antennas gated at K times
the per-user bandwidth by one-hot slot codes, passively combined, and
sampled by a single chain at K*B. capture_physical (one chain per antenna,
a row of rx) and capture_hybrid (per-antenna phase shifters into fewer
chains) are the comparison front ends. Every front end takes the received
B-rate signals [antennas, samples] and returns (output, noise): the switched
K*B capture [K*samples] or the chains [chains, samples], and the noise law.
capture_physical also takes leading link axes, [..., antennas, samples].

The switched chain is linear, and despreading the noiseless K*B capture
gives back each slot's gated sum of B-rate antenna signals exactly. Both
switched paths start from those K slot sums, the product S.T @ rx
(_slot_sums). switched_chains adds the despread K*B noise to them, in
closed form; the runner uses it whenever the quantizer is off.
capture_switched interleaves them into the noiseless K*B stream
(despread.time_spread, time_despread's inverse) and adds the slot noise,
and the runner runs it only for a quantized chain, whose rounding needs
the K*B stream. capture_hybrid is likewise one product, weights.T @ rx,
and capture_physical draws every chain's noise in one call. The products
run on numpy's BLAS, which a sweep holds to one thread
(runner.one_blas_thread).

Noise draw: each front end draws its noise in one rng.normals(n) call, the
leading n standard normals of the stream it is given, and lays them out
itself: the switched slot noise and the hybrid's antenna noise as
dsp.unit_complex does (every real part, then every imaginary part), the
physical chains chain by chain (each chain's real parts, then its
imaginary parts). rng is an Rng or the kept noise stream of a drawn link
(dsp.KeptNormals, one per runner.draw_trial link), whose normals(n) is
the first n values of that stream on every call. So every combo of one
draw reads one draw of the link's stream, and a capture reads only the
leading part it needs: a switched capture of K chains reads the first
2*K*samples of the values that dbf and the hybrids read for M antennas.
FDMA's chains read each user's own stream: its link stacks the users'
one-chain links, capture_physical lays the noise out link by link, and
the link's KeptNormals holds one stream per user, so user u's chain gets
the first 2*samples values of stream u.

Noise convention: noise_power turns snr_db into sigma2, the per-sample
noise variance of a B-rate chain, against the received power per user
averaged over the whole frame (received_power). The runner measures that
power once per drawn link (one per user of a stacked FDMA link) and
derives sigma2 from it for each combo's snr_db, passing the same sigma2 to
whichever front end captures, so every architecture shares one noise
reference. Training slots carry one user each, so in a multi-user frame
the payload SNR sits above snr_db. Each
front end draws its noise for any sigma2 (zero scales it to exact zeros)
and returns the law of that noise in the shape metrics.sinr reads:
- switched: variances [K], sigma2 * S.sum(axis=0). Noise enters at K*B
  after combining, and each of the n antennas a slot gates brings its own
  front-end noise through the n-way passive split, so an identity-switched
  virtual chain and a physical chain are noise-equivalent by construction;
- physical: variances [chains], sigma2 on every chain, or [..., chains]
  for stacked links, each link's own sigma2 on its chains;
- hybrid: covariance [K, K], sigma2 * weights.T @ weights.conj(): noise
  enters per antenna (each has its own LNA ahead of the phase shifters),
  which gives coherent combining its 10*log10(M) SNR gain, and the weights
  correlate it across chains.
"""

from __future__ import annotations

import math

import numpy as np

from .despread import time_despread, time_spread
from .dsp import Rng, unit_complex
from .dsp import upsample  # noqa: F401  (bench/tracing.py wraps frontend.upsample)


def control_word(S: np.ndarray) -> str:
    """Switch control word of an M x K 0/1 matrix: one hex row per antenna,
    antenna 0 first, slot 0 at each row's least significant bit."""
    S = np.asarray(S, dtype=np.int64)
    digits = max(1, math.ceil(S.shape[1] / 4))
    values = S @ (1 << np.arange(S.shape[1]))
    return "".join(format(int(v), f"0{digits}X") for v in values)


def _check_received(rx: np.ndarray) -> None:
    if rx.ndim != 2 or rx.shape[0] < 1:
        raise ValueError("received signals must be [antennas, samples]")


def _checked_switch(rx: np.ndarray, S: np.ndarray) -> np.ndarray:
    """S as an array, after checking rx and that S is an M x K 0/1 matrix
    with one row per antenna of rx and no empty slot."""
    _check_received(rx)
    S = np.asarray(S)
    if S.ndim != 2 or S.shape[0] != rx.shape[0]:
        raise ValueError("switch matrix must be M x K with one row per stream")
    if not np.isin(S, (0, 1)).all():
        raise ValueError("switch matrix entries must be 0 or 1")
    if np.any(S.sum(axis=0) == 0):
        raise ValueError("every slot column needs at least one antenna")
    return S


def _slot_noise(S: np.ndarray, reps: int, sigma2: float, rng: Rng) -> tuple:
    """The switched chain's K*B noise [K*reps], slot k of each period
    scaled by the number of antennas it gates, and the variances [K] of
    the chains it despreads to (see the noise convention above)."""
    law = sigma2 * S.sum(axis=0)
    noise = unit_complex(rng, law.size * reps)
    noise *= np.sqrt(np.tile(law, reps))
    return noise, law


def received_power(rx: np.ndarray):
    """The mean per-antenna received power of rx [antennas, samples], one
    per leading index of rx [..., antennas, samples]."""
    return np.mean(np.mean(np.abs(rx) ** 2, axis=-1), axis=-1)


def noise_power(p_rx, snr_db: float, num_users: int):
    """Per-sample noise variance for a B-rate chain at snr_db, referred to
    the received power p_rx (received_power) per user; one per entry of an
    array p_rx."""
    p_ref = p_rx / num_users
    return p_ref / 10 ** (snr_db / 10)


def quantize(samples: np.ndarray, bits: int) -> np.ndarray:
    """Uniform midrise quantizer on I and Q, full scale at the peak."""
    if bits < 1:
        raise ValueError(f"quantizer needs at least 1 bit, got {bits}")
    scale = max(np.max(np.abs(samples.real)), np.max(np.abs(samples.imag)), 1e-30)
    levels = 2**bits
    step = 2 * scale / levels
    half = levels // 2

    def q(v):
        return (np.clip(np.floor(v / step), -half, half - 1) + 0.5) * step

    return q(samples.real) + 1j * q(samples.imag)


def _slot_sums(rx: np.ndarray, S: np.ndarray, loss_amp: float) -> np.ndarray:
    """loss_amp times the sum of the B-rate signals of the antennas each
    slot gates, [K, samples]: the noiseless switched chains."""
    # S is real, so S.T @ rx runs as a real product on rx's interleaved real
    # and imaginary parts; adding the gated rows in antenna order, it gives
    # the bytes of a per-slot sum of rows
    parts = np.ascontiguousarray(rx, dtype=np.complex128).view(np.float64)
    sums = (S.T.astype(np.float64) @ parts).view(np.complex128)
    sums *= loss_amp
    return sums


def capture_switched(
    rx: np.ndarray,
    S: np.ndarray,
    sigma2: float,
    rng: Rng,
    *,
    loss_amp: float = 1.0,
    quantizer_bits: int = 0,
) -> tuple:
    """Gate, combine and sample M B-rate antenna signals on one K*B chain.

    Each antenna's signal is band-limited interpolated to K*B, multiplied
    sample-by-sample with its slot sequence, scaled by the switch loss
    amplitude loss_amp, and summed. By linearity that stream is the K slot
    sums of the gated antennas, slot k's advanced by k/K of a B-sample and
    interleaved (time_spread), which is how it is computed. AWGN of B-rate
    variance sigma2 per gated antenna and, for quantizer_bits > 0, a
    uniform quantizer are applied to the combined capture [K*samples].
    S is the M x K 0/1 switch matrix, rows antennas, columns slots; every
    slot must gate at least one antenna. Returns the capture and the noise
    variances [K] of the chains time_despread recovers from it, taken before
    quantization: the SINR does not model quantization noise.
    """
    S = _checked_switch(rx, S)
    noise, law = _slot_noise(S, rx.shape[1], sigma2, rng)
    total = time_spread(_slot_sums(rx, S, loss_amp)) + noise
    if quantizer_bits:
        total = quantize(total, quantizer_bits)
    return total, law


def switched_chains(
    rx: np.ndarray, S: np.ndarray, sigma2: float, rng: Rng, loss_amp: float = 1.0
) -> tuple:
    """The K virtual chains [K, samples] that time_despread recovers from an
    unquantized capture_switched capture, in closed form, and their noise
    variances [K], as capture_switched returns them.

    Chain k is loss_amp times the sum of the B-rate signals of the antennas
    slot k gates, plus the time-despread K*B noise capture_switched draws
    from rng.  S and rx are checked as capture_switched checks them.
    """
    S = _checked_switch(rx, S)
    chains = _slot_sums(rx, S, loss_amp)
    noise, law = _slot_noise(S, rx.shape[1], sigma2, rng)
    chains += time_despread(noise, S.shape[1])
    return chains, law


def capture_physical(rx: np.ndarray, sigma2, rng: Rng) -> tuple:
    """One dedicated B-rate chain per antenna (row of rx [antennas,
    samples]), independent AWGN of variance sigma2 per chain, no switches
    and no insertion loss; returns the chains and their noise variances
    [chains].  Leading axes of rx [..., antennas, samples] stack
    independent links, sigma2 is then one value or one per link [...], and
    the variances are [..., chains]."""
    if rx.ndim < 2 or rx.shape[-2] < 1:
        raise ValueError("received signals must be [antennas, samples]")
    # per link, laid out chain by chain: each chain's real parts, then its
    # imaginary parts (the golden rows pin this order)
    noisy = np.empty(rx.shape, dtype=np.complex128)
    z = rng.normals(2 * noisy.size).reshape(*rx.shape[:-1], 2, rx.shape[-1])
    noisy.real = z[..., 0, :]
    noisy.imag = z[..., 1, :]
    noisy /= np.sqrt(2.0)
    sigma2 = np.asarray(sigma2, dtype=float)[..., None]  # [..., 1], over the chains
    noisy *= np.sqrt(sigma2)[..., None]
    noisy += rx
    return noisy, np.broadcast_to(sigma2, rx.shape[:-1]).copy()


def hybrid_weights(H_ref: np.ndarray, arch: str) -> np.ndarray:
    """Unit-modulus phase-shifter weights [antennas][chains] steering chain
    k at user k, one chain per user.

    H_ref is [users][antennas]; arch is "hbf_full", which connects every
    antenna to every chain, or "hbf_partial", which keeps only a contiguous
    block of M/users antennas per chain (zero weight = not connected).
    """
    K, M = H_ref.shape
    w = np.exp(-1j * np.angle(H_ref)).T.copy()  # [antennas][chains]
    if arch == "hbf_partial":
        if M % K != 0:
            raise ValueError("hbf_partial needs K to divide M")
        w *= np.kron(np.eye(K), np.ones((M // K, 1)))
    elif arch != "hbf_full":
        raise ValueError("arch must be 'hbf_full' or 'hbf_partial'")
    return w


def capture_hybrid(rx: np.ndarray, weights: np.ndarray, sigma2: float, rng: Rng) -> tuple:
    """Phase-shifter front end: chain k = sum_m weights[m][k] * antenna_m.

    Noise of variance sigma2 enters per antenna (ahead of the combining
    network) and is therefore correlated across chains through the
    weights; returns the chains and their noise covariance [K, K]. A zero
    weight leaves its antenna unconnected; nonzero weights must be unit
    modulus.
    """
    _check_received(rx)
    weights = np.asarray(weights, dtype=np.complex128)
    if weights.ndim != 2 or weights.shape[0] != rx.shape[0]:
        raise ValueError("weights must be M x K")
    nz = np.abs(weights[weights != 0])
    if nz.size and np.max(np.abs(nz - 1.0)) > 1e-9:
        raise ValueError("nonzero weights must be unit modulus")
    noisy = unit_complex(rng, rx.shape)
    noisy *= np.sqrt(sigma2)
    noisy += rx
    return weights.T @ noisy, sigma2 * (weights.T @ weights.conj())
