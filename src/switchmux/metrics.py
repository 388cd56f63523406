"""Link quality metrics and the receiver power model.

SINR is computed against the ground-truth effective channel, the way
hardware testbeds measure it from known preambles.  The power model prices
the analog front end, the switch network and the ADCs; its module constants
reproduce published receiver totals.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import ARCH_CHOICES, ExperimentConfig

SINR_CAP_DB = 80.0

# ADC figure of merit calibrated so a 12-bit converter burns 100 mW per
# 10 MHz of sampled spectrum.
ADC_BITS = 12
ADC_FOM = 0.1 / (2**ADC_BITS * 1e7)

RFE_SINGLE_CHAIN_MW = 354.0
RFE_PER_CHAIN_MW = 408.0
SWITCH_PER_ANTENNA_MW = 1.0


class PowerReport(NamedTuple):
    """Receiver power split into RF front end, switches and ADCs."""

    rfe_mw: float
    switch_mw: float
    adc_mw: float

    @property
    def total_mw(self) -> float:
        return self.rfe_mw + self.switch_mw + self.adc_mw


def _cap_linear(lin: np.ndarray) -> np.ndarray:
    return np.minimum(lin, 10.0 ** (SINR_CAP_DB / 10.0))


def _noise_form(v: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Real part of V_u C V_u^H for combiner weights v [bins, users, chains];
    returns [users, bins].

    noise is either the variances [chains] of independent chains, the
    diagonal of C, or the covariance C [chains, chains] of correlated ones.
    Each user's rows [bins, chains] are scaled by the variances or
    multiplied by C, then multiplied by their own conjugates row by row.
    """
    rows = v.transpose(1, 0, 2)
    weighted = rows * noise if noise.ndim == 1 else rows @ noise
    return np.real(np.einsum("ufd,ufd->uf", weighted, rows.conj()))


def sinr(weights: np.ndarray, heff: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Per-user post-combining SINR in dB of combiner weights V [data bins,
    users, chains] against the true channel heff [data bins, chains, users]
    and the chain noise.

    P[f, u, j] = sum_c V[f, u, c] * Heff[f, c, j]; per bin the wanted power
    is |P_uu|^2, interference is the other columns, and the noise term is
    the quadratic form V_u C V_u^H of the combiner row with the chain noise
    covariance C.  noise is the law a front end returns (see frontend):
    the diagonal of C [chains] for independent chains, or C [chains,
    chains].  Bins average in the linear domain; values cap at +80 dB.
    """
    # per bin, V [users, chains] @ Heff [chains, users]
    p = np.matmul(weights, np.ascontiguousarray(heff))
    # C order [users, users, bins], so the sums over users below add in the
    # same order whatever the product's layout
    p = np.ascontiguousarray(p.transpose(1, 2, 0))
    power = np.abs(p) ** 2
    num_users = power.shape[0]
    idx = np.arange(num_users)
    wanted = power[idx, idx]
    interference = power.sum(axis=1) - wanted
    noise = np.asarray(noise)
    chains = weights.shape[2]
    if noise.shape not in ((chains,), (chains, chains)):
        raise ValueError("noise must be [chains] or [chains, chains]")
    denom = interference + np.maximum(_noise_form(weights, noise), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lin = np.where(denom > 0, wanted / np.maximum(denom, 1e-300), np.inf)
    lin = _cap_linear(np.where(wanted == 0, 0.0, lin))
    per_user = _cap_linear(lin.mean(axis=1))
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(per_user)


def evm(equalized: np.ndarray, reference: np.ndarray) -> float:
    """RMS error vector magnitude as a percentage of the reference RMS."""
    equalized = np.asarray(equalized)
    reference = np.asarray(reference)
    if equalized.shape != reference.shape:
        raise ValueError("grids must share a shape")
    ref_power = np.mean(np.abs(reference) ** 2)
    if ref_power == 0:
        raise ValueError("reference grid is silent")
    err_power = np.mean(np.abs(equalized - reference) ** 2)
    return float(100.0 * np.sqrt(err_power / ref_power))


def capacity(sinr_db: np.ndarray, bandwidth_hz: float) -> float:
    """Shannon sum rate: sum_u B * log2(1 + SINR_u)."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    lin = 10.0 ** (np.asarray(sinr_db, dtype=float) / 10.0)
    return float(np.sum(bandwidth_hz * np.log2(1.0 + lin)))


def adc_power(fom: float, bits: int, sample_rate_hz: float) -> float:
    """Converter power in watts: FoM * 2^bits * F_s (linear in rate)."""
    if fom <= 0 or bits <= 0 or sample_rate_hz <= 0:
        raise ValueError("fom, bits and sample_rate_hz must be positive")
    return fom * (2.0**bits) * sample_rate_hz


def power(cfg: ExperimentConfig) -> PowerReport:
    """Power of the receiver cfg describes, its arch named as in
    config.ARCH_CHOICES.

    Single-RF-chain receivers (switched, fdma) pay one front end; per-chain
    receivers (dbf, hbf_full, hbf_partial) pay one per chain, cfg.chains.
    Only the switched design pays the 1 mW-per-antenna switch network.
    Each chain's converter samples one bandwidth_hz band, except fdma's
    single chain, which samples every user's band.  ADC power scales
    linearly with the total sampled bandwidth regardless of whether that
    spectrum lives in one fast converter or many slow ones.
    """
    if cfg.arch not in ARCH_CHOICES:
        raise ValueError(f"unknown architecture {cfg.arch!r}")
    if cfg.antennas < 1 or cfg.users < 1 or cfg.bandwidth_hz <= 0:
        raise ValueError("antennas, users and bandwidth must be positive")
    if cfg.arch in ("switched", "fdma"):
        rfe = RFE_SINGLE_CHAIN_MW
    else:
        rfe = RFE_PER_CHAIN_MW * cfg.chains
    switch = SWITCH_PER_ANTENNA_MW * cfg.antennas if cfg.arch == "switched" else 0.0
    bands = cfg.users if cfg.arch == "fdma" else cfg.chains
    adc = 1000.0 * adc_power(ADC_FOM, ADC_BITS, bands * cfg.bandwidth_hz)
    return PowerReport(rfe_mw=rfe, switch_mw=switch, adc_mw=adc)


def goodput_and_ber(recovered: np.ndarray, sent: np.ndarray, airtime_s: float) -> tuple:
    """Packet-level goodput (bps) and raw post-decode BER of payloads
    [users, bits].

    A user's payload counts toward goodput only when every recovered bit is
    correct; airtime covers the payload symbols of the shared frame.
    """
    recovered = np.asarray(recovered)
    sent = np.asarray(sent)
    if recovered.shape != sent.shape or sent.ndim != 2:
        raise ValueError("recovered and sent must be equal [users, bits] arrays")
    if not sent.size:
        raise ValueError("empty payloads")
    if airtime_s <= 0:
        raise ValueError("airtime must be positive")
    wrong = np.count_nonzero(recovered != sent, axis=1)
    delivered = sent.shape[1] * np.count_nonzero(wrong == 0)
    return delivered / airtime_s, int(wrong.sum()) / sent.size


def bits_per_joule(goodput_bps: float, total_mw: float) -> float:
    """Energy efficiency: delivered bits per joule of receiver energy."""
    if total_mw <= 0:
        raise ValueError("total power must be positive")
    return goodput_bps / (total_mw / 1000.0)
