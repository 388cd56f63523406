"""Metric arithmetic and power model tests."""

from dataclasses import replace

import numpy as np
import pytest

from switchmux import metrics
from switchmux.config import ARCH_CHOICES, ExperimentConfig
from switchmux.metrics import (
    ADC_FOM,
    adc_power,
    bits_per_joule,
    capacity,
    evm,
    goodput_and_ber,
    power,
    sinr,
)
from switchmux.waveform import DATA_BINS


def flat_effective(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return np.repeat(matrix[None], DATA_BINS.size, axis=0)


def identity_combiner(n):
    return np.repeat(np.eye(n, dtype=complex)[None], DATA_BINS.size, axis=0)


class TestSinr:
    def test_ten_to_one_leakage_reads_20db(self):
        truth = flat_effective([[1.0, 0.1], [0.1, 1.0]])
        got = sinr(identity_combiner(2), truth, np.zeros((2, 2)))
        assert np.allclose(got, 20.0, atol=1e-9)

    def test_perfect_separation_caps_at_80db(self):
        truth = flat_effective(np.eye(3))
        got = sinr(identity_combiner(3), truth, np.zeros((3, 3)))
        assert np.allclose(got, 80.0)

    def test_noise_term_uses_combiner_norm(self):
        truth = flat_effective(np.eye(1))
        w = np.full((DATA_BINS.size, 1, 1), 2.0, dtype=complex)
        # signal |2|^2, noise |2|^2 * 0.1 -> SINR = 1/0.1
        got = sinr(w, truth, 0.1 * np.eye(1))
        assert np.allclose(got, 10.0, atol=1e-9)

    def test_more_noise_never_raises_sinr(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        truth = flat_effective(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        comb = identity_combiner(3)
        levels = [sinr(comb, truth, p * np.eye(3)) for p in (0.0, 0.01, 0.1, 1.0)]
        for weaker, stronger in zip(levels[1:], levels[:-1]):
            assert np.all(weaker <= stronger + 1e-12)

    def test_correlated_noise_follows_quadratic_form(self):
        truth = flat_effective([[1.0], [1.0]])
        w = np.ones((DATA_BINS.size, 1, 2), dtype=complex)
        # fully correlated chains: noise |1+1|^2 * 0.1, signal |2|^2
        got = sinr(w, truth, noise=0.1 * np.ones((2, 2)))
        assert np.allclose(got, 10.0 * np.log10(4.0 / 0.4))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 3), (2, 2, 2)])
    def test_rejects_noise_of_another_shape(self, shape):
        truth = flat_effective(np.eye(2))
        with pytest.raises(ValueError, match="noise must be"):
            sinr(identity_combiner(2), truth, np.ones(shape))
        # 2 users on 3 chains: the noise is sized by the chains, not the users
        wide = flat_effective(np.eye(2, 3))
        assert np.all(np.isfinite(sinr(wide, wide.transpose(0, 2, 1), np.ones(3))))
        with pytest.raises(ValueError, match="noise must be"):
            sinr(wide, wide.transpose(0, 2, 1), np.ones(2))


@pytest.mark.parametrize("users, chains", [(1, 1), (2, 3), (4, 4), (8, 8), (8, 64)])
def test_noise_form_matches_the_three_operand_einsum(users, chains):
    rng = np.random.default_rng(users * 100 + chains)
    v = rng.normal(size=(48, users, chains)) + 1j * rng.normal(size=(48, users, chains))
    occupancy = rng.integers(1, 4, chains).astype(np.float64)
    w = np.exp(1j * rng.uniform(0, 2 * np.pi, (chains + 2, chains)))
    for noise, exact in [
        (np.full(chains, 0.3), True),  # physical chains
        (0.2 * occupancy, True),  # switch slots of uneven occupancy
        (0.3 * np.eye(chains), True),  # the same chains as a covariance
        (0.2 * np.diag(occupancy), True),
        (0.01 * (w.T @ w.conj()), False),  # correlated phase-shifter chains
    ]:
        cov = (np.diag(noise) if noise.ndim == 1 else noise).astype(np.complex128)
        old = np.real(np.einsum("fuc,cd,fud->uf", v, cov, v.conj()))
        got = metrics._noise_form(v, noise)
        if exact:
            assert np.array_equal(got, old)
        else:
            np.testing.assert_allclose(got, old, rtol=1e-12)


def diagonal_noise_form(v, noise_cov):
    """The noise form of a diagonal covariance as it was computed from a
    dense complex matrix: the rows scaled by its complex diagonal."""
    rows = v.transpose(1, 0, 2)
    weighted = rows * np.diagonal(np.asarray(noise_cov, dtype=np.complex128))
    return np.real(np.einsum("ufd,ufd->uf", weighted, rows.conj()))


@pytest.mark.parametrize("chains", [4, 8, 64])
def test_chain_variances_give_the_bytes_of_the_dense_diagonal(chains):
    rng = np.random.default_rng(chains)
    users = min(chains, 8)
    v = rng.normal(size=(48, users, chains)) + 1j * rng.normal(size=(48, users, chains))
    sigma2 = float(rng.uniform(1e-3, 1.0))
    slots = rng.integers(0, 2, (2 * chains, chains))
    slots[rng.integers(0, 2 * chains, chains), np.arange(chains)] = 1
    # the runner's variances: sigma2 per physical chain, sigma2 times the
    # antennas each switch slot gates
    for variances in (np.full(chains, sigma2), sigma2 * slots.sum(axis=0)):
        want = diagonal_noise_form(v, np.diag(variances))
        assert np.array_equal(metrics._noise_form(v, variances), want)


@pytest.mark.parametrize("users, chains", [(1, 1), (2, 3), (8, 8), (8, 64)])
def test_sinr_matches_the_einsum_product(users, chains):
    rng = np.random.default_rng(users * 10 + chains)
    v = rng.normal(size=(48, users, chains)) + 1j * rng.normal(size=(48, users, chains))
    heff = rng.normal(size=(48, chains, users)) + 1j * rng.normal(size=(48, chains, users))
    cov = 0.5 * np.eye(chains, dtype=np.complex128)
    p = np.einsum("fuc,fcj->ujf", v, heff)
    power = np.abs(p) ** 2
    wanted = power[np.arange(users), np.arange(users)]
    noise = np.real(np.einsum("fuc,cd,fud->uf", v, cov, v.conj()))
    lin = wanted / (power.sum(axis=1) - wanted + noise)
    want = lin.mean(axis=1)
    got = 10.0 ** (sinr(v, heff, cov) / 10.0)
    np.testing.assert_allclose(got, want, rtol=1e-12)


class TestEvm:
    def test_known_error_ratio(self):
        ref = np.ones((2, 3, 4), dtype=complex)
        noisy = ref + 0.1
        assert abs(evm(noisy, ref) - 10.0) < 1e-9

    def test_silent_reference_rejected(self):
        with pytest.raises(ValueError):
            evm(np.ones(4), np.zeros(4))


class TestCapacity:
    def test_four_users_at_15db_reads_about_200mbps(self):
        got = capacity(np.full(4, 15.0), 10e6)
        assert 195e6 <= got <= 205e6
        assert abs(got - 201.1e6) < 0.2e6

    def test_vanishing_sinr_vanishes(self):
        assert capacity(np.array([-200.0]), 10e6) < 1.0

    def test_doubling_bandwidth_doubles_capacity(self):
        one = capacity(np.array([12.0, 9.0]), 10e6)
        two = capacity(np.array([12.0, 9.0]), 20e6)
        assert abs(two - 2 * one) < 1e-6

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            capacity(np.array([10.0]), 0.0)


class TestPowerModel:
    def test_switched_receiver_total(self):
        report = power(ExperimentConfig("switched", users=4, antennas=8, bandwidth_hz=10e6))
        assert (report.rfe_mw, report.switch_mw, report.adc_mw) == (354.0, 8.0, 400.0)
        assert report.total_mw == 762.0

    def test_four_chain_digital_total(self):
        report = power(ExperimentConfig("dbf", users=4, antennas=4, bandwidth_hz=10e6))
        assert report.total_mw == 2032.0

    def test_eight_chain_digital_total(self):
        report = power(ExperimentConfig("dbf", users=4, antennas=8, bandwidth_hz=10e6))
        assert report.total_mw == 4064.0

    def test_single_chain_wideband_total(self):
        # fdma's one chain samples all four users' bands, whatever the array
        for antennas in (1, 8):
            report = power(ExperimentConfig("fdma", users=4, antennas=antennas))
            assert (report.rfe_mw, report.switch_mw, report.adc_mw) == (354.0, 0.0, 400.0)
            assert report.total_mw == 754.0

    def test_hybrid_pays_per_chain_front_end_but_no_switches(self):
        report = power(ExperimentConfig("hbf_full", users=8, antennas=64))
        assert report.rfe_mw == 408.0 * 8
        assert report.switch_mw == 0.0

    @pytest.mark.parametrize("arch", ARCH_CHOICES)
    def test_prices_every_config_arch(self, arch):
        assert power(ExperimentConfig(arch, users=4, antennas=8)).total_mw > 0

    def test_both_hybrids_price_alike(self):
        full = ExperimentConfig("hbf_full", users=8, antennas=64)
        assert power(full) == power(replace(full, arch="hbf_partial"))

    def test_unknown_arch_rejected(self):
        # "hbf" names no architecture: the hybrids are hbf_full and hbf_partial
        for arch in ("hbf", "mimo"):
            with pytest.raises(ValueError, match="unknown architecture"):
                power(ExperimentConfig(arch, users=4, antennas=4))

    @pytest.mark.parametrize("field", [{"users": 0}, {"antennas": 0}, {"bandwidth_hz": 0.0}])
    def test_non_positive_receiver_rejected(self, field):
        with pytest.raises(ValueError, match="must be positive"):
            power(replace(ExperimentConfig(), **field))

    def test_adc_linearity_and_resolution(self):
        base = adc_power(ADC_FOM, 12, 10e6)
        assert abs(base - 0.1) < 1e-12
        assert abs(adc_power(ADC_FOM, 12, 40e6) - 4 * base) < 1e-12
        assert abs(adc_power(ADC_FOM, 13, 10e6) - 2 * base) < 1e-12


class TestGoodput:
    def airtime_and_payloads(self, symbols=50, users=4):
        bits_per_user = 96 * symbols - 6
        airtime = symbols * 8e-6
        rng = np.random.Generator(np.random.Philox(key=9))
        sent = rng.integers(0, 2, (users, bits_per_user))
        return airtime, sent

    def test_error_free_four_users_near_48mbps(self):
        airtime, sent = self.airtime_and_payloads()
        goodput, ber = goodput_and_ber(sent.copy(), sent, airtime)
        assert ber == 0.0
        assert abs(goodput - 48e6) < 0.2e6

    def test_one_corrupted_user_drops_to_three_quarters(self):
        airtime, sent = self.airtime_and_payloads()
        got = sent.copy()
        got[2, 17] ^= 1
        goodput, ber = goodput_and_ber(got, sent, airtime)
        assert abs(goodput - 36e6) < 0.2e6
        assert 0 < ber < 1e-4

    def test_random_guessing_gives_half_ber(self):
        airtime, sent = self.airtime_and_payloads(symbols=100, users=1)
        rng = np.random.Generator(np.random.Philox(key=10))
        got = rng.integers(0, 2, sent.shape)
        goodput, ber = goodput_and_ber(got, sent, airtime)
        assert goodput == 0.0
        assert abs(ber - 0.5) < 0.02

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            goodput_and_ber(np.zeros((1, 3), int), np.zeros((1, 4), int), 1e-3)


class TestEnergyEfficiency:
    def test_fixed_goodput_decreasing_in_power(self):
        values = [bits_per_joule(48e6, mw) for mw in (754.0, 762.0, 2032.0, 4064.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_unit_conversion(self):
        assert abs(bits_per_joule(48e6, 1000.0) - 48e6) < 1e-6
