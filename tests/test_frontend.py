import re

import numpy as np
import pytest

from switchmux.codes import generate_codes
from switchmux.despread import time_despread
from switchmux.dsp import Rng, unit_complex, upsample
from switchmux.frontend import (
    capture_hybrid,
    capture_physical,
    capture_switched,
    control_word,
    hybrid_weights,
    noise_power,
    quantize,
    received_power,
    switched_chains,
)

NOISELESS = 0.0


def random_streams(m, n, seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    return np.stack([g.standard_normal(n) + 1j * g.standard_normal(n) for _ in range(m)])


class TestControlWord:
    def test_identity_codes(self):
        # the K codes are the identity switch matrix: antenna k on in slot k
        assert control_word(generate_codes(4)) == "1248"

    def test_row_hex_lsb_is_slot_zero(self):
        S = np.array([[1, 0, 1, 0], [0, 1, 1, 1]])
        assert control_word(S[:1]) == "5"
        assert control_word(S[1:]) == "E"
        assert control_word(S) == "5E"

    def test_wide_rows_use_two_digits(self):
        S = np.array([[1, 0, 0, 0, 0, 0, 0, 1], [0, 1, 1, 1, 1, 1, 1, 0]], dtype=int)
        assert control_word(S[:1]) == "81"
        assert control_word(S) == "817E"

    def test_twelve_slot_rows_use_three_digits(self):
        S = np.array([[1] + [0] * 10 + [1], [0] + [1] * 11])
        assert control_word(S[:1]) == "801"
        assert control_word(S) == "801FFE"


class TestCaptureSwitched:
    def test_single_antenna_single_slot_identity(self):
        x = random_streams(1, 64, 2)
        y, _ = capture_switched(x, np.array([[1]]), NOISELESS, Rng(1))
        assert y.shape == (64,)
        assert np.max(np.abs(y - x[0])) < 1e-12

    def test_identity_matrix_interleaves_interpolated_antennas(self):
        streams = random_streams(4, 32, 3)
        y, _ = capture_switched(streams, np.eye(4, dtype=int), NOISELESS, Rng(1))
        assert y.shape == (4 * 32,)
        for k in range(4):
            up = upsample(streams[k], 4)
            assert np.max(np.abs(y[k::4] - up[k::4])) < 1e-12

    def test_shared_slot_sums_antennas(self):
        streams = random_streams(2, 32, 4)
        S = np.array([[1, 0], [1, 1]])
        y, _ = capture_switched(streams, S, NOISELESS, Rng(1))
        a = upsample(streams[0], 2)
        b = upsample(streams[1], 2)
        assert np.max(np.abs(y[0::2] - (a + b)[0::2])) < 1e-12
        assert np.max(np.abs(y[1::2] - b[1::2])) < 1e-12

    def test_insertion_loss_scales_amplitude(self):
        streams = random_streams(1, 32, 5)
        y, _ = capture_switched(
            streams, np.array([[1]]), NOISELESS, Rng(1), loss_amp=10 ** (-0.3)
        )
        assert np.max(np.abs(y - streams[0] * 10 ** (-0.3))) < 1e-12

    def test_partition_completeness(self):
        # columns partition the antennas: every output sample is the sum
        # of exactly the antennas of its slot
        streams = random_streams(4, 32, 6)
        S = np.array([[1, 0], [1, 0], [0, 1], [0, 1]])
        y, _ = capture_switched(streams, S, NOISELESS, Rng(1))
        ups = [upsample(s, 2) for s in streams]
        assert np.max(np.abs(y[0::2] - (ups[0] + ups[1])[0::2])) < 1e-12
        assert np.max(np.abs(y[1::2] - (ups[2] + ups[3])[1::2])) < 1e-12

    def test_linearity_in_antenna_streams(self):
        s1 = random_streams(2, 32, 7)
        s2 = random_streams(2, 32, 8)
        S = np.array([[1, 0], [0, 1]])
        got, _ = capture_switched(s1 + s2, S, NOISELESS, Rng(1))
        want1, _ = capture_switched(s1, S, NOISELESS, Rng(1))
        want2, _ = capture_switched(s2, S, NOISELESS, Rng(1))
        want = want1 + want2
        assert np.max(np.abs(got - want)) < 1e-12

    def test_despread_recovers_physical_chains(self):
        # identity S, no loss, no noise: switched + despread equals the
        # dedicated-chain capture
        streams = random_streams(4, 64, 9)
        y, _ = capture_switched(streams, np.eye(4, dtype=int), NOISELESS, Rng(1))
        chains = time_despread(y, 4)
        phys, _ = capture_physical(streams, NOISELESS, Rng(1))
        assert np.max(np.abs(chains - phys)) < 1e-6

    def test_noise_calibration_after_despread(self):
        # a despreaded chain must see the configured per-user SNR
        n, K, snr_db = 30000, 4, 10.0
        streams = random_streams(K, n, 10)
        sigma2 = noise_power(received_power(streams), snr_db, 1)
        y, _ = capture_switched(streams, np.eye(K, dtype=int), sigma2, Rng(2, 5))
        chains = time_despread(y, K)
        p_sig = np.mean(np.abs(streams) ** 2)
        noise = chains - streams
        snr_hat = 10 * np.log10(p_sig / np.mean(np.abs(noise) ** 2))
        assert abs(snr_hat - snr_db) < 0.3

    def test_quantizer_applied(self):
        streams = random_streams(1, 64, 11)
        y, _ = capture_switched(
            streams, np.array([[1]]), NOISELESS, Rng(1), quantizer_bits=4
        )
        assert len(set(np.round(y.real, 12))) <= 16

    def test_zero_quantizer_bits_is_off(self):
        streams = random_streams(1, 64, 11)
        S = np.array([[1]])
        y, _ = capture_switched(streams, S, NOISELESS, Rng(1))
        np.testing.assert_array_equal(y, streams[0])
        y, _ = capture_switched(streams, S, NOISELESS, Rng(1), quantizer_bits=0)
        np.testing.assert_array_equal(y, streams[0])

    @pytest.mark.parametrize(
        "S, message",
        [
            (np.ones(3, dtype=int), "one row per stream"),
            (np.array([[2, 0], [0, 1], [1, 1]]), "0 or 1"),
            (np.array([[1, 0], [1, 0], [1, 0]]), "at least one antenna"),
        ],
        ids=["one_dimensional", "non_binary", "silent_column"],
    )
    def test_rejects_bad_switch_matrix(self, S, message):
        with pytest.raises(ValueError, match=message):
            capture_switched(random_streams(3, 32, 12), S, NOISELESS, Rng(1))

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError):
            capture_switched(random_streams(3, 32, 12), np.eye(4, dtype=int), NOISELESS, Rng(1))


def oracle_chains(rx, S, sigma2, rng, loss_amp):
    """The K*B capture despread into its K chains."""
    capture, _ = capture_switched(rx, S, sigma2, rng, loss_amp=loss_amp)
    return time_despread(capture, S.shape[1])


def gating_matrix(m, k, seed):
    """An m x k 0/1 matrix whose slots each gate one or more antennas and
    that leaves the last antenna unused."""
    g = np.random.Generator(np.random.Philox(key=seed))
    S = np.zeros((m, k), dtype=np.int64)
    owner = np.concatenate([np.arange(k), g.integers(0, k, m - 1 - k)])
    S[np.arange(m - 1), g.permutation(owner)] = 1
    return S


class TestSwitchedChains:
    """switched_chains is the closed form of capture_switched then
    time_despread without a quantizer, drawing the same noise."""

    @pytest.mark.parametrize("sigma2", [0.0, 0.3], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("K", range(1, 9))
    def test_equals_capture_then_despread(self, K, sigma2):
        M = K + 4
        S = gating_matrix(M, K, 40 + K)
        assert (S.sum(axis=1) == 0).any() and (S.sum(axis=0) > 1).any()
        rx = random_streams(M, 96, 50 + K)
        got, _ = switched_chains(rx, S, sigma2, Rng(9, K), loss_amp=0.8)
        want = oracle_chains(rx, S, sigma2, Rng(9, K), 0.8)
        assert got.shape == (K, 96)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("M, K", [(64, 8), (8, 4), (5, 1)])
    def test_bytes_equal_the_per_slot_sum_of_rows(self, M, K):
        S = gating_matrix(M, K, 60 + K)
        rx = random_streams(M, 1120, 70 + K)
        want = np.empty((K, 1120), dtype=np.complex128)
        for k in range(K):
            want[k] = rx[S[:, k] == 1].sum(axis=0)
        want *= 0.8
        got, _ = switched_chains(rx, S, NOISELESS, Rng(2), loss_amp=0.8)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "streams, S",
        [
            (3, np.ones(3, dtype=int)),
            (3, np.array([[2, 0], [0, 1], [1, 1]])),
            (3, np.array([[1, 0], [1, 0], [1, 0]])),
            (3, np.eye(4, dtype=int)),
            (0, np.ones((0, 1), dtype=int)),
        ],
        ids=["one_dimensional", "non_binary", "silent_column", "mismatched", "no_streams"],
    )
    def test_rejects_what_capture_switched_rejects(self, streams, S):
        rx = random_streams(streams, 32, 12) if streams else np.zeros((0, 32), complex)
        with pytest.raises(ValueError) as want:
            capture_switched(rx, S, NOISELESS, Rng(1))
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            switched_chains(rx, S, NOISELESS, Rng(1))


class TestCapturePhysical:
    def test_noiseless_chains_equal_antennas(self):
        streams = random_streams(3, 32, 14)
        out, _ = capture_physical(streams, NOISELESS, Rng(1))
        assert np.array_equal(out, streams)

    def test_chain_count(self):
        streams = random_streams(8, 16, 15)
        chains, _ = capture_physical(streams, NOISELESS, Rng(1))
        assert chains.shape == (8, 16)

    def test_noise_independent_across_chains(self):
        streams = np.ones((2, 10**5), complex)
        sigma2 = noise_power(received_power(streams), 0.0, 1)
        chains, _ = capture_physical(streams, sigma2, Rng(3, 1))
        a, b = chains - streams
        rho = np.corrcoef(np.abs(a), np.abs(b))[0, 1]
        assert abs(rho) < 0.01

    @pytest.mark.parametrize("M, chains", [(64, 64), (8, 3), (1, 1)])
    def test_bytes_equal_the_per_chain_draws(self, M, chains):
        streams = random_streams(M, 1120, 16 + M)
        rng = Rng(6, M)
        want = streams[:chains].copy()
        for chain in want:
            chain += unit_complex(rng, chain.size) * np.sqrt(0.2)
        got, _ = capture_physical(streams[:chains], 0.2, Rng(6, M))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestCaptureHybrid:
    def test_one_hot_columns_match_physical(self):
        streams = random_streams(4, 32, 17)
        w = np.zeros((4, 2), dtype=complex)
        w[0, 0] = 1.0
        w[1, 1] = 1.0
        got, _ = capture_hybrid(streams, w, NOISELESS, Rng(1))
        want, _ = capture_physical(streams[:2], NOISELESS, Rng(1))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_conjugate_combining_gain(self):
        # M-antenna coherent combining buys 10*log10(M) of SNR
        M, n, snr_db = 8, 60000, 5.0
        g = np.random.Generator(np.random.Philox(key=18))
        h = np.exp(2j * np.pi * g.uniform(0, 1, M))
        x = (g.standard_normal(n) + 1j * g.standard_normal(n)) / np.sqrt(2)
        streams = h[:, None] * x[None, :]
        w = np.exp(-1j * np.angle(h))[:, None]
        sigma2 = noise_power(received_power(streams), snr_db, 1)
        (chain,), _ = capture_hybrid(streams, w, sigma2, Rng(4, 2))
        clean = M * x
        noise = chain - clean
        snr_out = 10 * np.log10(np.mean(np.abs(clean) ** 2) / np.mean(np.abs(noise) ** 2))
        assert abs(snr_out - (snr_db + 10 * np.log10(M))) < 0.3

    def test_partially_connected_touches_blocks_only(self):
        # zero weights leave an antenna unconnected
        M, K = 64, 8
        streams = random_streams(M, 16, 19)
        w = np.kron(np.eye(K), np.ones((M // K, 1))).astype(complex)
        out, _ = capture_hybrid(streams, w, NOISELESS, Rng(1))
        for k in range(K):
            want = np.sum(streams[k * 8 : (k + 1) * 8], axis=0)
            assert np.max(np.abs(out[k] - want)) < 1e-12

    @pytest.mark.parametrize("arch", ["hbf_full", "hbf_partial"])
    def test_matches_the_einsum(self, arch):
        streams = random_streams(64, 1120, 22)
        g = np.random.Generator(np.random.Philox(key=23))
        w = hybrid_weights(g.standard_normal((8, 64)) + 1j * g.standard_normal((8, 64)), arch)
        noisy = streams + unit_complex(Rng(5), streams.shape) * np.sqrt(0.1)
        want = np.einsum("mk,ms->ks", w, noisy)
        got, _ = capture_hybrid(streams, w, 0.1, Rng(5))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_rejects_non_unit_modulus(self):
        streams = random_streams(2, 16, 20)
        with pytest.raises(ValueError):
            capture_hybrid(streams, np.full((2, 1), 0.5 + 0j), NOISELESS, Rng(1))

    def test_steering_weights_shapes_and_modes(self):
        g = np.random.Generator(np.random.Philox(key=21))
        H = g.standard_normal((4, 16)) + 1j * g.standard_normal((4, 16))
        w_full = hybrid_weights(H, "hbf_full")
        assert w_full.shape == (16, 4)
        assert np.allclose(np.abs(w_full), 1.0)
        w_part = hybrid_weights(H, "hbf_partial")
        for k in range(4):
            nz = np.nonzero(w_part[:, k])[0]
            assert np.array_equal(nz, np.arange(k * 4, (k + 1) * 4))

    @pytest.mark.parametrize("arch", ["dbf", "fully"])
    def test_steering_weights_reject_other_names(self, arch):
        H = np.ones((2, 4), complex)
        with pytest.raises(ValueError, match="hbf_full"):
            hybrid_weights(H, arch)


def noiseless_outputs(rx, S, weights, loss_amp):
    """Each front end's capture without noise, built from its definition."""
    K = S.shape[1]
    gated = [upsample(signal, K) * np.tile(S[m], rx.shape[1]) for m, signal in enumerate(rx)]
    slots = np.stack([rx[S[:, k] == 1].sum(axis=0) for k in range(K)])
    return {
        "capture_switched": np.sum(gated, axis=0) * loss_amp,
        "switched_chains": slots * loss_amp,
        "capture_physical": rx,
        "capture_hybrid": weights.T @ rx,
    }


@pytest.mark.parametrize(
    "front_end", ["capture_switched", "switched_chains", "capture_physical", "capture_hybrid"]
)
def test_zero_variance_gives_the_noiseless_output(front_end):
    # a zero sigma2 scales the noise draw to exact zeros
    rx = random_streams(6, 48, 24)
    S = gating_matrix(6, 3, 25)
    weights = hybrid_weights(random_streams(3, 6, 26), "hbf_full")
    captures = {
        "capture_switched": lambda: capture_switched(rx, S, NOISELESS, Rng(7), loss_amp=0.8),
        "switched_chains": lambda: switched_chains(rx, S, NOISELESS, Rng(7), loss_amp=0.8),
        "capture_physical": lambda: capture_physical(rx, NOISELESS, Rng(7)),
        "capture_hybrid": lambda: capture_hybrid(rx, weights, NOISELESS, Rng(7)),
    }
    want = noiseless_outputs(rx, S, weights, 0.8)[front_end]
    got, _ = captures[front_end]()
    if front_end == "capture_switched":
        # the capture sums the antennas before it interpolates, so it rounds
        # apart from the per-antenna oracle
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    else:
        assert np.array_equal(got, want)


def law_captures(M, K):
    """The five front ends whose noise law metrics.sinr reads, each as
    capture(rx, sigma2, rng) -> (chains, law) at M antennas and K chains."""
    S = gating_matrix(M, K, 27)
    H = random_streams(K, M, 28)
    full, partial = hybrid_weights(H, "hbf_full"), hybrid_weights(H, "hbf_partial")

    def despread_capture(rx, sigma2, rng):
        capture, law = capture_switched(rx, S, sigma2, rng, loss_amp=0.8)
        return time_despread(capture, K), law

    return {
        "switched_chains": lambda rx, sigma2, rng: switched_chains(rx, S, sigma2, rng, 0.8),
        "capture_switched": despread_capture,
        "dbf": capture_physical,
        "hbf_full": lambda rx, sigma2, rng: capture_hybrid(rx, full, sigma2, rng),
        "hbf_partial": lambda rx, sigma2, rng: capture_hybrid(rx, partial, sigma2, rng),
    }


@pytest.mark.parametrize(
    "front_end", ["switched_chains", "capture_switched", "dbf", "hbf_full", "hbf_partial"]
)
def test_noise_law_is_the_covariance_of_the_drawn_noise(front_end):
    # the capture at sigma2 minus the capture at 0 on the same stream is the
    # drawn chain noise; each entry of its sample covariance over n samples
    # has standard error sqrt(C_ii C_jj / n) for circular Gaussian chains
    M, K, n, sigma2 = 8, 4, 20000, 0.3
    capture = law_captures(M, K)[front_end]
    rx = random_streams(M, n, 29)
    noisy, law = capture(rx, sigma2, Rng(30))
    clean, _ = capture(rx, NOISELESS, Rng(30))
    noise = noisy - clean
    got = noise @ noise.conj().T / n
    want = np.diag(law) if law.ndim == 1 else law
    var = np.real(np.diag(want))
    z = np.abs(got - want) / np.sqrt(np.outer(var, var) / n)
    assert z.max() < 5


class TestNoiseAndQuantizer:
    def test_noise_power_uses_explicit_reference(self):
        # the reference is the mean per-antenna received power: 2 here
        rx = np.sqrt([[1.0], [3.0]]) * np.ones((2, 100), complex)
        assert noise_power(received_power(rx), 10.0, 1) == pytest.approx(0.2)

    def test_noise_power_measured_fallback(self):
        streams = 2 * np.ones((1, 100), complex)
        assert noise_power(received_power(streams), 0.0, 2) == pytest.approx(2.0)

    def test_quantizer_error_bounded(self):
        g = np.random.Generator(np.random.Philox(key=22))
        x = g.standard_normal(1000) + 1j * g.standard_normal(1000)
        q = quantize(x, 8)
        scale = max(np.max(np.abs(x.real)), np.max(np.abs(x.imag)))
        step = 2 * scale / 256
        assert np.max(np.abs(q.real - x.real)) <= step / 2 + 1e-12
        assert np.max(np.abs(q.imag - x.imag)) <= step / 2 + 1e-12

    @pytest.mark.parametrize("bits", [0, -2])
    def test_quantizer_refuses_fewer_than_one_bit(self, bits):
        # 2**bits levels below 2 would map every sample to one constant
        x = np.array([0.3 + 0.1j, -0.7 + 0.9j, 0.05 - 0.2j])
        with pytest.raises(ValueError, match="at least 1 bit"):
            quantize(x, bits)

    def test_capture_refuses_a_negative_bit_count(self):
        rx, S = random_streams(2, 16, 3), np.eye(2, dtype=int)
        with pytest.raises(ValueError, match="at least 1 bit"):
            capture_switched(rx, S, 0.1, Rng(4), quantizer_bits=-1)
