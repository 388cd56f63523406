import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchmux import despread
from switchmux.despread import freq_despread, spectrum_zones, time_despread, time_spread
from switchmux.dsp import fractional_delay
from test_frontend import gating_matrix, noiseless_outputs, random_streams


def random_stream(n, seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    return g.standard_normal(n) + 1j * g.standard_normal(n)


# chain counts and chain lengths, odd and even, of the batched delay tests
CHAIN_COUNTS = pytest.mark.parametrize("K", [1, 2, 3, 4, 8])
CHAIN_LENGTHS = pytest.mark.parametrize("n", [2, 5, 800, 960, 1440])


class TestTimeDespread:
    def test_interleaved_constants(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        chains = time_despread(np.tile(vals, 8), 4)
        for k in range(4):
            assert np.max(np.abs(chains[k] - vals[k])) < 1e-9

    def test_k1_identity(self):
        y = random_stream(64, 1)
        chains = time_despread(y, 1)
        assert chains.shape == (1, 64)
        assert np.array_equal(chains[0], y)

    def test_rate_contract(self):
        # a K*B-rate capture of N samples gives K B-rate chains of N/K
        chains = time_despread(random_stream(64, 2), 4)
        assert chains.shape == (4, 16)

    def test_tone_chains_align(self):
        n, K, f0 = 256, 4, 9
        tone = np.exp(2j * np.pi * f0 * np.arange(n) / n)
        chains = time_despread(tone, K)
        for k in range(1, K):
            dphi = np.angle(chains[k] / chains[0])
            assert np.max(np.abs(dphi)) < 1e-9

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            time_despread(random_stream(65, 4), 4)

    @CHAIN_COUNTS
    @CHAIN_LENGTHS
    def test_bytes_of_the_per_chain_fractional_delay(self, K, n):
        # chain k delayed by k/K on its own, the loop the batched FFT pair
        # replaces
        y = random_stream(K * n, (K, n))
        want = np.stack([fractional_delay(y[k::K], k / K) for k in range(K)])
        got = time_despread(y, K)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert not despread._delay_ramps(n, K).flags.writeable


class TestTimeSpread:
    @CHAIN_COUNTS
    @CHAIN_LENGTHS
    def test_time_despread_inverts_it(self, K, n):
        chains = random_stream(K * n, (K, n)).reshape(K, n)
        stream = time_spread(chains)
        assert stream.shape == (K * n,)
        got = time_despread(stream, K)
        np.testing.assert_allclose(got, chains, rtol=0, atol=1e-12 * np.abs(chains).max())

    @CHAIN_COUNTS
    @CHAIN_LENGTHS
    def test_spread_slot_sums_are_the_gated_antenna_sum(self, K, n):
        # the K*B stream of each antenna upsampled, gated by its slot and
        # summed, built antenna by antenna
        M = K + 2
        rx = random_streams(M, n, (K, n))
        S = gating_matrix(M, K, (n, K))
        oracle = noiseless_outputs(rx, S, np.ones((M, 1)), 0.8)
        want = oracle["capture_switched"]
        got = time_spread(oracle["switched_chains"])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestSpectrumZones:
    def test_zone_partition_covers_all_bins(self):
        y = random_stream(64, 6)
        zones = spectrum_zones(y, 4)
        Y = np.fft.fft(y)
        assert zones.shape == (4, 16)
        got = np.sort_complex(zones.reshape(-1))
        assert np.allclose(got, np.sort_complex(Y))

    def test_zone_zero_is_central_band(self):
        y = random_stream(64, 7)
        zones = spectrum_zones(y, 4)
        Y = np.fft.fft(y)
        g = np.fft.fftfreq(16, 1 / 16).astype(int)
        assert np.allclose(zones[0], Y[g % 64])


class TestFreqDespread:
    def test_zero_input_zero_chains(self):
        chains = freq_despread(np.zeros(64, dtype=complex), 4)
        assert np.max(np.abs(chains)) < 1e-12

    def test_two_band_limited_signals_recovered(self):
        # K=2: slot signals band-limited to B/2 are recovered exactly
        n = 128
        g = np.random.Generator(np.random.Philox(key=8))
        specs = np.zeros((2, n), dtype=complex)
        occupied = np.r_[0:20, n - 20 : n]  # inside the central zone
        specs[0, occupied] = g.standard_normal(40) + 1j * g.standard_normal(40)
        specs[1, occupied] = g.standard_normal(40) + 1j * g.standard_normal(40)
        s = np.fft.ifft(specs, axis=1)  # at rate 2B, band-limited
        code = np.tile([1, 0], n // 2)
        chains = freq_despread(s[0] * code + s[1] * np.roll(code, 1), 2)
        # chain k equals slot signal k decimated at phase 0
        assert np.max(np.abs(chains[0] - s[0][0::2])) < 1e-9
        assert np.max(np.abs(chains[1] - s[1][0::2])) < 1e-9

    @pytest.mark.parametrize("K", [1, 2, 4, 8])
    def test_matches_time_despread(self, K):
        for seed in range(10):
            y = random_stream(32 * K, (K, seed))
            err = np.max(np.abs(time_despread(y, K) - freq_despread(y, K)))
            assert err < 1e-9

    @given(
        st.sampled_from([1, 2, 4, 8]),
        st.integers(2, 40),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_path_equivalence_property(self, K, n_per_chain, seed):
        y = random_stream(K * n_per_chain, seed)
        assert np.max(np.abs(time_despread(y, K) - freq_despread(y, K))) < 1e-9
