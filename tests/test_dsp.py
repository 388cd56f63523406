import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fractional_delay
from switchmux.dsp import (
    KeptNormals,
    Rng,
    bins_first,
    bins_last,
    signed_bins,
    unit_complex,
    upsample,
)


def random_stream(n, seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    return g.standard_normal(n) + 1j * g.standard_normal(n)


class TestSignedBins:
    def test_even_length_layout(self):
        assert list(signed_bins(8)) == [0, 1, 2, 3, -4, -3, -2, -1]

    def test_odd_length_layout(self):
        assert list(signed_bins(5)) == [0, 1, 2, -2, -1]


class TestFractionalDelay:
    def test_zero_delay_identity(self):
        x = random_stream(32, 2)
        assert np.array_equal(fractional_delay(x, 0.0), x)

    def test_tone_phase(self):
        # delaying a tone multiplies it by e^{-j 2 pi f0 d / N}
        n, f0, d = 64, 5, 0.37
        tone = np.exp(2j * np.pi * f0 * np.arange(n) / n)
        got = fractional_delay(tone, d)
        want = tone * np.exp(-2j * np.pi * f0 * d / n)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_negative_frequency_tone_phase(self):
        n, f0, d = 64, -9, 1.25
        tone = np.exp(2j * np.pi * f0 * np.arange(n) / n)
        got = fractional_delay(tone, d)
        want = tone * np.exp(-2j * np.pi * f0 * d / n)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_integer_delay_is_circular_shift(self):
        x = random_stream(48, 3)
        got = fractional_delay(x, 1.0)
        assert np.max(np.abs(got - np.roll(x, 1))) < 1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            fractional_delay(random_stream(8, 4), np.inf)

    def test_rejects_large_delay(self):
        with pytest.raises(ValueError):
            fractional_delay(random_stream(8, 5), 4.0)

    @given(st.integers(2, 128), st.floats(-0.49, 0.49), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, n, frac, seed):
        d = frac * n
        x = random_stream(n, seed)
        back = fractional_delay(fractional_delay(x, d), -d)
        assert np.max(np.abs(back - x)) < 1e-9


class TestUpsample:
    def test_factor_one_identity(self):
        x = random_stream(16, 6)
        assert np.array_equal(upsample(x, 1), x)

    def test_keeps_original_samples(self):
        # output sample K*n equals input sample n, including the Nyquist bin
        x = random_stream(32, 7)
        for k in (2, 4, 8):
            up = upsample(x, k)
            assert up.size == x.size * k
            assert np.max(np.abs(up[::k] - x)) < 1e-12

    def test_band_limited(self):
        x = random_stream(32, 8)
        spec = np.fft.fft(upsample(x, 4))
        occupied = signed_bins(128)
        outside = np.abs(occupied) > 16
        assert np.max(np.abs(spec[outside])) < 1e-9

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            upsample(random_stream(8, 9), 0)


class TestRng:
    def test_identical_pairs_identical_draws(self):
        assert np.array_equal(Rng(9, 4).bits(100), Rng(9, 4).bits(100))

    def test_distinct_streams_uncorrelated(self):
        n = 10**5
        a = Rng(9, 0).generator.standard_normal(n)
        b = Rng(9, 1).generator.standard_normal(n)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.01

    def test_derive_deterministic_and_distinct(self):
        root = Rng(42, 7)
        assert root.derive(3).stream_id == Rng(42, 7).derive(3).stream_id
        assert root.derive(3).stream_id != root.derive(4).stream_id

    def test_normals_are_sequential(self):
        rng = Rng(9, 4)
        pieces = [rng.normals(n) for n in (5, 100, 3)]
        want = Rng(9, 4).generator.standard_normal(108)
        assert np.concatenate(pieces).tobytes() == want.tobytes()

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError):
            Rng(2**64)


class TestUnitComplex:
    def test_unit_variance(self):
        z = unit_complex(Rng(21), 10**5)
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02

    def test_real_parts_then_imaginary_parts(self):
        g = Rng(21, 3).generator
        re, im = g.standard_normal((3, 5)), g.standard_normal((3, 5))
        want = (re + 1j * im) / np.sqrt(2.0)
        assert unit_complex(Rng(21, 3), (3, 5)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(), 7, (3, 5), (2, 4, 8)])
    def test_reads_the_same_bytes_from_an_rng_and_its_kept_normals(self, shape):
        # the runner's front ends read a link's noise through KeptNormals;
        # a fresh Rng of the same stream must give them the same values
        want = unit_complex(Rng(21, 3), shape)
        kept = KeptNormals(Rng(21, 3))
        assert unit_complex(kept, shape).tobytes() == want.tobytes()
        # a kept stream gives its leading values again on a second read
        assert unit_complex(kept, shape).tobytes() == want.tobytes()


class TestKeptNormals:
    def test_first_values_of_the_stream_at_once_or_in_pieces(self):
        want = Rng(9, 4).generator.standard_normal(105)
        assert KeptNormals(Rng(9, 4)).normals(105).tobytes() == want.tobytes()
        kept = KeptNormals(Rng(9, 4))
        for n in (5, 105, 3):  # drawn, extended, then read from the front
            assert kept.normals(n).tobytes() == want[:n].tobytes()

    def test_a_longer_read_draws_only_the_rest(self):
        drawn = []
        rng = Rng(9, 4)
        normals = rng.normals
        rng.normals = lambda n: drawn.append(n) or normals(n)
        kept = KeptNormals(rng)
        for n in (5, 3, 105, 105, 0):
            kept.normals(n)
        assert drawn == [5, 100]

    def test_values_are_read_only(self):
        for kept in (KeptNormals(Rng(9, 4)), KeptNormals(Rng(9, 4), Rng(9, 5))):
            for n in (6, 106, 4):  # drawn, extended, then a copy of the front
                values = kept.normals(n)
                with pytest.raises(ValueError, match="read-only"):
                    values[0] = 0.0

    def test_several_streams_give_each_stream_s_first_values_in_turn(self):
        # a stacked link reads each link's stream as a lone link would
        rngs = [Rng(9, 4), Rng(9, 7), Rng(3, 4)]
        want = [Rng(r.master_seed, r.stream_id).generator.standard_normal(40) for r in rngs]
        kept = KeptNormals(*rngs)
        for each in (5, 40, 3):  # drawn, extended, then read from the front
            got = kept.normals(3 * each)
            assert got.tobytes() == np.concatenate([w[:each] for w in want]).tobytes()

    def test_several_streams_draw_only_the_rest_of_each(self):
        drawn = []
        rngs = [Rng(9, 4), Rng(9, 5)]
        for rng in rngs:
            normals = rng.normals
            rng.normals = lambda n, normals=normals, rng=rng: (
                drawn.append((rng.stream_id, n)) or normals(n)
            )
        kept = KeptNormals(*rngs)
        for n in (10, 6, 30, 0):
            kept.normals(n)
        assert drawn == [(4, 5), (5, 5), (4, 10), (5, 10)]

    def test_a_read_must_split_evenly_over_the_streams(self):
        with pytest.raises(ValueError, match="split evenly over 2 streams"):
            KeptNormals(Rng(9, 4), Rng(9, 5)).normals(7)
        with pytest.raises(ValueError, match="at least one stream"):
            KeptNormals()


@pytest.mark.parametrize("shape", [(2, 3, 5), (4, 2, 3, 5), (1, 2, 1, 3, 5)])
def test_bins_first_and_last_move_the_bin_axis_as_moveaxis_does(shape):
    a = np.arange(np.prod(shape)).reshape(shape)
    assert np.array_equal(bins_first(a), np.moveaxis(a, -1, -3))
    assert np.array_equal(bins_last(a), np.moveaxis(a, -3, -1))
    assert np.array_equal(bins_last(bins_first(a)), a)
    assert np.shares_memory(bins_first(a), a)  # a view, not a copy
