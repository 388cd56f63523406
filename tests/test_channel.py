import numpy as np
import pytest

from switchmux.channel import (
    ARRAY_SPACING_M,
    MIN_CLEARANCE_M,
    SPEED_OF_LIGHT,
    apply,
    rayleigh,
    ray_trace,
    ula_positions,
    with_user_delays,
)
from switchmux.dsp import Rng


def ofdm_like_stream(num_sym, fft, cp, seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    body = g.standard_normal((num_sym, fft)) + 1j * g.standard_normal((num_sym, fft))
    sym = np.concatenate([body[:, fft - cp :], body], axis=1)
    return sym.reshape(-1)


class TestRayleigh:
    def test_mean_power_near_unity(self):
        chan = rayleigh(250, 400, 1, Rng(3, 0))
        p = np.mean(np.abs(chan) ** 2)
        assert 0.98 < p < 1.02

    def test_same_seed_identical(self):
        a = rayleigh(3, 4, 8, Rng(5, 9))
        b = rayleigh(3, 4, 8, Rng(5, 9))
        assert np.array_equal(a, b)

    def test_minimal_shape(self):
        chan = rayleigh(1, 1, 1, Rng(1))
        assert chan.shape == (1, 1, 1)

    def test_flat_across_subcarriers(self):
        chan = rayleigh(2, 3, 16, Rng(2))
        assert np.allclose(chan, chan[:, :, :1])

    def test_multitap_power_and_selectivity(self):
        chan = rayleigh(40, 40, 64, Rng(7), num_taps=4)
        p = np.mean(np.abs(chan) ** 2)
        assert 0.95 < p < 1.05
        assert not np.allclose(chan[0, 0, 0], chan[0, 0, 32])

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            rayleigh(0, 1, 1, Rng(1))

    def test_rejects_more_taps_than_bins(self):
        # an F-point transform of 128 taps would keep half their power
        assert rayleigh(1, 1, 64, Rng(1), num_taps=64).shape == (1, 1, 64)
        with pytest.raises(ValueError, match="num_taps must be <= F"):
            rayleigh(4, 8, 64, Rng(1), num_taps=65)


class TestUlaPositions:
    def test_antenna_positions(self):
        # half-wavelength line along x, centered on the AP
        pos = ula_positions(3, (6.0, 2.5))
        s = ARRAY_SPACING_M
        assert np.allclose(pos, [[6.0 - s, 2.5], [6.0, 2.5], [6.0 + s, 2.5]])
        assert np.allclose(ula_positions(1, (6.0, 2.5)), [[6.0, 2.5]])


ROOM = (12.0, 5.0)


def trace(room, ants, users, F, max_reflections, gamma=0.6):
    return ray_trace(room, ants, users, F, gamma=gamma, max_reflections=max_reflections)


def image_sum_cases():
    # odd and even F split the signed bins differently; spacing None is the
    # default 10e6 / 64, and the F = 8 cases at it keep their short ids
    for gamma in (0.0, 0.6):
        for max_reflections in (0, 1, 2):
            for F in (1, 2, 7, 8, 64):
                for spacing, name in ((None, ""), (20e6 / 64, "-20MHz")):
                    tag = "" if (F, name) == (8, "") else f"-F{F}{name}"
                    case = (gamma, max_reflections, F, spacing)
                    yield pytest.param(*case, id=f"{gamma}-{max_reflections}{tag}")


class TestRayTrace:
    def test_los_only_magnitude_and_phase(self):
        d = 4.0
        chan = trace(ROOM, [(2.0, 2.0)], [(6.0, 2.0)], 1, 0)
        h = chan[0, 0, 0]
        assert abs(abs(h) - 1 / d) < 1e-12
        want = -2 * np.pi * 2.4e9 * d / SPEED_OF_LIGHT
        assert abs(np.angle(h) - ((want + np.pi) % (2 * np.pi) - np.pi)) < 1e-9

    def test_colocated_antennas_identical(self):
        chan = trace(ROOM, [(2.0, 2.0)] * 3, [(6.0, 3.0)], 4, 2)
        assert np.allclose(chan[:, 0, :], chan[:, 1, :])
        assert np.allclose(chan[:, 0, :], chan[:, 2, :])

    @pytest.mark.parametrize("gamma, max_reflections, F, spacing", list(image_sum_cases()))
    def test_one_gamma_five_paths(self, gamma, max_reflections, F, spacing):
        # every wall reflects with one gamma; the oracle is the explicit sum
        # over the direct path, the four single-bounce and the eight
        # double-bounce mirror images (gamma = 0 leaves the direct path),
        # with one exp per subcarrier
        lx, ly = ROOM
        ants = np.array([(2.0, 2.0), (6.0, 0.5), (11.5, 4.5)])
        users = np.array([(7.0, 1.0), (3.5, 4.2), (10.9, 0.3)])
        kwargs = {} if spacing is None else {"subcarrier_spacing_hz": spacing}
        chan = ray_trace(
            ROOM, ants, users, F, gamma=gamma, max_reflections=max_reflections, **kwargs
        )
        spacing = 10e6 / 64 if spacing is None else spacing
        freqs = 2.4e9 + np.fft.fftfreq(F, 1 / F) * spacing
        want = np.zeros((3, 3, F), dtype=complex)
        for u, (x, y) in enumerate(users):
            images = [
                ((x, y), 0),
                ((-x, y), 1),  # wall x = 0
                ((2 * lx - x, y), 1),  # wall x = lx
                ((x, -y), 1),  # wall y = 0
                ((x, 2 * ly - y), 1),  # wall y = ly
                ((x - 2 * lx, y), 2),  # x = lx, then x = 0
                ((x + 2 * lx, y), 2),  # x = 0, then x = lx
                ((x, y - 2 * ly), 2),  # y = ly, then y = 0
                ((x, y + 2 * ly), 2),  # y = 0, then y = ly
                ((-x, -y), 2),  # corner (0, 0)
                ((-x, 2 * ly - y), 2),  # corner (0, ly)
                ((2 * lx - x, -y), 2),  # corner (lx, 0)
                ((2 * lx - x, 2 * ly - y), 2),  # corner (lx, ly)
            ]
            for pos, bounces in images:
                if bounces > max_reflections:
                    continue
                for m, ant in enumerate(ants):
                    d = np.linalg.norm(np.asarray(pos) - ant)
                    phase = np.exp(-2j * np.pi * freqs * d / SPEED_OF_LIGHT)
                    want[u, m] += gamma**bounces * phase / d
        assert np.max(np.abs(chan - want)) < 1e-12

    def test_far_broadside_user_in_phase(self):
        # half-wavelength pair, user far away broadside: < 1 degree apart
        chan = trace((200.0, 200.0), ula_positions(2, (100.0, 1.0)), [(100.0, 180.0)], 1, 0)
        dphi = np.angle(chan[0, 0, 0] / chan[0, 1, 0])
        assert abs(dphi) < np.deg2rad(1.0)

    def test_reciprocity_of_path_lengths(self):
        a, b = (3.0, 2.0), (9.0, 4.0)
        fwd = trace(ROOM, [a], [b], 1, 2)
        rev = trace(ROOM, [b], [a], 1, 2)
        assert abs(abs(fwd[0, 0, 0]) - abs(rev[0, 0, 0])) < 1e-12

    def test_los_magnitude_decreases_with_distance(self):
        chan = trace((30.0, 5.0), [(1.0, 2.5)], [(x, 2.5) for x in (5.0, 10.0, 20.0)], 1, 0)
        mags = np.abs(chan[:, 0, 0])
        assert mags[0] > mags[1] > mags[2]

    @pytest.mark.parametrize("gamma", [0.6, 0.0])
    @pytest.mark.parametrize("others", [[], [(6.0, 3.0)]], ids=["sole", "second"])
    def test_user_at_antenna_errors(self, others, gamma):
        # the sole or the second user stands on an antenna or within the
        # clearance; gamma = 0 skips the reflections but not this check
        ants = [(2.0, 2.0), (4.0, 1.0)]
        for user in [(2.0, 2.0), (2.0 + MIN_CLEARANCE_M / 2, 2.0)]:
            with pytest.raises(ValueError, match="coincides"):
                trace(ROOM, ants, others + [user], 1, 1, gamma=gamma)

    def test_rejects_deep_reflections(self):
        with pytest.raises(ValueError):
            trace(ROOM, [(2.0, 2.0)], [(6.0, 2.0)], 1, 3)


class TestApply:
    def test_identity_channel_sums_users(self):
        a = ofdm_like_stream(3, 16, 4, 1)
        b = ofdm_like_stream(3, 16, 4, 2)
        (out,) = apply(np.ones((2, 1, 16)), np.stack([a, b]), cp_len=4)
        assert np.max(np.abs(out - (a + b))) < 1e-9

    def test_single_tap_scales(self):
        g = 0.3 - 1.1j
        x = ofdm_like_stream(2, 16, 4, 3)
        (out,) = apply(np.full((1, 1, 16), g), x[None, :], cp_len=4)
        assert np.max(np.abs(out - g * x)) < 1e-9

    def test_two_tap_matches_analytic_per_subcarrier(self):
        g1, g2, delta = 1.0, 0.5j, 3
        taps = np.zeros((1, 1, delta + 1), dtype=complex)
        taps[0, 0, 0], taps[0, 0, delta] = g1, g2
        chan = np.fft.fft(taps, n=64, axis=2)
        k = np.arange(64)
        want = g1 + g2 * np.exp(-2j * np.pi * k * delta / 64)
        assert np.max(np.abs(chan[0, 0] - want)) < 1e-9
        # and the time-domain effect on one symbol is the circular convolution
        x = ofdm_like_stream(1, 64, 16, 4)
        (out,) = apply(chan, x[None, :], cp_len=16)
        body = x[16:]
        want_body = g1 * body + g2 * np.roll(body, delta)
        assert np.max(np.abs(out[16:] - want_body)) < 1e-9

    def test_linearity(self):
        chan = rayleigh(2, 3, 16, Rng(11))
        a = np.stack([ofdm_like_stream(2, 16, 4, 5), ofdm_like_stream(2, 16, 4, 6)])
        b = np.stack([ofdm_like_stream(2, 16, 4, 7), ofdm_like_stream(2, 16, 4, 8)])
        ca, cb = 0.7 - 0.2j, -1.3 + 0.4j
        got = apply(chan, ca * a + cb * b, cp_len=4)
        want = ca * apply(chan, a, cp_len=4) + cb * apply(chan, b, cp_len=4)
        assert got.shape == (3, 40)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_cp_is_rebuilt_from_filtered_tail(self):
        chan = rayleigh(1, 1, 16, Rng(12))
        x = ofdm_like_stream(2, 16, 4, 9)
        (out,) = apply(chan, x[None, :], cp_len=4)
        sym = out.reshape(2, 20)
        assert np.allclose(sym[:, :4], sym[:, -4:])

    @pytest.mark.parametrize("users, antennas, cp", [(8, 64, 16), (3, 5, 4), (1, 1, 16), (2, 3, 0)])
    def test_matches_the_einsum_per_subcarrier(self, users, antennas, cp):
        chan = rayleigh(users, antennas, 64, Rng(15), num_taps=4)
        tx = np.stack([ofdm_like_stream(6, 64, cp, 20 + u) for u in range(users)])
        bodies = tx.reshape(users, 6, 64 + cp)[:, :, cp:]
        out = np.fft.ifft(np.einsum("umf,usf->msf", chan, np.fft.fft(bodies, axis=2)), axis=2)
        want = np.concatenate([out[:, :, 64 - cp :], out], axis=2).reshape(antennas, -1)
        got = apply(chan, tx, cp_len=cp)
        assert got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_rejects_wrong_user_count(self):
        chan = rayleigh(2, 2, 16, Rng(13))
        with pytest.raises(ValueError):
            apply(chan, ofdm_like_stream(1, 16, 4, 10)[None, :], cp_len=4)

    @pytest.mark.parametrize("cp_len, total", [(6, 20), (5, 18)])
    def test_rejects_prefix_longer_than_body(self, cp_len, total):
        # whole symbols of F + cp_len samples, but the prefix outruns the
        # F = 4 body it copies; cp_len = F is the longest accepted
        chan = rayleigh(1, 1, 4, Rng(17))
        with pytest.raises(ValueError, match="cp_len <= F"):
            apply(chan, np.ones((1, total)), cp_len=cp_len)
        assert apply(chan, np.ones((1, 16)), cp_len=4).shape == (1, 16)

    def test_rejects_ragged_lengths(self):
        chan = rayleigh(2, 2, 16, Rng(14))
        with pytest.raises(ValueError):
            apply(chan, [ofdm_like_stream(1, 16, 4, 11), ofdm_like_stream(2, 16, 4, 12)], 4)


class TestUserDelays:
    def test_phase_ramp_applied(self):
        chan = rayleigh(2, 2, 8, Rng(15))
        shifted = with_user_delays(chan, [0.0, 0.25])
        assert np.allclose(shifted[0], chan[0])
        f = np.fft.fftfreq(8, 1 / 8)
        ramp = np.exp(-2j * np.pi * f * 0.25 / 8)
        assert np.allclose(shifted[1], chan[1] * ramp[None, :])

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            with_user_delays(rayleigh(2, 2, 8, Rng(16)), [0.1])
