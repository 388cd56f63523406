import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchmux import waveform
from switchmux.dsp import Rng
from switchmux.waveform import (
    CODED_BITS_PER_SYMBOL,
    CONV_G0,
    CONV_G1,
    CP_LEN,
    DATA_BINS,
    FFT_SIZE,
    INFO_BITS_PER_SYMBOL,
    LTS_FREQ,
    PILOT_BINS,
    PILOT_VALUES,
    SYMBOL_LEN,
    TX_SCALE,
    USED_BINS,
    build_frame,
    conv_encode,
    deinterleave,
    interleave,
    payload_bits_for_symbols,
    qam16_demap,
    qam16_map,
    recover_bits,
    symbol_spectra,
    viterbi_decode,
)


def brute_force_decode(coded, n_info):
    """Oracle: exhaustive nearest-codeword search over all 2^n_info messages
    for one codeword [1, coded bits]; returns the message [1, n_info]."""
    best, best_d = None, None
    for msg in range(2**n_info):
        bits = np.array([[(msg >> i) & 1 for i in range(n_info)]])
        d = int(np.sum(conv_encode(bits) != coded))
        if best_d is None or d < best_d:
            best, best_d = bits, d
    return best


def _oracle_trellis():
    """next_state[s, b], branch output out_sym[s, b] and the two
    predecessors (prev_state, prev_bit)[s, choice] of the 133/171 code,
    built one transition at a time."""
    next_state = np.zeros((64, 2), dtype=np.int64)
    out_sym = np.zeros((64, 2), dtype=np.int64)
    prev_state = np.zeros((64, 2), dtype=np.int64)
    prev_bit = np.zeros((64, 2), dtype=np.int64)
    fill = np.zeros(64, dtype=np.int64)
    for s in range(64):
        for b in (0, 1):
            reg = (b << 6) | s
            ns = reg >> 1
            next_state[s, b] = ns
            out_sym[s, b] = 2 * (bin(reg & CONV_G0).count("1") & 1) + (
                bin(reg & CONV_G1).count("1") & 1
            )
            prev_state[ns, fill[ns]] = s
            prev_bit[ns, fill[ns]] = b
            fill[ns] += 1
    return next_state, out_sym, prev_state, prev_bit


NEXT_STATE, OUT_SYM, PREV_STATE, PREV_BIT = _oracle_trellis()


def loop_encode(bits):
    """Oracle: the encoder stepped one input bit at a time."""
    out = []
    state = 0
    for b in list(bits) + [0] * 6:
        sym = OUT_SYM[state, b]
        out += [sym >> 1, sym & 1]
        state = NEXT_STATE[state, b]
    return np.array(out, dtype=np.int64)


def loop_decode(coded):
    """Oracle: one codeword, one argmin/min per trellis step, then a
    state-by-state traceback."""
    steps = len(coded) // 2
    metrics = np.full(64, 10**9, dtype=np.int64)
    metrics[0] = 0
    back = np.zeros((steps, 64), dtype=np.int8)
    pairs = 2 * coded[0::2] + coded[1::2]
    ham = np.array([[bin(a ^ b).count("1") for b in range(4)] for a in range(4)])
    for t in range(steps):
        cand = metrics[PREV_STATE] + ham[pairs[t]][OUT_SYM[PREV_STATE, PREV_BIT]]
        back[t] = np.argmin(cand, axis=1)
        metrics = np.min(cand, axis=1)
    state = 0
    bits = np.zeros(steps, dtype=np.int64)
    for t in range(steps - 1, -1, -1):
        choice = back[t, state]
        bits[t] = PREV_BIT[state, choice]
        state = PREV_STATE[state, choice]
    return bits[: steps - 6]


def int32_decode(coded):
    """Oracle for batches too large for loop_decode: the radix-4 pass with
    one up-front int32 gather of every pass's branch metrics, int32
    decision history and a traceback over flat [codewords * 64] offsets."""
    coded = np.asarray(coded, dtype=np.int64)
    n, steps = coded.shape[0], coded.shape[1] // 2
    pairs = 2 * coded[:, 0::2] + coded[:, 1::2]
    first = steps % 2
    metrics = np.full((n, 64), waveform._START_PENALTY << 6, dtype=np.int32)
    metrics[:, 0] = 0
    if first:
        metrics[:, ::32] = waveform._BRANCH_METRICS[pairs[:, 0], 0, :, 0].astype(np.int32) << 6
    passes = (steps - first) // 2
    quads = 4 * pairs[:, first::2] + pairs[:, first + 1 :: 2]
    branch = waveform._TWO_STEP_BRANCH_METRICS[
        (np.arange(passes) % 3)[:, None, None], quads.T[:, None], np.arange(4)[:, None]
    ].reshape(passes, 4, n, 4, 16)
    pred = metrics.reshape(n, 16, 4).transpose(2, 0, 1)[:, :, None, :]
    survivors = metrics.reshape(n, 4, 16)
    cand = np.empty((4, n, 4, 16), dtype=np.int32)
    history = np.empty((passes // 3, n, 64), dtype=np.int32)
    for p, b in enumerate(branch):
        np.add(pred, b, out=cand)
        np.minimum.reduce(cand, axis=0, out=survivors)
        if p % 3 == 2:
            np.bitwise_and(metrics, 63, out=history[p // 3])
            metrics &= -64
    base = np.arange(0, 64 * n, 64, dtype=np.int32)
    history += base[:, None]
    blocks = len(history)
    states = np.empty((blocks + 1, n), dtype=np.int32)
    states[-1] = (metrics[:, 0] & 63) + base
    tables = history.reshape(blocks, n * 64)[::-1]
    for h, s_in, s_out in zip(tables, states[:0:-1], states[-2::-1]):
        h.take(s_in, out=s_out, mode="clip")
    bits = (states.T[:, :, None] >> np.arange(6)) & 1
    return bits.reshape(n, 6 * blocks + 6)[:, 6 - first : steps - first]


def assert_batch_matches_loop_oracle(rng, n, steps, kind):
    """Decode n noisy codewords or n uniformly random words of `steps` trellis
    steps in one batch, and each row again with loop_decode."""
    # uniformly random bits are far from every codeword, so many
    # add-compare-select steps tie and the tie rule is exercised
    if kind == "random":
        coded = rng.bits(n * 2 * steps).reshape(n, 2 * steps)
    else:
        coded = conv_encode(rng.bits((n, steps - 6)))
        coded ^= rng.generator.random(coded.shape) < 0.1
    got = viterbi_decode(coded)
    assert got.shape == (n, steps - 6)
    for row, codeword in zip(got, coded):
        assert np.array_equal(row, loop_decode(codeword))


class TestSubcarrierMaps:
    def test_counts(self):
        assert len(DATA_BINS) == 48
        assert len(PILOT_BINS) == 4
        assert len(USED_BINS) == 52
        assert len(LTS_FREQ) == 64

    def test_dc_and_guard_not_used(self):
        assert 0 not in USED_BINS
        for b in range(27, 38):
            assert b not in USED_BINS

    def test_lts_occupies_exactly_used_bins(self):
        assert np.all(LTS_FREQ[USED_BINS] != 0)
        nulls = np.setdiff1d(np.arange(64), USED_BINS)
        assert np.all(LTS_FREQ[nulls] == 0)


class TestConvCode:
    def test_all_zero_maps_to_all_zero(self):
        assert np.all(conv_encode(np.zeros((2, 32), dtype=int)) == 0)

    def test_rate_and_tail(self):
        assert conv_encode(np.zeros((3, 10), dtype=int)).shape == (3, 2 * 16)

    def test_round_trip_1024_bits(self):
        bits = Rng(1, 0).bits((1, 1024))
        assert np.array_equal(viterbi_decode(conv_encode(bits)), bits)

    def test_single_flip_corrected(self):
        bits = Rng(2, 0).bits((1, 64))
        coded = conv_encode(bits)
        for pos in (0, 17, 64, coded.size - 1):
            bad = coded.copy()
            bad[0, pos] ^= 1
            assert np.array_equal(viterbi_decode(bad), bits)

    def test_matches_exhaustive_nearest_codeword(self):
        bits = np.array([[1, 0, 1, 1, 0, 0, 1, 0]])
        coded = conv_encode(bits)
        for pos in (1, 9, 20):
            bad = coded.copy()
            bad[0, pos] ^= 1
            want = brute_force_decode(bad, 8)
            assert np.array_equal(viterbi_decode(bad), want)
            assert np.array_equal(want, bits)

    def test_double_flip_matches_oracle(self):
        # two flips may or may not decode to the sent word; the oracle rules
        bits = np.array([[0, 1, 1, 0, 1, 0]])
        bad = conv_encode(bits).copy()
        bad[0, 3] ^= 1
        bad[0, 4] ^= 1
        assert np.array_equal(viterbi_decode(bad), brute_force_decode(bad, 6))

    def test_decoder_rejects_odd_length(self):
        with pytest.raises(ValueError):
            viterbi_decode(np.zeros((1, 13), dtype=int))

    def test_decoder_rejects_more_steps_than_its_metric_holds(self):
        # a candidate stays below 2 * steps, or the start penalty plus 14,
        # and either, shifted by 6 over 6 history bits, must fit int32
        limit = waveform._MAX_STEPS
        assert (2 * limit << 6) + 63 < 2**31
        assert (waveform._START_PENALTY + 14 << 6) + 63 < 2**31
        with pytest.raises(ValueError, match="overflow"):
            viterbi_decode(np.zeros((0, 2 * (limit + 1)), dtype=int))

    def test_encoder_rejects_non_binary(self):
        with pytest.raises(ValueError):
            conv_encode(np.array([[0, 2, 1]]))

    def test_encoder_rejects_a_1d_payload(self):
        with pytest.raises(ValueError):
            conv_encode(np.zeros(8, dtype=int))

    @pytest.mark.parametrize(
        "coded",
        [
            np.array([[-1, 0] * 20]),
            np.array([[2, 0] * 20]),
            np.zeros((2, 2, 20), dtype=int),
            np.zeros(40, dtype=int),
        ],
        ids=["negative", "two", "3-d batch", "1-d codeword"],
    )
    def test_decoder_rejects_non_binary_and_bad_shape(self, coded):
        with pytest.raises(ValueError):
            viterbi_decode(coded)

    @given(st.integers(1, 4), st.integers(0, 200), st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_encoder_matches_loop_oracle(self, rows, n, seed):
        bits = Rng(seed, 4).bits((rows, n))
        got = conv_encode(bits)
        assert got.shape == (rows, 2 * (n + 6))
        for row, payload in zip(got, bits):
            assert np.array_equal(row, loop_encode(payload))

    @given(
        st.integers(1, 8),
        st.integers(7, 120),
        st.sampled_from(["noisy", "random"]),
        st.integers(0, 2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_batched_decoder_matches_loop_oracle(self, n, steps, kind, seed):
        assert_batch_matches_loop_oracle(Rng(seed, 5), n, steps, kind)

    @given(
        st.integers(1, 12),
        st.one_of(st.sampled_from([96, 192, 288, 384]), st.integers(7, 400)),
        st.sampled_from(["noisy", "random"]),
        st.integers(0, 2**32),
    )
    @settings(max_examples=15, deadline=None)
    def test_decoder_matches_loop_oracle_at_production_shapes(self, n, steps, kind, seed):
        # the receiver decodes [users, 2 * 96 * P] batches: 4 x 768 and 8 x 384
        assert_batch_matches_loop_oracle(Rng(seed, 6), n, steps, kind)

    @pytest.mark.parametrize("kind", ["noisy", "random"])
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("steps", range(7, 20))
    def test_every_short_step_count_matches_loop_oracle(self, steps, n, kind):
        # both parities and every remainder mod 6 of the step count
        assert_batch_matches_loop_oracle(Rng(10 * steps + n, 7), n, steps, kind)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_constant_input_matches_loop_oracle(self, bit):
        # every branch ties or carries the start penalty: the tie rule decides
        coded = np.full((2, 2 * 384), bit)
        got = viterbi_decode(coded)
        assert got.shape == (2, 378)
        for row, codeword in zip(got, coded):
            assert np.array_equal(row, loop_decode(codeword))

    @pytest.mark.parametrize("kind", ["noisy", "random"])
    @pytest.mark.parametrize("steps", [40, 41])
    def test_batch_past_512_codewords_matches_int32_decoder(self, steps, kind):
        # 600 codewords pass the 512 * 64 states a 16-bit flat offset holds;
        # the uint8 history is indexed per block, by codeword and state
        rng = Rng(steps, 8)
        if kind == "random":
            coded = rng.bits((600, 2 * steps))
        else:
            coded = conv_encode(rng.bits((600, steps - 6)))
            coded ^= rng.generator.random(coded.shape) < 0.1
        np.testing.assert_array_equal(viterbi_decode(coded), int32_decode(coded))

    def test_recover_bits_of_a_block_stays_under_2_mb(self):
        # a 1-worker decode_heavy block: 20 trials of 4 codewords, 384 steps
        bits = Rng(9, 0).bits((80, payload_bits_for_symbols(4)))
        _, grids = build_frame(bits, 2)
        tracemalloc.start()
        try:
            got = recover_bits(grids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, bits)
        assert peak <= 2_000_000

    @pytest.mark.parametrize("scale", [0.9, 1.7])
    @pytest.mark.parametrize("fn", [conv_encode, viterbi_decode])
    def test_non_integer_input_is_refused_not_truncated(self, fn, scale):
        # cast first, 0.9 would read as 0 and 1.7 as 1
        coded = conv_encode(np.ones((2, 20), dtype=int)) * scale
        with pytest.raises(ValueError, match="integers"):
            fn(coded)

    def test_empty_batch_decodes_to_empty_payload(self):
        got = viterbi_decode(np.zeros((0, 40), dtype=int))
        assert got.shape == (0, 14)
        assert got.dtype == np.int64

    def test_read_only_input_is_decoded_and_left_unchanged(self):
        bits = Rng(7, 0).bits((3, 90))
        coded = conv_encode(bits)
        coded[:, ::17] ^= 1
        before = coded.copy()
        coded.flags.writeable = False
        assert np.array_equal(viterbi_decode(coded), bits)
        assert np.array_equal(coded, before)

    @given(st.integers(1, 4), st.integers(1, 120), st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, rows, n, seed):
        bits = Rng(seed, 3).bits((rows, n))
        assert np.array_equal(viterbi_decode(conv_encode(bits)), bits)


class TestQam16:
    def test_zero_quad_maps_to_corner(self):
        sym = qam16_map(np.array([0, 0, 0, 0]))
        assert abs(sym[0] - (-3 - 3j) / np.sqrt(10)) < 1e-12

    def test_unit_average_energy(self):
        all_quads = np.array([[(v >> i) & 1 for i in (3, 2, 1, 0)] for v in range(16)])
        syms = qam16_map(all_quads.reshape(-1))
        assert abs(np.mean(np.abs(syms) ** 2) - 1.0) < 1e-12

    def test_demap_inverts_map_exhaustively(self):
        all_quads = np.array([[(v >> i) & 1 for i in (3, 2, 1, 0)] for v in range(16)])
        bits = all_quads.reshape(-1)
        demapped = qam16_demap(qam16_map(bits))
        assert demapped.dtype == np.uint8  # the decoder's dtype, so no cast copy
        assert np.array_equal(demapped, bits)

    def test_demap_is_nearest_neighbor_under_noise(self):
        bits = Rng(4, 0).bits(4000)
        syms = qam16_map(bits)
        noisy = syms + 0.05 * Rng(4, 1).normal_complex(syms.size)
        assert np.array_equal(qam16_demap(noisy), bits)

    def test_gray_neighbors_differ_by_one_bit(self):
        # along each axis, adjacent amplitude levels differ in one bit
        order = np.argsort(np.array([-3, -1, 3, 1]))
        pairs = [(order[i], order[i + 1]) for i in range(3)]
        for a, b in pairs:
            diff = (a ^ b).bit_count()
            assert diff == 1

    def test_map_rejects_partial_quad(self):
        with pytest.raises(ValueError):
            qam16_map(np.array([1, 0, 1]))


class TestInterleaver:
    def test_round_trip(self):
        bits = Rng(5, 0).bits(192)
        assert np.array_equal(deinterleave(interleave(bits, 192), 192), bits)

    def test_is_the_standard_first_permutation(self):
        # adjacent coded bits land 12 positions apart for 192-bit symbols
        bits = np.arange(192)
        out = interleave(bits, 192)
        assert out[0] == 0
        assert out[12] == 1
        assert out[1] == 16

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            interleave(np.zeros(100, dtype=int), 192)


REPS = 2  # training symbols per user, the config default


def loop_frame(payloads, reps):
    """Oracle: build_frame one user and one symbol at a time."""
    K = len(payloads)
    coded = [loop_encode(p) for p in payloads]
    symbols = coded[0].size // CODED_BITS_PER_SYMBOL
    streams = np.zeros((K, K * reps + symbols, SYMBOL_LEN), dtype=complex)
    grids = np.zeros((K, symbols, len(DATA_BINS)), dtype=complex)

    def time_symbol(spectrum):
        body = np.fft.ifft(spectrum) * TX_SCALE
        return np.concatenate([body[-CP_LEN:], body])

    for u in range(K):
        for r in range(reps):
            streams[u, u * reps + r] = time_symbol(LTS_FREQ)
        for s in range(symbols):
            chunk = coded[u][s * CODED_BITS_PER_SYMBOL : (s + 1) * CODED_BITS_PER_SYMBOL]
            grids[u, s] = qam16_map(interleave(chunk, CODED_BITS_PER_SYMBOL))
            spectrum = np.zeros(FFT_SIZE, dtype=complex)
            spectrum[DATA_BINS] = grids[u, s]
            spectrum[PILOT_BINS] = PILOT_VALUES
            streams[u, K * reps + s] = time_symbol(spectrum)
    return streams.reshape(K, -1), grids


class TestFraming:
    @pytest.mark.parametrize("reps", [1, 2, 3])
    def test_matches_per_symbol_oracle(self, reps):
        payloads = Rng(5, 0).bits((3, payload_bits_for_symbols(3)))
        got, want = build_frame(payloads, reps), loop_frame(payloads, reps)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_loopback_identity(self):
        payloads = Rng(6, 0).bits((4, payload_bits_for_symbols(4)))
        _, grids = build_frame(payloads, REPS)
        assert np.array_equal(recover_bits(grids), payloads)

    @pytest.mark.parametrize("K", [1, 2, 8])
    def test_loopback_many_user_counts(self, K):
        for P in (1, 2, 5):
            payloads = Rng(7, P).bits((K, payload_bits_for_symbols(P)))
            streams, grids = build_frame(payloads, REPS)
            assert streams.shape == (K, (K * REPS + P) * SYMBOL_LEN)
            assert grids.shape == (K, P, len(DATA_BINS))
            assert np.array_equal(recover_bits(grids), payloads)

    def test_lts_slots_disjoint_and_exclusive(self):
        payloads = Rng(9, 0).bits((4, payload_bits_for_symbols(2)))
        for reps in (1, 2, 3):
            streams, grids = build_frame(payloads, reps)
            assert streams.shape == (4, (4 * reps + grids.shape[1]) * SYMBOL_LEN)
            spectra = symbol_spectra(streams)
            # user u trains in symbols u*reps .. (u+1)*reps - 1 and is
            # silent during every other user's training slots
            for u in range(4):
                for v in range(4):
                    slot = spectra[u, v * reps : (v + 1) * reps] / TX_SCALE
                    if v == u:
                        assert np.allclose(slot, LTS_FREQ)
                    else:
                        assert not slot.any()

    def test_null_bins_carry_no_energy(self):
        payloads = Rng(10, 0).bits((1, payload_bits_for_symbols(3)))
        streams, _ = build_frame(payloads, REPS)
        spectra = symbol_spectra(streams[0])
        nulls = np.setdiff1d(np.arange(64), USED_BINS)
        used_power = np.sum(np.abs(spectra[:, USED_BINS]) ** 2)
        null_power = np.sum(np.abs(spectra[:, nulls]) ** 2)
        assert null_power < used_power * 1e-10  # < -100 dBc

    def test_unit_mean_sample_power(self):
        payloads = Rng(11, 0).bits((1, payload_bits_for_symbols(50)))
        streams, _ = build_frame(payloads, REPS)
        sym = streams[0, REPS * SYMBOL_LEN :]
        assert abs(np.mean(np.abs(sym) ** 2) - 1.0) < 0.05

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_frame([], REPS)

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((2, 180), "do not fill whole symbols"),
            ((2, payload_bits_for_symbols(2) + 1), "do not fill whole symbols"),
            ((2, 0), "do not fill whole symbols"),
            ((payload_bits_for_symbols(2),), r"\[users, bits\]"),
        ],
        ids=["180 bits", "one bit over", "no symbols", "1-d payload"],
    )
    def test_rejects_payload_that_is_not_whole_symbols_per_user(self, shape, message):
        with pytest.raises(ValueError, match=message):
            build_frame(np.zeros(shape, dtype=np.int64), REPS)

    def test_symbol_spectra_rejects_partial_symbols(self):
        with pytest.raises(ValueError):
            symbol_spectra(np.zeros(SYMBOL_LEN + 1, dtype=complex))


def per_user_rate(bandwidth_hz):
    """Raw delivered-bit ceiling: info bits per symbol over the symbol period."""
    return INFO_BITS_PER_SYMBOL / (SYMBOL_LEN / bandwidth_hz)


class TestRateArithmetic:
    def test_per_user_bound_is_12_mbps(self):
        assert per_user_rate(10e6) == pytest.approx(12e6, abs=1e-6)

    def test_four_users_aggregate_48_mbps(self):
        assert 4 * per_user_rate(10e6) == pytest.approx(48e6, abs=1e-6)

    def test_spectral_efficiency_1p2(self):
        assert per_user_rate(10e6) / 10e6 == pytest.approx(1.2, abs=1e-12)

    def test_symbol_duration(self):
        assert SYMBOL_LEN / 10e6 == pytest.approx(8e-6, abs=1e-12)

    def test_payload_bits_accounting(self):
        assert payload_bits_for_symbols(50) == 96 * 50 - 6

    def test_numerology(self):
        assert (FFT_SIZE, CP_LEN, SYMBOL_LEN) == (64, 16, 80)
        assert (CODED_BITS_PER_SYMBOL, INFO_BITS_PER_SYMBOL) == (192, 96)
        assert TX_SCALE == pytest.approx(64 / np.sqrt(52))
