"""Channel estimation and combining tests.

Chains are synthesized by pushing the framed waveform through a known
per-bin effective channel, so estimates and combiner outputs have exact
references.  Estimation and combining read the chains' symbol spectra.
"""

import numpy as np
import pytest

from switchmux import channel
from switchmux.dsp import Rng
from switchmux.equalize import apply_combiner, estimate_channel, true_effective_channel, zf_weights
from switchmux.frontend import capture_physical, switched_chains
from switchmux.grouping import random_switch_matrix
from switchmux.metrics import sinr
from switchmux.waveform import (
    CP_LEN,
    DATA_BINS,
    FFT_SIZE,
    LTS_FREQ,
    SYMBOL_LEN,
    TX_SCALE,
    build_frame,
    payload_bits_for_symbols,
    recover_bits,
    symbol_spectra,
)

REPS = 2  # training symbols per user, the config default


def make_frame(num_users, seed, symbols=2):
    """(payloads, tx_streams, tx_grids) of a REPS-training frame."""
    payloads = Rng(seed).bits((num_users, payload_bits_for_symbols(symbols)))
    return (payloads, *build_frame(payloads, REPS))


def inject(tx, heff_full):
    """Push streams [user, sample] through heff[fft bin][chain][user] and
    return the chains' symbol spectra [chain, symbol, fft bin]."""
    heff_full = np.asarray(heff_full, dtype=np.complex128)
    fft_size, _, users = heff_full.shape
    assert users == len(tx) and fft_size == FFT_SIZE
    return symbol_spectra(channel.apply(np.transpose(heff_full, (2, 1, 0)), tx, CP_LEN))


def decoded_ok(grids, payloads):
    return np.array_equal(recover_bits(grids), payloads)


def loop_zf(heff, rank_tolerance=1e-9):
    """Oracle: zero-forcing weights and erasure flags one bin at a time."""
    bins, chains, users = heff.shape
    weights = np.empty((bins, users, chains), dtype=np.complex128)
    erased = np.zeros(bins, dtype=bool)
    for f in range(bins):
        a = heff[f]
        weights[f] = np.linalg.pinv(a, rcond=rank_tolerance)
        sing = np.linalg.svd(a, compute_uv=False)
        rank = int(np.sum(sing > rank_tolerance * sing[0])) if sing[0] > 0 else 0
        erased[f] = rank < users
    return weights, erased


def certified(heff, rank_tolerance=1e-9):
    """Bins of a square stack whose Frobenius condition number certifies
    full rank, kappa_F * rank_tolerance < 1/2: zf_weights keeps their
    inverse.  No bin is when the stack is not square or holds a bin that
    np.linalg.inv finds singular."""
    if heff.shape[1] != heff.shape[2]:
        return np.zeros(len(heff), dtype=bool)
    try:
        inv = np.linalg.inv(heff)
    except np.linalg.LinAlgError:
        return np.zeros(len(heff), dtype=bool)
    kappa = np.linalg.norm(heff, axis=(1, 2)) * np.linalg.norm(inv, axis=(1, 2))
    return kappa * rank_tolerance < 0.5


def assert_matches_oracle(comb, heff, rank_tolerance=1e-9, rtol=1e-12):
    """Bins that keep their inverse equal np.linalg.inv of the stack bit
    for bit and the pseudo-inverse within rtol of its norm; every other bin
    equals loop_zf bit for bit; the erasures are loop_zf's."""
    weights, erased = loop_zf(heff, rank_tolerance)
    kept = certified(heff, rank_tolerance)
    assert np.array_equal(comb.erased, erased)
    assert np.array_equal(comb.weights[~kept], weights[~kept])
    if kept.any():
        assert np.array_equal(comb.weights[kept], np.linalg.inv(heff)[kept])
        err = np.linalg.norm(comb.weights[kept] - weights[kept], axis=(1, 2))
        assert np.all(err <= rtol * np.linalg.norm(weights[kept], axis=(1, 2)))
    return kept


def planted(size, kappas, seed):
    """Square bins U diag(s) V^H whose singular values fall geometrically
    from 1 to 1 / kappa, one bin per condition number."""
    rng = Rng(seed, 78)
    bins = []
    for kappa in kappas:
        u, _ = np.linalg.qr(rng.normal_complex((size, size)))
        v, _ = np.linalg.qr(rng.normal_complex((size, size)))
        sing = np.geomspace(1.0, 1.0 / kappa, size) if size > 1 else np.ones(1)
        bins.append((u * sing) @ v.conj().T)
    return np.stack(bins)


def random_heff(chains, users, seed, per_bin=True):
    rng = Rng(seed, 77)
    if per_bin:
        return np.moveaxis(rng.normal_complex((chains, users, FFT_SIZE)), 2, 0)
    flat = rng.normal_complex((chains, users))
    return np.repeat(flat[None], FFT_SIZE, axis=0)


class TestEstimateChannel:
    def test_noiseless_estimate_matches_truth(self):
        _, tx, _ = make_frame(2, seed=1)
        heff = random_heff(2, 2, seed=2)
        est = estimate_channel(inject(tx, heff), 2, REPS)
        assert np.max(np.abs(est - heff[DATA_BINS])) < 1e-9

    def test_single_user_flat_gain_on_every_bin(self):
        _, tx, _ = make_frame(1, seed=3)
        gain = 0.5 - 1.2j
        heff = np.full((FFT_SIZE, 1, 1), gain)
        est = estimate_channel(inject(tx, heff), 1, REPS)
        assert np.max(np.abs(est - gain)) < 1e-9

    def test_two_repetitions_halve_estimate_variance(self):
        noise_power = 0.05
        errors = {1: [], 2: []}
        for reps in (1, 2):
            clean, _ = build_frame(Rng(40).bits((1, payload_bits_for_symbols(1))), reps)
            for trial in range(200):
                noise = Rng(41, trial + 1000 * reps).normal_complex(clean.shape)
                spectra = symbol_spectra(clean + noise * np.sqrt(noise_power))
                est = estimate_channel(spectra, 1, reps)
                errors[reps].append(est[:, 0, 0] - 1.0)
        ratio = np.var(np.concatenate(errors[1])) / np.var(np.concatenate(errors[2]))
        assert abs(ratio - 2.0) < 0.2

    @pytest.mark.parametrize("reps", [1, 2, 3])
    def test_matches_per_user_oracle(self, reps):
        clean, _ = build_frame(Rng(42).bits((3, payload_bits_for_symbols(2))), reps)
        heff = np.transpose(random_heff(4, 3, seed=43), (2, 1, 0))
        chains = channel.apply(heff, clean, CP_LEN)
        chains = chains + 0.1 * Rng(44).normal_complex(chains.shape)
        spectra = np.fft.fft(chains.reshape(4, -1, SYMBOL_LEN)[:, :, CP_LEN:], axis=-1)
        ref = TX_SCALE * LTS_FREQ[DATA_BINS]
        want = np.stack(
            [
                spectra[:, u * reps : (u + 1) * reps][:, :, DATA_BINS].mean(axis=1) / ref
                for u in range(3)
            ],
            axis=1,
        )
        want = np.moveaxis(want, 2, 0)
        assert np.array_equal(estimate_channel(spectra, 3, reps), want)

    def test_short_capture_missing_training_fails(self):
        _, tx, _ = make_frame(2, seed=5)
        spectra = inject(tx, random_heff(2, 2, seed=6))
        estimate_channel(spectra[:, : 2 * REPS], 2, REPS)
        with pytest.raises(ValueError):
            estimate_channel(spectra[:, : 2 * REPS - 1], 2, REPS)

    def test_rejects_a_single_stream(self):
        _, tx, _ = make_frame(1, seed=5)
        with pytest.raises(ValueError):
            estimate_channel(symbol_spectra(tx[0]), 1, REPS)

    def test_one_spectra_serve_estimate_and_combine(self):
        # a link takes its capture's spectra once; neither stage writes into them
        _, tx, _ = make_frame(3, seed=45)
        heff = np.transpose(random_heff(4, 3, seed=46), (2, 1, 0))
        chains = channel.apply(heff, tx, CP_LEN)
        chains = chains + 0.1 * Rng(47).normal_complex(chains.shape)
        spectra = symbol_spectra(chains)
        est = estimate_channel(spectra, 3, REPS)
        grids = apply_combiner(spectra, zf_weights(est), REPS)
        est_per_call = estimate_channel(symbol_spectra(chains), 3, REPS)
        grids_per_call = apply_combiner(symbol_spectra(chains), zf_weights(est_per_call), REPS)
        assert np.array_equal(est, est_per_call)
        assert np.array_equal(grids, grids_per_call)


class TestTrueEffectiveChannel:
    def test_matches_manual_mixing_sum(self):
        chan = channel.rayleigh(3, 6, 64, Rng(7), num_taps=4)
        mixing = Rng(8).generator.integers(0, 2, (6, 3)).astype(float)
        mixing[0, :] = 1  # no empty chain
        est = true_effective_channel(chan, mixing, loss_amp=0.9)
        for c in range(3):
            for u in range(3):
                want = 0.9 * np.sum(
                    mixing[:, c][:, None] * chan[u, :, DATA_BINS].T, axis=0
                )
                assert np.allclose(est[:, c, u], want)

    @pytest.mark.parametrize("users, antennas", [(8, 64), (4, 1)])
    def test_dedicated_chains_equal_the_identity_product(self, users, antennas):
        chan = channel.rayleigh(users, antennas, FFT_SIZE, Rng(10), num_taps=4)
        identity = np.eye(antennas, dtype=np.complex128)
        want = np.einsum("mc,umf->fcu", identity, chan[:, :, DATA_BINS])
        assert np.array_equal(true_effective_channel(chan), want)
        assert np.array_equal(true_effective_channel(chan, loss_amp=0.9), 0.9 * want)

    @pytest.mark.parametrize("users, antennas, chains", [(8, 64, 8), (3, 5, 2), (1, 1, 1)])
    def test_mixing_matches_the_einsum(self, users, antennas, chains):
        chan = channel.rayleigh(users, antennas, FFT_SIZE, Rng(11), num_taps=4)
        mixing = Rng(12).normal_complex((antennas, chains))
        want = 0.9 * np.einsum("mc,umf->fcu", mixing, chan[:, :, DATA_BINS])
        got = true_effective_channel(chan, mixing, loss_amp=0.9)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_rejects_wrong_mixing_shape(self):
        chan = channel.rayleigh(2, 4, 64, Rng(9))
        with pytest.raises(ValueError):
            true_effective_channel(chan, np.ones((3, 2)))


class TestZeroForcing:
    def test_identity_channel_passes_grids_through(self):
        _, tx, tx_grids = make_frame(2, seed=10)
        heff = np.repeat(np.eye(2, dtype=complex)[None], FFT_SIZE, axis=0)
        spectra = inject(tx, heff)
        grids = apply_combiner(spectra, zf_weights(estimate_channel(spectra, 2, REPS)), REPS)
        assert np.max(np.abs(grids - tx_grids)) < 1e-9

    def test_capture_without_a_payload_symbol_fails(self):
        _, tx, _ = make_frame(2, seed=10)
        heff = np.repeat(np.eye(2, dtype=complex)[None], FFT_SIZE, axis=0)
        spectra = inject(tx, heff)
        comb = zf_weights(estimate_channel(spectra, 2, REPS))
        assert apply_combiner(spectra[:, : 2 * REPS + 1], comb, REPS).shape[1] == 1
        with pytest.raises(ValueError):
            apply_combiner(spectra[:, : 2 * REPS], comb, REPS)

    def test_worked_two_user_inversion(self):
        # Heff = [[1,-1],[1,1]]: pinv recovers exactly; the raw nulling
        # direction [1,1] carries doubled noise, the normalized pinv rows
        # carry half the per-chain noise power
        _, tx, tx_grids = make_frame(2, seed=11)
        a = np.array([[1, -1], [1, 1]], dtype=complex)
        heff = np.repeat(a[None], FFT_SIZE, axis=0)
        spectra = inject(tx, heff)
        est = estimate_channel(spectra, 2, REPS)
        grids = apply_combiner(spectra, zf_weights(est), REPS)
        assert np.max(np.abs(grids - tx_grids)) < 1e-9
        v = np.linalg.pinv(a)
        assert np.allclose(np.sum(np.abs(v) ** 2, axis=1), [0.5, 0.5])
        raw_null = np.array([1.0, 1.0])  # nulls user 2's column [-1, 1]
        assert abs(raw_null @ a[:, 1]) < 1e-12
        assert np.sum(np.abs(raw_null) ** 2) == 2.0

    def test_combined_noise_power_follows_weight_norm(self):
        # per-chain noise sigma^2 maps to ||V_u||^2 sigma^2 after combining
        _, tx, _ = make_frame(2, seed=12)
        a = np.array([[1, -1], [1, 1]], dtype=complex)
        heff = np.repeat(a[None], FFT_SIZE, axis=0)
        est = estimate_channel(inject(tx, heff), 2, REPS)
        comb = zf_weights(est)
        sigma2 = 0.3
        n = SYMBOL_LEN * 400
        noise = np.stack([np.sqrt(sigma2) * Rng(13, c).normal_complex(n) for c in range(2)])
        out = apply_combiner(symbol_spectra(noise), comb, REPS)
        # per data bin: var = ||V_u||^2 * fft_size * sigma2 / tx_scale^2
        measured = np.var(out) * TX_SCALE**2 / FFT_SIZE
        assert abs(measured / (0.5 * sigma2) - 1.0) < 0.1

    def test_noiseless_leakage_below_minus_60dbc(self):
        payloads, tx, _ = make_frame(4, seed=14)
        heff = random_heff(4, 4, seed=15)
        spectra = inject(tx, heff)
        est = estimate_channel(spectra, 4, REPS)
        comb = zf_weights(est)
        for f in range(0, DATA_BINS.size, 7):
            p = np.einsum("uc,cv->uv", comb.weights[f], heff[DATA_BINS[f]])
            for u in range(4):
                cross = np.sum(np.abs(np.delete(p[u], u)) ** 2)
                assert cross < 1e-6 * np.abs(p[u, u]) ** 2
        assert decoded_ok(apply_combiner(spectra, zf_weights(est), REPS), payloads)

    @pytest.mark.parametrize("chains, users", [(64, 8), (8, 8), (1, 1)])
    def test_combining_matches_the_einsum(self, chains, users):
        spectra = Rng(13).normal_complex((chains, users * REPS + 3, FFT_SIZE))
        comb = zf_weights(random_heff(chains, users, 14)[DATA_BINS])
        payload = spectra[:, users * REPS :, DATA_BINS] / TX_SCALE
        want = np.einsum("fuc,csf->usf", comb.weights, payload)
        got = apply_combiner(spectra, comb, REPS)
        assert got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_weights_times_channel_is_identity(self):
        heff = random_heff(4, 4, seed=16)[DATA_BINS]
        comb = zf_weights(heff.copy())
        for f in range(DATA_BINS.size):
            prod = comb.weights[f] @ heff[f]
            assert np.max(np.abs(prod - np.eye(4))) < 1e-9
        assert not comb.erased.any()

    def test_rank_deficient_bin_is_erased_and_zeroed(self):
        _, tx, _ = make_frame(2, seed=17)
        heff = random_heff(2, 2, seed=18)
        bad = DATA_BINS[5]
        heff[bad, :, 1] = heff[bad, :, 0]  # identical columns on one bin
        spectra = inject(tx, heff)
        est = estimate_channel(spectra, 2, REPS)
        comb = zf_weights(est)
        assert comb.erased[5]
        assert comb.erased.sum() == 1
        grids = apply_combiner(spectra, comb, REPS)
        assert np.all(grids[:, :, 5] == 0)

    @pytest.mark.parametrize(
        "chains,users,dead",
        [
            (4, 4, None),
            (8, 4, "rank"),
            (3, 3, "zero"),
            (3, 2, "zero"),
            (2, 3, None),
            (64, 8, "rank"),  # dbf's shape
            (64, 8, "zero"),
        ],
    )
    def test_stacked_matches_per_bin_oracle(self, chains, users, dead):
        heff = random_heff(chains, users, seed=chains + users)[DATA_BINS]
        if dead == "rank":
            heff[9, :, 1] = 2.0 * heff[9, :, 0]
        elif dead == "zero":
            heff[9] = 0.0  # sing[0] == 0
        comb = zf_weights(heff)
        assert_matches_oracle(comb, heff)
        assert comb.erased[9] == (dead is not None or chains < users)

    @pytest.mark.parametrize("chains, users", [(64, 8), (8, 8), (4, 4)])
    def test_weights_equal_numpy_pinv(self, chains, users):
        # a square stack keeps its inverse on certified bins, within 1e-12
        # of the pseudo-inverse; a tall one is the pseudo-inverse exactly
        stack = Rng(chains, users).normal_complex((DATA_BINS.size, chains, users))
        comb = zf_weights(stack)
        want = np.linalg.pinv(stack, rcond=1e-9)
        if chains == users:
            assert certified(stack).all()
            assert np.array_equal(comb.weights, np.linalg.inv(stack))
            err = np.linalg.norm(comb.weights - want, axis=(1, 2))
            assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=(1, 2)))
        else:
            assert np.array_equal(comb.weights, want)
        assert not comb.erased.any()

    def test_bin_permutation_permutes_weights(self):
        heff = random_heff(3, 3, seed=19)[DATA_BINS]
        perm = Rng(20).generator.permutation(DATA_BINS.size)
        w = zf_weights(heff).weights
        w_p = zf_weights(heff[perm]).weights
        assert np.allclose(w[perm], w_p)


def count_svd(monkeypatch):
    """Record the stack of every np.linalg.svd call from here on."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestCertificate:
    """A square bin keeps its inverse only when kappa_F * rank_tolerance <
    1/2; every other bin takes the SVD pseudo-inverse, so no bin's erasure
    differs from the singular-value rule."""

    @pytest.mark.parametrize("rank_tolerance", [1e-12, 1e-9, 1e-6, 1e-3, 0.3])
    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    @pytest.mark.parametrize("dead", [None, "rank", "zero"])
    def test_certificate_never_changes_an_erasure(self, dead, size, rank_tolerance):
        # 41 bins at condition numbers 1e3 .. 1e13, a quarter decade apart,
        # so every tolerance has bins on both sides of its cutoff
        kappas = np.logspace(3, 13, 41)
        heff = np.concatenate([planted(size, kappas, seed=size), random_heff(size, size, 5)[:7]])
        if dead == "rank" and size > 1:
            heff[3, :, 1] = 2.0 * heff[3, :, 0]
        elif dead is not None:
            heff[3] = 0.0  # np.linalg.inv raises on the whole stack
        comb = zf_weights(heff, rank_tolerance)
        # kept inverses differ from the pseudo-inverse by their kappa's rounding
        kept = assert_matches_oracle(comb, heff, rank_tolerance, rtol=np.inf)
        if not heff[3].any():
            assert not kept.any()
        # the planted bins away from the cutoff, bin 3 aside
        live = np.arange(len(kappas)) != 3
        if size > 1:
            assert not comb.erased[:41][live & (kappas * rank_tolerance < 0.1)].any()
            assert comb.erased[:41][live & (kappas * rank_tolerance > 10)].all()

    def test_well_conditioned_square_stacks_make_no_svd(self, monkeypatch):
        calls = count_svd(monkeypatch)
        for size in (4, 1):
            comb = zf_weights(random_heff(size, size, seed=21)[DATA_BINS])
            assert not comb.erased.any()
        assert calls == []

    def test_doubtful_bins_alone_take_the_svd(self, monkeypatch):
        heff = random_heff(4, 4, seed=22)[DATA_BINS]
        doubtful = [3, 17, 40]
        # kappa_F * 1e-9 > 1/2 on all three; sigma_min / sigma_max > 1e-9 on bin 17
        heff[doubtful] = planted(4, [1e12, 7e8, 1e10], seed=23)
        calls = count_svd(monkeypatch)
        comb = zf_weights(heff)
        assert len(calls) == 1
        assert np.array_equal(calls[0], heff[doubtful].conj())
        assert np.array_equal(np.flatnonzero(comb.erased), [3, 40])


class TestStackLayout:
    """Per-bin stacks are bins-first, the layout matmul reads: heff
    [48, C, K] and combiner weights [48, K, C]."""

    @pytest.mark.parametrize("arch, users, antennas", [("switched", 2, 8), ("dbf", 2, 4)])
    def test_a_link_passes_bins_first_stacks(self, arch, users, antennas):
        rng = Rng(30)
        payloads, tx, _ = make_frame(users, seed=31)
        gains = channel.rayleigh(users, antennas, FFT_SIZE, rng.derive(1), num_taps=3)
        rx = channel.apply(gains, tx, CP_LEN)
        if arch == "switched":
            mixing = random_switch_matrix(antennas, users, rng.derive(2))
            chains, noise = switched_chains(rx, mixing, 1e-4, rng.derive(3), loss_amp=0.9)
            truth = true_effective_channel(gains, mixing, loss_amp=0.9)
        else:
            chains, noise = capture_physical(rx, 1e-4, rng.derive(3))
            truth = true_effective_channel(gains)
        spectra = symbol_spectra(chains)
        est = estimate_channel(spectra, users, REPS)
        assert est.shape == truth.shape == (DATA_BINS.size, len(chains), users)
        comb = zf_weights(est)
        assert comb.weights.shape == (DATA_BINS.size, users, len(chains))
        assert comb.weights.flags.c_contiguous
        assert_matches_oracle(comb, est)
        assert decoded_ok(apply_combiner(spectra, comb, REPS), payloads)
        got = sinr(comb.weights, truth, noise)
        assert got.shape == (users,)
        assert np.all(got > 20.0)
