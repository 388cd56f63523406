import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchmux.codes import code_spectrum, generate_codes, phase_matrix


def closed_form_spectrum(K, phase_index, num_samples):
    """Independent oracle: comb with peaks at harmonics m*num_samples/K,
    magnitude num_samples/K, phase -2*pi*phase_index*m/K."""
    spec = np.zeros(num_samples, dtype=complex)
    for m in range(K):
        spec[m * (num_samples // K)] = (num_samples / K) * np.exp(
            -2j * np.pi * phase_index * m / K
        )
    return spec


class TestGenerateCodes:
    def test_k4_bits(self):
        # row i is code i, on in slot i only
        got = generate_codes(4)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.eye(4, dtype=int))

    def test_k1_all_on(self):
        (code,) = generate_codes(1)
        assert np.array_equal(code, [1])

    def test_k8_orthogonal_and_complete(self):
        stack = generate_codes(8)
        assert np.array_equal(stack @ stack.T, np.eye(8, dtype=int))
        assert np.array_equal(stack.sum(axis=0), np.ones(8, dtype=int))

    def test_k0_errors(self):
        with pytest.raises(ValueError):
            generate_codes(0)


class TestCodeSpectrum:
    @pytest.mark.parametrize("K", [1, 2, 4, 8])
    def test_matches_closed_form(self, K):
        n = 64
        for i, code in enumerate(generate_codes(K)):
            got = code_spectrum(code, n)
            want = closed_form_spectrum(K, i, n)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_k4_code1_peaks(self):
        code = generate_codes(4)[1]
        spec = code_spectrum(code, 64)
        peaks = spec[[0, 16, 32, 48]]
        assert np.allclose(np.abs(peaks), 16.0, atol=1e-9)
        want_phases = np.array([0.0, -np.pi / 2, -np.pi, -3 * np.pi / 2])
        diff = np.angle(peaks) - want_phases
        assert np.max(np.abs((diff + np.pi) % (2 * np.pi) - np.pi)) < 1e-9
        off = np.delete(spec, [0, 16, 32, 48])
        assert np.max(np.abs(off)) < 1e-9

    def test_k1_single_peak(self):
        (code,) = generate_codes(1)
        spec = code_spectrum(code, 32)
        assert abs(spec[0] - 32) < 1e-9
        assert np.max(np.abs(spec[1:])) < 1e-9

    def test_k4_code0_real_positive(self):
        code = generate_codes(4)[0]
        peaks = code_spectrum(code, 64)[[0, 16, 32, 48]]
        assert np.max(np.abs(peaks.imag)) < 1e-9
        assert np.all(peaks.real > 0)

    def test_rejects_nondivisible_length(self):
        with pytest.raises(ValueError):
            code_spectrum(generate_codes(4)[0], 62)
        with pytest.raises(ValueError, match="one period"):
            code_spectrum(generate_codes(4), 64)  # the whole family, not one row


class TestPhaseMatrix:
    def test_k2(self):
        assert np.allclose(phase_matrix(2), [[0, 0], [0, np.pi]])

    def test_k1(self):
        assert np.allclose(phase_matrix(1), [[0.0]])

    def test_k4_row2_col3(self):
        e = phase_matrix(4)[2, 3]
        assert abs(e - 3 * np.pi) < 1e-12
        assert abs(e % (2 * np.pi) - np.pi) < 1e-12

    @pytest.mark.parametrize("K", [1, 2, 4, 8])
    def test_forward_unitary(self, K):
        E = np.exp(-1j * phase_matrix(K))
        assert np.max(np.abs(E @ E.conj().T / K - np.eye(K))) < 1e-12

    @pytest.mark.parametrize("K", [2, 4, 8])
    def test_rows_orthogonal(self, K):
        E = np.exp(-1j * phase_matrix(K))
        for i in range(K):
            for j in range(K):
                if i != j:
                    assert abs(E[i] @ E[j].conj()) < 1e-12

    def test_inverse_undoes_forward(self):
        # e^{-jP} mixes slots into harmonic zones; (1/K) e^{+jP} unmixes them
        P = phase_matrix(8)
        assert np.max(np.abs(np.exp(1j * P) @ np.exp(-1j * P) / 8 - np.eye(8))) < 1e-12


@given(st.sampled_from([1, 2, 3, 4, 5, 8, 16]), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_spectrum_closed_form_property(K, reps):
    n = K * reps
    for i, code in enumerate(generate_codes(K)):
        got = code_spectrum(code, n)
        want = closed_form_spectrum(K, i, n)
        assert np.max(np.abs(got - want)) < 1e-9
