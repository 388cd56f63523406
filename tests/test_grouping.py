"""Switch-matrix selection tests.

The two-user hand trace was worked on paper: relative phases inside a 60
degree cone around each pivot, best pivot per user, then the rank check.
"""

from functools import partial

import numpy as np
import pytest

from switchmux.dsp import Rng
from switchmux.grouping import GroupingError, inphase_select, random_switch_matrix

# the config defaults: a 60 degree cone
select = partial(inphase_select, phi_rad=np.pi / 3, rank_tolerance=1e-9, max_fallbacks=64)


def unit_phases(degrees):
    return np.exp(1j * np.deg2rad(np.asarray(degrees, dtype=float)))


class TestInphaseSelect:
    def test_hand_trace_two_users(self):
        # user 1: antennas at 0/100/10/190 deg; only 0 and 10 share a cone
        # user 2: antennas at 0/5/120/10 deg; 0, 5 and 10 share a cone
        h = np.vstack([unit_phases([0, 100, 10, 190]), unit_phases([0, 5, 120, 10])])
        result = select(h)
        want = np.array([[1, 1], [0, 1], [1, 0], [0, 1]])
        assert result.matrix.dtype == np.int64
        assert np.array_equal(result.matrix, want)
        assert result.fallback_level == 0
        assert result.scores[0].tolist() == [2, 1, 2, 1]
        assert result.scores[1].tolist() == [3, 3, 1, 3]

    def test_single_user_equal_phases_turns_all_on(self):
        h = 0.7 * unit_phases([40, 40, 40, 40])[None, :]
        result = select(h)
        assert np.array_equal(result.matrix, np.ones((4, 1), dtype=int))
        assert result.scores[0].tolist() == [4, 4, 4, 4]

    def test_identical_user_rows_fail_explicitly(self):
        row = unit_phases([0, 30, 60, 90])
        h = np.vstack([row, row])
        with pytest.raises(GroupingError):
            select(h)

    def test_fallback_restores_rank(self):
        # both users' best pivots pick the same {a0, a1} column; only after
        # demotions does one user move to the lone 90-degree antenna
        h = np.vstack([unit_phases([0, 1, 90]), unit_phases([0, 2, 91])])
        result = select(h)
        assert result.fallback_level >= 1
        cols = result.matrix
        assert not np.array_equal(cols[:, 0], cols[:, 1])
        effective = h @ cols
        sing = np.linalg.svd(effective, compute_uv=False)
        assert sing[-1] > 1e-9 * sing[0]

    def test_unit_phase_rotation_keeps_selection(self):
        rng = Rng(101)
        h = rng.normal_complex((3, 8))
        base = select(h).matrix
        rotated = h.copy()
        rotated[1] *= np.exp(1j * 2.1)
        assert np.array_equal(select(rotated).matrix, base)

    def test_positive_scaling_keeps_selection(self):
        rng = Rng(102)
        h = rng.normal_complex((4, 8))
        base = select(h).matrix
        scaled = h * np.array([0.1, 3.0, 7.5, 0.4])[:, None]
        assert np.array_equal(select(scaled).matrix, base)

    def test_deterministic_tie_breaks(self):
        # both users tie across several pivots and collide on the same
        # initial column, forcing tie-broken fallbacks; repeat runs agree
        h = np.vstack([unit_phases([0, 0, 100, 200]), unit_phases([90, 90, 0, 300])])
        first = select(h)
        second = select(h)
        assert first.fallback_level >= 1
        assert np.array_equal(first.matrix, second.matrix)
        assert first.fallback_level == second.fallback_level

    def test_grouped_beats_crosstalk_on_average(self):
        # in-phase groups concentrate energy on the matched user: the mean
        # |diagonal|^2 of H*S should dominate the mean |off-diagonal|^2
        diag_power, cross_power = [], []
        for trial in range(1000):
            h = Rng(7, trial).normal_complex((4, 8))
            effective = h @ select(h).matrix
            power = np.abs(effective) ** 2
            eye = np.eye(4, dtype=bool)
            diag_power.append(power[eye].mean())
            cross_power.append(power[~eye].mean())
        assert np.mean(diag_power) > np.mean(cross_power)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            select(np.ones((3, 2), dtype=complex))
        with pytest.raises(ValueError):
            select(np.zeros((2, 4), dtype=complex))

    def test_wider_cone_never_shrinks_groups(self):
        h = Rng(103).normal_complex((2, 6))
        narrow = select(h, phi_rad=np.pi / 6)
        wide = select(h, phi_rad=np.pi / 2)
        assert np.all(wide.scores >= narrow.scores)


class TestRandomSwitchMatrix:
    def test_draws_are_full_rank_with_no_empty_slot(self):
        for trial in range(50):
            s = random_switch_matrix(8, 4, Rng(11, trial))
            assert s.shape == (8, 4) and s.dtype == np.int64
            assert np.all(s.sum(axis=0) >= 1)
            assert np.linalg.matrix_rank(s) == 4

    def test_same_seed_same_matrix(self):
        a = random_switch_matrix(6, 3, Rng(12, 5))
        b = random_switch_matrix(6, 3, Rng(12, 5))
        assert np.array_equal(a, b)

    def test_identity_reachable_for_square_case(self):
        hits = 0
        for trial in range(200):
            s = random_switch_matrix(2, 2, Rng(13, trial))
            if np.array_equal(s, np.eye(2, dtype=int)):
                hits += 1
        assert hits > 0

    def test_rejects_more_slots_than_antennas(self):
        with pytest.raises(ValueError):
            random_switch_matrix(2, 3, Rng(1))
