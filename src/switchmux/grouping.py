"""Switch-matrix selection.

Chooses the M x K binary matrix that maps antennas to time slots.  The
grouped selector turns on, per user, the largest set of antennas whose
channel phases sit within an acute cone, so the gated sum adds nearly
coherently.  A ranked fallback swaps in next-best antenna sets until the
effective channel seen by the digital combiner is full rank.  The cone
half-angle, rank tolerance and fallback budget are plain arguments; their
defaults and range checks live with the grouping.* config keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsp import Rng

# draws random_switch_matrix tries before giving up
MAX_RANDOM_DRAWS = 10000


class GroupingError(RuntimeError):
    """No full-rank switch matrix was found within the fallback budget."""


@dataclass(frozen=True)
class GroupingResult:
    """Outcome of a grouped selection.

    matrix: the chosen M x K 0/1 int64 switch matrix, full rank against h_ref.
    scores: [user][pivot] sizes of the in-cone antenna sets.
    fallback_level: number of next-best substitutions that were needed.
    """

    matrix: np.ndarray
    scores: np.ndarray = field(repr=False)
    fallback_level: int = 0


def _validate_reference(h_ref: np.ndarray) -> np.ndarray:
    h = np.asarray(h_ref, dtype=np.complex128)
    if h.ndim != 2:
        raise ValueError("reference channel must be a 2-D users x antennas matrix")
    num_users, num_antennas = h.shape
    if num_users < 1 or num_antennas < num_users:
        raise ValueError("need at least as many antennas as users")
    if not np.all(np.isfinite(h)):
        raise ValueError("reference channel must be finite")
    if np.any(np.all(h == 0, axis=1)):
        raise ValueError("reference channel has an all-zero user row")
    return h


def _full_rank(h: np.ndarray, columns: np.ndarray, tolerance: float) -> bool:
    effective = h @ columns
    sing = np.linalg.svd(effective, compute_uv=False)
    return bool(sing[0] > 0.0 and sing[-1] >= tolerance * sing[0])


def inphase_select(
    h_ref: np.ndarray, *, phi_rad: float, rank_tolerance: float, max_fallbacks: int
) -> GroupingResult:
    """Pick antenna groups whose phases align per user, enforcing full rank.

    For every user ``u`` and pivot antenna ``m`` the candidate set holds the
    antennas whose phase relative to the pivot is strictly inside the cone
    ``|angle| < phi_rad``; its size is the pivot's score.  Each user starts on
    its best pivot (ties broken toward the lower antenna index).  Whenever the
    resulting effective channel ``h_ref @ S`` is rank-deficient, the user whose
    step to the next-ranked pivot costs the least score is demoted, lowest
    user index first on ties, until the matrix passes the rank test or the
    fallback budget runs out.  rank_tolerance is the singular-value ratio
    below which ``h_ref @ S`` counts as deficient, and max_fallbacks the
    number of demotions tried (the config checks the three ranges).

    Raises GroupingError when no full-rank matrix exists within the budget.
    """
    h = _validate_reference(h_ref)
    num_users, num_antennas = h.shape

    # relative[u, m, j]: phase of antenna j as seen from pivot m for user u
    relative = np.angle(h[:, None, :] * np.conj(h[:, :, None]))
    members = np.abs(relative) < phi_rad
    scores = members.sum(axis=2).astype(np.int64)

    # per-user pivot ranking: descending score, stable so ties keep low index
    order = np.argsort(-scores, axis=1, kind="stable")
    position = np.zeros(num_users, dtype=np.int64)

    for level in range(max_fallbacks + 1):
        pivots = order[np.arange(num_users), position]
        columns = members[np.arange(num_users), pivots].T.astype(np.int64)
        if _full_rank(h, columns, rank_tolerance):
            return GroupingResult(matrix=columns, scores=scores, fallback_level=level)

        movable = position + 1 < num_antennas
        if not np.any(movable):
            break
        current = scores[np.arange(num_users), pivots]
        ahead = order[np.arange(num_users), np.minimum(position + 1, num_antennas - 1)]
        loss = current - scores[np.arange(num_users), ahead]
        loss = np.where(movable, loss, np.iinfo(np.int64).max)
        position[int(np.argmin(loss))] += 1

    raise GroupingError(
        f"no full-rank switch matrix within {max_fallbacks} fallbacks"
    )


def random_switch_matrix(num_antennas: int, num_slots: int, rng: Rng) -> np.ndarray:
    """Draw a uniform M x K 0/1 int64 switch matrix, rejecting degenerate ones.

    Resamples, at most MAX_RANDOM_DRAWS times, until every slot column is
    nonempty and the matrix has full column rank, so the draw is always
    usable by the digital combiner.
    """
    if num_slots < 1 or num_antennas < num_slots:
        raise ValueError("need at least as many antennas as slots")
    gen = rng.generator
    for _ in range(MAX_RANDOM_DRAWS):
        entries = gen.integers(0, 2, size=(num_antennas, num_slots))
        if np.any(entries.sum(axis=0) == 0):
            continue
        if np.linalg.matrix_rank(entries) == num_slots:
            return entries
    raise RuntimeError(f"no full-rank binary matrix in {MAX_RANDOM_DRAWS} draws")
