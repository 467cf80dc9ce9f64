"""Polynomial-time Dodgson scoring with a self-certified answer.

The greedy engine buys each missing majority vote with a single adjacent
swap in a ballot where the rival sits directly above the target. When
every rival offers enough directly-adjacent ballots, that spend is
provably optimal and the result is flagged ``definitely``; otherwise the
spend is still a valid lower bound and the result is flagged ``maybe``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import Profile, _ranks_above, _require_pair, _require_rule_scale

__all__ = [
    "Certainty",
    "Decision",
    "GreedyResult",
    "immediately_above_count",
    "greedy_dodgson",
    "semirandom_dodgson_decision",
]


class Certainty(enum.Enum):
    DEFINITELY = "definitely"
    MAYBE = "maybe"


class Decision(enum.Enum):
    YES = "yes"
    NO = "no"
    FAILURE = "failure"


@dataclass(frozen=True)
class GreedyResult:
    """Score plus a certification flag.

    ``definitely`` guarantees the score equals the true Dodgson score;
    ``maybe`` keeps it as a lower bound.
    """

    score: int
    certainty: Certainty

    @property
    def is_definite(self) -> bool:
        return self.certainty is Certainty.DEFINITELY


def immediately_above_count(p: Profile, a: int, b: int) -> int:
    """Ballots with ``b`` directly above ``a``: column ``m + b`` of :func:`_tallies`."""
    _require_pair(p, a, b)
    return int(_tallies(p, a)[p.m + b])


def _tally_table(orders: np.ndarray, a: int) -> np.ndarray:
    """The target ``a``'s two greedy tallies per ranking, as one int64 row each.

    Row ``i`` describes ``orders[i]`` (alternatives most-preferred first)
    in ``2m`` columns: column ``b`` is 1 when the ranking puts ``b`` above
    ``a``, by the margin kernel's comparison, and column ``m + b`` is 1
    when ``b`` sits directly above ``a``. For ranking counts ``c``,
    ``c @ table`` holds the voters ranking each ``b`` over ``a`` and the
    ballots with each ``b`` directly above it; ``a``'s own entries are 0.
    """
    pos = np.argsort(orders, axis=1)
    at = pos[:, [a]]
    adjacent = pos == at - 1
    return np.concatenate((_ranks_above(pos, at)[:, :, 0], adjacent), axis=1).astype(np.int64)


def _tallies(p: Profile, a: int) -> np.ndarray:
    """``p``'s ``2m`` greedy tallies of target ``a``: its counts times :func:`_tally_table`."""
    orders = np.array([r.order for r in p.grouped], dtype=np.int64)
    return np.fromiter(p.grouped.values(), np.int64, len(orders)) @ _tally_table(orders, a)


def _certify(n: int, against, adjacent) -> tuple:
    """Greedy score and certificate of a target from its per-rival tallies.

    ``against[..., b]`` counts the voters ranking rival ``b`` above the
    target and ``adjacent[..., b]`` the ballots with ``b`` directly above
    it. A strict majority lets ``(n-1)//2`` of the former stay, so rival
    ``b`` is owed ``max(0, against - (n-1)//2)`` votes, the exact DP's
    ``count - kept``; the score is the sum of what is owed, and it is
    definite iff every adjacency count covers what its rival is owed. The
    last axis runs over rivals, so one call takes one row or a stack of
    trials; the target's own column, 0 against, owes nothing. Scores are
    Python ints.
    """
    owed = np.maximum(0, np.asarray(against, dtype=np.int64) - (n - 1) // 2)
    return owed.sum(axis=-1, dtype=object), (np.asarray(adjacent) >= owed).all(axis=-1)


def greedy_dodgson(p: Profile, a: int) -> GreedyResult:
    """Sum of per-rival vote deficits, certified when cheaply payable.

    For each rival ``b`` the target owes ``deficit(p, a, b)`` votes, and
    each vote costs at least one swap, so the sum is always a lower bound
    on the Dodgson score. When every rival with a positive deficit sits
    directly above ``a`` in at least that many ballots, one swap per owed
    vote suffices (the adjacent ballots for distinct rivals are disjoint,
    since only one alternative can sit directly above ``a`` per ballot),
    so the bound is exact and the result says ``definitely``.
    """
    _require_rule_scale(p, a)
    tallies = _tallies(p, a)
    score, definite = _certify(p.n, tallies[: p.m], tallies[p.m :])
    return GreedyResult(score, Certainty.DEFINITELY if definite else Certainty.MAYBE)


def semirandom_dodgson_decision(p: Profile, a: int, t: int) -> Decision:
    """Threshold decision that refuses to guess.

    Returns ``yes``/``no`` only with a certified score (so those answers
    are always correct) and ``failure`` otherwise.
    """
    result = greedy_dodgson(p, a)
    if not result.is_definite:
        return Decision.FAILURE
    return Decision.YES if result.score <= t else Decision.NO
