"""Exact solvers for Dodgson, Young, Kemeny, Chamberlin-Courant and Monroe.

These are ground-truth engines for NP-hard score computations, built for
desk scale: every search takes a ``budget`` of its own work units and
raises :class:`~votelab.errors.BudgetExceededError` past it instead of
silently degrading. Scores are exact integers.

Dodgson scores are computed over "lift vectors": per ballot, raising the
target alternative by ``k`` adjacent swaps passes exactly the ``k``
alternatives sitting directly above it. The search is a dynamic program
over the vector of still-missing majority votes, with branch-and-bound
pruning on partial swap counts. Its optimality over raw swap sequences
is not assumed: the test suite checks it against an unrestricted
breadth-first search over swaps at small scale, and the DP's search
against an integer program over lift-vector counts.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, NoReturn, Optional, Sequence

import numpy as np

from .core import Profile, Ranking, _require_rule_scale, wmg
from .errors import BudgetExceededError

__all__ = [
    "Committee",
    "dodgson_score_exact",
    "dodgson_score_within",
    "young_score_exact",
    "kemeny_best",
    "kemeny_score_of_alternative",
    "kemeny_decision",
    "cc_score",
    "monroe_score",
    "committee_decision",
]

DEFAULT_DODGSON_BUDGET = 5_000_000  # DP expansions
DEFAULT_YOUNG_BUDGET = 2**21  # search nodes: every profile with n <= 20 fits
DEFAULT_KEMENY_BUDGET = 1 << 16  # subset-DP states: m <= 16
DEFAULT_COMMITTEE_BUDGET = 1_000_000  # committees enumerated by the decision problem

_LAYER_SLICE = 2048  # blocks per vectorized Kemeny step: about 1 MiB of temporaries at m=16
_UNSOLVED = 1 << 62  # Kemeny table entry not yet computed; above any disagreement total


def _budget_exceeded(solver: str, budget: int, unit: str) -> NoReturn:
    raise BudgetExceededError(f"{solver} exceeded its budget of {budget} {unit}")


# ---------------------------------------------------------------------------
# Dodgson


def _lift_options(r: Ranking, a: int, active_index: dict[int, int]) -> list[tuple[int, tuple[int, ...]]]:
    """Useful lift amounts for one ballot.

    Lifting ``a`` by ``k`` passes the ``k`` alternatives directly above
    it. Only lifts whose last passed alternative still owes a vote are
    kept; any other lift is dominated by the next smaller useful one.
    Returns (cost, gained active indices) pairs, cheapest first.
    """
    above = r.order[: r.position(a)][::-1]  # nearest to a first
    options: list[tuple[int, tuple[int, ...]]] = []
    gained: list[int] = []
    for k, passed in enumerate(above, start=1):
        if passed in active_index:
            gained.append(active_index[passed])
            options.append((k, tuple(gained)))
    return options


def dodgson_score_within(
    p: Profile,
    a: int,
    cutoff: Optional[int] = None,
    *,
    budget: int = DEFAULT_DODGSON_BUDGET,
) -> Optional[int]:
    """Exact Dodgson score, or ``None`` if it exceeds ``cutoff``.

    With ``cutoff=None`` this always returns the score. The cutoff prunes
    every branch whose swaps-so-far plus still-missing votes overshoot,
    which makes decision queries on large reduction profiles cheap.
    """
    _require_rule_scale(p, a)

    # against[b]: voters ranking b above a, read off the cached margins. A
    # strict majority for a lets at most (n-1)//2 of them stay, so the rest
    # are b's deficit, as core.deficit counts it.
    against = [(p.n - v) // 2 for v in wmg(p).margins[a]]
    against[a] = 0
    kept = (p.n - 1) // 2
    active: list[int] = []
    needed: list[int] = []
    for b, count in enumerate(against):
        if count > kept:
            active.append(b)
            needed.append(count - kept)
    active_index = {b: i for i, b in enumerate(active)}
    total_needed = sum(needed)

    # Feasible upper bound: lift a to the very top of every ballot, which
    # passes each voter's alternatives above a once. Each stored completion
    # lowers the limit to its cost, so a score above the final limit can
    # only be a Condorcet winner's 0 above a negative cutoff.
    limit = sum(against) if cutoff is None else min(sum(against), cutoff)

    ballots: list[tuple[int, list[tuple[int, tuple[int, ...]]]]] = []
    for r, count in p.grouped.items():
        options = _lift_options(r, a, active_index)
        if options:
            # More lifted copies of one ballot type than missing votes can
            # never help; each lifted ballot must close at least one gap.
            ballots.append((min(count, total_needed), options))

    start = tuple(needed)
    zero = (0,) * len(active)
    frontier: dict[tuple[int, ...], int] = {start: 0}
    expansions = 0
    for copies, options in ballots:
        for _ in range(copies):
            snapshot = list(frontier.items())
            expansions += len(snapshot) * len(options)
            if expansions > budget:
                _budget_exceeded("dodgson search", budget, "expansions")
            for state, cost in snapshot:
                if state == zero:
                    continue
                for k, gains in options:
                    new_cost = cost + k
                    if new_cost > limit:
                        break  # options are sorted by cost
                    new_state = list(state)
                    for idx in gains:
                        if new_state[idx] > 0:
                            new_state[idx] -= 1
                    remaining = sum(new_state)
                    if new_cost + remaining > limit:
                        continue
                    key = tuple(new_state)
                    old = frontier.get(key)
                    if old is None or new_cost < old:
                        frontier[key] = new_cost
                        if remaining == 0:
                            limit = new_cost

    score = frontier.get(zero)
    return None if score is None or score > limit else score


def dodgson_score_exact(p: Profile, a: int, *, budget: int = DEFAULT_DODGSON_BUDGET) -> int:
    """Minimum adjacent swaps making ``a`` the strict-majority Condorcet winner."""
    score = dodgson_score_within(p, a, None, budget=budget)
    if score is None:
        raise RuntimeError("dodgson search without a cutoff ended with no score")
    return score


# ---------------------------------------------------------------------------
# Young


def young_score_exact(p: Profile, a: int, *, budget: int = DEFAULT_YOUNG_BUDGET) -> int:
    """Largest sub-multiset of ballots in which ``a`` is Condorcet winner.

    Returns 0 when no nonempty sub-multiset certifies ``a`` (the empty
    collection has no strict-majority winner). The search runs over
    per-class counts, where two ballots are equivalent when they compare
    ``a`` against every rival identically.

    ``budget`` counts search nodes. A class of ``c`` ballots branches into
    ``c + 1 <= 2**c`` children, so the tree has at most ``2**(n+1) - 1``
    nodes and the default ``2**21`` fits every profile with ``n <= 20``.
    """
    _require_rule_scale(p, a)

    rivals = [b for b in range(p.m) if b != a]
    classes: dict[tuple[int, ...], int] = {}
    for r, count in p.grouped.items():
        vec = tuple(1 if r.prefers(a, b) else -1 for b in rivals)
        classes[vec] = classes.get(vec, 0) + count
    items = sorted(classes.items(), key=lambda kv: -kv[1])
    vectors = [vec for vec, _ in items]
    counts = [cnt for _, cnt in items]

    # suffix_support[j][b]: ballots from classes j.. that favour a over rival b
    width = len(rivals)
    suffix_support = [[0] * width for _ in range(len(items) + 1)]
    suffix_total = [0] * (len(items) + 1)
    for j in range(len(items) - 1, -1, -1):
        suffix_total[j] = suffix_total[j + 1] + counts[j]
        for b in range(width):
            suffix_support[j][b] = suffix_support[j + 1][b] + (
                counts[j] if vectors[j][b] > 0 else 0
            )

    # Depth-first on an explicit stack, one level per class: a profile
    # can have more classes than Python's recursion limit. A node is
    # (class index, ballots picked, margins against each rival).
    best = 0
    nodes = 0
    stack = [(0, 0, (0,) * width)]
    while stack:
        j, picked, margins = stack.pop()
        nodes += 1
        if nodes > budget:
            _budget_exceeded("young search", budget, "search nodes")
        if min(margins) >= 1:
            best = max(best, picked)
        if j == len(items) or picked + suffix_total[j] <= best:
            continue
        if min(map(operator.add, margins, suffix_support[j])) < 1:
            continue  # some rival can no longer be beaten
        # Pushed smallest take first, so the largest take is searched first.
        for take in range(counts[j] + 1):
            stack.append((j + 1, picked + take, margins))
            margins = tuple(map(operator.add, margins, vectors[j]))
    return best


# ---------------------------------------------------------------------------
# Kemeny


def _disagreement_matrix(p: Profile) -> np.ndarray:
    """``wrong[x][y]``: ballots preferring ``y`` over ``x`` (cost of x above y)."""
    wrong = (p.n - np.array(wmg(p).margins, dtype=np.int64)) // 2
    np.fill_diagonal(wrong, 0)
    return wrong


@functools.lru_cache(maxsize=16)  # every m the default budget admits
def _blocks_by_size(m: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The bit of each alternative, and every block of 2..m alternatives grouped by size."""
    bits = np.left_shift(1, np.arange(m, dtype=np.int32))
    blocks = np.arange(1 << m, dtype=np.int32)
    sizes = sum((blocks >> x) & 1 for x in range(m))
    return bits, tuple(blocks[sizes == size] for size in range(2, m + 1))


def _kemeny_block_table(p: Profile) -> tuple[np.ndarray, np.ndarray]:
    """Subset DP over all ``2**m`` blocks: best internal disagreement of each.

    A block's best order puts some member ``x`` first, at the cost of
    ``x``'s disagreements with the rest of the block plus the rest's own
    best. Blocks of one size read only smaller blocks, so each size is
    solved in vectorized slices of at most ``_LAYER_SLICE`` blocks.
    """
    wrong = _disagreement_matrix(p)
    bits, layers = _blocks_by_size(p.m)
    best = np.full(1 << p.m, _UNSOLVED, dtype=np.int64)
    best[0] = 0
    best[bits] = 0
    for layer in layers:
        for start in range(0, len(layer), _LAYER_SLICE):
            blocks = layer[start : start + _LAYER_SLICE, None]
            rest = blocks ^ bits
            # x is a member exactly when dropping its bit shrinks the block;
            # for any other x, rest is a larger block, still _UNSOLVED.
            cost = (rest < blocks) @ wrong.T + best[rest]
            best[blocks[:, 0]] = cost.min(1)
    return best, wrong


def _require_kemeny_budget(p: Profile, budget: int) -> None:
    """Reject ``p`` below rule scale, or its ``2**m`` table states past ``budget``.

    A disagreement total can reach ``n * C(m, 2)``; below ``_UNSOLVED``,
    no table entry meets the sentinel and ``_UNSOLVED + n(m-1)`` fits in int64.
    """
    _require_rule_scale(p)
    if p.n * math.comb(p.m, 2) >= _UNSOLVED:
        raise ValueError(f"Kemeny needs n * C(m, 2) < 2^62, got n={p.n}, m={p.m}")
    if 1 << p.m > budget:
        _budget_exceeded("kemeny subset DP", budget, "subset states")


def _kemeny_table(p: Profile, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The block table of ``p`` and its disagreement matrix, built once per profile.

    The budget is checked on every call, so a smaller budget still fails
    on a profile whose table is already cached.
    """
    _require_kemeny_budget(p, budget)
    table = p.__dict__.get("_kemeny_table")
    if table is None:
        table = p.__dict__["_kemeny_table"] = _kemeny_block_table(p)
    return table


def kemeny_best(p: Profile, *, budget: int = DEFAULT_KEMENY_BUDGET) -> tuple[Ranking, int]:
    """A profile-closest ranking and its total disagreement.

    Ties broken toward the lexicographically smallest ranking.
    """
    best, wrong = _kemeny_table(p, budget)
    wrong = wrong.tolist()  # the walk below reads single entries: Python ints are faster
    m = p.m
    subset = (1 << m) - 1
    order: list[int] = []
    while subset:
        members = [x for x in range(m) if subset >> x & 1]
        for x in members:  # ascending: first hit is lexicographically smallest
            rest = subset & ~(1 << x)
            if best[rest] + sum(wrong[x][y] for y in members if y != x) == best[subset]:
                order.append(x)
                subset = rest
                break
    return Ranking(tuple(order)), int(best[-1])


def kemeny_score_of_alternative(p: Profile, a: int, *, budget: int = DEFAULT_KEMENY_BUDGET) -> int:
    """Minimum profile disagreement over rankings that put ``a`` on top."""
    _require_rule_scale(p, a)
    best, wrong = _kemeny_table(p, budget)
    rest = (1 << p.m) - 1 & ~(1 << a)
    return int(best[rest] + wrong[a].sum())


def _kemeny_witness(p: Profile) -> tuple[list[int], int]:
    """A cheap ranking of ``p`` and its total disagreement.

    Alternatives go by descending net-margin row sum, ties by index:
    ordering by weighted wins is within a constant factor of the optimum
    (Coppersmith, Fleischer and Rudra, SODA 2006). Then neighbours swap
    while the lower one beats the upper by majority; each swap lowers
    the disagreement by that margin, so the descent ends.
    """
    margins = wmg(p).margins
    m = p.m
    order = sorted(range(m), key=lambda x: -sum(margins[x]))
    i = 0
    while i < m - 1:
        upper, lower = order[i], order[i + 1]
        if margins[lower][upper] > 0:
            order[i], order[i + 1] = lower, upper
            i = max(i - 1, 0)
        else:
            i += 1
    agreed = sum(margins[x][y] for k, x in enumerate(order) for y in order[k + 1 :])
    # each pair costs (n - margin) / 2 ballots, an integer: n and margins share parity
    return order, (p.n * (m * (m - 1) // 2) - agreed) // 2


def kemeny_decision(p: Profile, t: int, *, budget: int = DEFAULT_KEMENY_BUDGET) -> bool:
    """Does some alternative have Kemeny score at most ``t``?

    Equivalent to asking whether the best ranking's score is at most
    ``t``, since the minimum over alternatives of the top-constrained
    score is attained by the global optimum's top alternative.

    The budget is checked first. Then, unless ``p`` already keeps its
    table, one wins-order ranking (:func:`_kemeny_witness`) within ``t``
    answers YES without the ``2**m`` table; otherwise the table decides.
    """
    _require_kemeny_budget(p, budget)
    if "_kemeny_table" not in p.__dict__ and _kemeny_witness(p)[1] <= t:
        return True
    best, _ = _kemeny_table(p, budget)
    return int(best[-1]) <= t


# ---------------------------------------------------------------------------
# Committees


@dataclass(frozen=True)
class Committee:
    """A nonempty set of distinct alternatives."""

    members: frozenset[int]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("committee must be nonempty")

    @classmethod
    def of(cls, members: Iterable[int]) -> "Committee":
        return cls(frozenset(members))

    @property
    def k(self) -> int:
        return len(self.members)


def _satisfaction_table(
    p: Profile, committee: Committee, alpha: Optional[Callable[[int], int]], aggregator: str
) -> list[tuple[list[int], int]]:
    """Satisfaction for each member, members in sorted order, with its voter count.

    One row per distinct ranking of ``p``. ``alpha`` maps 1-based ballot
    positions to integers and must strictly decrease over ``1..m``; it
    defaults to ``-i`` at position ``i``. It takes only the position, not
    ``m``, so appending alternatives at the bottom of every ballot leaves
    each member's satisfaction, and so every committee score, unchanged.
    """
    members = sorted(committee.members)
    for c in members:
        if not 0 <= c < p.m:
            raise ValueError(f"committee member {c} out of range")
    alpha = alpha or operator.neg
    for i in range(1, p.m):
        if alpha(i) <= alpha(i + 1):
            raise ValueError(f"positional scores must strictly decrease (at {i})")
    if aggregator not in ("sum", "min"):
        raise ValueError(f"unknown aggregator {aggregator!r}")
    return [([alpha(r.position(c) + 1) for c in members], count) for r, count in p.grouped.items()]


def cc_score(
    p: Profile,
    committee: Committee,
    alpha: Optional[Callable[[int], int]] = None,
    aggregator: str = "sum",
) -> int:
    """Best achievable committee satisfaction with free voter assignment.

    Both aggregators decompose: every voter is served by their
    best-ranked member, so ``sum`` totals those values and ``min`` takes
    the worst of them.
    """
    table = _satisfaction_table(p, committee, alpha, aggregator)
    if aggregator == "sum":
        return sum(max(row) * count for row, count in table)
    return min(max(row) for row, _ in table)


def _balanced_bounds(n: int, k: int) -> tuple[int, int]:
    return n // k, -(-n // k)


def _balanced_assignment(table: Sequence[Sequence[Optional[int]]]) -> Optional[int]:
    """Best total over assignments of voters to members with near-equal loads.

    ``table[i][j]`` is voter ``i``'s value for member ``j``, or ``None``
    where ``i`` may not be assigned to ``j``. Every member serves between
    ``floor(n/k)`` and ``ceil(n/k)`` voters; ``None`` means no assignment
    does.

    Voters are placed one at a time, each along a longest augmenting path
    of the assignment's flow network (successive shortest paths): the new
    voter joins some member, which may pass one voter on to another
    member, and so on until a member with a free slot takes the last one.
    Bellman-Ford finds the path over the ``k`` members, where the edge
    ``a -> b`` moves the voter of ``a`` who gains most from ``b``. Each of
    a member's first ``floor(n/k)`` slots earns a bonus larger than any
    difference between two totals, so the lower loads are met whenever
    some assignment meets them.
    """
    n, k = len(table), len(table[0])
    low, high = _balanced_bounds(n, k)
    values = [v for row in table for v in row if v is not None]
    bonus = n * (max(values) - min(values)) + 1
    served: list[list[int]] = [[] for _ in range(k)]
    for i, row in enumerate(table):
        # moves[a][b]: (gain, voter) of the best single move from a to b
        moves: list[list[Optional[tuple[int, int]]]] = [[None] * k for _ in range(k)]
        for a in range(k):
            for v in served[a]:
                here = table[v][a]
                for b, there in enumerate(table[v]):
                    if there is not None and b != a:
                        gain = there - here
                        if moves[a][b] is None or gain > moves[a][b][0]:
                            moves[a][b] = (gain, v)
        value = list(row)
        pred: list[Optional[tuple[int, int]]] = [None] * k
        for _ in range(k - 1):
            changed = False
            for a in range(k):
                if value[a] is None:
                    continue
                for b in range(k):
                    move = moves[a][b]
                    if move is not None and (value[b] is None or value[a] + move[0] > value[b]):
                        value[b] = value[a] + move[0]
                        pred[b] = (a, move[1])
                        changed = True
            if not changed:
                break
        end, end_value = None, None
        for b in range(k):
            load = len(served[b])
            if value[b] is not None and load < high:
                closed = value[b] + (bonus if load < low else 0)
                if end is None or closed > end_value:
                    end, end_value = b, closed
        if end is None:
            return None
        while pred[end] is not None:
            a, v = pred[end]
            served[a].remove(v)
            served[end].append(v)
            end = a
        served[end].append(i)
    if any(len(voters) < low for voters in served):
        return None
    return sum(table[v][j] for j, voters in enumerate(served) for v in voters)


def monroe_score(
    p: Profile,
    committee: Committee,
    alpha: Optional[Callable[[int], int]] = None,
    aggregator: str = "sum",
) -> int:
    """Best committee satisfaction under near-equal member loads.

    Every member serves between ``floor(n/k)`` and ``ceil(n/k)`` voters.
    The ``sum`` aggregator is an exact capacitated assignment;
    ``min`` binary-searches the highest satisfaction level at which the
    voter-member pairs that reach it still admit a balanced assignment.
    """
    # The assignment places voters one by one: one row per voter.
    grouped = _satisfaction_table(p, committee, alpha, aggregator)
    table = [row for row, count in grouped for _ in range(count)]

    if aggregator == "sum":
        return _balanced_assignment(table)  # never None: any voter may serve any member

    levels = sorted({v for row in table for v in row})
    lo, hi = 0, len(levels) - 1  # levels[0] is always feasible
    while lo < hi:
        mid = (lo + hi + 1) // 2
        level = levels[mid]
        allowed = [[0 if v >= level else None for v in row] for row in table]
        if _balanced_assignment(allowed) is not None:
            lo = mid
        else:
            hi = mid - 1
    return levels[lo]


def committee_decision(
    p: Profile,
    k: int,
    t: int,
    rule: str = "cc",
    alpha: Optional[Callable[[int], int]] = None,
    aggregator: str = "sum",
    *,
    budget: int = DEFAULT_COMMITTEE_BUDGET,
) -> bool:
    """Does some ``k``-committee score at least ``t``? Brute force over committees."""
    if not 1 <= k <= p.m:
        raise ValueError(f"k={k} out of range 1..{p.m}")
    if rule not in ("cc", "monroe"):
        raise ValueError(f"unknown rule {rule!r}")
    score_fn = cc_score if rule == "cc" else monroe_score
    for count, members in enumerate(itertools.combinations(range(p.m), k), start=1):
        if count > budget:
            _budget_exceeded("committee enumeration", budget, "committees")
        if score_fn(p, Committee.of(members), alpha, aggregator) >= t:
            return True
    return False
