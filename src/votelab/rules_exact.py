"""Exact solvers for Dodgson, Young, Kemeny, Chamberlin-Courant and Monroe.

These are ground-truth engines for NP-hard score computations, built for
desk scale: every search takes a ``budget`` of its own work units and
raises :class:`~votelab.errors.BudgetExceededError` past it instead of
silently degrading. Scores are exact integers.

Dodgson scores are computed over "lift vectors": per ballot, raising the
target alternative by ``k`` adjacent swaps passes exactly the ``k``
alternatives sitting directly above it. The search is a dynamic program
over the vector of still-missing majority votes, with branch-and-bound
pruning on partial swap counts. A root bound, the missing votes times
the cheapest swaps-per-vote rate of any lift, answers a cutoff below it
before any expansion and ends the search at the first completion that
costs it. Its optimality over raw swap sequences is not assumed: the
test suite checks it against an unrestricted breadth-first search over
swaps at small scale, the DP's search against an integer program over
lift-vector counts, and its answers and expansion counts against the DP
without the root bound.
"""

from __future__ import annotations

import functools
import heapq
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


def _lift_options(r: Ranking, a: int, active_index: dict[int, int]) -> list[tuple[int, int]]:
    """Useful lift amounts for one ballot.

    Lifting ``a`` by ``k`` passes the ``k`` alternatives directly above
    it. Only lifts whose last passed alternative still owes a vote are
    kept; any other lift is dominated by the next smaller useful one.
    Returns (cost, active index of the last passed alternative) pairs,
    cheapest first, so the j-th option gains the indices of the first j.
    """
    above = r.order[: r.position(a)][::-1]  # nearest to a first
    return [(k, active_index[b]) for k, b in enumerate(above, start=1) if b in active_index]


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

    No completion costs less than the root bound: a lift of ``k`` swaps
    that passes ``g`` active rivals gains at most ``g`` votes, so the
    missing votes take at least their number times the cheapest ``k / g``,
    rounded up. A cutoff below it returns ``None`` with no expansion, and
    the first completion stored at it is returned at once.

    Each lifted copy expands every stored state by every option of its
    ballot. The options pass one more active rival each, so one running
    copy of the state yields all its successors, one decrement apiece, and
    each state stores its still-missing votes next to its cost. Expansion
    counts, and so every ``budget`` boundary, are those of building each
    successor afresh.
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
    # lowers the limit to its cost.
    limit = sum(against) if cutoff is None else min(sum(against), cutoff)

    ballots: list[tuple[int, list[tuple[int, int]]]] = []
    for r, count in p.grouped.items():
        options = _lift_options(r, a, active_index)
        if options:
            # More lifted copies of one ballot type than missing votes can
            # never help; each lifted ballot must close at least one gap.
            ballots.append((min(count, total_needed), options))

    # Root bound, in integers: the cheapest ceil(total_needed * k / g), where
    # the g-th option of a ballot passes g active rivals.
    lower = min(
        (
            -(-total_needed * k // g)
            for _, options in ballots
            for g, (k, _) in enumerate(options, start=1)
        ),
        default=0,
    )
    if lower > limit:
        return None

    # Each state maps to its cost and its still-missing votes.
    frontier: dict[tuple[int, ...], tuple[int, int]] = {tuple(needed): (0, total_needed)}
    expansions = 0
    for copies, options in ballots:
        for _ in range(copies):
            snapshot = list(frontier.items())
            expansions += len(snapshot) * len(options)
            if expansions > budget:
                _budget_exceeded("dodgson search", budget, "expansions")
            for state, (cost, remaining) in snapshot:
                # One running copy: each option's successor is the one
                # before it with one more passed rival's vote taken off.
                new_state = list(state)
                for k, idx in options:
                    new_cost = cost + k
                    if new_cost > limit:
                        # Options are sorted by cost. A stored zero state costs
                        # the limit itself, so it stops at its first option.
                        break
                    if not new_state[idx]:
                        # The successor before it, or the state itself, at a
                        # higher cost: already stored cheaper, or pruned.
                        continue
                    new_state[idx] -= 1
                    remaining -= 1
                    if new_cost + remaining > limit:
                        continue
                    key = tuple(new_state)
                    old = frontier.get(key)
                    if old is None or new_cost < old[0]:
                        frontier[key] = (new_cost, remaining)
                        if remaining == 0:
                            if new_cost == lower:
                                return new_cost
                            limit = new_cost

    # A zero state is stored only within the limit, and a cutoff below the
    # root bound, a Condorcet winner's 0 included, has already returned.
    done = frontier.get((0,) * len(active))
    return None if done is None else done[0]


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


def _subset_table(wrong: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subset DP over all ``2**k`` blocks of a ``k x k`` disagreement matrix.

    Entry ``B`` of ``best`` is the best internal disagreement of block
    ``B``. A block's best order puts some member ``x`` first, at the cost
    of ``x``'s disagreements with the rest of the block plus the rest's
    own best; entry ``B`` of ``first`` is the smallest such ``x``. Blocks
    of one size read only smaller blocks, so each size is solved in
    vectorized slices of at most ``_LAYER_SLICE`` blocks.
    """
    k = len(wrong)
    bits, layers = _blocks_by_size(k)
    best = np.full(1 << k, _UNSOLVED, dtype=np.int64)
    first = np.zeros(1 << k, dtype=np.int8)
    best[0] = 0
    best[bits] = 0
    first[bits] = np.arange(k)
    for layer in layers:
        for start in range(0, len(layer), _LAYER_SLICE):
            blocks = layer[start : start + _LAYER_SLICE, None]
            rest = blocks ^ bits
            # x is a member exactly when dropping its bit shrinks the block;
            # for any other x, rest is a larger block, still _UNSOLVED.
            cost = (rest < blocks) @ wrong.T + best[rest]
            pick = cost.argmin(1)  # the first minimum: the smallest member
            best[blocks[:, 0]] = np.take_along_axis(cost, pick[:, None], 1)[:, 0]
            first[blocks[:, 0]] = pick
    return best, first


def _majority_components(margins: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components of the weak majority graph, first to last.

    The graph has an arc ``x -> y`` wherever ``margin[x][y] >= 0``, so a
    tie gives arcs both ways and every pair has at least one. Its
    components therefore form a chain, in which every member of a
    component beats every member of each later one by strict majority.

    They are read off Copeland scores, majority wins minus losses. A set
    of ``k`` alternatives that beats the other ``m - k`` scores exactly
    ``k * (m - k)`` in total, as its wins and losses among themselves
    cancel, and any other set scores less. Each member of a component
    outscores each member of every later one, so in descending score
    order the components are consecutive, and each ends where the running
    total meets ``k * (m - k)`` (Landau's criterion for tournaments, with
    a tie as half a win each way). Members are listed ascending.
    """
    m = len(margins)
    copeland = [sum((margin > 0) - (margin < 0) for margin in row) for row in margins]
    order = sorted(range(m), key=lambda x: -copeland[x])
    components: list[list[int]] = []
    start = total = 0
    for k, x in enumerate(order, start=1):
        total += copeland[x]
        if total == k * (m - k):
            components.append(sorted(order[start:k]))
            start = k
    return components


@dataclass(frozen=True)
class _KemenyTables:
    """A profile's Kemeny tables: one per majority-graph component.

    ``parts`` holds each component's members, ascending, with its
    :func:`_subset_table` ``best`` and ``first`` over local bits (bit
    ``i`` is ``members[i]``), in chain order. ``score`` is the optimum:
    each part's optimum plus the disagreements of the pairs between
    parts, which every optimal ranking fixes.
    """

    parts: tuple[tuple[tuple[int, ...], np.ndarray, np.ndarray], ...]
    wrong: np.ndarray
    score: int


def _kemeny_block_table(p: Profile) -> _KemenyTables:
    """The block tables of ``p``, one subset DP per majority-graph component.

    Every ranking that puts a member of a later component above a member
    of an earlier one has such a pair adjacent, and swapping it lowers
    the disagreement by a strict majority margin. So every optimal
    ranking keeps the components in chain order (the extended Condorcet
    criterion: Truchon 1998; Conitzer, Davenport and Kalagnanam 2006),
    and each component is ordered on its own table of ``2**|C|`` blocks.
    """
    wrong = _disagreement_matrix(p)
    components = _majority_components(wmg(p).margins)
    order = [x for members in components for x in members]
    chained = wrong[np.ix_(order, order)]  # rows and columns in chain order
    parts, cross, start = [], 0, 0
    for members in components:
        end = start + len(members)
        parts.append((tuple(members), *_subset_table(chained[start:end, start:end])))
        cross += chained[start:end, end:].sum()  # this part above every later one
        start = end
    return _KemenyTables(tuple(parts), wrong, int(cross + sum(best[-1] for _, best, _ in parts)))


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


def _kemeny_table(p: Profile, budget: int) -> _KemenyTables:
    """The block tables of ``p``, built once per profile.

    The budget counts ``2**m`` states, however few the components fill,
    and it is checked on every call, so a smaller budget still fails on
    a profile whose tables are already cached.
    """
    _require_kemeny_budget(p, budget)
    table = p.__dict__.get("_kemeny_table")
    if table is None:
        table = p.__dict__["_kemeny_table"] = _kemeny_block_table(p)
    return table


def kemeny_best(p: Profile, *, budget: int = DEFAULT_KEMENY_BUDGET) -> tuple[Ranking, int]:
    """A profile-closest ranking and its total disagreement.

    Ties broken toward the lexicographically smallest ranking. Every
    optimal ranking keeps the majority-graph components in chain order,
    so this is each component's lexicographically smallest optimal
    order, concatenated: each block's ``first`` member, then the rest's.
    """
    tables = _kemeny_table(p, budget)
    order: list[int] = []
    for members, best, first in tables.parts:
        subset = len(best) - 1
        while subset:
            i = int(first[subset])  # an int8 would overflow the shift
            order.append(members[i])
            subset &= ~(1 << i)
    return Ranking(tuple(order)), tables.score


def kemeny_score_of_alternative(p: Profile, a: int, *, budget: int = DEFAULT_KEMENY_BUDGET) -> int:
    """Minimum profile disagreement over rankings that put ``a`` on top.

    That is ``a``'s disagreements with every other alternative plus the
    best order of the rest, which keeps the component chain with ``a``'s
    component less ``a`` in its place. So it is read off the optimum:
    that component's optimum gives way to its table entry without ``a``,
    and ``a`` moves above the members of the earlier components.
    """
    _require_rule_scale(p, a)
    tables = _kemeny_table(p, budget)
    wrong = tables.wrong
    above: list[int] = []  # members of the components before a's
    for members, best, _ in tables.parts:  # a is in range, so some component holds it
        if a in members:
            break
        above += members
    full = len(best) - 1
    rest = full & ~(1 << members.index(a))
    # a's pairs with later components cost wrong[a][y] in the optimum too
    moved = (wrong[a, above] - wrong[above, a]).sum()
    return int(tables.score - best[full] + best[rest] + wrong[a, list(members)].sum() + moved)


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


@functools.lru_cache(maxsize=16)  # every m the default budget admits
def _short_cycles(m: int) -> tuple[tuple[int, ...], ...]:
    """Every directed 3-cycle, then every directed 4-cycle, on ``m`` vertices.

    Each cycle is its arcs ``x -> y`` as flat indices ``x * m + y``, and
    starts at its smallest vertex, so each is listed once.
    """
    cycles = []
    for size in (3, 4):
        for first, *rest in itertools.combinations(range(m), size):
            for tail in itertools.permutations(rest):
                loop = (first, *tail, first)
                cycles.append(tuple(x * m + y for x, y in zip(loop, loop[1:])))
    return tuple(cycles)


def _kemeny_cycle_bound(p: Profile, stop: int) -> int:
    """A lower bound on the Kemeny score of ``p``, packed until it exceeds ``stop``.

    A ranking pays ``(n - |margin|) / 2`` on every pair, plus ``|margin|``
    on every majority arc it puts backward. It puts at least one arc of
    each directed cycle of the majority graph backward, so a packing of
    cycles, each arc's load within its ``|margin|``, adds at least its
    total (the cycle bound of Conitzer, Davenport and Kalagnanam, AAAI
    2006). The packing is greedy over :func:`_short_cycles`.
    """
    m = p.m
    capacity = [max(margin, 0) for row in wmg(p).margins for margin in row]
    # n and every margin share parity, so each pair's (n - |margin|) is even
    bound = (p.n * (m * (m - 1) // 2) - sum(capacity)) // 2
    left = capacity.__getitem__
    for cycle in _short_cycles(m):
        if all(map(left, cycle)):  # stops at the first spent arc, unlike min
            load = min(map(left, cycle))
            bound += load
            if bound > stop:
                break
            for arc in cycle:
                capacity[arc] -= load
    return bound


def kemeny_decision(p: Profile, t: int, *, budget: int = DEFAULT_KEMENY_BUDGET) -> bool:
    """Does some alternative have Kemeny score at most ``t``?

    Equivalent to asking whether the best ranking's score is at most
    ``t``, since the minimum over alternatives of the top-constrained
    score is attained by the global optimum's top alternative.

    The budget is checked first. Then, unless ``p`` already keeps its
    tables, two certificates are tried before the tables are built: one
    wins-order ranking (:func:`_kemeny_witness`) within ``t`` answers
    YES, and a cycle-packing lower bound (:func:`_kemeny_cycle_bound`)
    above ``t`` answers NO. Otherwise the tables' optimum decides. All
    three compare int scores with ``t``, an int from the EFAS driver too.
    """
    _require_kemeny_budget(p, budget)
    if "_kemeny_table" not in p.__dict__:
        if _kemeny_witness(p)[1] <= t:
            return True
        if _kemeny_cycle_bound(p, t) > t:
            return False
    return _kemeny_table(p, budget).score <= t


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
) -> list[tuple[tuple[int, ...], int]]:
    """Satisfaction for each member, members in sorted order, with its voter count.

    One row per distinct satisfaction vector, counting every voter whose
    ranking gives it, in order of first appearance in ``p``, so a
    ``k``-committee has at most ``m!/(m-k)!`` rows. ``alpha`` maps 1-based
    ballot positions to integers and must strictly decrease over ``1..m``;
    it defaults to ``-i`` at position ``i``. It takes only the position,
    not ``m``, so appending alternatives at the bottom of every ballot
    leaves each member's satisfaction, and so every committee score,
    unchanged.
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
    table: dict[tuple[int, ...], int] = {}
    for r, count in p.grouped.items():
        values = tuple(alpha(r.position(c) + 1) for c in members)
        table[values] = table.get(values, 0) + count
    return list(table.items())


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
    return _cc_total(_satisfaction_table(p, committee, alpha, aggregator), aggregator)


def _cc_total(table: list[tuple[tuple[int, ...], int]], aggregator: str) -> int:
    """:func:`cc_score` of a :func:`_satisfaction_table`."""
    if aggregator == "sum":
        return sum(max(row) * count for row, count in table)
    return min(max(row) for row, _ in table)


def _balanced_assignment(table: Sequence[tuple[Sequence[int], int]]) -> int:
    """Best total over assignments of voters to members with near-equal loads.

    ``table`` holds ``(values, count)`` rows as :func:`_satisfaction_table`
    builds them: ``count`` voters valuing member ``j`` at ``values[j]``.
    Every member serves between ``floor(n/k)`` and ``ceil(n/k)`` voters.

    Rows are placed one at a time along longest augmenting paths of the
    flow network (successive shortest paths): the new row's voters join a
    member, which may pass voters of one row on to another, and so on
    until a member with free slots takes them. Bellman-Ford finds the
    path over the ``k`` members; the edge ``a -> b`` moves the row at
    ``a`` that gains most from ``b``. That row tops a heap kept per
    ordered member pair, of ``(values[a] - values[b], row)`` pushed when
    the row gains voters at ``a``; a row no longer served at ``a`` is
    popped when it reaches the top. A path carries its bottleneck: the
    new row's unplaced voters, each moved row's voters at its member, and
    the end member's slots up to ``floor(n/k)``, or to ``ceil(n/k)`` once
    that is met. A member's first ``floor(n/k)`` slots each earn a bonus
    larger than any difference between two totals, so the lower loads are
    met first. Any voter may serve any member, so while voters remain
    some member has a free slot, and every member ends with at least
    ``floor(n/k)`` voters.
    """
    n, k = sum(count for _, count in table), len(table[0][0])
    low, high = n // k, -(-n // k)
    values = [v for row, _ in table for v in row]
    bonus = n * (max(values) - min(values)) + 1
    served: list[dict[int, int]] = [{} for _ in range(k)]  # row index -> voters
    heaps: list[list[list[tuple[int, int]]]] = [[[] for _ in range(k)] for _ in range(k)]
    loads = [0] * k

    def serve(a: int, v: int, voters: int) -> None:
        if v not in served[a]:
            served[a][v] = 0
            for b, there in enumerate(table[v][0]):
                if b != a:
                    heapq.heappush(heaps[a][b], (table[v][0][a] - there, v))
        served[a][v] += voters

    for i, (row, left) in enumerate(table):
        while left:
            # moves[a][b]: (loss, row) of the best single move from a to b
            moves: list[list[Optional[tuple[int, int]]]] = [[None] * k for _ in range(k)]
            for a in range(k):
                for b, heap in enumerate(heaps[a]):
                    while heap and heap[0][1] not in served[a]:
                        heapq.heappop(heap)
                    if heap:
                        moves[a][b] = heap[0]
            value = list(row)
            pred: list[Optional[tuple[int, int]]] = [None] * k
            for _ in range(k - 1):
                changed = False
                for a in range(k):
                    for b in range(k):
                        move = moves[a][b]
                        if move is not None and value[a] - move[0] > value[b]:
                            value[b] = value[a] - move[0]
                            pred[b] = (a, move[1])
                            changed = True
                if not changed:
                    break
            end = max(
                (b for b in range(k) if loads[b] < high),
                key=lambda b: value[b] + (bonus if loads[b] < low else 0),
            )
            push = min(left, (low if loads[end] < low else high) - loads[end])
            steps, start = [], end
            while pred[start] is not None:
                a, v = pred[start]
                steps.append((a, v, start))
                push = min(push, served[a][v])
                start = a
            loads[end] += push
            left -= push
            serve(start, i, push)
            for a, v, b in steps:
                served[a][v] -= push
                if not served[a][v]:
                    del served[a][v]
                serve(b, v, push)
    return sum(table[v][0][j] * count for j, rows in enumerate(served) for v, count in rows.items())


def monroe_score(
    p: Profile,
    committee: Committee,
    alpha: Optional[Callable[[int], int]] = None,
    aggregator: str = "sum",
) -> int:
    """Best committee satisfaction under near-equal member loads.

    Every member serves between ``floor(n/k)`` and ``ceil(n/k)`` voters.
    Both aggregators are one exact capacitated assignment: ``sum`` of the
    satisfactions, ``min`` of level weights that make the worst level
    served dominate the total.
    """
    return _monroe_total(_satisfaction_table(p, committee, alpha, aggregator), aggregator)


def _monroe_total(table: list[tuple[tuple[int, ...], int]], aggregator: str) -> int:
    """:func:`monroe_score` of a :func:`_satisfaction_table`.

    For ``min``, a voter served at the ``i``-th best distinct level weighs
    ``-(n+1)**i``. No level holds more than ``n`` voters, so the cost,
    minus the best total, has one base-``(n+1)`` digit per level, the
    voters served there. It is least exactly when its leading digit, the
    worst level served, is as good as any balanced assignment allows, and
    that level is the largest ``i`` with ``(n+1)**i <= cost``.
    """
    if aggregator == "sum":
        return _balanced_assignment(table)
    n = sum(count for _, count in table)
    levels = sorted({v for row, _ in table for v in row}, reverse=True)
    weight = {level: -((n + 1) ** i) for i, level in enumerate(levels)}
    cost = -_balanced_assignment([([weight[v] for v in row], count) for row, count in table])
    worst = 0
    while (n + 1) ** (worst + 1) <= cost:
        worst += 1
    return levels[worst]


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
    """Does some ``k``-committee score at least ``t``? Brute force over committees.

    For one committee, Monroe's balanced assignment is one of the free
    assignments CC maximizes over, so its score is at most the CC score
    under either aggregator. The Monroe decision therefore skips, without
    an assignment, every committee whose CC score is below ``t``; both
    scores are read off the one satisfaction table built per committee.
    A skipped committee still counts toward ``budget``.
    """
    if not 1 <= k <= p.m:
        raise ValueError(f"k={k} out of range 1..{p.m}")
    if rule not in ("cc", "monroe"):
        raise ValueError(f"unknown rule {rule!r}")
    for count, members in enumerate(itertools.combinations(range(p.m), k), start=1):
        if count > budget:
            _budget_exceeded("committee enumeration", budget, "committees")
        table = _satisfaction_table(p, Committee.of(members), alpha, aggregator)
        if _cc_total(table, aggregator) >= t and (
            rule == "cc" or _monroe_total(table, aggregator) >= t
        ):
            return True
    return False
