"""Shared fixtures and independent brute-force oracles.

Oracles here deliberately avoid the package's solver code paths: the
Dodgson oracles search raw adjacent swaps breadth-first or by A*, solve
an integer program over lift-vector counts with SciPy, or run the
lift-vector DP as it was before its root bound, counting its expansions,
the greedy oracle counts deficits and adjacency ballot by ballot, the
Young oracle solves an integer program over kept ballots with SciPy, the
Kemeny oracle enumerates all rankings or solves an integer program over
pairwise orders with SciPy, the Kemeny block table is the subset DP as a
plain loop, the assignment oracles enumerate raw assignment functions,
solve a slot-replicated linear assignment with SciPy, solve a
transportation LP over the distinct rankings with SciPy, or rescan every
served row for the best moves of each augmenting path, the
pairwise-disagreement and margin oracles count pairs ballot by ballot (or
distinct ballot by distinct ballot, times its count), and the
random-parameter sampler, the padded parameter profile and the
whole-profile sampler oracles draw agent by agent with their own
per-agent bodies of each model (:func:`sample_per_agent`), not the
package's ``sample_orders``; the partial-alternative sampler indexes its
tail through a drawn permutation. The Eulerian digraph oracle builds and
tests every orientation of every pair.
Expected values in tests are frozen from these.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, linprog, milp

from votelab import (
    AlphaIC,
    BudgetExceededError,
    Committee,
    Digraph,
    ParameterProfile,
    PartialAltRandomization,
    Profile,
    Ranking,
    TopBreakNoise,
    app_last,
)

DEFAULT_BFS_STATE_BUDGET = 2_000_000


def voter_rankings(p: Profile) -> list[Ranking]:
    """``p.grouped`` expanded into one ranking per voter, each ranking's copies together."""
    return [r for r, count in p.grouped.items() for _ in range(count)]


def random_ranking(rng: np.random.Generator, m: int) -> Ranking:
    return Ranking(tuple(int(x) for x in rng.permutation(m)))


def random_profile(rng: np.random.Generator, m: int, n: int) -> Profile:
    return Profile.from_counts((random_ranking(rng, m), 1) for _ in range(n))


def st_pooled_profile(min_m: int, max_m: int, max_n: int, max_pool: int = 6):
    """Profiles of ``1..max_n`` ballots drawn from a pool of at most ``max_pool``
    rankings, so that ballots repeat at every size."""

    def ballots(m: int):
        pool = st.lists(st.permutations(range(m)), min_size=1, max_size=max_pool)
        return pool.flatmap(
            lambda orders: st.lists(st.sampled_from(orders), min_size=1, max_size=max_n)
        ).map(Profile.of)

    return st.integers(min_m, max_m).flatmap(ballots)


def st_two_cycle_free_digraph(min_m: int = 1):
    """Each vertex pair of an m-vertex graph, m in ``min_m..6``, gets no arc or one arc."""

    def build(m):
        pairs = list(itertools.combinations(range(m), 2))
        orientations = st.lists(
            st.sampled_from((0, 1, 2)), min_size=len(pairs), max_size=len(pairs)
        )
        return orientations.map(
            lambda chosen: Digraph.of(
                m, [(u, v) if o == 1 else (v, u) for (u, v), o in zip(pairs, chosen) if o]
            )
        )

    return st.integers(min_m, 6).flatmap(build)


def kt_brute(r1: Ranking, r2: Ranking) -> int:
    """Count disagreeing pairs one by one."""
    return sum(
        1
        for a, b in itertools.combinations(range(r1.m), 2)
        if r1.prefers(a, b) != r2.prefers(a, b)
    )


def votes_brute(p: Profile, a: int, b: int) -> int:
    """Voters ranking ``a`` above ``b``, counted ballot by ballot."""
    return sum(1 for r in voter_rankings(p) if r.prefers(a, b))


def margins_brute(p) -> list[list]:
    """Net pairwise margins summed entry by entry, in pure Python.

    An unweighted profile's entries are its distinct rankings with their
    counts; weighted entries keep their ``Fraction``.
    """
    entries = p.grouped.items() if isinstance(p, Profile) else p.entries
    rows = [[0] * p.m for _ in range(p.m)]
    for r, w in entries:
        for a, b in itertools.permutations(range(p.m), 2):
            rows[a][b] += w if r.prefers(a, b) else -w
    return rows


def deficit_brute(p: Profile, a: int, b: int) -> int:
    return max(0, p.n // 2 + 1 - votes_brute(p, a, b))


def adjacent_brute(p: Profile, a: int, b: int) -> int:
    """Ballots whose entry right before ``a`` is ``b``, counted ballot by ballot."""
    return sum(
        1 for r in voter_rankings(p) if r.order.index(a) > 0 and r.order[r.order.index(a) - 1] == b
    )


def greedy_brute(p: Profile, a: int) -> tuple[int, bool]:
    """Greedy Dodgson score and certificate, ballot by ballot.

    Deficits come from :func:`votes_brute` and adjacency counts from
    :func:`adjacent_brute`.
    """
    score, definite = 0, True
    for b in range(p.m):
        if b == a:
            continue
        owed = deficit_brute(p, a, b)
        score += owed
        definite = definite and adjacent_brute(p, a, b) >= owed
    return score, definite


def condorcet_brute(p: Profile):
    for a in range(p.m):
        if all(2 * votes_brute(p, a, b) > p.n for b in range(p.m) if b != a):
            return a
    return None


def dodgson_score_bfs_oracle(
    p: Profile,
    a: int,
    *,
    max_m: int = 4,
    max_n: int = 3,
    state_budget: int = DEFAULT_BFS_STATE_BUDGET,
) -> int:
    """Shortest swap path to Condorcet-winnerhood, any pair, any ballot.

    Unrestricted breadth-first search over whole-profile states; the only
    check that restricting Dodgson lifts to lift vectors loses no optimum.
    Profiles above ``max_m`` or ``max_n``, or searches past
    ``state_budget`` states, raise ``BudgetExceededError``.
    """
    if p.m < 3:
        raise ValueError("rule computations require at least 3 alternatives")
    if p.m > max_m or p.n > max_n:
        raise BudgetExceededError(
            f"bfs oracle limited to m<={max_m}, n<={max_n} (got m={p.m}, n={p.n})"
        )
    start = tuple(r.order for r in voter_rankings(p))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        d = dist[state]
        if condorcet_brute(Profile.of(state)) == a:
            return d
        if len(dist) > state_budget:
            raise BudgetExceededError("bfs oracle exceeded its state budget")
        for voter, order in enumerate(state):
            for i in range(len(order) - 1):
                swapped = list(order)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                nxt = state[:voter] + (tuple(swapped),) + state[voter + 1 :]
                if nxt not in dist:
                    dist[nxt] = d + 1
                    queue.append(nxt)
    raise AssertionError("swap graph is connected; unreachable")


def dodgson_score_astar_oracle(
    p: Profile, a: int, *, state_budget: int = DEFAULT_BFS_STATE_BUDGET
) -> int:
    """Shortest swap path to Condorcet-winnerhood by A* (Hart, Nilsson and Raphael 1968).

    The same unrestricted moves as the BFS: any adjacent swap in any
    ballot. Voters are interchangeable, so a state is the sorted tuple of
    ballots, read from ``grouped``. ``h`` is the total of missing majority
    votes of ``a`` over every rival. One swap changes one pair in one
    ballot, so ``h`` moves by at most 1 per swap: it is admissible and
    consistent, and the first goal popped is optimal. Searches past
    ``state_budget`` states raise ``BudgetExceededError``.
    """
    if p.m < 3:
        raise ValueError("rule computations require at least 3 alternatives")
    need = p.n // 2 + 1

    def missing(state) -> int:
        votes = [0] * p.m
        for order in state:
            for b in order[order.index(a) + 1 :]:
                votes[b] += 1
        return sum(max(0, need - votes[b]) for b in range(p.m) if b != a)

    start = tuple(sorted(r.order for r, count in p.grouped.items() for _ in range(count)))
    best = {start: 0}
    frontier = [(missing(start), 0, start)]  # (f, -g, state): deepest first among equal f
    while frontier:
        f, depth, state = heapq.heappop(frontier)
        g = -depth
        if g > best[state]:
            continue  # a shorter path to this state was found after this push
        if f == g:  # h = 0: a is the Condorcet winner
            return g
        if len(best) > state_budget:
            raise BudgetExceededError("A* oracle exceeded its state budget")
        for voter, order in enumerate(state):
            if voter and order == state[voter - 1]:
                continue  # equal ballots give equal successors
            rest = state[:voter] + state[voter + 1 :]
            for i in range(p.m - 1):
                swapped = order[:i] + (order[i + 1], order[i]) + order[i + 2 :]
                nxt = tuple(sorted(rest + (swapped,)))
                if g + 1 < best.get(nxt, g + 2):
                    best[nxt] = g + 1
                    heapq.heappush(frontier, (g + 1 + missing(nxt), -g - 1, nxt))
    raise AssertionError("swap graph is connected; unreachable")


def dodgson_ilp(p: Profile, a: int) -> int:
    """Dodgson score as an integer program over lift-vector counts.

    Bartholdi, Tovey and Trick (1989): one variable per distinct ballot
    and lift ``k``, counting the copies of that ballot in which ``a`` moves
    up ``k`` places at cost ``k``; copies are capped by the ballot's count,
    and each rival short of a majority needs its deficit covered by lifts
    that pass it. Every lift is a variable, not only the ones the DP keeps.
    """
    rivals = [b for b in range(p.m) if b != a]
    deficits = {b: deficit_brute(p, a, b) for b in rivals}
    short = [b for b in rivals if deficits[b] > 0]
    if not short:
        return 0
    variables = []  # (distinct ballot index, alternatives passed)
    for i, r in enumerate(p.grouped):
        above = r.order[: r.position(a)][::-1]  # nearest to a first
        variables += [(i, above[:k]) for k in range(1, len(above) + 1)]
    cost = np.array([len(passed) for _, passed in variables], dtype=float)
    caps = np.zeros((len(p.grouped), len(variables)))
    covers = np.zeros((len(short), len(variables)))
    for j, (i, passed) in enumerate(variables):
        caps[i, j] = 1
        for row, b in enumerate(short):
            covers[row, j] = b in passed
    constraints = [
        LinearConstraint(caps, 0, list(p.grouped.values())),
        LinearConstraint(covers, [deficits[b] for b in short], np.inf),
    ]
    res = milp(
        cost,
        constraints=constraints,
        integrality=np.ones(len(variables)),
        bounds=Bounds(0, np.inf),
        options={"mip_rel_gap": 0},
    )
    if not res.success:
        raise AssertionError(f"lifting to the top of every ballot is feasible: {res.message}")
    return int(round(cost @ np.round(res.x)))


def dodgson_within_ilp(p: Profile, a: int, cutoff: Optional[int]) -> Optional[int]:
    """The ILP score, or ``None`` above ``cutoff``, as ``dodgson_score_within`` answers."""
    score = dodgson_ilp(p, a)
    return None if cutoff is not None and score > cutoff else score


def _dodgson_lifts(p: Profile, a: int) -> tuple[list[int], list[tuple[int, list]]]:
    """Each rival's missing votes, and each distinct ballot's useful lifts.

    A lift of ``k`` passes the ``k`` alternatives right above ``a``; it is
    kept when its last passed rival still misses a vote. Returns the
    missing votes of the rivals that miss any, in index order, and
    (copies, [(k, passed missing-rival indices)]) per distinct ballot with
    a useful lift, in ``grouped`` order.
    """
    deficits = [deficit_brute(p, a, b) if b != a else 0 for b in range(p.m)]
    short = [b for b in range(p.m) if deficits[b] > 0]
    needed = [deficits[b] for b in short]
    ballots = []
    for r, count in p.grouped.items():
        above = r.order[: r.order.index(a)][::-1]  # nearest to a first
        options = [
            (k, [short.index(b) for b in above[:k] if b in short])
            for k in range(1, len(above) + 1)
            if above[k - 1] in short
        ]
        if options:
            ballots.append((min(count, sum(needed)), options))
    return needed, ballots


def dodgson_lift_dp(p: Profile, a: int, cutoff: Optional[int]) -> tuple[Optional[int], int]:
    """The lift-vector DP with only its per-state bound, and its expansion count.

    This is ``dodgson_score_within`` before the root bound: one frontier of
    missing-vote vectors per lifted copy, in the same ballot order, pruned
    where swaps so far plus votes still missing pass the limit, and run to
    the last copy. Returns its answer (``None`` above ``cutoff``) and the
    expansions it made, which is the least budget it succeeds within.
    """
    needed, ballots = _dodgson_lifts(p, a)
    against = sum(votes_brute(p, b, a) for b in range(p.m) if b != a)
    limit = against if cutoff is None else min(against, cutoff)
    zero = (0,) * len(needed)
    frontier = {tuple(needed): 0}
    expansions = 0
    for copies, options in ballots:
        for _ in range(copies):
            snapshot = list(frontier.items())
            expansions += len(snapshot) * len(options)
            for state, cost in snapshot:
                if state == zero:
                    continue
                for k, gains in options:
                    new_cost = cost + k
                    if new_cost > limit:
                        break
                    new_state = tuple(max(0, v - (i in gains)) for i, v in enumerate(state))
                    if new_cost + sum(new_state) > limit:
                        continue
                    if new_cost < frontier.get(new_state, new_cost + 1):
                        frontier[new_state] = new_cost
                        if not any(new_state):
                            limit = new_cost
    score = frontier.get(zero)
    return (None if score is None or score > limit else score), expansions


def dodgson_root_bound(p: Profile, a: int) -> int:
    """Missing votes times the cheapest swaps-per-vote rate of any lift, rounded up."""
    needed, ballots = _dodgson_lifts(p, a)
    rates = [Fraction(k, len(gains)) for _, options in ballots for k, gains in options]
    return math.ceil(sum(needed) * min(rates, default=0))


def young_ilp(p: Profile, a: int) -> int:
    """Young score as an integer program over the distinct ballots.

    One integer variable per distinct ballot counts the copies kept, capped
    by the ballot's count; each rival ``b`` gets one row asking the kept
    ballots to put ``a`` over ``b`` by a strict majority (kept ballots
    preferring ``a`` minus those preferring ``b``, at least 1). The kept
    total is maximized; an infeasible program scores 0.
    """
    ballots = list(p.grouped)
    rows = [[1 if r.prefers(a, b) else -1 for r in ballots] for b in range(p.m) if b != a]
    res = milp(
        -np.ones(len(ballots)),
        constraints=[LinearConstraint(np.array(rows, dtype=float), 1, np.inf)],
        integrality=np.ones(len(ballots)),
        bounds=Bounds(0, list(p.grouped.values())),
        options={"mip_rel_gap": 0},
    )
    if res.status == 2:  # infeasible
        return 0
    if not res.success:
        raise AssertionError(f"young ILP did not solve: {res.message}")
    return int(round(-res.fun))


def kemeny_brute(p: Profile) -> tuple[Ranking, int]:
    """Minimum profile disagreement over all m! rankings, first-lex winner."""
    wrong = np.zeros((p.m, p.m), dtype=np.int64)
    for r, count in p.grouped.items():
        for x, y in itertools.combinations(range(p.m), 2):
            if r.prefers(x, y):
                wrong[y][x] += count
            else:
                wrong[x][y] += count
    best_order, best_score = None, None
    for perm in itertools.permutations(range(p.m)):
        score = sum(
            wrong[perm[i]][perm[j]]
            for i in range(p.m)
            for j in range(i + 1, p.m)
        )
        if best_score is None or score < best_score:
            best_order, best_score = perm, int(score)
    return Ranking(best_order), best_score


def kemeny_ilp(p: Profile, top: Optional[int] = None) -> tuple[Ranking, int]:
    """A profile-closest ranking and its disagreement, as an integer program.

    Conitzer, Davenport and Kalagnanam (2006): one binary variable per pair
    ``i < j``, 1 when ``i`` goes above ``j``; the pair costs the ballots
    that disagree with the chosen order. For every triple ``i < j < k``,
    ``0 <= x_ij + x_jk - x_ik <= 1`` rules out both 3-cycles, which makes
    the pairwise order a ranking. With ``top`` given, every pair with
    ``top`` is fixed to put it first.
    """
    m = p.m
    pairs = list(itertools.combinations(range(m), 2))
    index = {pair: v for v, pair in enumerate(pairs)}
    above = np.zeros((m, m), dtype=np.int64)  # above[i][j]: ballots putting i over j
    for r, count in p.grouped.items():
        for i, j in pairs:
            if r.prefers(i, j):
                above[i][j] += count
            else:
                above[j][i] += count
    # x_ij = 1 costs the ballots with j over i; x_ij = 0 costs those with i over j.
    cost = np.array([above[j][i] - above[i][j] for i, j in pairs], dtype=float)
    constant = int(sum(above[i][j] for i, j in pairs))
    triples = np.zeros((math.comb(m, 3), len(pairs)))
    for row, (i, j, k) in enumerate(itertools.combinations(range(m), 3)):
        triples[row, [index[i, j], index[j, k], index[i, k]]] = (1, 1, -1)
    low, high = np.zeros(len(pairs)), np.ones(len(pairs))
    if top is not None:
        for v, (i, j) in enumerate(pairs):
            if top in (i, j):
                low[v] = high[v] = int(top == i)
    res = milp(
        cost,
        constraints=[LinearConstraint(triples, 0, 1)],
        integrality=np.ones(len(pairs)),
        bounds=Bounds(low, high),
        options={"mip_rel_gap": 0},
    )
    if not res.success:
        raise AssertionError(f"every ranking is feasible: {res.message}")
    x = np.round(res.x).astype(int)
    first = np.zeros((m, m), dtype=np.int64)  # first[i][j]: i goes above j
    for (i, j), chosen in zip(pairs, x):
        first[i][j], first[j][i] = chosen, 1 - chosen
    order = tuple(sorted(range(m), key=lambda i: -first[i].sum()))
    return Ranking(order), constant + int(round(cost @ x))


def kemeny_table_loop(p: Profile) -> list[int]:
    """Best internal disagreement of every block of alternatives, one block at a time."""
    m = p.m
    ballots = voter_rankings(p)
    wrong = [[sum(1 for r in ballots if r.prefers(y, x)) for y in range(m)] for x in range(m)]
    best = [0] * (1 << m)
    for block in range(1, 1 << m):
        members = [x for x in range(m) if block >> x & 1]
        best[block] = min(
            best[block & ~(1 << x)] + sum(wrong[x][y] for y in members)
            for x in members
        )
    return best


def kemeny_alt_brute(p: Profile, a: int) -> int:
    best = None
    for perm in itertools.permutations(range(p.m)):
        if perm[0] != a:
            continue
        score = 0
        r = Ranking(perm)
        for other, count in p.grouped.items():
            score += count * kt_brute(other, r)
        if best is None or score < best:
            best = score
    return best


def _aggregate(values, aggregator: str) -> int:
    return sum(values) if aggregator == "sum" else min(values)


def _minus_position(i: int) -> int:
    return -i


def cc_brute(
    p: Profile, committee: Committee, aggregator: str, alpha: Callable[[int], int] = _minus_position
) -> int:
    """Best aggregate over every raw assignment function.

    Position ``i`` scores ``alpha(i)``.
    """
    ballots = voter_rankings(p)
    members = sorted(committee.members)
    best = None
    for assignment in itertools.product(members, repeat=p.n):
        value = _aggregate(
            [alpha(ballots[i].position(assignment[i]) + 1) for i in range(p.n)],
            aggregator,
        )
        if best is None or value > best:
            best = value
    return best


def monroe_brute(
    p: Profile, committee: Committee, aggregator: str, alpha: Callable[[int], int] = _minus_position
) -> int:
    """Best aggregate over capacity-feasible assignment functions.

    Position ``i`` scores ``alpha(i)``.
    """
    ballots = voter_rankings(p)
    members = sorted(committee.members)
    k = len(members)
    low, high = p.n // k, math.ceil(p.n / k)
    best = None
    for assignment in itertools.product(members, repeat=p.n):
        loads = {c: 0 for c in members}
        for c in assignment:
            loads[c] += 1
        if any(not low <= loads[c] <= high for c in members):
            continue
        value = _aggregate(
            [alpha(ballots[i].position(assignment[i]) + 1) for i in range(p.n)],
            aggregator,
        )
        if best is None or value > best:
            best = value
    return best


def monroe_lsa(
    p: Profile, committee: Committee, aggregator: str, alpha: Callable[[int], int] = _minus_position
) -> int:
    """Monroe score by linear assignment onto replicated member slots.

    Each member gets ``n // k`` mandatory slots, worth a bonus larger than
    any difference between two totals, and up to one optional slot. For
    ``min``, every level is tried from the top, with voter-member pairs
    below the level forbidden. Position ``i`` scores ``alpha(i)``.
    """
    members = sorted(committee.members)
    k = len(members)
    low, high = p.n // k, math.ceil(p.n / k)
    mandatory = np.array(([1] * low + [0] * (high - low)) * k)
    values = np.array(
        [[alpha(r.position(c) + 1) for c in members] for r in voter_rankings(p)]
    ).repeat(high, axis=1)

    if aggregator == "sum":
        bonus = p.n * int(values.max() - values.min()) + 1
        rows, cols = linear_sum_assignment(values + bonus * mandatory, maximize=True)
        return int(values[rows, cols].sum())
    for level in sorted(set(values.flat), reverse=True):
        allowed = values >= level
        weights = np.where(allowed, mandatory, -(p.n + 1))
        rows, cols = linear_sum_assignment(weights, maximize=True)
        if allowed[rows, cols].all() and mandatory[cols].sum() == k * low:
            return int(level)
    raise AssertionError("the lowest level admits every assignment")


def monroe_lp(
    p: Profile, committee: Committee, aggregator: str, alpha: Callable[[int], int] = _minus_position
) -> int:
    """Monroe score as a transportation LP over the distinct rankings.

    Variable ``x[r, j]`` counts the voters of distinct ranking ``r`` that
    member ``j`` serves: every ranking's voters are all served, and every
    member serves between ``n // k`` and ``ceil(n / k)``. The constraint
    matrix is totally unimodular, so HiGHS reaches an integral optimum and
    the ``sum`` objective is rounded. For ``min``, every level is tried
    from the top as a feasibility check, with the pairs below the level
    bounded to zero. Position ``i`` scores ``alpha(i)``.
    """
    members = sorted(committee.members)
    k = len(members)
    low, high = p.n // k, math.ceil(p.n / k)
    values = np.array([[alpha(r.position(c) + 1) for c in members] for r in p.grouped])
    d = len(p.grouped)
    served = sparse.kron(sparse.eye(d), np.ones((1, k)))
    loads = sparse.kron(np.ones((1, d)), sparse.eye(k))
    constraints = {
        "A_eq": served,
        "b_eq": list(p.grouped.values()),
        "A_ub": sparse.vstack([loads, -loads]),
        "b_ub": [high] * k + [-low] * k,
        "method": "highs",
    }
    if aggregator == "sum":
        result = linprog(-values.ravel().astype(float), **constraints)
        assert result.status == 0, result.message
        return round(-result.fun)
    for level in sorted(set(values.flat), reverse=True):
        bounds = [(0, None if v >= level else 0) for v in values.flat]
        result = linprog(np.zeros(d * k), bounds=bounds, **constraints)
        assert result.status in (0, 2), result.message  # 2: infeasible
        if result.status == 0:
            return int(level)
    raise AssertionError("the lowest level admits every assignment")


def balanced_assignment_rescan(table: Sequence[tuple[Sequence[int], int]]) -> int:
    """Best total over assignments of voters to members with near-equal loads.

    The package's assignment as it was before its per-pair heaps: every
    augmentation rebuilds the table of best single moves from every row
    served, so it is quadratic in rows.

    ``table`` holds ``(values, count)`` rows: ``count`` voters valuing
    member ``j`` at ``values[j]``.
    Every member serves between ``floor(n/k)`` and ``ceil(n/k)`` voters.

    Rows are placed one at a time along longest augmenting paths of the
    flow network (successive shortest paths): the new row's voters join a
    member, which may pass voters of one row on to another, and so on
    until a member with free slots takes them. Bellman-Ford finds the
    path over the ``k`` members; the edge ``a -> b`` moves the row at
    ``a`` that gains most from ``b``. A path carries its bottleneck: the
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
    loads = [0] * k
    for i, (row, left) in enumerate(table):
        while left:
            # moves[a][b]: (gain, row) of the best single move from a to b
            moves: list[list[Optional[tuple[int, int]]]] = [[None] * k for _ in range(k)]
            for a in range(k):
                for v in served[a]:
                    here = table[v][0][a]
                    for b, there in enumerate(table[v][0]):
                        if b != a:
                            gain = there - here
                            if moves[a][b] is None or gain > moves[a][b][0]:
                                moves[a][b] = (gain, v)
            value = list(row)
            pred: list[Optional[tuple[int, int]]] = [None] * k
            for _ in range(k - 1):
                changed = False
                for a in range(k):
                    for b in range(k):
                        move = moves[a][b]
                        if move is not None and value[a] + move[0] > value[b]:
                            value[b] = value[a] + move[0]
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
            served[start][i] = served[start].get(i, 0) + push
            for a, v, b in steps:
                served[a][v] -= push
                if not served[a][v]:
                    del served[a][v]
                served[b][v] = served[b].get(v, 0) + push
    return sum(table[v][0][j] * count for j, rows in enumerate(served) for v, count in rows.items())


def sample_per_agent(model, parameter: Ranking, rng: np.random.Generator) -> Ranking:
    """One agent's ballot, drawn straight from the model's definition.

    ``AlphaIC``: with probability ``alpha`` a uniform ``rng.permutation``,
    else the parameter. ``PartialAltRandomization``: the top ``K`` kept
    and the tail shuffled in one Fisher-Yates pass. ``TopBreakNoise``:
    with probability ``1/K`` the bottom alternative moved to the front.
    """
    order = parameter.order
    if isinstance(model, AlphaIC):
        if rng.random() < float(model.alpha):
            return Ranking(tuple(int(x) for x in rng.permutation(model.m)))
        return parameter
    if isinstance(model, PartialAltRandomization):
        tail = list(order[model.K :])
        rng.shuffle(tail)
        return Ranking(order[: model.K] + tuple(tail))
    if isinstance(model, TopBreakNoise):
        return Ranking(order[-1:] + order[:-1]) if rng.random() < 1.0 / model.K else parameter
    raise TypeError(f"no per-agent oracle for {model!r}")


def random_parameter_profiles_per_agent(seed: int, trials: int, m: int, n: int, model):
    """(profile, target) per trial for the ``random_profile`` adversary, agent by agent.

    Each trial's generator is spawned from the seed as the harness does;
    every agent gets a uniform parameter ranking, then every agent draws
    one ballot from ``model`` at that parameter. The target is the last
    parameter's bottom alternative.
    """
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        parameters = [random_ranking(rng, m) for _ in range(n)]
        ballots = tuple(sample_per_agent(model, parameter, rng) for parameter in parameters)
        yield Profile.from_counts((r, 1) for r in ballots), parameters[-1].order[-1]


def partial_alt_sample_by_index(model, parameter: Ranking, rng: np.random.Generator) -> Ranking:
    """One ``PartialAltRandomization`` ballot, the tail indexed through ``rng.permutation``."""
    head, tail = parameter.order[: model.K], parameter.order[model.K :]
    if not tail:
        return parameter
    return Ranking(head + tuple(int(tail[i]) for i in rng.permutation(len(tail))))


def sample_orders_per_agent(model, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``model.sample_orders`` agent by agent: one :func:`sample_per_agent` call per row."""
    ballots = [sample_per_agent(model, Ranking(tuple(row)), rng).order for row in params.tolist()]
    return np.array(ballots, dtype=np.int64).reshape(params.shape)


def padded_parameter_profile_per_agent(out, model, pad: int) -> ParameterProfile:
    """One unit-weight parameter per agent of the reduction profile padded by ``pad``.

    Entry ``i`` is agent ``i`` of ``app_last(out.profile, pad)`` (the
    profile itself when ``pad`` is 0), so sampling draws agent by agent.
    """
    padded = out.profile if pad == 0 else app_last(out.profile, pad)
    return ParameterProfile(tuple((r, Fraction(1)) for r in voter_rankings(padded)), model)


def eulerian_digraphs_scan(m: int):
    """Every 2-cycle-free Eulerian digraph on ``m`` vertices, by a scan of all orientations.

    Each of the ``3**C(m, 2)`` choices (no arc, ``u->v`` or ``v->u`` per
    pair, in ``itertools.product`` order) is built as a ``Digraph`` and
    kept if it ``is_eulerian``.
    """
    pairs = list(itertools.combinations(range(m), 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for (u, v), orient in zip(pairs, choice):
            if orient == 1:
                arcs.append((u, v))
            elif orient == 2:
                arcs.append((v, u))
        g = Digraph.of(m, arcs)
        if g.is_eulerian():
            yield g


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
