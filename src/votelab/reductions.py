"""Constructive reductions and the randomized decision drivers built on them.

Covers four pieces of machinery:

* the exact-cover-to-Dodgson profile builder and its randomized driver
  (pad with dummy alternatives, sample, decide);
* a McGarvey-style profile builder realizing any 2-cycle-free digraph as
  a pairwise-margin matrix (at a fixed per-arc multiplier of 2);
* the closed-form profile distance for margin-realizing profiles, and
  the feedback-arc-set driver that answers via a Kemeny threshold query;
* brute-force oracles (exact cover, minimum feedback arcs) used to
  validate everything above.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .core import (
    Digraph,
    Profile,
    Ranking,
    WeightedProfile,
    app_last,
    backward_arcs,
    wmg,
)
from .errors import BudgetExceededError, ConstructionError
from .greedy_dodgson import Decision
from .models import ParameterProfile, PartialAltRandomization, all_rankings

__all__ = [
    "X3CInstance",
    "DodgsonReductionLayout",
    "DodgsonReductionOutput",
    "x3c_bruteforce",
    "x3c_to_dodgson",
    "build_padded_parameter_profile",
    "top_slices_match",
    "x3c_via_dodgson",
    "MCGARVEY_MULTIPLIER",
    "mcgarvey_profile",
    "detect_margin_multiplier",
    "kt_formula",
    "efas_via_kemeny",
    "efas_bruteforce",
    "enumerate_x3c_instances",
    "enumerate_eulerian_digraphs",
]


# ---------------------------------------------------------------------------
# Exact cover by 3-sets


@dataclass(frozen=True)
class X3CInstance:
    """Ground set ``{0..q-1}`` with distinct 3-element subsets.

    ``q`` divisible by 3, and ``q/3 <= s <= q^3/6`` (fewer subsets cannot
    cover; more cannot be distinct).
    """

    q: int
    subsets: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.q < 3 or self.q % 3 != 0:
            raise ValueError("ground-set size must be a positive multiple of 3")
        seen = set()
        for sub in self.subsets:
            if len(sub) != 3 or len(set(sub)) != 3:
                raise ValueError(f"subset {sub!r} must have exactly 3 distinct elements")
            if not all(0 <= e < self.q for e in sub):
                raise ValueError(f"subset {sub!r} out of range")
            if tuple(sorted(sub)) != sub:
                raise ValueError("subsets must be stored sorted")
            if sub in seen:
                raise ValueError(f"duplicate subset {sub!r}")
            seen.add(sub)
        s = len(self.subsets)
        if not self.q // 3 <= s <= self.q**3 // 6:
            raise ValueError(f"subset count {s} outside q/3..q^3/6")

    @classmethod
    def of(cls, q: int, subsets: Sequence[Sequence[int]]) -> "X3CInstance":
        return cls(q, tuple(tuple(sorted(sub)) for sub in subsets))

    @property
    def s(self) -> int:
        return len(self.subsets)


_X3C_MAX_S = 25  # x3c_bruteforce tries up to C(s, q/3) subcollections


def x3c_bruteforce(inst: X3CInstance) -> bool:
    """Does some subcollection partition the ground set? Exhaustive, up to ``_X3C_MAX_S`` subsets."""
    if inst.s > _X3C_MAX_S:
        raise BudgetExceededError(f"exact-cover enumeration limited to s<={_X3C_MAX_S}")
    need = inst.q // 3
    for chosen in itertools.combinations(inst.subsets, need):
        union = set()
        for sub in chosen:
            union.update(sub)
        # Elements are range-checked, so q distinct ones cover the ground set.
        if len(union) == inst.q:
            return True
    return False


# ---------------------------------------------------------------------------
# Exact cover -> Dodgson


@dataclass(frozen=True)
class DodgsonReductionLayout:
    """Alternative-index map for a reduction profile.

    ``element_alts[i]`` is the alternative whose one-vote lead over the
    critical alternative encodes element ``i``'s coverage requirement;
    ``companion_alts[i]`` is its buffer partner; ``subset_alts[j]`` sits
    directly above the critical alternative in subset ``j``'s ballot.
    """

    element_alts: tuple[int, ...]
    companion_alts: tuple[int, ...]
    subset_alts: tuple[int, ...]


@dataclass(frozen=True)
class DodgsonReductionOutput:
    profile: Profile
    critical: int
    threshold: int
    layout: DodgsonReductionLayout


def _fill_ascending(head: Sequence[int], m: int) -> tuple[int, ...]:
    """The order ``head`` followed by every other alternative, ascending."""
    taken = set(head)
    # A list, not a generator: tuple() over a generator allocates and then
    # resizes, which strands thousands of freed tuples on CPython's
    # per-size free lists and grows peak memory over a long reduction sweep.
    return (*head, *[x for x in range(m) if x not in taken])


def x3c_to_dodgson(inst: X3CInstance) -> DodgsonReductionOutput:
    """Profile whose critical alternative scores at most ``4q/3`` iff a cover exists.

    Three ballot blocks over ``2q + s + 1`` alternatives:

    * one ballot per subset, shaped ``covered elements > subset alt >
      critical > rest`` — lifting the critical alternative four places
      here buys three element votes, the cheapest rate anywhere;
    * balancing ballots ``element > companion > critical > rest`` so
      every element alternative ends up with the same lead;
    * copies of one long ballot ranking all element alternatives above
      the critical one, added until each lead is exactly one vote.

    Unconstrained ballot segments are filled in ascending index so the
    output is deterministic. Ballots are emitted as order rows with
    counts, in block order.
    """
    q, s = inst.q, inst.s
    element_alts = tuple(range(q))
    companion_alts = tuple(range(q, 2 * q))
    subset_alts = tuple(range(2 * q, 2 * q + s))
    critical = 2 * q + s
    m1 = 2 * q + s + 1
    layout = DodgsonReductionLayout(element_alts, companion_alts, subset_alts)

    counted: list[tuple[tuple[int, ...], int]] = []
    for j, sub in enumerate(inst.subsets):
        head = list(sub) + [subset_alts[j], critical]
        counted.append((_fill_ascending(head, m1), 1))

    membership = [0] * q
    for sub in inst.subsets:
        for e in sub:
            membership[e] += 1
    max_membership = max(membership)
    for i in range(q):
        copies = max_membership - membership[i]
        if copies > 0:
            head = [element_alts[i], companion_alts[i], critical]
            counted.append((_fill_ascending(head, m1), copies))

    # Subset ballots give element i a lead of 2*membership[i] - s over the
    # critical alternative; the balancing ballots add 2*copies[i] minus all
    # q*max_membership - 3s copies. Every element thus leads by
    # 2s - (q-2)*max_membership; top it up to exactly +1 with copies of
    # one long ballot.
    booster_copies = 1 - (2 * s - (q - 2) * max_membership)
    if booster_copies > 0:
        head = list(element_alts) + list(companion_alts) + [critical]
        counted.append((_fill_ascending(head, m1), booster_copies))

    profile = Profile.from_counts(counted)
    final = wmg(profile)
    for a in element_alts:
        if final.margin(a, critical) != 1:
            raise ConstructionError("element lead not exactly 1 after boosting")
    if profile.n > 2 * (q + 1) * s + 1:
        raise ConstructionError("profile larger than the size bound")
    return DodgsonReductionOutput(profile, critical, 4 * q // 3, layout)


# ---------------------------------------------------------------------------
# Padding and the randomized exact-cover driver


def build_padded_parameter_profile(out: DodgsonReductionOutput, model) -> ParameterProfile:
    """Reduction ballots padded with dummies to ``model.m``, one entry per distinct ballot.

    Each entry weighs its ballot's count, so every row of the profile's
    :attr:`~votelab.models.ParameterProfile.agent_orders` opens with its
    agent's reduction ballot. A model narrower than the reduction raises
    ``ValueError``, and so does a
    :class:`~votelab.models.PartialAltRandomization` with ``K`` below its
    width: the one top-``K`` check, so any that builds keeps every top
    slice. Other models preserve it with whatever per-agent probability
    they guarantee.
    """
    m1 = out.profile.m
    if model.m < m1:
        raise ValueError(f"model m={model.m} below reduction width {m1}")
    if isinstance(model, PartialAltRandomization) and model.K < m1:
        raise ValueError(f"K={model.K} below reduction width {m1}")
    padded = out.profile if model.m == m1 else app_last(out.profile, model.m - m1)
    entries = tuple((r, Fraction(count)) for r, count in padded.grouped.items())
    return ParameterProfile(entries, model)


def top_slices_match(draws: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per profile of a ``(t, n, m)`` stack: does every agent's row open with its ``reference`` row?

    One bool per profile, from one array comparison. Rows pair up by
    agent index, so every profile must have as many rows as
    ``reference``; otherwise this raises ``ValueError``. ``reference``
    is no wider than the draws.
    """
    if draws.shape[-2] != len(reference):
        raise ValueError(
            f"{draws.shape[-2]} sampled ballots against {len(reference)} reference rows"
        )
    return (draws[..., : reference.shape[1]] == reference).all(axis=(-2, -1))


def x3c_via_dodgson(
    inst: X3CInstance,
    dodgson_decider: Callable[[Profile, int, int], Decision],
    model,
    rng: np.random.Generator,
) -> Decision:
    """Randomized exact-cover decision through a Dodgson threshold query.

    Build the reduction profile, pad it with dummies, sample one ballot
    per agent, and answer YES outright if any sampled top slice moved.
    Otherwise ask the decider whether the critical alternative's score is
    within threshold. Decider failures map to YES, which keeps the
    one-sided guarantee: a NO answer is always correct. The decider gets
    the sampled ballots as a count-built profile.
    """
    out = x3c_to_dodgson(inst)
    params = build_padded_parameter_profile(out, model).agent_orders
    ballots = model.sample_orders(params, rng)
    if not top_slices_match(ballots[None], params[:, : out.profile.m])[0]:
        return Decision.YES
    if dodgson_decider(Profile.of(ballots.tolist()), out.critical, out.threshold) is Decision.NO:
        return Decision.NO
    return Decision.YES


# ---------------------------------------------------------------------------
# Margin-realizing profiles and the profile-distance closed form

MCGARVEY_MULTIPLIER = 2


def mcgarvey_profile(g: Digraph) -> Profile:
    """Profile whose margin matrix is the digraph's, times the fixed multiplier.

    Per arc ``u -> v``, two ballots: ``u > v > rest ascending`` and
    ``rest descending > u > v``. All pairs other than ``(u, v)`` cancel
    between the two, leaving margin 2 on the arc. An arcless graph gets
    one ascending/descending ballot pair, which cancels everywhere.
    """
    if g.has_two_cycle():
        raise ConstructionError("margin-realizing profiles need a 2-cycle-free graph")
    ballots: list[tuple[int, ...]] = []
    for u, v in sorted(g.arcs):
        rest = tuple(w for w in range(g.m) if w != u and w != v)
        ballots.append((u, v) + rest)
        ballots.append(rest[::-1] + (u, v))
    if not ballots:
        ascending = tuple(range(g.m))
        ballots = [ascending, ascending[::-1]]
    return Profile.of(ballots)


def detect_margin_multiplier(p: Union[Profile, WeightedProfile], g: Digraph) -> Fraction:
    """The constant lambda with margins(p) = lambda * margins(g), or raise."""
    graph = wmg(p)
    multiplier = None
    for a in range(g.m):
        for b in range(a + 1, g.m):
            value = graph.margin(a, b)
            if (a, b) in g.arcs:
                expected_sign = 1
            elif (b, a) in g.arcs:
                expected_sign = -1
            else:
                if value != 0:
                    raise ConstructionError(f"nonzero margin on non-arc pair ({a},{b})")
                continue
            scaled = value * expected_sign
            if multiplier is None:
                multiplier = scaled
            elif scaled != multiplier:
                raise ConstructionError("margins are not proportional to the graph")
    # Kernel values are ints for a Profile; the closed form needs a Fraction.
    return Fraction(multiplier or 0)


def _closed_form_distance(
    p: Union[Profile, WeightedProfile], g: Digraph, f: int
) -> Fraction:
    """``W/2 * C(m,2) - lambda*|E|/2 + lambda*f`` for a margin-realizing profile.

    ``W`` is the total ballot weight and ``lambda`` the margin multiplier,
    which :func:`detect_margin_multiplier` checks against the graph.
    """
    multiplier = detect_margin_multiplier(p, g)
    total = Fraction(p.n) if isinstance(p, Profile) else p.total_weight
    return total * math.comb(g.m, 2) / 2 - multiplier * g.edge_count / 2 + multiplier * f


def kt_formula(p: Union[Profile, WeightedProfile], g: Digraph, r: Ranking) -> Fraction:
    """Closed-form profile distance for margin-realizing profiles.

    With total ballot weight ``W``, ``lambda`` the margin multiplier and
    ``f`` the number of arcs pointing up the ranking:
    ``W/2 * C(m,2) - lambda*|E|/2 + lambda*f``. Each arcless pair splits
    its weight evenly; each arc shifts one pair by ``lambda/2`` toward
    its orientation, and a backward arc flips that shift's sign.
    """
    if p.m != g.m or r.m != g.m:
        raise ConstructionError("profile, graph, and ranking must share m")
    return _closed_form_distance(p, g, backward_arcs(g, r))


# ---------------------------------------------------------------------------
# Feedback arcs


def efas_bruteforce(g: Digraph, t: int) -> bool:
    """Can at most ``t`` arc removals make the graph acyclic?

    Minimum removals equal the minimum backward-arc count over all
    vertex orders, so enumerate orders: all m! of them, from
    :func:`~votelab.models.all_rankings` and under its cap on ``m``.
    """
    orders = all_rankings(g.m)
    if not g.arcs:
        return t >= 0
    return min(backward_arcs(g, r) for r in orders) <= t


def efas_via_kemeny(
    g: Digraph,
    t: int,
    kemeny_decider: Callable[[Profile, Fraction], bool],
    profile_builder: Callable[[Digraph], Profile] = mcgarvey_profile,
    *,
    strict: bool = True,
) -> Decision:
    """Feedback-arc decision through a Kemeny threshold query.

    Build a margin-realizing profile and ask whether any ranking's total
    disagreement stays within the closed-form distance at ``t`` backward
    arcs. The chain is exact: rankings within that limit correspond
    one-to-one to orders with at most ``t`` backward arcs. A negative
    ``t`` is NO outright, since no order has fewer than zero backward
    arcs; the limit alone cannot say so when the multiplier is 0. A
    2-cycle-free graph on at most 2 vertices is acyclic, so it is YES at
    every ``t >= 0`` without a Kemeny query, which needs 3 alternatives.
    """
    if strict and not g.is_eulerian():
        raise ValueError("graph is not Eulerian; pass strict=False to override")
    profile = profile_builder(g)  # rejects a 2-cycle at every m
    if g.m <= 2:
        return Decision.YES if t >= 0 else Decision.NO
    limit = _closed_form_distance(profile, g, t)
    if t < 0 or not kemeny_decider(profile, limit):
        return Decision.NO
    return Decision.YES


# ---------------------------------------------------------------------------
# Desk-scale enumerations


def enumerate_x3c_instances(q: int, max_s: int) -> Iterator[X3CInstance]:
    """Every instance on ``q`` elements with up to ``max_s`` subsets."""
    triples = list(itertools.combinations(range(q), 3))
    hi = min(max_s, len(triples))
    for s in range(q // 3, hi + 1):
        for chosen in itertools.combinations(triples, s):
            yield X3CInstance(q, tuple(chosen))


def enumerate_eulerian_digraphs(m: int) -> Iterator[Digraph]:
    """Every 2-cycle-free Eulerian digraph on exactly ``m`` vertices.

    Each unordered pair carries no arc or one arc in either direction. A
    depth-first walk decides the pairs in ``itertools.combinations(range(m),
    2)`` order, trying no arc, then ``u->v``, then ``v->u``, and keeps
    each vertex's out-minus-in balance. Vertex ``u``'s last pair is
    ``(u, m-1)``, so its balance is final there, and a branch that leaves
    it nonzero is cut; ``m-1`` is then balanced too, since balances sum to
    0. Only balanced leaves build a ``Digraph`` and test connectivity. An
    ``m < 1`` fails ``Digraph``'s own check on the first ``next()``.

    Graphs come in the order of ``itertools.product((none, u->v, v->u),
    repeat=C(m,2))`` over the pairs, as a scan of every orientation would
    yield them.
    """
    Digraph.of(m, ())  # checks m
    pairs = list(itertools.combinations(range(m), 2))
    balance = [0] * m
    arcs: list[tuple[int, int]] = []

    def walk(i: int) -> Iterator[Digraph]:
        if i == len(pairs):
            g = Digraph.of(m, arcs)
            if g.is_eulerian():
                yield g
            return
        u, v = pairs[i]
        closes = v == m - 1
        if not closes or balance[u] == 0:
            yield from walk(i + 1)
        for a, b in ((u, v), (v, u)):
            balance[a] += 1
            balance[b] -= 1
            if not closes or balance[u] == 0:
                arcs.append((a, b))
                yield from walk(i + 1)
                arcs.pop()
            balance[a] -= 1
            balance[b] += 1

    yield from walk(0)
