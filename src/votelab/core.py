"""Rankings, profiles, margin matrices, and structural transformations.

Alternatives are dense integer indices ``0..m-1`` throughout; readable
names belong in I/O mapping tables, never in the solvers. Every value in
this module is immutable, hashable, and safe to share across threads.

Conventions used by the whole package:

* a :class:`Ranking` lists alternatives most-preferred first;
* positions are 0-based (``position(x) == 0`` means ``x`` is on top);
* pairwise margins count voters preferring ``a`` over ``b`` minus voters
  preferring ``b`` over ``a``;
* "strict majority" always means strictly more than half of the voters,
  i.e. at least ``n // 2 + 1`` of them.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import DimensionError

__all__ = [
    "Ranking",
    "Profile",
    "WeightedProfile",
    "WMG",
    "Digraph",
    "kt_distance",
    "kt_profile_distance",
    "top_k",
    "apply_permutation",
    "permute_profile",
    "app_last",
    "wmg",
    "condorcet_winner",
    "deficit",
    "backward_arcs",
]

_MAX_VOTERS = 2**63 - 1  # margins are tallied in int64
_KERNEL_CELLS = 1 << 18  # pair comparisons per numpy step of the margin kernel


@dataclass(frozen=True)
class Ranking:
    """A linear order over ``m`` alternatives, most-preferred first.

    ``order`` must be a permutation of ``{0, ..., m-1}``. Structural
    operations accept any ``m >= 1``; voting-rule computations elsewhere
    require ``m >= 3``.
    """

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.order)
        if m < 1:
            raise ValueError("ranking needs at least one alternative")
        if sorted(self.order) != list(range(m)):
            raise ValueError(f"order {self.order!r} is not a permutation of 0..{m - 1}")

    @classmethod
    def of(cls, order: Iterable[int]) -> "Ranking":
        return cls(tuple(order))

    @property
    def m(self) -> int:
        return len(self.order)

    def position(self, alt: int) -> int:
        return self.order.index(alt)

    def prefers(self, a: int, b: int) -> bool:
        """True iff ``a`` is ranked above ``b``."""
        return self.order.index(a) < self.order.index(b)

    def reversed(self) -> "Ranking":
        return Ranking(self.order[::-1])

    def __repr__(self) -> str:  # compact, e.g. Ranking(2>0>1)
        return "Ranking(%s)" % ">".join(map(str, self.order))


@dataclass(frozen=True, init=False, eq=False)
class Profile:
    """A multiset of ``n >= 1`` rankings over a common alternative set.

    Stored as its distinct rankings with their multiplicities: ``grouped``
    maps each distinct ranking to its count, in order of first appearance,
    and ``n`` is the sum of the counts. Every solver and the margin kernel
    read ``grouped``. Three solvers still grow with the counts: Monroe
    expands one row per voter, the Dodgson DP takes a ballot type once per
    copy (up to the missing votes) and the Young search branches ``c + 1``
    ways on a class of ``c`` ballots; the rest work per distinct ranking.
    Two profiles are equal when they hold the same multiset.
    All three constructors count their input; no per-agent order is kept.
    """

    grouped: dict[Ranking, int]
    m: int
    n: int

    def __init__(self, rankings: Iterable[Ranking]) -> None:
        self.__dict__["grouped"] = dict(Counter(rankings))
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check each distinct ranking once and set ``m`` and ``n``."""
        if not self.grouped:
            raise ValueError("profile needs at least one voter")
        m = next(iter(self.grouped)).m
        for r in self.grouped:
            if r.m != m:
                raise DimensionError("all rankings in a profile must share m")
        n = sum(self.grouped.values())
        if n > _MAX_VOTERS:
            raise ValueError(f"profile of {n} voters exceeds the int64 margin kernel")
        self.__dict__.update(m=m, n=n)

    @classmethod
    def of(cls, orders: Iterable[Iterable[int]]) -> "Profile":
        """Count the voters' orders; one :class:`Ranking` per distinct order."""
        return cls.from_counts(Counter(tuple(o) for o in orders).items())

    @classmethod
    def from_counts(cls, pairs: Iterable[tuple[Union[Ranking, Iterable[int]], int]]) -> "Profile":
        """Build a profile from (ranking or order, multiplicity) pairs.

        Repeated rankings add up and zero multiplicities are dropped. No
        per-voter sequence is built, so the work grows with the number of
        pairs, not with ``n``.
        """
        grouped: dict[Ranking, int] = {}
        for r, count in pairs:
            count = operator.index(count)
            if count < 0:
                raise ValueError("multiplicities must be nonnegative")
            if count:
                r = r if isinstance(r, Ranking) else Ranking(tuple(r))
                grouped[r] = grouped.get(r, 0) + count
        profile = cls.__new__(cls)
        profile.__dict__["grouped"] = grouped
        profile.__post_init__()
        return profile

    @property
    def rankings(self) -> tuple[Ranking, ...]:
        """``grouped`` expanded into ``n`` entries, each ranking's copies together.

        Built on every read and never kept; nothing in the package reads it,
        and ``perfbench/tracer.py``'s profile counter is its last reader.
        """
        return tuple(itertools.chain.from_iterable(
            itertools.repeat(r, count) for r, count in self.grouped.items()
        ))

    @cached_property
    def wmg(self) -> "WMG":
        """Pairwise margins, tallied once per profile; read them via :func:`wmg`."""
        return _margin_kernel(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return self.grouped == other.grouped

    def __hash__(self) -> int:
        return hash(frozenset(self.grouped.items()))


@dataclass(frozen=True)
class WeightedProfile:
    """Rankings with nonnegative exact-rational weights, total > 0.

    Fractional profiles arise when scaling parameter profiles; exact
    rationals keep every downstream identity free of float tolerances.
    """

    entries: tuple[tuple[Ranking, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("weighted profile needs at least one entry")
        m = self.entries[0][0].m
        total = Fraction(0)
        for r, w in self.entries:
            if r.m != m:
                raise DimensionError("all rankings in a profile must share m")
            if w < 0:
                raise ValueError("weights must be nonnegative")
            total += w
        if total <= 0:
            raise ValueError("total weight must be positive")

    @classmethod
    def of(cls, pairs: Iterable[tuple[Iterable[int], Union[int, str, Fraction]]]) -> "WeightedProfile":
        return cls(tuple((Ranking.of(o), Fraction(w)) for o, w in pairs))

    @property
    def m(self) -> int:
        return self.entries[0][0].m

    @property
    def total_weight(self) -> Fraction:
        return sum((w for _, w in self.entries), Fraction(0))

    @cached_property
    def wmg(self) -> "WMG":
        """Pairwise margins, tallied once per profile; read them via :func:`wmg`."""
        return _margin_kernel(self)


AnyProfile = Union[Profile, WeightedProfile]


def _weighted_items(p: AnyProfile) -> Iterable[tuple[Ranking, Union[int, Fraction]]]:
    if isinstance(p, Profile):
        return p.grouped.items()
    return p.entries


@dataclass(frozen=True)
class WMG:
    """Dense antisymmetric pairwise-margin matrix.

    ``margins[a][b]`` is the net weight preferring ``a`` over ``b``;
    entries are ints for unweighted profiles and ``Fraction`` otherwise.
    """

    margins: tuple[tuple[Union[int, Fraction], ...], ...]

    def __post_init__(self) -> None:
        m = len(self.margins)
        for row in self.margins:
            if len(row) != m:
                raise ValueError("margin matrix must be square")
        for a in range(m):
            if self.margins[a][a] != 0:
                raise ValueError("margin diagonal must be zero")
            for b in range(a + 1, m):
                if self.margins[a][b] != -self.margins[b][a]:
                    raise ValueError("margin matrix must be antisymmetric")

    @classmethod
    def _trusted(cls, margins: tuple[tuple[Union[int, Fraction], ...], ...]) -> "WMG":
        """Wrap a matrix that is antisymmetric by construction, skipping the checks."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "margins", margins)
        return graph

    @property
    def m(self) -> int:
        return len(self.margins)

    def margin(self, a: int, b: int) -> Union[int, Fraction]:
        return self.margins[a][b]


@dataclass(frozen=True)
class Digraph:
    """Unweighted directed graph on vertices ``0..m-1``.

    No duplicate arcs, no self-loops; 2-cycles are representable but
    rejected by constructions that require an antisymmetric arc set.
    """

    m: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("digraph needs at least one vertex")
        for u, v in self.arcs:
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.m and 0 <= v < self.m):
                raise ValueError(f"arc ({u},{v}) out of range for m={self.m}")

    @classmethod
    def of(cls, m: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        arc_list = [tuple(a) for a in arcs]
        arc_set = frozenset(arc_list)
        if len(arc_set) != len(arc_list):
            raise ValueError("duplicate arcs are not allowed")
        return cls(m, arc_set)

    @property
    def edge_count(self) -> int:
        return len(self.arcs)

    def has_two_cycle(self) -> bool:
        return any((v, u) in self.arcs for u, v in self.arcs)

    def is_eulerian(self) -> bool:
        """Every vertex balanced and all arcs in one weak component."""
        indeg = [0] * self.m
        outdeg = [0] * self.m
        for u, v in self.arcs:
            outdeg[u] += 1
            indeg[v] += 1
        if indeg != outdeg:
            return False
        active = [v for v in range(self.m) if indeg[v] + outdeg[v] > 0]
        if not active:
            return True
        neighbours: dict[int, set[int]] = {v: set() for v in active}
        for u, v in self.arcs:
            neighbours[u].add(v)
            neighbours[v].add(u)
        seen = {active[0]}
        stack = [active[0]]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(active)


def _check_same_m(r1: Ranking, r2: Ranking) -> None:
    if r1.m != r2.m:
        raise DimensionError(f"rankings have mismatched m: {r1.m} vs {r2.m}")


def kt_distance(r1: Ranking, r2: Ranking) -> int:
    """Number of unordered pairs ranked oppositely by the two rankings.

    A metric on rankings of fixed m, bounded by ``m*(m-1)/2``.
    """
    _check_same_m(r1, r2)
    pos2 = {alt: idx for idx, alt in enumerate(r2.order)}
    order = r1.order
    count = 0
    for i in range(len(order)):
        pi = pos2[order[i]]
        for j in range(i + 1, len(order)):
            if pos2[order[j]] < pi:
                count += 1
    return count


def kt_profile_distance(p: AnyProfile, r: Ranking) -> Union[int, Fraction]:
    """(Weighted) sum of pairwise-disagreement counts against ``r``."""
    if p.m != r.m:
        raise DimensionError(f"profile m={p.m} vs ranking m={r.m}")
    total = sum(w * kt_distance(other, r) for other, w in _weighted_items(p))
    return total


def top_k(r: Ranking, k: int) -> tuple[int, ...]:
    """The first ``k`` entries of the ranking, in order."""
    if not 1 <= k <= r.m:
        raise ValueError(f"k={k} out of range 1..{r.m}")
    return r.order[:k]


def apply_permutation(sigma: Sequence[int], r: Ranking) -> Ranking:
    """Relabel alternatives: entry ``x`` becomes ``sigma[x]``.

    Group action on rankings: composing relabelings first and applying
    once equals applying them one after another.
    """
    if sorted(sigma) != list(range(r.m)):
        raise ValueError("sigma must be a bijection on 0..m-1")
    return Ranking(tuple(sigma[x] for x in r.order))


def permute_profile(sigma: Sequence[int], p: Profile) -> Profile:
    """Apply one relabeling to every ballot."""
    return Profile.from_counts((apply_permutation(sigma, r), c) for r, c in p.grouped.items())


def app_last(p: Profile, m_prime: int) -> Profile:
    """Append ``m_prime`` fresh alternatives below every ballot.

    Each output ballot keeps its original order on the first ``m``
    alternatives followed by the new ones in ascending index, an
    arbitrary-but-deterministic member of the appended family that shares
    every property callers rely on. Each distinct ranking is padded once
    and keeps its count, so the output's grouped order matches ``p``'s.
    """
    if m_prime < 1:
        raise ValueError("m_prime must be positive")
    tail = tuple(range(p.m, p.m + m_prime))
    return Profile.from_counts((r.order + tail, c) for r, c in p.grouped.items())


def wmg(p: AnyProfile) -> WMG:
    """Pairwise net-margin matrix of a (weighted) profile.

    The matrix is cached on the profile object, so its ballots are
    scanned for margins at most once; every margin consumer reads it here.
    """
    return p.wmg


def _ranks_above(pos: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``out[i, a, j]``: whether ballot ``i`` ranks ``a`` above position ``ref[i, j]``.

    ``pos[i, a]`` is the 0-based position of ``a`` in ballot ``i``, and
    ``ref`` holds positions of the same ballots; a smaller position is
    more preferred. This one comparison is every tally of who beats whom:
    the margin kernel passes ``ref = pos``, and the greedy tally table
    passes the target's column.
    """
    return pos[:, :, None] < ref[:, None, :]


def _margin_kernel(p: AnyProfile) -> WMG:
    """Margins of a (weighted) profile, in numpy over its distinct rankings.

    ``pos[i, a]`` is the position of ``a`` in ranking ``i``. Row ``i``'s
    weight goes to ``wins[a, b]`` exactly when ``a`` sits above ``b``
    there (:func:`_ranks_above`), and the margin is ``wins - wins.T``:
    antisymmetric with a zero diagonal by construction, so it skips
    :class:`WMG`'s checks. A :class:`Profile`'s weights are its int64
    counts, exact because no entry exceeds ``n``. A
    :class:`WeightedProfile`'s weights are brought
    to one common denominator and tallied as Python ints in an object
    array, so every margin is an exact ``Fraction`` and the tally adds
    ints, not rationals. Rows go in blocks of at most ``_KERNEL_CELLS``
    pair comparisons, which bounds the temporaries for profiles with many
    distinct rankings.
    """
    items = _weighted_items(p)
    m, distinct = p.m, len(items)
    orders = itertools.chain.from_iterable(r.order for r, _ in items)
    pos = np.argsort(np.fromiter(orders, np.intp, distinct * m).reshape(distinct, m), axis=1)
    if isinstance(p, Profile):
        scale, weights = None, np.fromiter(p.grouped.values(), np.int64, distinct)
    else:
        scale = math.lcm(*(Fraction(w).denominator for _, w in items))
        weights = np.array([int(w * scale) for _, w in items], dtype=object)
    wins = 0
    step = max(1, _KERNEL_CELLS // (m * m))
    for start in range(0, distinct, step):
        block = pos[start : start + step]
        above = _ranks_above(block, block).reshape(len(block), m * m)
        wins = wins + weights[start : start + step] @ above
    wins = wins.reshape(m, m)
    rows = (wins - wins.T).tolist()
    if scale is not None:
        rows = [[Fraction(v, scale) for v in row] for row in rows]
    return WMG._trusted(tuple(map(tuple, rows)))


def condorcet_winner(p: Profile) -> Optional[int]:
    """The alternative beating every other by strict majority, if any."""
    graph = wmg(p)
    for a in range(p.m):
        if all(graph.margin(a, b) > 0 for b in range(p.m) if b != a):
            return a
    return None


def _require_rule_scale(p: Profile, a: Optional[int] = None) -> None:
    """Reject a rule on fewer than 3 alternatives, or a target ``a`` out of range."""
    if p.m < 3:
        raise ValueError("rule computations require at least 3 alternatives")
    if a is not None and not 0 <= a < p.m:
        raise ValueError(f"alternative {a} out of range")


def _require_pair(p: Profile, a: int, b: int) -> None:
    """Reject a pair of alternatives that are equal or out of range."""
    if a == b:
        raise ValueError("need two distinct alternatives")
    if not (0 <= a < p.m and 0 <= b < p.m):
        raise ValueError(f"alternatives ({a},{b}) out of range 0..{p.m - 1}")


def deficit(p: Profile, a: int, b: int) -> int:
    """Extra ``a``-over-``b`` votes needed before ``a`` majority-beats ``b``.

    ``max(0, n//2 + 1 - votes(a over b))``; zero exactly when ``a``
    already beats ``b`` by strict majority. The vote count is read off
    the margin: ``votes(a over b) = (n + margin(a, b)) / 2``, an integer
    because ``n`` and the margin share parity.
    """
    _require_pair(p, a, b)
    votes = (p.n + wmg(p).margin(a, b)) // 2
    return max(0, p.n // 2 + 1 - votes)


def backward_arcs(g: Digraph, r: Ranking) -> int:
    """Arcs (u -> v) whose head ``v`` is ranked above the tail ``u``."""
    if g.m != r.m:
        raise DimensionError(f"digraph m={g.m} vs ranking m={r.m}")
    pos = {alt: idx for idx, alt in enumerate(r.order)}
    return sum(1 for u, v in g.arcs if pos[v] < pos[u])
