"""Text formats for profiles, digraphs, and exact-cover instances.

All formats are line-oriented with a size header:

* profile: ``m n`` then ``n`` lines of ``m`` space-separated indices,
  most-preferred first;
* weighted profile: same, with a leading ``numerator/denominator``
  weight token per line;
* digraph: ``m e`` then ``e`` lines ``u v`` for the arc ``u -> v``;
* exact-cover instance: ``q s`` then ``s`` lines of 3 element indices.

Readers raise ``ValueError`` on malformed input. A profile is read as
its distinct ballots with counts, in order of first appearance, and
writing it lists each distinct ballot's copies together in ``grouped``
order, so a written profile reads back with the same ``grouped`` items
in the same order. Agent order lives in a sampler's ``(n, m)`` arrays,
not in a profile; :func:`write_ballots` writes such rows line for line.
The other formats round-trip exactly.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Sequence, Union

from .core import Digraph, Profile, Ranking, WeightedProfile
from .reductions import X3CInstance

__all__ = [
    "read_profile",
    "write_profile",
    "write_ballots",
    "read_weighted_profile",
    "write_weighted_profile",
    "read_digraph",
    "write_digraph",
    "read_x3c",
    "write_x3c",
]

PathLike = Union[str, Path]


def _data_lines(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines() if line.strip()]


def _header(line: str, what: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise ValueError(f"{what} header must be two integers, got {line!r}")
    return int(parts[0]), int(parts[1])


def read_profile(path: PathLike) -> Profile:
    lines = _data_lines(Path(path).read_text())
    if not lines:
        raise ValueError("empty profile file")
    m, n = _header(lines[0], "profile")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} ballots, found {len(lines) - 1}")
    ballots = []
    for line in lines[1:]:
        order = tuple(int(tok) for tok in line.split())
        if len(order) != m:
            raise ValueError(f"ballot {line!r} does not list {m} alternatives")
        ballots.append(order)
    return Profile.of(ballots)


def write_profile(p: Profile, path: PathLike) -> None:
    write_ballots([r.order for r, count in p.grouped.items() for _ in range(count)], path)


def write_ballots(rows: Sequence[Sequence[int]], path: PathLike) -> None:
    """Write one ballot per row, in the given order, in the profile format."""
    if not rows:
        raise ValueError("a profile needs at least one ballot")
    lines = [f"{len(rows[0])} {len(rows)}"]
    lines.extend(" ".join(map(str, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_weight(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"weight {token!r} is not a fraction") from None


def read_weighted_profile(path: PathLike) -> WeightedProfile:
    lines = _data_lines(Path(path).read_text())
    if not lines:
        raise ValueError("empty profile file")
    m, n = _header(lines[0], "weighted profile")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} entries, found {len(lines) - 1}")
    entries = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != m + 1:
            raise ValueError(f"entry {line!r} must be a weight plus {m} alternatives")
        weight = _parse_weight(tokens[0])
        order = tuple(int(tok) for tok in tokens[1:])
        entries.append((Ranking(order), weight))
    return WeightedProfile(tuple(entries))


def write_weighted_profile(p: WeightedProfile, path: PathLike) -> None:
    lines = [f"{p.m} {len(p.entries)}"]
    for r, w in p.entries:
        lines.append(f"{w.numerator}/{w.denominator} " + " ".join(map(str, r.order)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_digraph(path: PathLike) -> Digraph:
    lines = _data_lines(Path(path).read_text())
    if not lines:
        raise ValueError("empty digraph file")
    m, e = _header(lines[0], "digraph")
    if len(lines) != e + 1:
        raise ValueError(f"expected {e} arcs, found {len(lines) - 1}")
    arcs = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"arc line {line!r} must be 'u v'")
        arcs.append((int(parts[0]), int(parts[1])))
    return Digraph.of(m, arcs)


def write_digraph(g: Digraph, path: PathLike) -> None:
    lines = [f"{g.m} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.arcs))
    Path(path).write_text("\n".join(lines) + "\n")


def read_x3c(path: PathLike) -> X3CInstance:
    lines = _data_lines(Path(path).read_text())
    if not lines:
        raise ValueError("empty instance file")
    q, s = _header(lines[0], "exact-cover instance")
    if len(lines) != s + 1:
        raise ValueError(f"expected {s} subsets, found {len(lines) - 1}")
    subsets = []
    for line in lines[1:]:
        elems = [int(tok) for tok in line.split()]
        if len(elems) != 3:
            raise ValueError(f"subset line {line!r} must list 3 elements")
        subsets.append(elems)
    return X3CInstance.of(q, subsets)


def write_x3c(inst: X3CInstance, path: PathLike) -> None:
    lines = [f"{inst.q} {inst.s}"]
    lines.extend(" ".join(map(str, sub)) for sub in inst.subsets)
    Path(path).write_text("\n".join(lines) + "\n")
