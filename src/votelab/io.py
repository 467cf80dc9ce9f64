"""Text formats for profiles, digraphs, and exact-cover instances.

All four formats are tables with the same rules. Blank lines are
skipped. The first line is a header of two integers, and the second
integer is the number of body lines:

* profile: ``m n`` then ``n`` lines of ``m`` space-separated indices,
  most-preferred first;
* weighted profile: same, with a leading ``numerator/denominator``
  weight token per line;
* digraph: ``m e`` then ``e`` lines ``u v`` for the arc ``u -> v``;
* exact-cover instance: ``q s`` then ``s`` lines of 3 element indices.

Readers raise ``ValueError`` on a malformed file (an empty file, a bad
header or a negative count in it, a wrong line count or line width, a
bad token, or a value the constructor rejects), which the CLI reports
with exit code 1. A profile is read as its distinct ballots with
counts, in order of first appearance, and writing it lists each
distinct ballot's copies together in ``grouped`` order, so a written
profile reads back with the same ``grouped`` items in the same order.
Agent order lives in a sampler's ``(n, m)`` arrays, not in a profile;
:func:`write_ballots` writes such rows line for line. The other formats
round-trip exactly.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence, Union

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


def _read_table(
    path: PathLike, file: str, header: str, rows: str, width: Callable[[int], int], bad_row: str
) -> tuple[int, list[list[str]]]:
    """The header's first integer and each body line's tokens.

    ``file``, ``header`` and ``rows`` name the format in the messages for
    an empty file, a bad header and a wrong line count. A body line
    without ``width(first)`` tokens raises ``bad_row``, formatted with
    the ``line`` and the header's ``first`` integer.
    """
    lines = [line.strip() for line in Path(path).read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"empty {file} file")
    try:
        first, count = map(int, lines[0].split())
    except ValueError:  # a token that is not an integer, or not two tokens
        raise ValueError(f"{header} header must be two integers, got {lines[0]!r}") from None
    if count < 0:
        raise ValueError(f"{header} header must give a non-negative count, got {lines[0]!r}")
    if len(lines) != count + 1:
        raise ValueError(f"expected {count} {rows}, found {len(lines) - 1}")
    body = [line.split() for line in lines[1:]]
    for line, tokens in zip(lines[1:], body):
        if len(tokens) != width(first):
            raise ValueError(bad_row.format(line=line, first=first))
    return first, body


def _write_table(path: PathLike, first: int, rows: Sequence[Sequence]) -> None:
    """Write the header ``first len(rows)``, then each row's tokens on one line."""
    lines = [f"{first} {len(rows)}", *(" ".join(map(str, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_profile(path: PathLike) -> Profile:
    _, rows = _read_table(
        path, "profile", "profile", "ballots", lambda m: m,
        "ballot {line!r} does not list {first} alternatives",
    )
    return Profile.of([int(tok) for tok in row] for row in rows)


def write_profile(p: Profile, path: PathLike) -> None:
    write_ballots([r.order for r, count in p.grouped.items() for _ in range(count)], path)


def write_ballots(rows: Sequence[Sequence[int]], path: PathLike) -> None:
    """Write one ballot per row, in the given order, in the profile format."""
    if not rows:
        raise ValueError("a profile needs at least one ballot")
    _write_table(path, len(rows[0]), rows)


def _parse_weight(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"weight {token!r} is not a fraction") from None


def read_weighted_profile(path: PathLike) -> WeightedProfile:
    _, rows = _read_table(
        path, "profile", "weighted profile", "entries", lambda m: m + 1,
        "entry {line!r} must be a weight plus {first} alternatives",
    )
    entries = [(_parse_weight(weight), tuple(int(tok) for tok in order)) for weight, *order in rows]
    return WeightedProfile(tuple((Ranking(order), weight) for weight, order in entries))


def write_weighted_profile(p: WeightedProfile, path: PathLike) -> None:
    _write_table(path, p.m, [(f"{w.numerator}/{w.denominator}", *r.order) for r, w in p.entries])


def read_digraph(path: PathLike) -> Digraph:
    m, rows = _read_table(
        path, "digraph", "digraph", "arcs", lambda m: 2, "arc line {line!r} must be 'u v'"
    )
    return Digraph.of(m, [(int(u), int(v)) for u, v in rows])


def write_digraph(g: Digraph, path: PathLike) -> None:
    _write_table(path, g.m, sorted(g.arcs))


def read_x3c(path: PathLike) -> X3CInstance:
    q, rows = _read_table(
        path, "instance", "exact-cover instance", "subsets", lambda q: 3,
        "subset line {line!r} must list 3 elements",
    )
    return X3CInstance.of(q, [[int(tok) for tok in row] for row in rows])


def write_x3c(inst: X3CInstance, path: PathLike) -> None:
    _write_table(path, inst.q, inst.subsets)
