"""Finite bounded posets: construction from covers, monotone maps.

The order relation is stored as row bitsets in both directions: bit j of
leq[i] (the up row of i) is set iff element i <= element j, and bit i of
down[j] (the down row of j) is set iff i <= j.  Next to its rows a poset
keeps its covers, ascending, as cover_pairs.

A FiniteBoundedPoset is built from its covers and certified by
construction.  A Kahn sort puts the cover digraph in topological order,
and a cycle raises NotAPosetError.  Up rows are closed in reverse
topological order and down rows in topological order.  Acyclicity gives
antisymmetry, the closure gives reflexivity and transitivity, and
boundedness is one row comparison per bound.  Input pairs whose interval
holds a third element are dropped, so cover_pairs holds exactly the
covers; a pair that joins consecutive ranks of the sort is a cover
without a row test.

Bit indices are read out of a row with one linear scan of its binary
string, not one full-width operation per bit.

A map between posets is its image table, one target index per source
element; check_monotone takes the source and target beside it.

Labels serve reports and error messages only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .errors import NotAPosetError, NotBoundedError, ParameterError

__all__ = [
    "FiniteBoundedPoset",
    "check_monotone",
]


def _bits(m: int) -> list[int]:
    """Indices of the set bits of m, ascending, from one scan of bin(m)."""
    s = bin(m)[:1:-1]
    out = []
    i = s.find("1")
    while i >= 0:
        out.append(i)
        i = s.find("1", i + 1)
    return out


# Rows per block of _columns, a multiple of 8.  A row's string takes about
# 50 bytes more than its width, so a block's text stays within a few MB.
_BLOCK = 1 << 15


def _columns(rows: Sequence[int], width: int) -> list[int]:
    """Column bitsets of a bit matrix by stride scans, for narrow matrices.

    Bit i of column j is bit j of rows[i].

    Each row is ORed with a sentinel bit 1 << width, so bin() spells it
    as "0b1" and then exactly width digits, with no format spec: joined
    last row first, the strings have a fixed stride of width + 3, and the
    characters at that stride from position width + 2 - j spell column j,
    last row first.  The joined text takes a byte per matrix entry, and
    each row's string on its way some 50 more, so this suits many rows of
    few columns, such as families over their members, and not a square
    relation.  The rows are scanned in blocks of _BLOCK, so only one
    block's text is held: each block's columns are written as
    little-endian bytes, and a column's bytes are joined over the blocks.
    Every block but the last has a multiple of 8 rows, so its bytes end
    where the next block's rows begin.  Every row must fit in width bits.
    """
    if not rows:
        return [0] * width
    stride = width + 3
    blocks = []
    for start in range(0, len(rows), _BLOCK):
        block = rows[start:start + _BLOCK]
        joined = "".join(map(bin, map((1 << width).__or__, reversed(block))))
        size = (len(block) + 7) // 8
        # column j starts at position stride - 1 - j
        blocks.append([int(joined[at::stride], 2).to_bytes(size, "little")
                       for at in range(stride - 1, 2, -1)])
    return [int.from_bytes(b"".join(column), "little") for column in zip(*blocks)]


def _check_bounds(
    labels: Sequence[str], up: Sequence[int], down: Sequence[int], bottom: int, top: int
) -> None:
    """Refuse bounds that are out of range or not bounds."""
    n = len(up)
    if not 0 <= bottom < n or not 0 <= top < n:
        raise NotBoundedError("bottom/top index out of range")
    full = (1 << n) - 1
    if up[bottom] != full:
        raise NotBoundedError(f"{labels[bottom]} is not below every element")
    if down[top] != full:
        raise NotBoundedError(f"{labels[top]} is not above every element")


def _cover_links(
    labels: Sequence[str], cover_pairs: Iterable[tuple[int, int]]
) -> tuple[list[list[int]], list[list[int]]]:
    """Upper and lower neighbours of each element in the cover digraph."""
    n = len(labels)
    above: list[list[int]] = [[] for _ in range(n)]
    below: list[list[int]] = [[] for _ in range(n)]
    for a, b in cover_pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ParameterError(f"cover pair ({a}, {b}) out of range")
        if a == b:
            raise NotAPosetError(f"self-loop at {labels[a]}")
        above[a].append(b)
        below[b].append(a)
    return above, below


def _topological_order(
    labels: Sequence[str], above: list[list[int]], below: list[list[int]]
) -> tuple[list[int], list[int]]:
    """A Kahn sort of the cover digraph and each element's rank.

    The rank of an element is the length of the longest path up to it.  The
    sort lists the elements by rank, lowest first, so the predecessor that
    frees an element last has the highest rank among its predecessors.  A
    cycle raises NotAPosetError.
    """
    indegree = [len(preds) for preds in below]
    order = [i for i, d in enumerate(indegree) if not d]
    rank = [0] * len(above)
    for i in order:
        for j in above[i]:
            indegree[j] -= 1
            if not indegree[j]:
                rank[j] = rank[i] + 1
                order.append(j)
    if len(order) < len(above):
        stuck = next(i for i, d in enumerate(indegree) if d)
        raise NotAPosetError(f"covers contain a cycle at or below {labels[stuck]}")
    return order, rank


def _close(links: list[list[int]], order: Iterable[int]) -> tuple[int, ...]:
    """row[i] = 1<<i | OR(row[j] for j in links[i]), every j closed before i."""
    rows = [0] * len(links)
    for i in order:
        rows[i] = reduce(or_, map(rows.__getitem__, links[i]), 1 << i)
    return tuple(rows)


@dataclass(frozen=True)
class FiniteBoundedPoset:
    """A finite poset with a least and a greatest element, built from covers.

    The relation is the reflexive-transitive closure of cover_pairs,
    certified by construction (see the module docstring).  Every cover of
    the closure is one of the pairs, so the pairs whose interval holds
    nothing else are exactly its covers, and cover_pairs keeps those,
    ascending.  A pair (a, b) with rank(b) = rank(a) + 1 is one of them
    untested; every other pair is tested by one AND and popcount of up[a]
    and down[b].
    """

    labels: tuple[str, ...]
    cover_pairs: tuple[tuple[int, int], ...] = field(repr=False, compare=False)
    bottom: int
    top: int
    leq: tuple[int, ...] = field(init=False)
    down: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        above, below = _cover_links(labels, self.cover_pairs)
        if len(set(labels)) != len(labels):
            raise ParameterError("labels must be unique")
        order, rank = _topological_order(labels, above, below)
        up = _close(above, reversed(order))
        down = _close(below, order)
        _check_bounds(labels, up, down, self.bottom, self.top)
        covers: list[tuple[int, int]] = []
        for a, uppers in enumerate(above):
            # an element between a and b would put b two ranks above a
            next_rank = rank[a] + 1
            covers.extend(
                (a, b) for b in sorted(set(uppers))
                if rank[b] == next_rank or (up[a] & down[b]).bit_count() == 2
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "cover_pairs", tuple(covers))
        object.__setattr__(self, "leq", up)
        object.__setattr__(self, "down", down)

    def __len__(self) -> int:
        return len(self.leq)

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction as (lower, upper) index pairs, ascending."""
        return self.cover_pairs


def check_monotone(
    source: FiniteBoundedPoset, target: FiniteBoundedPoset, images: Sequence[int]
) -> tuple[int, int] | None:
    """Exhaustively verify that the map x -> images[x] from source to target
    preserves order; returns None, or the first violating pair (i, j) in
    row order.

    A map into a transitive relation preserves every comparable pair iff it
    preserves the covers, so the source's covers decide.  Only when one
    fails are the comparable pairs walked, to the first violation.
    """
    up = target.leq
    if all(up[images[a]] >> images[b] & 1 for a, b in source.cover_pairs):
        return None
    return next(
        (i, j) for i, row in enumerate(source.leq)
        for j in _bits(row) if not up[images[i]] >> images[j] & 1
    )
