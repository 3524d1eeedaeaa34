"""Finite bounded posets: construction, validation, monotone maps.

The order relation is stored as row bitsets in both directions: bit j of
leq[i] (the up row of i) is set iff element i <= element j, and bit i of
down[j] (the down row of j) is set iff i <= j.  Next to its rows a poset
keeps its covers, ascending, as cover_pairs.

A FiniteBoundedPoset in hand is always certified, by one of two routes:

- from_covers certifies by construction.  A Kahn sort puts the cover
  digraph in topological order, and a cycle raises NotAPosetError.  Up
  rows are closed in reverse topological order and down rows in
  topological order.  Acyclicity gives antisymmetry, the closure gives
  reflexivity and transitivity, and boundedness is one row comparison per
  bound.  Input pairs whose interval holds a third element are dropped,
  so cover_pairs holds exactly the covers; a pair that joins consecutive
  ranks of the sort is a cover without a row test.
- Calling the class directly takes relation rows and their bounds from
  outside and validates them: reflexivity, antisymmetry against the
  transposed rows, transitivity and boundedness.  One OR of strict rows
  per row decides transitivity and yields the covers.

Bit indices are read out of a row with one linear scan of its binary
string, not one full-width operation per bit.

A map between posets is its image table, one target index per source
element; check_monotone takes the source and target beside it.

Labels serve reports and error messages only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import or_
from typing import Iterable, Sequence

from .errors import NotAPosetError, NotBoundedError, ParameterError

__all__ = [
    "FiniteBoundedPoset",
    "from_covers",
    "check_monotone",
    "transpose",
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


def transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """Column bitsets of a bit matrix: bit i of entry j is bit j of rows[i]."""
    cols = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in _bits(row):
            cols[j] |= bit
    return tuple(cols)


# Rows per block of _columns, a multiple of 8.  A row's string takes about
# 50 bytes more than its width, so a block's text stays within a few MB.
_BLOCK = 1 << 15


def _columns(rows: Sequence[int], width: int) -> list[int]:
    """transpose(rows, width) by stride scans, for narrow matrices.

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


def _hasse(labels: Sequence[str], up: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Covers of a reflexive, antisymmetric relation given by its up rows,
    ascending; NotAPosetError if the relation is not transitive.

    beyond is the union of the strict up-sets of the elements strictly
    above i.  The relation is transitive iff every strict up-set holds its
    beyond, and then the covers of i are its strict up-set minus beyond.
    """
    strict = [row & ~(1 << i) for i, row in enumerate(up)]
    out: list[tuple[int, int]] = []
    for i, row in enumerate(strict):
        members = _bits(row)
        beyond = reduce(or_, map(strict.__getitem__, members), 0)
        if beyond & ~row:
            j = next(j for j in members if strict[j] & ~row)
            raise NotAPosetError(f"relation is not transitive through {labels[j]}")
        out.extend(zip(repeat(i), _bits(row & ~beyond)))
    return tuple(out)


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


@dataclass(frozen=True)
class FiniteBoundedPoset:
    """A finite poset with a least and a greatest element.

    Calling the class validates the relation rows and the bounds;
    from_covers builds a poset certified by construction.
    """

    labels: tuple[str, ...]
    leq: tuple[int, ...]
    bottom: int
    top: int
    down: tuple[int, ...] = field(init=False, repr=False, compare=False)
    cover_pairs: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels, up = self.labels, self.leq
        n = len(labels)
        if len(up) != n:
            raise ParameterError("labels and relation rows differ in length")
        if len(set(labels)) != n:
            raise ParameterError("labels must be unique")
        full = (1 << n) - 1
        for i, row in enumerate(up):
            if row & ~full:
                raise ParameterError(f"row {i} references elements out of range")
            if not row >> i & 1:
                raise NotAPosetError(f"relation is not reflexive at {labels[i]}")
        down = transpose(up, n)
        for i, (row, col) in enumerate(zip(up, down)):
            both = row & col & ~(1 << i)
            if both:
                j = (both & -both).bit_length() - 1
                raise NotAPosetError(
                    f"relation is not antisymmetric on {labels[i]}, {labels[j]}"
                )
        cover_pairs = _hasse(labels, up)
        _check_bounds(labels, up, down, self.bottom, self.top)
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "cover_pairs", cover_pairs)

    def __len__(self) -> int:
        return len(self.leq)

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction as (lower, upper) index pairs, ascending."""
        return self.cover_pairs


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


def from_covers(
    labels: Sequence[str],
    cover_pairs: Iterable[tuple[int, int]],
    bottom: int,
    top: int,
) -> FiniteBoundedPoset:
    """Build a bounded poset as the reflexive-transitive closure of covers.

    The result is certified by construction (see the module docstring).
    Every cover of the closure is one of the pairs, so the pairs whose
    interval holds nothing else are exactly its covers.  A pair (a, b)
    with rank(b) = rank(a) + 1 is one of them untested; every other pair
    is tested by one AND and popcount of up[a] and down[b].
    """
    labels = tuple(labels)
    above, below = _cover_links(labels, cover_pairs)
    if len(set(labels)) != len(labels):
        raise ParameterError("labels must be unique")
    order, rank = _topological_order(labels, above, below)
    up = _close(above, reversed(order))
    down = _close(below, order)
    _check_bounds(labels, up, down, bottom, top)
    covers: list[tuple[int, int]] = []
    for a, uppers in enumerate(above):
        # an element between a and b would put b two ranks above a
        next_rank = rank[a] + 1
        covers.extend(
            (a, b) for b in sorted(set(uppers))
            if rank[b] == next_rank or (up[a] & down[b]).bit_count() == 2
        )
    p = object.__new__(FiniteBoundedPoset)
    # the axioms are proved above, so the pair-by-pair validation is skipped
    p.__dict__.update(
        labels=labels, leq=up, bottom=bottom, top=top, down=down, cover_pairs=tuple(covers)
    )
    return p


def check_monotone(
    source: FiniteBoundedPoset, target: FiniteBoundedPoset, images: Sequence[int]
) -> tuple[bool, list[tuple[int, int]]]:
    """Exhaustively verify that the map x -> images[x] from source to target
    preserves order; returns (ok, violating pairs).

    A map into a transitive relation preserves every comparable pair iff it
    preserves the covers, so the source's covers decide.  Only when one
    fails are all comparable pairs walked, to list the violations.
    """
    up = target.leq
    if all(up[images[a]] >> images[b] & 1 for a, b in source.cover_pairs):
        return True, []
    violations = []
    for i, row in enumerate(source.leq):
        reach = up[images[i]]
        violations.extend((i, j) for j in _bits(row) if not reach >> images[j] & 1)
    return not violations, violations
