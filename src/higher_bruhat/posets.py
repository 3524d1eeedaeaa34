"""Finite bounded posets: construction, proper parts, cores, order complexes.

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
- from_relation, like calling the class directly, takes relation rows
  from outside and validates them: reflexivity, antisymmetry against the
  transposed rows, transitivity and boundedness.  One OR of strict rows
  per row decides transitivity and yields the covers.

An induced subposet is the pair (p, live): a bounded poset p and a
bitset live of the indices of its elements that belong to the subposet.
The proper part and the beat-point core are such masks.  The functions
that read a subposet AND p's rows with live, so no row is copied or
renumbered, and chains and cores are given as indices into p.

Bit indices are read out of a row with one linear scan of its binary
string, not one full-width operation per bit.

A map between posets is its image table, one target index per source
element; check_monotone takes the source and target beside it.

Labels serve reports and error messages only.  from_covers can take
distinct keys and an injective renderer in their place; the poset then
renders its labels on their first read and keeps them, so a route that
prints no label renders none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .complexes import SimplicialComplex, make_complex
from .errors import NotAPosetError, NotBoundedError, ParameterError

__all__ = [
    "FiniteBoundedPoset",
    "from_covers",
    "from_relation",
    "proper_part",
    "beat_core",
    "order_complex",
    "check_monotone",
    "count_chains",
    "iter_chains",
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


def _columns(rows: Sequence[int], width: int) -> list[int]:
    """transpose(rows, width) by one stride scan, for narrow matrices.

    Each row is ORed with a sentinel bit 1 << width, so bin() spells it
    as "0b1" and then exactly width digits, with no format spec: joined
    last row first, the strings have a fixed stride of width + 3, and the
    characters at that stride from position width + 2 - j spell column j,
    last row first.  The joined string takes a byte per matrix entry, so
    this suits many rows of few columns, such as families over their
    members, and not a square relation.  Every row must fit in width bits.
    """
    if not rows:
        return [0] * width
    joined = "".join(map(bin, map((1 << width).__or__, reversed(rows))))
    stride = width + 3
    return [int(joined[stride - 1 - j::stride], 2) for j in range(width)]


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
    name: Callable[[int], object], up: Sequence[int], down: Sequence[int], bottom: int, top: int
) -> None:
    """Refuse bounds that are out of range or not bounds; name(i) labels element i."""
    n = len(up)
    if not 0 <= bottom < n or not 0 <= top < n:
        raise NotBoundedError("bottom/top index out of range")
    full = (1 << n) - 1
    if up[bottom] != full:
        raise NotBoundedError(f"{name(bottom)} is not below every element")
    if down[top] != full:
        raise NotBoundedError(f"{name(top)} is not above every element")


@dataclass(frozen=True)
class FiniteBoundedPoset:
    """A finite poset with a least and a greatest element.

    Calling the class validates the relation rows as from_relation does;
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
        _check_bounds(labels.__getitem__, up, down, self.bottom, self.top)
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "cover_pairs", cover_pairs)

    def __getattr__(self, name: str):
        # reached only while labels given as a renderer (see from_covers)
        # are unread; setdefault keeps the first rendering, so every read,
        # concurrent ones included, returns the same tuple
        if name == "labels" and "_render" in self.__dict__:
            render, keys = self.__dict__["_render"]
            return self.__dict__.setdefault("labels", tuple(map(render, keys)))
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __len__(self) -> int:
        return len(self.leq)

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction as (lower, upper) index pairs, ascending."""
        return self.cover_pairs


def from_relation(
    labels: Sequence[str],
    leq: Sequence[int],
    bottom: int | None = None,
    top: int | None = None,
) -> FiniteBoundedPoset:
    """Build and validate a bounded poset from relation rows.

    bottom and top are located automatically when not supplied.
    """
    labels = tuple(labels)
    leq = tuple(leq)
    n = len(labels)
    if len(leq) != n:
        raise ParameterError("labels and relation rows differ in length")
    full = (1 << n) - 1
    if bottom is None:
        bottoms = [i for i in range(n) if leq[i] == full]
        if not bottoms:
            raise NotBoundedError("no minimum element")
        bottom = bottoms[0]
    if top is None:
        above_all = full
        for row in leq:
            above_all &= row
        if not above_all:
            raise NotBoundedError("no maximum element")
        top = (above_all & -above_all).bit_length() - 1
    return FiniteBoundedPoset(labels, leq, bottom, top)


def _cover_links(
    n: int, name: Callable[[int], object], cover_pairs: Iterable[tuple[int, int]]
) -> tuple[list[list[int]], list[list[int]]]:
    """Upper and lower neighbours of each of n elements in the cover digraph."""
    above: list[list[int]] = [[] for _ in range(n)]
    below: list[list[int]] = [[] for _ in range(n)]
    for a, b in cover_pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ParameterError(f"cover pair ({a}, {b}) out of range")
        if a == b:
            raise NotAPosetError(f"self-loop at {name(a)}")
        above[a].append(b)
        below[b].append(a)
    return above, below


def _topological_order(
    name: Callable[[int], object], above: list[list[int]], below: list[list[int]]
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
        raise NotAPosetError(f"covers contain a cycle at or below {name(stuck)}")
    return order, rank


def _close(links: list[list[int]], order: Iterable[int]) -> tuple[int, ...]:
    """row[i] = 1<<i | OR(row[j] for j in links[i]), every j closed before i."""
    rows = [0] * len(links)
    for i in order:
        rows[i] = reduce(or_, map(rows.__getitem__, links[i]), 1 << i)
    return tuple(rows)


def from_covers(
    labels: Sequence[object],
    cover_pairs: Iterable[tuple[int, int]],
    bottom: int,
    top: int,
    render: Callable[[object], str] | None = None,
) -> FiniteBoundedPoset:
    """Build a bounded poset as the reflexive-transitive closure of covers.

    The result is certified by construction (see the module docstring).
    Every cover of the closure is one of the pairs, so the pairs whose
    interval holds nothing else are exactly its covers.  A pair (a, b)
    with rank(b) = rank(a) + 1 is one of them untested; every other pair
    is tested by one AND and popcount of up[a] and down[b].

    Without render, labels are the elements' labels, which must be unique
    strings.  With render, labels are distinct keys and element i is
    labelled render(labels[i]): the poset renders its labels on their
    first read and keeps them.  The caller vouches that render is
    injective on the keys, which stands in for the uniqueness check.
    """
    keys = tuple(labels)
    n = len(keys)
    name = keys.__getitem__ if render is None else lambda i: render(keys[i])
    above, below = _cover_links(n, name, cover_pairs)
    if render is None and len(set(keys)) != n:
        raise ParameterError("labels must be unique")
    order, rank = _topological_order(name, above, below)
    up = _close(above, reversed(order))
    down = _close(below, order)
    _check_bounds(name, up, down, bottom, top)
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
    p.__dict__.update(leq=up, bottom=bottom, top=top, down=down, cover_pairs=tuple(covers))
    if render is None:
        p.__dict__["labels"] = keys
    else:
        p.__dict__["_render"] = (render, keys)
    return p


def proper_part(p: FiniteBoundedPoset) -> int:
    """The mask of p's elements other than its bounds.

    A one-element poset has an empty proper part.
    """
    return ((1 << len(p)) - 1) & ~(1 << p.bottom | 1 << p.top)


def beat_core(p: FiniteBoundedPoset, live: int) -> int:
    """Delete beat points of the subposet live until none is left (Stong, 1966).

    A beat point is a point whose strict down-set has a maximum or whose
    strict up-set has a minimum.  Deleting one keeps the homotopy type of
    the order complex, so the core has the same homology as live.  The
    result is the mask of the surviving points.

    p's index order must be a linear extension (a < b on every cover), as
    it is for every poset that to_poset builds; ParameterError otherwise.
    Then an element's index exceeds that of every element below it, so
    the only candidate maximum of a strict down-set is its highest bit,
    and the only candidate minimum of a strict up-set is its lowest bit:
    one row test each.
    """
    if any(a > b for a, b in p.cover_pairs):
        raise ParameterError("beat_core needs an index order that is a linear extension")
    up, down = p.leq, p.down
    changed = True
    while changed:
        changed = False
        for i in _bits(live):
            bit = 1 << i
            if not live & bit:
                continue
            below = down[i] & live ^ bit
            above = up[i] & live ^ bit
            if (below and not below & ~down[below.bit_length() - 1]) or (
                above and not above & ~up[(above & -above).bit_length() - 1]
            ):
                live ^= bit
                changed = True
    return live


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


def iter_chains(p: FiniteBoundedPoset, live: int) -> Iterator[tuple[int, ...]]:
    """All non-empty chains of live, each listed in increasing poset order."""
    members = _bits(live)
    strict_up = {i: _bits(p.leq[i] & live & ~(1 << i)) for i in members}

    def extend(chain: tuple[int, ...]):
        yield chain
        for j in strict_up[chain[-1]]:
            yield from extend(chain + (j,))

    for start in members:
        yield from extend((start,))


def _bottom_up(p: FiniteBoundedPoset, live: int) -> list[int]:
    # an element's down-set is a proper superset of the down-set of every
    # element below it, so sorting by size is a linear extension
    return sorted(_bits(live), key=lambda i: p.down[i].bit_count())


def count_chains(p: FiniteBoundedPoset, live: int) -> int:
    """Number of non-empty chains of live, without enumerating them.

    The chains ending at i are i alone or i on top of a chain ending
    strictly below i, so their number e_i is 1 plus the sum of e_j over
    the members j of live below i.  The counts are held as bit planes:
    plane t is the mask of the members counted so far whose e_j has bit t
    set, so the sum is the sum over t of popcount(plane_t & down[i]) << t,
    one AND and one popcount per plane.  The planes hold only members
    that come before i in a linear extension, so down[i] needs no mask.
    """
    down = p.down
    planes: list[int] = []
    total = 0
    for i in _bottom_up(p, live):
        e = 1
        for t, count in enumerate(map(int.bit_count, map(down[i].__and__, planes))):
            e += count << t
        total += e
        bit = 1 << i
        planes.extend(repeat(0, e.bit_length() - len(planes)))
        for t in _bits(e):
            planes[t] |= bit
    return total


def order_complex(p: FiniteBoundedPoset, live: int) -> SimplicialComplex:
    """The simplicial complex whose simplices are the chains of live.

    Vertex v is the v-th member of live in index order.
    """
    position = {i: v for v, i in enumerate(_bits(live))}
    chains = iter_chains(p, live)
    return make_complex(len(position), (tuple(map(position.__getitem__, c)) for c in chains))
