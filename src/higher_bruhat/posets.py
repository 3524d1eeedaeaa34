"""Finite bounded posets: construction, proper parts, cores, order complexes.

The order relation is stored as a tuple of row bitsets: bit j of leq[i] is
set iff element i <= element j.  Partial-order axioms and boundedness are
verified whenever a poset is built, so a FiniteBoundedPoset in hand is
always certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Iterator, Sequence, Union

from .complexes import SimplicialComplex, make_complex
from .errors import NotAPosetError, NotBoundedError, ParameterError

__all__ = [
    "FiniteBoundedPoset",
    "ProperPart",
    "MonotoneMap",
    "PosetLike",
    "from_covers",
    "from_relation",
    "proper_part",
    "beat_core",
    "product_with_two_chain",
    "order_complex",
    "check_monotone",
    "count_chains",
    "chain_f_vector",
    "iter_chains",
    "transpose",
]


def transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """Column bitsets of a bit matrix: bit i of entry j is bit j of rows[i]."""
    cols = [0] * width
    for i, row in enumerate(rows):
        m = row
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= 1 << i
            m ^= low
    return tuple(cols)


@dataclass(frozen=True)
class FiniteBoundedPoset:
    labels: tuple[str, ...]
    leq: tuple[int, ...]
    bottom: int
    top: int

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.leq) != n:
            raise ParameterError("labels and relation rows differ in length")
        if len(set(self.labels)) != n:
            raise ParameterError("labels must be unique")
        full = (1 << n) - 1
        for i, row in enumerate(self.leq):
            if row & ~full:
                raise ParameterError(f"row {i} references elements out of range")
            if not row >> i & 1:
                raise NotAPosetError(f"relation is not reflexive at {self.labels[i]}")
        for i, (row, col) in enumerate(zip(self.leq, transpose(self.leq, n))):
            both = row & col & ~(1 << i)
            if both:
                j = (both & -both).bit_length() - 1
                raise NotAPosetError(
                    f"relation is not antisymmetric on "
                    f"{self.labels[i]}, {self.labels[j]}"
                )
        for i in range(n):
            row = self.leq[i]
            m = row
            while m:
                low = m & -m
                j = low.bit_length() - 1
                if self.leq[j] & ~row:
                    raise NotAPosetError(
                        f"relation is not transitive through {self.labels[j]}"
                    )
                m ^= low
        if not 0 <= self.bottom < n or not 0 <= self.top < n:
            raise NotBoundedError("bottom/top index out of range")
        if self.leq[self.bottom] != full:
            raise NotBoundedError(f"{self.labels[self.bottom]} is not below every element")
        for i in range(n):
            if not self.leq[i] >> self.top & 1:
                raise NotBoundedError(f"{self.labels[self.top]} is not above every element")

    def __len__(self) -> int:
        return len(self.labels)

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)

    def down_sets(self) -> tuple[int, ...]:
        """Column bitsets: bit i of entry j is set iff i <= j."""
        return transpose(self.leq, len(self.labels))

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction as (lower, upper) index pairs, ascending."""
        down = self.down_sets()
        out = []
        for i in range(len(self.labels)):
            strict_up = self.leq[i] & ~(1 << i)
            m = strict_up
            while m:
                low = m & -m
                j = low.bit_length() - 1
                between = strict_up & down[j] & ~low
                if not between:
                    out.append((i, j))
                m ^= low
        return tuple(out)


@dataclass(frozen=True)
class ProperPart:
    """An induced subposet of a bounded poset: its proper part, or a core of it.

    Element i is parent element parent_index[i], and leq is the restriction
    of the parent's relation to those elements.
    """

    parent: FiniteBoundedPoset
    parent_index: tuple[int, ...]
    labels: tuple[str, ...]
    leq: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.labels)

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)


PosetLike = Union[FiniteBoundedPoset, ProperPart]


@dataclass(frozen=True)
class MonotoneMap:
    """A map between posets given by per-element target indices."""

    source: PosetLike
    target: PosetLike
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.images) != len(self.source.labels):
            raise ParameterError("image table does not cover the source")
        n_target = len(self.target.labels)
        for i, img in enumerate(self.images):
            if not 0 <= img < n_target:
                raise ParameterError(f"image of {self.source.labels[i]} is out of range")

    def __call__(self, i: int) -> int:
        return self.images[i]


def from_relation(
    labels: Sequence[str],
    leq: Sequence[int],
    bottom: int | None = None,
    top: int | None = None,
) -> FiniteBoundedPoset:
    """Build and verify a bounded poset from relation rows.

    bottom and top are located automatically when not supplied.
    """
    labels = tuple(labels)
    leq = tuple(leq)
    n = len(labels)
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


def from_covers(
    labels: Sequence[str],
    cover_pairs: Iterable[tuple[int, int]],
    bottom: int,
    top: int,
) -> FiniteBoundedPoset:
    """Build a bounded poset as the reflexive-transitive closure of covers."""
    labels = tuple(labels)
    n = len(labels)
    adj = [0] * n
    for a, b in cover_pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ParameterError(f"cover pair ({a}, {b}) out of range")
        if a == b:
            raise NotAPosetError(f"self-loop at {labels[a]}")
        adj[a] |= 1 << b
    rows = [1 << i | adj[i] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = rows[i]
            m = adj[i]
            while m:
                low = m & -m
                acc |= rows[low.bit_length() - 1]
                m ^= low
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    # a cycle of covers makes the closure fail the antisymmetry check
    return FiniteBoundedPoset(labels, tuple(rows), bottom, top)


def proper_part(p: FiniteBoundedPoset) -> ProperPart:
    """Drop bottom and top; a one-element poset has an empty proper part."""
    bounds = sorted({p.bottom, p.top}, reverse=True)
    keep = [i for i in range(len(p.labels)) if i not in bounds]
    rows = []
    for i in keep:
        row = p.leq[i]
        # delete bit t by shifting the bits above it down one place,
        # the higher bound first so the lower one keeps its position
        for t in bounds:
            row = (row & ((1 << t) - 1)) | ((row >> (t + 1)) << t)
        rows.append(row)
    return ProperPart(
        parent=p,
        parent_index=tuple(keep),
        labels=tuple(p.labels[i] for i in keep),
        leq=tuple(rows),
    )


def beat_core(p: PosetLike) -> ProperPart:
    """Delete beat points until none is left (Stong, 1966).

    A beat point is a point whose strict down-set has a maximum or whose
    strict up-set has a minimum.  Deleting one keeps the homotopy type of
    the order complex, so the core has the same homology as p.  The result
    indexes into the bounded poset that p is (or is an induced subposet of).
    """
    n = len(p.labels)
    up = p.leq
    down = transpose(up, n)
    live = (1 << n) - 1

    def has_extremum(strict: int, rows: Sequence[int]) -> bool:
        # the extremum m of `strict` is the member whose closed row holds it all
        m = strict
        while m:
            low = m & -m
            if not strict & ~rows[low.bit_length() - 1]:
                return True
            m ^= low
        return False

    changed = True
    while changed:
        changed = False
        for i in range(n):
            bit = 1 << i
            if live & bit and (
                has_extremum(down[i] & live & ~bit, down)
                or has_extremum(up[i] & live & ~bit, up)
            ):
                live &= ~bit
                changed = True
    keep = [i for i in range(n) if live >> i & 1]
    rows = tuple(
        sum(1 << pos for pos, j in enumerate(keep) if up[i] >> j & 1) for i in keep
    )
    if isinstance(p, ProperPart):
        parent, parent_index = p.parent, tuple(p.parent_index[i] for i in keep)
    else:
        parent, parent_index = p, tuple(keep)
    return ProperPart(
        parent=parent,
        parent_index=parent_index,
        labels=tuple(p.labels[i] for i in keep),
        leq=rows,
    )


def product_with_two_chain(q: FiniteBoundedPoset) -> FiniteBoundedPoset:
    """The poset q x {0,1} with componentwise order.

    Element (a, s) has index a + s * len(q); (a, s) <= (b, t) iff a <= b
    in q and s <= t.
    """
    n = len(q.labels)
    labels = [f"({lbl},0)" for lbl in q.labels] + [f"({lbl},1)" for lbl in q.labels]
    rows = []
    for a in range(n):
        rows.append(q.leq[a] | q.leq[a] << n)
    for a in range(n):
        rows.append(q.leq[a] << n)
    return FiniteBoundedPoset(tuple(labels), tuple(rows), q.bottom, q.top + n)


def check_monotone(m: MonotoneMap) -> tuple[bool, list[tuple[int, int]]]:
    """Exhaustively verify order preservation; returns (ok, violating pairs)."""
    violations = []
    n = len(m.source.labels)
    for i in range(n):
        row = m.source.leq[i]
        mm = row
        while mm:
            low = mm & -mm
            j = low.bit_length() - 1
            if not m.target.leq[m.images[i]] >> m.images[j] & 1:
                violations.append((i, j))
            mm ^= low
    return not violations, violations


def iter_chains(p: PosetLike) -> Iterator[tuple[int, ...]]:
    """All non-empty chains, each listed in increasing poset order."""
    n = len(p.labels)
    strict_up = [p.leq[i] & ~(1 << i) for i in range(n)]

    def extend(chain: tuple[int, ...]):
        yield chain
        m = strict_up[chain[-1]]
        while m:
            low = m & -m
            yield from extend(chain + (low.bit_length() - 1,))
            m ^= low

    for start in range(n):
        yield from extend((start,))


def count_chains(p: PosetLike) -> int:
    """Number of non-empty chains, without enumerating them."""
    n = len(p.labels)
    # strict down-set of each element, as a column bitset
    below = [col & ~(1 << j) for j, col in enumerate(transpose(p.leq, n))]
    ending = [0] * n
    # j < i makes below[j] a proper subset of below[i], so sorting by size
    # visits every element after all elements below it
    for i in sorted(range(n), key=lambda i: below[i].bit_count()):
        # chains ending at i extend chains ending strictly below i
        total = 1
        m = below[i]
        while m:
            low = m & -m
            total += ending[low.bit_length() - 1]
            m ^= low
        ending[i] = total
    return sum(ending)


def chain_f_vector(p: PosetLike) -> tuple[int, ...]:
    """Non-empty chains counted by size, without enumerating them.

    Entry d counts the chains of d + 1 elements, so this is the f-vector of
    the order complex.  It runs the down-set recursion of count_chains with
    one count per chain size.
    """
    n = len(p.labels)
    below = [col & ~(1 << j) for j, col in enumerate(transpose(p.leq, n))]
    ending: list[list[int]] = [[] for _ in range(n)]
    for i in sorted(range(n), key=lambda i: below[i].bit_count()):
        lower = []
        m = below[i]
        while m:
            low = m & -m
            lower.append(ending[low.bit_length() - 1])
            m ^= low
        # a chain ending at i is i alone or i on top of a chain ending below i
        ending[i] = [1, *map(sum, zip_longest(*lower, fillvalue=0))]
    return tuple(map(sum, zip_longest(*ending, fillvalue=0)))


def order_complex(p: PosetLike) -> SimplicialComplex:
    """The simplicial complex whose simplices are the chains of p."""
    faces_by_dim: list[list[tuple[int, ...]]] = []
    for chain in iter_chains(p):
        d = len(chain) - 1
        while len(faces_by_dim) <= d:
            faces_by_dim.append([])
        faces_by_dim[d].append(tuple(sorted(chain)))
    return make_complex(len(p.labels), faces_by_dim)
