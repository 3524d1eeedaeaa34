"""Ground-level combinatorics: r-subsets of [n], packets, and consistency.

Ground-set elements are 1-based throughout.  The canonical index of a
subset is its colexicographic rank, which does not depend on the size of
the ground set: a subset of [n-1] keeps its rank when the ground set grows
to [n].  All member families are stored as bitsets indexed by that rank.

A list of families can also be held as member columns, one bitset per
member with bit f set iff family f holds it; the segment kernel checks
every family of such a list against a packet with a few whole-column ANDs.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import InconsistentSetError, ParameterError
from .posets import _bits

__all__ = [
    "GroundParams",
    "KSubset",
    "Packet",
    "ConsistentSet",
    "colex_rank",
    "subset_of_rank",
    "enumerate_subsets",
    "packet_of",
    "is_consistent",
    "violating_packets",
]


def colex_rank(elements: tuple[int, ...]) -> int:
    """Colexicographic rank of a strictly increasing 1-based tuple."""
    return sum(comb(e - 1, i + 1) for i, e in enumerate(elements))


def subset_of_rank(rank: int, size: int) -> tuple[int, ...]:
    """Inverse of colex_rank for subsets of the given size."""
    if rank < 0 or size < 0:
        raise ParameterError(f"rank and size must be non-negative, got {rank}, {size}")
    out = []
    rem = rank
    for i in range(size, 0, -1):
        v = i
        while comb(v, i) <= rem:
            v += 1
        out.append(v)
        rem -= comb(v - 1, i)
    if rem:
        raise ParameterError(f"rank {rank} is not reachable at size {size}")
    return tuple(reversed(out))


@dataclass(frozen=True)
class KSubset:
    """A sorted r-element subset of [n], 1-based."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        e = self.elements
        if not isinstance(e, tuple):
            raise ParameterError(f"elements must be a tuple, got {type(e).__name__}")
        if e and e[0] < 1:
            raise ParameterError(f"elements must be >= 1, got {e!r}")
        if any(a >= b for a, b in zip(e, e[1:])):
            raise ParameterError(f"elements must be strictly increasing, got {e!r}")

    @classmethod
    def of(cls, elements) -> "KSubset":
        return cls(tuple(sorted(set(elements))))

    @property
    def rank(self) -> int:
        return colex_rank(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements) + "}"


@dataclass(frozen=True)
class GroundParams:
    """Ground-set size n and level k; members of interest are (k+1)-subsets."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"n must be positive, got {self.n}")
        if not 0 <= self.k <= self.n - 1:
            raise ParameterError(f"k must satisfy 0 <= k <= n-1, got k={self.k}, n={self.n}")

    @property
    def member_size(self) -> int:
        return self.k + 1

    @property
    def num_members(self) -> int:
        """Number of (k+1)-subsets of [n]; the width of all bitsets."""
        return comb(self.n, self.k + 1)

    @property
    def full_bits(self) -> int:
        return (1 << self.num_members) - 1


@dataclass(frozen=True)
class Packet:
    """All (k+1)-subsets of a fixed (k+2)-subset, in lexicographic order."""

    base: KSubset
    members: tuple[KSubset, ...]


def enumerate_subsets(n: int, r: int) -> list[KSubset]:
    """All r-subsets of [n] in colexicographic order (index = colex rank)."""
    if n < 0 or r < 0 or r > n:
        raise ParameterError(f"need 0 <= r <= n, got n={n}, r={r}")
    combos = sorted(itertools.combinations(range(1, n + 1), r), key=lambda t: t[::-1])
    return [KSubset(t) for t in combos]


def packet_of(base: KSubset, params: GroundParams | None = None) -> Packet:
    """The packet of a (k+2)-subset: its (k+1)-subsets in lex order.

    Deleting a larger element of the base yields a lexicographically
    smaller member, so members[0] = base minus its maximum and
    members[-1] = base minus its minimum.
    """
    if len(base) < 2:
        raise ParameterError(f"packet base needs at least 2 elements, got {base}")
    if params is not None and len(base) != params.k + 2:
        raise ParameterError(
            f"packet base must have k+2={params.k + 2} elements, got {len(base)}"
        )
    members = sorted(itertools.combinations(base.elements, len(base) - 1))
    return Packet(base, tuple(KSubset(m) for m in members))


@dataclass(frozen=True)
class _PacketCheck:
    """One packet compiled to bit level: mask plus every legal intersection."""

    base: tuple[int, ...]
    members: tuple[int, ...]
    mask: int
    segments: frozenset[int]


@lru_cache(maxsize=None)
def _packet_checks(n: int, k: int) -> tuple[_PacketCheck, ...]:
    """Every packet of B(n,k), its members as colex ranks in lex order."""
    checks = []
    for base in itertools.combinations(range(1, n + 1), k + 2):
        members = tuple(colex_rank(m) for m in sorted(itertools.combinations(base, k + 1)))
        bits = [1 << x for x in members]
        mask = 0
        for b in bits:
            mask |= b
        segments = {0, mask}
        acc = 0
        for b in bits[:-1]:
            acc |= b
            segments.add(acc)
        acc = 0
        for b in reversed(bits[1:]):
            acc |= b
            segments.add(acc)
        checks.append(_PacketCheck(base, members, mask, frozenset(segments)))
    return tuple(checks)


def _segment_columns(
    cols: Sequence[int], full: int, n: int, k: int
) -> Iterator[tuple[_PacketCheck, int]]:
    """Per packet, the column of the families that meet it in a segment.

    Straight from the definition: a family passes a packet iff its
    intersection with the packet is one of the packet's segments, and the
    families with a given intersection are the AND, over the packet's
    members, of the member's column or of its complement.  Yields
    (check, passing column) over families given by member columns, all
    families at once; full has one bit per family.
    """
    comps = [full ^ col for col in cols]
    for c in _packet_checks(n, k):
        passing = 0
        for segment in c.segments:
            hit = full
            for x in c.members:
                hit &= cols[x] if segment >> x & 1 else comps[x]
            passing |= hit
        yield c, passing


def _bits_of(members, params: GroundParams) -> int:
    """Bitset of a member family; validates sizes and ground-set bounds."""
    if isinstance(members, ConsistentSet):
        if members.params != params:
            raise ParameterError(
                f"parameter mismatch: {members.params} vs {params}"
            )
        return members.bits
    bits = 0
    for m in members:
        elems = m.elements if isinstance(m, KSubset) else tuple(sorted(m))
        if len(elems) != params.member_size:
            raise ParameterError(
                f"member {elems} has size {len(elems)}, expected {params.member_size}"
            )
        if elems and (elems[0] < 1 or elems[-1] > params.n):
            raise ParameterError(f"member {elems} is not a subset of [{params.n}]")
        bits |= 1 << colex_rank(elems)
    return bits


def is_consistent(members, params: GroundParams) -> bool:
    """True iff every packet meets the family in a lex prefix, suffix, all, or nothing."""
    bits = _bits_of(members, params)
    return all((bits & c.mask) in c.segments for c in _packet_checks(params.n, params.k))


def violating_packets(members, params: GroundParams) -> list[Packet]:
    """The packets whose segment condition fails; empty iff is_consistent."""
    bits = _bits_of(members, params)
    return [
        _packet(c.base)
        for c in _packet_checks(params.n, params.k)
        if (bits & c.mask) not in c.segments
    ]


@lru_cache(maxsize=None)
def _packet(base: tuple[int, ...]) -> Packet:
    """The packet of a base, built once."""
    return packet_of(KSubset(base))


@dataclass(frozen=True, slots=True)
class ConsistentSet:
    """An element of a higher Bruhat order.

    A family of (k+1)-subsets of [n] meeting every packet in a segment,
    stored as a bitset over colex ranks.  Consistency is verified at
    construction, so a ConsistentSet in hand is always certified.
    """

    params: GroundParams
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= self.params.full_bits:
            raise ParameterError(f"bitset out of range for {self.params}")
        for c in _packet_checks(self.params.n, self.params.k):
            if (self.bits & c.mask) not in c.segments:
                raise InconsistentSetError(
                    f"family is inconsistent on packet with base {c.base}"
                )

    @classmethod
    def from_members(cls, params: GroundParams, members) -> "ConsistentSet":
        return cls(params, _bits_of(members, params))

    def members(self) -> tuple[KSubset, ...]:
        """Members in colex rank order."""
        out = []
        m = self.bits
        while m:
            low = m & -m
            out.append(KSubset(subset_of_rank(low.bit_length() - 1, self.params.member_size)))
            m ^= low
        return tuple(out)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, member) -> bool:
        elems = member.elements if isinstance(member, KSubset) else tuple(sorted(member))
        if len(elems) != self.params.member_size or elems[-1] > self.params.n:
            return False
        return bool(self.bits >> colex_rank(elems) & 1)

    def __str__(self) -> str:
        return _label(self.params, self.bits)


def _label(params: GroundParams, bits: int) -> str:
    """The str() of a member family, from the cached member names."""
    names = _member_names(params.n, params.member_size)
    return "{" + ",".join(map(names.__getitem__, _bits(bits))) + "}"


@lru_cache(maxsize=None)
def _member_names(n: int, size: int) -> tuple[str, ...]:
    """str() of every size-subset of [n], indexed by colex rank."""
    return tuple(str(s) for s in enumerate_subsets(n, size))
