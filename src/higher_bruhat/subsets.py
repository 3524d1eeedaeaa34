"""Ground-level combinatorics: member families as bitsets, packets, consistency.

Ground-set elements are 1-based throughout.  The canonical index of a
subset is its colexicographic rank, which does not depend on the size of
the ground set: a subset of [n-1] keeps its rank when the ground set grows
to [n].  A member family is only ever a bitset indexed by that rank.

A list of families can also be held as member columns, one bitset per
member with bit f set iff family f holds it.  The segment kernel checks
every family of such a list against a packet at once, as a monotone run:
a segment is a prefix or a suffix, so a family passes iff its members
along the packet never switch from absent to held, or never from held
to absent, a few whole-column operations per consecutive pair.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import InconsistentSetError, ParameterError
from .posets import _bits

__all__ = ["GroundParams", "ConsistentSet", "colex_rank"]


def colex_rank(elements: tuple[int, ...]) -> int:
    """Colexicographic rank of a strictly increasing 1-based tuple."""
    return sum(comb(e - 1, i + 1) for i, e in enumerate(elements))


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

    The segments of a packet m_1 < ... < m_r are its prefixes and its
    suffixes, the empty and the full set among them, so a family meets it
    in a segment iff its run along the packet (1 where it holds m_t) is
    non-increasing or non-decreasing.  The first fails iff some m_t is
    absent while m_{t+1} is held, the second iff some m_t is held while
    m_{t+1} is absent: 4(r - 1) + 1 whole-column operations per packet.
    Yields (check, passing column) over families given by member
    columns, all families at once; full has one bit per family.
    """
    comps = [full ^ col for col in cols]
    for c in _packet_checks(n, k):
        m = c.members
        falling = rising = full
        for a, b in zip(m, m[1:]):
            falling &= cols[a] | comps[b]
            rising &= comps[a] | cols[b]
        yield c, falling | rising


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

    def __str__(self) -> str:
        return _label(self.params, self.bits)


def _label(params: GroundParams, bits: int) -> str:
    """The str() of a member family, from the cached member names."""
    names = _member_names(params.n, params.member_size)
    return "{" + ",".join(map(names.__getitem__, _bits(bits))) + "}"


@lru_cache(maxsize=None)
def _member_names(n: int, size: int) -> tuple[str, ...]:
    """The name, such as "{1,2,4}", of every size-subset of [n], by colex rank."""
    colex = sorted(itertools.combinations(range(1, n + 1), size), key=lambda t: t[::-1])
    return tuple("{" + ",".join(map(str, t)) + "}" for t in colex)
