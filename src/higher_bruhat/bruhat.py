"""Higher Bruhat orders B(n,k) and the structure maps between levels.

An order is grown from the empty family one cardinality at a time, up to
its middle level.  Each level is held as member columns, and a neighbour
rule on every packet gives the column of families that can take each
member, which the order keeps, so its covers are built only when
something reads them.  Each family of the next level is grown from its
canonical parent alone, the family less its highest droppable member,
so the level comes out without duplicates; a count of its covers from
below then checks that none is missing.
The upper half is mirrored, not grown: complement keeps consistency,
turns additions into removals and reverses the order within a level, so
level W - c of W members is level c complemented and read backwards:
each of its columns is one of level c's, bit-reversed, so no mirrored
level is transposed, and its families are built only when read.  Each
level is certified against the packet segments by the segment kernel,
which reads each packet as a monotone run, on the columns it is emitted
with, before the next one is made.  The growth is a stream of certified
levels, each emitted with its member, addable and droppable columns,
level c right before its mirror W - c: the induction reads the levels as
they come and holds two at a time, and enumerate_bruhat collects them
into an order.  The brute-force oracle runs the same kernel over all
bitsets, in chunks, to decide membership on its own; it must find the
same families.
Both relations (single-step inclusion and ordinary inclusion) live on the
same element set; single-step comparability is reachability in the
digraph of single-member additions.  Every cover adds one member, so
covers join consecutive levels, and reach is the level closure: the rows
of a level are built from the rows of the level above alone, top level
first, so only two levels of rows need be held at once.  An inclusion
row is built the other way, bottom up, from the row of one family a
member below; compare_orders counts both and compares the counts.
An order's instance file, the dissection of B(n,k) over B(n-1,k), is
written from the order itself (dissection_doc): the labels, covers,
colouring and map tables are read off the families, and no poset is
built: where inclusion relates more pairs than single-step, the extra
covers are read off the pairs that compare_orders lists.
"""

from __future__ import annotations

import enum
import itertools
from functools import cached_property, partial, reduce
from operator import and_, ge, itemgetter, or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import posets
from .errors import InvariantError, ParameterError, ResourceLimitError
from .subsets import ConsistentSet, GroundParams, _label, _packet_checks, _segment_columns
from .suspension_check import CONDITION_NAMES, Check, ConditionReport

__all__ = [
    "OrderKind",
    "BruhatOrder",
    "enumerate_bruhat",
    "level_sizes",
    "compare_orders",
    "descent_conditions",
    "descent_chain",
    "dissection_doc",
    "COLUMN_ROUTE_NOTE",
    "DEFAULT_BFS_LIMIT",
    "DEFAULT_BRUTEFORCE_LIMIT",
]

DEFAULT_BFS_LIMIT = 64
DEFAULT_BRUTEFORCE_LIMIT = 24

# Bitsets per pass of the brute-force scan, so that a member column holds
# at most this many bits.
_CHUNK = 1 << 16


# Byte b with its eight bits in reverse order, at index b.
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reversed_bits(value: int, length: int) -> int:
    """value's low length bits in reverse order; value must fit in them.

    Bit i goes to bit length - 1 - i: little-endian bytes, each byte's
    bits reversed, read big-endian, are the bits of all 8 * size
    positions reversed, and the shift drops the padding.
    """
    size = (length + 7) // 8
    flipped = int.from_bytes(value.to_bytes(size, "little").translate(_REVERSED_BYTES), "big")
    return flipped >> 8 * size - length


class OrderKind(enum.Enum):
    SINGLE_STEP = "single_step"
    INCLUSION = "inclusion"


class BruhatOrder:
    """All consistent families of (k+1)-subsets of [n], with cover digraph.

    The families are the enumeration's certified bitsets, sorted by
    (cardinality, bitset value), which is a linear extension of both order
    relations.  There is one level per cardinality 0, 1, ..., C(n,k+1),
    and addable holds, for each level in turn, the index of its first
    family and its addable columns: bit f of column x is set iff the
    level's family f takes member x.  Each such bit is a cover, from the
    family to that family plus x in the next level, so covers join
    consecutive levels.  up_levels closes reachability one level at a time
    from these columns, and reach keeps that level closure in full.
    Instances are not changed after construction: enumerate_bruhat's bits
    are a list, built once and never copied.  The covers, the families as
    ConsistentSets, their index and the reach rows are computed on first
    use.
    """

    def __init__(
        self,
        params: GroundParams,
        bits: Sequence[int],
        addable: tuple[tuple[int, tuple[int, ...]], ...],
    ):
        self.params = params
        self.bits = bits
        self.addable = addable
        self._reach: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return len(self.bits)

    @cached_property
    def elements(self) -> tuple[ConsistentSet, ...]:
        """The families as ConsistentSets, each checked as it is built."""
        return tuple(ConsistentSet(self.params, b) for b in self.bits)

    @cached_property
    def _index(self) -> dict[int, int]:
        return {b: i for i, b in enumerate(self.bits)}

    def _levels(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """(start, end, addable columns) of each level, lowest first."""
        ends = [start for start, _ in self.addable[1:]] + [len(self.bits)]
        return [(start, end, add) for (start, add), end in zip(self.addable, ends)]

    def level_sizes(self) -> list[int]:
        """The number of families of each cardinality 0, 1, ..., in turn."""
        return [end - start for start, end, _ in self._levels()]

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The single-member additions (i, j), in (i, j) order.

        Bit f of a level's addable column x is the cover from the level's
        family f to that family plus x.  A family's growths are collected
        member by member, so they come in ascending j: adding x to
        families without it keeps their order.
        """
        bits, index = self.bits, self._index
        covers: list[tuple[int, int]] = []
        for start, end, add in self._levels():
            level = bits[start:end]
            # one int object per lower index, shared by all its covers
            lower = list(range(start, end))
            growths: list[list[tuple[int, int]]] = [[] for _ in level]
            for x, col in enumerate(add):
                bit = 1 << x
                for f in posets._bits(col):
                    growths[f].append((lower[f], index[level[f] | bit]))
            covers.extend(itertools.chain.from_iterable(growths))
        return tuple(covers)

    def up_levels(self) -> Iterator[tuple[int, list[int]]]:
        """Single-step up rows one level at a time, top level first.

        Each step gives (start, rows), where rows[f] is the up row of family
        start + f, and bit t of a row stands for family len(self) - 1 - t:
        rows count down from the top, so a level's rows need no shift to
        combine with those of the level above.  Every cover adds one member,
        so a family's upper covers all lie in the level above, and its row
        is its own bit ORed with their rows: one OR per bit of the level's
        addable columns.  Only the level above is kept, so at most two
        levels of rows are held at once.  Cardinality grows along every
        cover, so the digraph has no cycle to report.
        """
        bits, top = self.bits, len(self.bits) - 1
        above: dict[int, int] = {}
        for start, end, add in reversed(self._levels()):
            level = bits[start:end]
            rows = [1 << top - i for i in range(start, end)]
            for x, col in enumerate(add):
                bit = 1 << x
                for f in posets._bits(col):
                    rows[f] |= above[level[f] | bit]
            yield start, rows
            above = dict(zip(level, rows))

    def reach(self) -> tuple[int, ...]:
        """Up rows of single-step reachability: up_levels kept in full.

        Row i has bit j set iff family j is reachable from family i.
        """
        if self._reach is None:
            n = len(self.bits)
            levels = [rows for _, rows in self.up_levels()]
            # reversing a top-counted row's bits counts it from the bottom
            self._reach = tuple(
                _reversed_bits(row, n) for rows in reversed(levels) for row in rows
            )
        return self._reach


def _inclusion_row(family: int, columns: Sequence[int], full: int) -> int:
    """The AND of the columns of the family's members, within full."""
    return reduce(and_, map(columns.__getitem__, posets._bits(family)), full)


def _inclusion_degrees(order: BruhatOrder, containing: list[int]) -> memoryview:
    """Per family, the number of families at or above it under inclusion.

    Bit t of containing[x] stands for family len(order) - 1 - t.  The
    families strictly above F are those strictly above F - y that hold y,
    for any member y with F - y in the order (the highest is taken; the
    empty family is the bottom, so every other family has one).  Levels
    are walked from the bottom with the columns cut to the levels above,
    so rows stay narrow, and only the level below is kept.
    """
    n, bits = len(order), order.bits
    degrees = memoryview(bytearray(4 * n)).cast("I")
    below: dict[int, int] = {}
    for start, end, _ in order._levels():
        above = (1 << n - end) - 1
        containing = [col & above for col in containing]
        level = bits[start:end]
        rows = []
        for i, family in enumerate(level, start):
            rest, row = family, above
            while rest:
                top = 1 << rest.bit_length() - 1
                lower = below.get(family ^ top)
                if lower is not None:
                    row = lower & containing[top.bit_length() - 1]
                    break
                rest ^= top
            else:
                if family:
                    raise InvariantError(
                        f"{_label(order.params, family)} has no lower neighbour in the order"
                    )
            rows.append(row)
            degrees[i] = row.bit_count() + 1
        below = dict(zip(level, rows))
    return degrees


def compare_orders(order: BruhatOrder) -> tuple[int, int, list[tuple[int, int]]]:
    """Both orders' comparable pairs, and the pairs under inclusion only.

    Returns the number of comparable pairs a < b under single-step
    inclusion, the number under inclusion, and the pairs of indices
    (i, j) comparable under inclusion only, in (i, j) order.  Every cover
    adds a member, so a family's reach row lies within its inclusion row,
    and they are equal iff their counts are.  The reach rows are counted
    first, top down (up_levels), then the inclusion rows bottom up
    (_inclusion_degrees): each pass holds two levels of rows, and the
    passes run apart, as holding both at once raised the peak memory.
    Only where the counts differ does up_levels run again, to list the
    pairs off those families' member-AND rows.
    """
    n, bits = len(order), order.bits
    reach_sizes = memoryview(bytearray(4 * n)).cast("I")
    for start, reach in order.up_levels():
        for i, row in enumerate(reach, start):
            reach_sizes[i] = row.bit_count()
    # bit t of a column stands for family n - 1 - t, as in up_levels' rows
    containing = posets._columns(bits[::-1], order.params.num_members)
    degrees = _inclusion_degrees(order, containing)
    by_level: list[list[tuple[int, int]]] = []
    if degrees != reach_sizes:
        full = (1 << n) - 1
        for start, reach in order.up_levels():
            pairs: list[tuple[int, int]] = []
            for i, row in enumerate(reach, start):
                if row.bit_count() != degrees[i]:
                    only = _inclusion_row(bits[i], containing, full) & ~row
                    pairs.extend((i, n - 1 - t) for t in reversed(posets._bits(only)))
            by_level.append(pairs)
    pairs = [p for level_pairs in reversed(by_level) for p in level_pairs]
    return sum(reach_sizes) - n, sum(degrees) - n, pairs


def _inclusion_covers(order: BruhatOrder) -> tuple[tuple[int, int], ...]:
    """The covers of the order under inclusion, in (i, j) order.

    These are the order's covers and the pairs (i, j) of compare_orders
    with nothing strictly between their ends: the families above i are the
    AND of the member columns of i's members, those below j the AND of the
    absent columns of the members j lacks, and (i, j) is a cover iff their
    AND holds i and j alone.  That is every cover.  A single-step cover
    adds one member, so no family lies strictly between its ends under
    inclusion.  An inclusion cover (i, j) comparable under single-step is
    joined by a chain of covers, each a strict inclusion, so the chain is
    that one cover; otherwise (i, j) is comparable under inclusion only,
    and compare_orders lists it.  No pair is both, so when compare_orders
    lists none the covers are the order's own, and no column is built.
    """
    only = compare_orders(order)[2]
    if not only:
        return order.covers
    bits = order.bits
    cols = posets._columns(bits, order.params.num_members)
    full = (1 << len(bits)) - 1
    absent = [full ^ col for col in cols]
    extra = []
    for i, pairs in itertools.groupby(only, itemgetter(0)):
        above = _inclusion_row(bits[i], cols, full)
        for _, j in pairs:
            lacks = posets._bits(order.params.full_bits ^ bits[j])
            if reduce(and_, map(absent.__getitem__, lacks), above).bit_count() == 2:
                extra.append((i, j))
    return tuple(sorted(itertools.chain(order.covers, extra)))


def _periodic_columns(low: int) -> list[int]:
    """Bit x of the values 0 .. 2^low - 1, as columns, for each x below low.

    Column x repeats a block of 2^x zeros and 2^x ones, so it is built by
    doubling: the block ORed with itself shifted by its span, until the
    span reaches 2^low.
    """
    out = []
    for x in range(low):
        col, span = ((1 << (1 << x)) - 1) << (1 << x), 2 << x
        while span < 1 << low:
            col |= col << span
            span <<= 1
        out.append(col)
    return out


def _bruteforce_bits(params: GroundParams) -> list[int]:
    """Every consistent bitset of the order's width, ascending.

    The segment kernel runs over all 2^W bitsets in chunks of _CHUNK
    consecutive values (one chunk of 2^W when that is smaller).  A chunk
    starts at a multiple of its size, so its member columns are
    arithmetic: bit x of the values is periodic for x below log2 of the
    size (_periodic_columns), and constant above it.
    """
    width = params.num_members
    low = min(width, _CHUNK.bit_length() - 1)
    size = 1 << low
    full = (1 << size) - 1
    periodic = _periodic_columns(low)
    out = []
    for start in range(0, 1 << width, size):
        cols = periodic + [full if start >> x & 1 else 0 for x in range(low, width)]
        ok = full
        for _, passing in _segment_columns(cols, full, params.n, params.k):
            ok &= passing
        out.extend(start + f for f in posets._bits(ok))
    return out


def _neighbour_terms(packets: list[tuple[int, ...]], width: int) -> list[list[tuple[int, int]]]:
    """Per member x, the neighbour rule of _grow as pairs of literals.

    A literal indexes cols + absent: x for member x held, width + x for x
    absent.  A consistent family f without x can take x iff, for each
    pair of x, one of its two literals holds of f.
    """
    terms: list[list[tuple[int, int]]] = [[] for _ in range(width)]
    for m in packets:
        terms[m[0]].append((m[1], width + m[-1]))
        terms[m[-1]].append((m[-2], width + m[0]))
        for prev, mid, nxt in zip(m, m[1:], m[2:]):
            terms[mid].append((prev, nxt))
    return terms


def _and_terms(col: int, pairs: Iterable[tuple[int, int]], either: list[int]) -> int:
    """col ANDed with each term, the OR of a pair of literals of either."""
    for a, b in pairs:
        col &= either[a] | either[b]
    return col


def _addable(
    cols: list[int], absent: list[int], terms: list[list[tuple[int, int]]]
) -> list[int]:
    """Per member x, the column of the families of a level that can take x.

    cols and absent are the level's member columns and their complements,
    and terms the order's neighbour rule (_neighbour_terms), built once
    per order.
    """
    either = [*cols, *absent]
    return [_and_terms(col, pairs, either) for col, pairs in zip(absent, terms)]


def _droppable(
    cols: list[int], absent: list[int], terms: list[list[tuple[int, int]]]
) -> list[int]:
    """Per member x, the column of the families of a level that can drop x.

    Within a packet the complement of a segment is a segment, so a family
    is consistent iff its complement is, and f minus x is the complement
    of (the complement of f) plus x.  _addable on the complements' columns
    therefore gives, for each x, the families holding x that stay
    consistent without it.
    """
    return _addable(absent, cols, terms)


def _certify(params: GroundParams, cols: list[int], size: int) -> None:
    """Refuse a level of size families unless the segment kernel passes its columns.

    The kernel decides every family of the level on its member columns,
    from the segments as monotone runs and apart from the neighbour rule,
    the canonical parent and the mirror.  A family that fails a packet
    raises InvariantError naming the level's first such family, read off
    the columns the kernel read, and the packet.
    """
    full = (1 << size) - 1
    for c, passing in _segment_columns(cols, full, params.n, params.k):
        failing = full ^ passing
        if failing:
            g = (failing & -failing).bit_length() - 1
            bad = sum(1 << x for x, col in enumerate(cols) if col >> g & 1)
            raise InvariantError(
                f"enumeration emitted {_label(params, bad)}, which is inconsistent "
                f"on the packet with base {c.base}"
            )


class Level(NamedTuple):
    """One certified level of B(n,k), as _grow emits it.

    card is the level's cardinality and families its families, ascending:
    a list for a grown level, and for a mirrored one the complements of
    its source level's families, built when read (_Complements).  Bit f
    of cols[x] is set iff family f holds member x, of add[x] iff family f
    can take x, and of drop[x] iff family f can drop x.
    """

    card: int
    families: Sequence[int]
    cols: list[int]
    add: list[int]
    drop: list[int]


class _Complements(Sequence[int]):
    """A mirrored level's families, the source level's complemented and
    read backwards, built only when read (enumerate_bruhat, a witness)."""

    __slots__ = ("_source", "_full")

    def __init__(self, source: list[int], full: int):
        self._source = source
        self._full = full

    def __len__(self) -> int:
        return len(self._source)

    def __getitem__(self, g: int) -> int:
        return self._full ^ self._source[-1 - g]

    def __iter__(self) -> Iterator[int]:
        return map(self._full.__xor__, reversed(self._source))


def _mirror(
    cols: list[int], add: list[int], drop: list[int], size: int
) -> tuple[list[int], list[int], list[int]]:
    """The member, addable and droppable columns of a level's mirror.

    Family g of the mirror complements family size - 1 - g of the level,
    so each column is one of the level's reversed over its length: the
    member columns complemented, the addable and droppable ones swapped.
    """
    flip = partial(_reversed_bits, length=size)
    full = (1 << size) - 1
    return [flip(full ^ col) for col in cols], list(map(flip, drop)), list(map(flip, add))


def _mirrored(params: GroundParams, level: Level) -> Level:
    """Level W - c from level c, its columns certified by the kernel (see _grow)."""
    size = len(level.families)
    cols, add, drop = _mirror(level.cols, level.add, level.drop, size)
    _certify(params, cols, size)
    families = _Complements(level.families, params.full_bits)
    return Level(params.num_members - level.card, families, cols, add, drop)


class _GrowthPlan(NamedTuple):
    """The static part of _grow's canonical-parent filter on one B(n,k).

    y's droppable column is _addable on the complements (_droppable), so
    its terms are y's neighbour terms read on absent + cols: literal x
    there means member x absent, width + x member x held.  Per member x,
    the members y > x fall in three lists by how adding x changes y's
    term on the packet they share, if any: plain (unchanged), narrowed
    as (y, the term's other literal) where x absent was a literal, and
    widened as (y, y's other terms) where x held was one.
    """

    plain: tuple[tuple[int, ...], ...]
    narrowed: tuple[tuple[tuple[int, int], ...], ...]
    widened: tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], ...], ...]


def _growth_plan(terms: list[list[tuple[int, int]]], width: int) -> _GrowthPlan:
    """The canonical-parent plan of an order's neighbour terms (_neighbour_terms).

    Each growth builds its own plan, which costs far less than the growth:
    a plan cached across growths outlives their levels and raised the peak
    memory of a run.
    """
    narrowed: list[list[tuple[int, int]]] = [[] for _ in range(width)]
    widened: list[list[tuple[int, tuple[tuple[int, int], ...]]]] = [[] for _ in range(width)]
    for y, pairs in enumerate(terms):
        for i, (a, b) in enumerate(pairs):
            for literal, other in ((a, b), (b, a)):
                x = literal % width
                # a term with both of x's literals keeps its value
                if x < y and other % width != x:
                    if literal == x:
                        narrowed[x].append((y, other))
                    else:
                        widened[x].append((y, tuple(pairs[:i] + pairs[i + 1:])))
    plain = []
    for x in range(width):
        changed = {y for y, _ in narrowed[x] + widened[x]}
        plain.append(tuple(y for y in range(x + 1, width) if y not in changed))
    return _GrowthPlan(tuple(plain), tuple(map(tuple, narrowed)), tuple(map(tuple, widened)))


def _canonical(
    add: list[int], drop: list[int], cols: list[int], absent: list[int], plan: _GrowthPlan
) -> list[int]:
    """Per member x, the column of the families g with g + x canonical.

    add and drop are a level's addable and droppable columns, and cols
    and absent its member columns and their complements.  g + x is
    canonical iff x is addable to g and no member y > x of g can be
    dropped from g + x (see _grow).  Only the term of y on the packet it
    shares with x can tell g + x from g: where x held is a literal of
    that term, y can be dropped iff its other terms allow it; where x
    absent is, a family without x satisfies the term, so y can be
    dropped iff it can be from g and the other literal holds.
    """
    flipped = absent + cols
    out = []
    for x, col in enumerate(add):
        if col:
            dropped = reduce(or_, map(drop.__getitem__, plan.plain[x]), 0)
            for y, literal in plan.narrowed[x]:
                dropped |= drop[y] & flipped[literal]
            for y, others in plan.widened[x]:
                dropped |= _and_terms(cols[y], others, flipped)
            col &= ~dropped
        out.append(col)
    return out


# The bytes "0" and "1" of a binary numeral to the bytes 0 and 1.
_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def _grown(level: list[int], grows: list[int]) -> list[int]:
    """Each family g + x with bit g of grows[x] set, ascending.

    The families of level hold no x where bit g of grows[x] is set, and
    adding x to them keeps their order, so each member's growths come in
    one ascending run, and the sort merges the runs.
    """
    out: list[int] = []
    for x, col in enumerate(grows):
        selectors = bin(col)[:1:-1].encode().translate(_SELECTORS)
        out.extend(map((1 << x).__or__, itertools.compress(level, selectors)))
    out.sort()
    return out


def _grow(params: GroundParams) -> Iterator[Level]:
    """The levels of B(n,k), each certified before it is emitted.

    The order grows one cardinality at a time from the empty family, up
    to the middle level, of cardinality W // 2 for W members; the levels
    above it are the complements of those below.  A level is held as
    member columns (bit f of column x is set iff family f holds member
    x), and the addable column of x, built by _addable with the neighbour
    rule below, has bit f set iff f + x is consistent; the droppable
    column of x, built by _droppable with the same rule on complements,
    has bit f set iff f holds x and f - x is consistent.  The neighbour
    terms and the canonical-parent plan are built once per order.  Level
    c is emitted as soon as it is certified, then its mirror W - c, and
    only then is level c + 1 grown from it: the growth holds two levels,
    and a consumer that drops each level after use holds no more.  So the
    levels come in the order 0, W, 1, W - 1, ..., ending at the middle.

    Canonical parent.  Every nonempty consistent family h has a member
    whose removal leaves it consistent, since the empty family is the
    unique minimum of B(n,k) under single-step inclusion
    (Manin-Schechtman 1989).  Its canonical parent is h - x for the
    highest such x, so the next level is grown from each family g and
    member x with x addable to g and no member y > x of g droppable from
    g + x, each family once (_canonical, then _grown).  g + x - y differs
    from g - y only on the packets that hold x, and from g + x only on
    those that hold y; two members share at most one packet, their
    union.  So y can be dropped from g + x iff it can be from g, except
    on that packet, whose term is evaluated with x held (_growth_plan).

    Completeness.  Every grown level must be strictly ascending and within
    the order's width.  After level c is certified, its droppable columns
    must have as many set bits as the addable columns of level c - 1,
    else InvariantError names the level.  Let level c - 1
    be complete.  Each set bit of its addable columns is a pair (g, x)
    with g + x consistent, that is a pair (h, y) with h consistent of
    cardinality c and h - y consistent: one cover out of level c - 1.
    Level c holds such families h only, each g + x with x not in g, and
    if it is certified and strictly ascending it holds each once, so its
    droppable bits count the pairs over the families it holds.  Every
    nonempty h has a droppable member, so the counts are equal iff no
    family is missing.

    Mirror.  Complement, f -> full ^ f, is an involution on bitsets that
    keeps consistency: within a packet the complement of a segment is a
    segment.  It reverses covers, as f + x is the complement of (full ^ f)
    minus x, and it reverses the bitset order within a level.  So level
    W - c is level c complemented and read backwards, and each of its
    columns is one of level c's, bit-reversed (_mirror): the member
    columns complemented, the addable and droppable ones swapped.  It is
    strictly ascending and within the width as level c is, and its
    families are built from level c's only when read, so they and its
    columns come from the same certified level.  Every consistent family
    of cardinality W - c is the complement of one of cardinality c, which
    the growth holds, so the upper levels are complete because the lower
    ones are.  The count runs on the mirrored side too, from the top down:
    the addable columns of level W - c must have as many set bits as the
    droppable columns of level W - c + 1, which checks the mirrored
    columns.

    Bounds.  After each side's count, every family of a level below the
    top must take some member, and the mirror of level 0 must be the full
    family alone, else InvariantError names the level (and its lowest
    family that takes no member).  So from every family a chain of covers
    climbs to level W, whose one family is the full family.  By the
    mirror, which reverses covers, every family but the empty one drops
    some member, since its complement lies below the top and takes one,
    and a chain of covers descends to level 0, the empty family alone.
    So under single-step inclusion, the closure of the covers, the empty
    family is the bottom and the full family the top; each cover adds a
    member, so the same holds under inclusion.

    Every level, grown or mirrored, is certified against the packets by
    the segment kernel on the columns it is emitted with (_certify): a
    grown level's are transposed from its families, a mirrored level's
    derived from level c's, so the mirror is checked, not trusted.  A
    family that fails a packet raises InvariantError naming the family,
    read off those columns, and the packet, at the first level that holds
    one, so a faulty rule stops before its levels grow large.

    Neighbour rule.  Let a packet have members m_1 < ... < m_r in lex
    order (r >= 2) and let f be consistent with m_t not in f.  Then
    f + m_t meets the packet in a segment iff m_{t-1} or m_{t+1} is in f
    (1 < t < r); m_2 is in f or m_r is not (t = 1); m_{r-1} is in f or
    m_1 is not (t = r).  Proof: f meets the packet in a segment S without
    m_t, so S is empty, a proper prefix m_1..m_s or a proper suffix
    m_{r-s+1}..m_r.  If S is empty, {m_t} is a segment iff t is 1 or r,
    and the rule agrees: no neighbour is in f, and neither is m_r or m_1.
    If S is a proper prefix, then t > s, and S + m_t is a segment iff
    t = s + 1, since the only suffix holding m_1 is the whole packet,
    which S + m_t is only when t = s + 1 = r.  The rule agrees: m_{t-1}
    is in f iff t = s + 1, m_{t+1} never is, and m_1 is in f.  The proper
    suffix is the mirror image, with m_{t+1}, t = r - s and m_r.
    """
    width = params.num_members
    terms = _neighbour_terms([c.members for c in _packet_checks(params.n, params.k)], width)
    plan = _growth_plan(terms, width)
    name = f"B({params.n},{params.k})"

    def check_takes(emitted: Level) -> None:
        stuck = ((1 << len(emitted.families)) - 1) & ~reduce(or_, emitted.add, 0)
        if stuck:
            family = emitted.families[(stuck & -stuck).bit_length() - 1]
            raise InvariantError(
                f"the growth of {name} is not bounded: {_label(params, family)} at "
                f"level {emitted.card} takes no member"
            )

    level, below, above = [0], 0, 0
    for c in range(width // 2 + 1):
        cols = posets._columns(level, width)
        _certify(params, cols, len(level))
        if any(map(ge, level, itertools.islice(level, 1, None))):
            raise InvariantError(f"the growth of {name} repeats a family at level {c}")
        if level and not 0 <= level[0] <= level[-1] <= params.full_bits:
            raise InvariantError(f"enumeration emitted a bitset out of range for {params}")
        full = (1 << len(level)) - 1
        absent = [full ^ col for col in cols]
        drop = _droppable(cols, absent, terms)
        dropped = sum(map(int.bit_count, drop))
        if dropped != below:
            raise InvariantError(
                f"the growth of {name} misses a family at level {c}: its families "
                f"drop {dropped} members, the level below takes {below}"
            )
        add = _addable(cols, absent, terms)
        below = sum(map(int.bit_count, add))
        grown = Level(c, level, cols, add, drop)
        check_takes(grown)
        yield grown
        if 2 * c < width:
            mirror = _mirrored(params, grown)
            taken = sum(map(int.bit_count, mirror.add))
            if taken != above:
                raise InvariantError(
                    f"the growth of {name} misses a family at level {width - c}: its "
                    f"families take {taken} members, the level above drops {above}"
                )
            if c:
                check_takes(mirror)
            elif list(mirror.families) != [params.full_bits]:
                raise InvariantError(
                    f"the growth of {name} is not bounded: level {width} is not its "
                    f"full family alone"
                )
            above = sum(map(int.bit_count, mirror.drop))
            yield mirror
            # the consumer keeps the mirror if it needs it; the growth does not
            del mirror
        if c < width // 2:
            level = _grown(level, _canonical(add, drop, cols, absent, plan))


def _check_width(params: GroundParams, method: str, max_subsets: int | None) -> None:
    """Refuse an order wider than the limit of method, "bfs" or "bruteforce" (_scanned)."""
    limit = max_subsets
    if limit is None:
        limit = DEFAULT_BFS_LIMIT if method == "bfs" else DEFAULT_BRUTEFORCE_LIMIT
    width = params.num_members
    if width > limit:
        raise ResourceLimitError(
            f"C({params.n},{params.k + 1}) = {width} members exceeds the {method} "
            f"limit of {limit}"
        )


def enumerate_bruhat(params: GroundParams, max_subsets: int | None = None) -> BruhatOrder:
    """Enumerate B(n,k), refusing more members than max_subsets (default 64).

    This is the one collector of the growth's stream (_grow), which
    certifies every level, and the order's bounds, before the next level
    is made; a failure raises InvariantError.  The lower levels are
    appended to the order's bits as they come, and the mirrored ones,
    which come top level first, are held as lists and appended once the
    middle is reached, each dropped as it is moved: the bits are built
    once, as a list, and never copied.  The order keeps each level's
    addable columns, to give its covers on first use.
    """
    _check_width(params, "bfs", max_subsets)
    bits: list[int] = []
    addable: list[tuple[int, tuple[int, ...]]] = []
    upper: list[tuple[list[int], list[int]]] = []
    for level in _grow(params):
        if 2 * level.card > params.num_members:
            upper.append((level.families, level.add))
        else:
            addable.append((len(bits), tuple(level.add)))
            bits.extend(level.families)
    while upper:
        families, add = upper.pop()
        addable.append((len(bits), tuple(add)))
        bits.extend(families)
    return BruhatOrder(params, bits, tuple(addable))


def _scanned(params: GroundParams, max_subsets: int | None) -> BruhatOrder:
    """enumerate_bruhat's order, once a brute-force scan finds the same families.

    The scan of enumerate --method both (_bruteforce_bits) tests every
    bitset against every packet, apart from the growth; InvariantError
    otherwise.  The growth's limit and then the scan's (default 24) are
    checked first.
    """
    _check_width(params, "bfs", max_subsets)
    _check_width(params, "bruteforce", max_subsets)
    order = enumerate_bruhat(params, max_subsets)
    scanned = sorted(_bruteforce_bits(params), key=lambda b: (b.bit_count(), b))
    if scanned != order.bits:
        raise InvariantError(
            f"brute-force scan and addable-mask growth disagree: the scan finds "
            f"{len(scanned)} families, the growth {len(order.bits)}"
        )
    return order


def level_sizes(params: GroundParams, max_subsets: int | None = None) -> list[int]:
    """The number of families of each cardinality of B(n,k), in turn.

    enumerate_bruhat(params, max_subsets=max_subsets).level_sizes(), with
    the same budget and the same certified growth, but each level is
    dropped once counted, so only two levels are held at a time.
    """
    _check_width(params, "bfs", max_subsets)
    sizes = [0] * (params.num_members + 1)
    for level in _grow(params):
        sizes[level.card] = len(level.families)
        del level  # the next level grows without this one
    return sizes


def _level_maps(params: GroundParams) -> tuple[GroundParams, int, int]:
    """Q's parameters, the members f keeps, and the members j adds.

    Colex ranks do not depend on n, so a family of B(n-1,k) is a bitset of
    B(n,k) too: f keeps the members without n, i is the identity and j adds
    every member holding n.  The base case n = k+1 has no level below.
    """
    if params.n < params.k + 2:
        raise ParameterError(
            f"maps between levels need n >= k+2, got n={params.n}, k={params.k}"
        )
    small = GroundParams(params.n - 1, params.k)
    return small, small.full_bits, params.full_bits ^ small.full_bits


def _not_enumerated(params: GroundParams, family: int) -> InvariantError:
    # colex ranks do not depend on n, so params names a family of either order
    return InvariantError(
        f"a structure map sends a family to {_label(params, family)}, which was not enumerated"
    )


COLUMN_ROUTE_NOTE = (
    "Column route: once every image is an enumerated family, the preconditions "
    "and green_is_down_set hold by proof."
)


def descent_conditions(params: GroundParams, kind: OrderKind) -> ConditionReport:
    """The lemma's hypotheses on B(n,k) -> B(n-1,k), decided level by level.

    This is check_conditions on the instance that dissection_doc writes
    and resolve_dissection reads back, with the same checks in the same
    order and the same verdicts, but no poset, no relation row and no map
    table is built, and Q is never enumerated.  P = B(n,k) is read from
    its growth's stream, one level at a time, from the columns that the
    growth certified, and each level is dropped after use (_decided).  f,
    i and j are the mask, identity and OR of _level_maps, whose masks are
    compared with the proved ones below before P grows: any other mask
    raises InvariantError naming the descent and the broken mask.  A
    failing check's witness is worded as check_conditions words it: each
    level gives its lowest failing family, and the lowest over all levels,
    in (cardinality, bits) order, is the witness.  P's growth certifies
    P's bounds (_grow), and Q's growth is then read to its end for Q's,
    the order in which the row route checks them.

    The masks.  Colex ranks do not depend on n, so kept, the members
    without n, is Q's full family.  A packet of P whose base avoids n is a
    packet of Q and holds no added member.  A packet whose base B holds n
    has B - {n} as its first member in lex order, and every other member
    holds n.  Suppose kept is Q's full family and added = P's full family
    minus kept, which _level_maps gives; then:
    - f(x) = x & kept is a family of Q: Q's packets are P's packets
      without n, and x & kept meets each of them as x does, in a segment.
    - i(a) = a and j(a) = a | added are families of P, for a in Q: each
      meets a packet without n as a does, and a packet holding n in a
      prefix (the empty set or its first member) for i, and in a suffix
      (all but the first member) or the whole packet for j.
    - The compositions and colours are identities: f(i(a)) = a & kept = a,
      as a lies in kept, and f(j(a)) = (a | added) & kept = a, as added
      and kept are disjoint; the top member {n-k..n} holds n, so lies in
      added and not in kept, so every i(a) is green and every j(a) red.
    So the two mask equalities, checked in O(1), prove every image, the
    compositions_identity and images_two_colored, reported as passing.

    Proved from the images, so reported as passing:
    - f, i and j are monotone.  Under inclusion each preserves inclusion.
      Single-step order is the closure of the covers, and a cover adds one
      member m.  f sends it to an equality (m holds n) or to the addition
      of m between two families of Q; i and j send a cover of Q to the
      addition of m between two families of P, as m is kept, not added.
    - Q is nondegenerate: it holds the empty family and its full family,
      which differ as n-1 >= k+1.
    - green_is_down_set: a green family lacks the top member, and y <= x
      under either order makes y a subfamily of x.
    - sandwich under inclusion: x & kept lies in x, and x lies in
      (x & kept) | added, as kept | added is P's full family.

    Decided by bit tests, per level:
    - extreme_fibers: the fibre over Q's bottom (the empty family) is the
      AND of the kept members' absent columns, the fibre over Q's top (its
      full family) the AND of their columns.  Level 0 holds only P's
      bottom and level W only P's top.
    - sandwich under single-step, i(f(x)) <= x <= j(f(x)).  By induction
      on the number of members to drop (to add), the lower half holds for
      every x iff each family holding an added member has a lower cover
      dropping one, and the upper half iff each family missing an added
      member has an upper cover adding one; for the converse, the last
      (first) step of a chain of single-member additions from x & kept to
      x (from x to x | added) is such a cover.  The upper covers are the
      level's addable columns.  The lower covers are its droppable
      columns: x minus m is consistent, so the enumeration holds it, since
      it holds every consistent family: the growth reaches every one up to
      the middle level (B(n,k) has the empty family as its unique minimum
      under single-step), the levels above are their complements, and the
      brute-force oracle finds the same families.  A family that fails a
      test fails the sandwich.  A family that fails the lower half but
      passes its test has a lower cover that fails the lower half, so the
      lowest family failing the lower half fails its test: when only the
      lower half fails, the witness is the row route's.  An upper failure
      names the lowest family that fails its test, though a lower family
      may fail too, by reaching only such families.

    Proved from the five conditions, as suspension_check's docstring
    shows, so neither built nor reported: the proof maps g and h and the
    carrier cones.
    """
    small = _level_maps(params)[0]
    lowest = _decided(params, kind)[1]
    for level in _grow(small):
        del level  # the next level grows without this one
    return _condition_report(lowest)


def _decided(
    params: GroundParams, kind: OrderKind
) -> tuple[int, dict[str, tuple[int, int, str]]]:
    """P's size, and the lowest failure of each condition that
    descent_conditions decides on P's growth, keyed by condition, as
    (cardinality, index within the level, witness).  Masks other than the
    proved ones of _level_maps raise InvariantError before P grows.
    """
    small, kept, added = _level_maps(params)
    # once f's mask is the proved one, j's is the rest of P's full family
    proved_masks = (("f", kept, small.full_bits), ("j", added, params.full_bits ^ kept))
    for name, mask, proved in proved_masks:
        if mask != proved:
            raise InvariantError(
                f"the descent B({params.n},{params.k}) -> B({small.n},{small.k}) has the "
                f"{name} mask {_label(params, mask)}, not the proved {_label(params, proved)}"
            )
    width = params.num_members
    red = width - 1
    kept_members = posets._bits(kept)
    holding_n = posets._bits(added)
    single_step = kind is OrderKind.SINGLE_STEP
    # per condition, (cardinality, index within the level, witness) of the lowest failure
    lowest: dict[str, tuple[int, int, str]] = {}

    def note(name: str, card: int, at: int, witness: str) -> None:
        if name not in lowest or (card, at) < lowest[name][:2]:
            lowest[name] = (card, at, witness)

    def union(columns: list[int], members: list[int]) -> int:
        return reduce(or_, map(columns.__getitem__, members), 0)

    def first(mask: int) -> int:
        return (mask & -mask).bit_length() - 1

    def decide(level: Level) -> None:
        """The sandwich under single-step and the extreme fibres on one
        level, by bit tests."""
        c, families, cols, add, drop = level
        full = (1 << len(families)) - 1
        absent = [full ^ col for col in cols]
        if single_step:
            below = union(cols, holding_n) & ~union(drop, holding_n)
            above = union(absent, holding_n) & ~union(add, holding_n)
            if below | above:
                at = first(below | above)
                x = _label(params, families[at])
                note("sandwich", c, at,
                     f"i(f({x})) is not below {x}" if below >> at & 1
                     else f"j(f({x})) is not above {x}")
        green_low = reduce(and_, map(absent.__getitem__, kept_members), absent[red])
        red_high = reduce(and_, map(cols.__getitem__, kept_members), cols[red])
        miscoloured = (green_low if c else 0) | (red_high if c < width else 0)
        if miscoloured:
            at = first(miscoloured)
            x = _label(params, families[at])
            note("extreme_fibers", c, at,
                 f"{x} is red in the fiber over the top of Q" if red_high >> at & 1
                 else f"{x} is green in the fiber over the bottom of Q")

    size = 0
    for level in _grow(params):
        size += len(level.families)
        decide(level)
        del level  # the next level grows without this one
    return size, lowest


def _condition_report(lowest: dict[str, tuple[int, int, str]]) -> ConditionReport:
    """descent_conditions' report from _decided's lowest failures."""
    proved = ("p_bounded", "q_bounded", "q_nondegenerate", "f_monotone", "i_monotone", "j_monotone")
    return ConditionReport(
        tuple(Check(name, True) for name in proved),
        tuple(
            Check(name, name not in lowest, lowest[name][2] if name in lowest else None)
            for name in CONDITION_NAMES
        ),
    )


def descent_chain(
    params: GroundParams, kind: OrderKind, max_subsets: int | None
) -> Iterator[tuple[int, int, ConditionReport]]:
    """The paper's induction on B(n,k): descent_conditions for m = n, ..., k+2.

    Yields (m, |B(m,k)|, the report on B(m,k) -> B(m-1,k)) per step, and
    stops after the first step whose conditions fail.  Each order is
    grown once, as a stream of levels, and decided as it grows; only the
    level being read and the one being grown are held.  A step's Q is the
    next step's P, so a step is reported once the next order's stream has
    been read: each growth certifies its order's bounds, P's and then Q's,
    in the order descent_conditions checks them.  max_subsets is checked
    on B(n,k), before any growth, and the orders below have fewer members.
    Once every step passes, the base B(k+1,k) must have exactly two
    families, so that its proper part is empty, the (-1)-sphere;
    InvariantError otherwise.  By the suspension lemma each passing step
    suspends the proper part of B(m-1,k) to that of B(m,k), so PP(B(n,k))
    is an (n-k-2)-sphere up to homotopy.
    """
    _check_width(params, "bfs", max_subsets)
    held = None  # the order read last, its size and lowest failures, not yet reported
    for m in range(params.n, params.k, -1):
        order = GroundParams(m, params.k)
        if m > params.k + 1:
            size, lowest = _decided(order, kind)
        else:
            size, lowest = sum(len(level.families) for level in _grow(order)), {}
        if held is not None:
            above, above_size, above_lowest = held
            report = _condition_report(above_lowest)
            yield above.n, above_size, report
            if not report.all_pass:
                return
        held = order, size, lowest
    if size != 2:
        raise InvariantError(f"the base B({params.k + 1},{params.k}) has {size} families, not 2")


def dissection_doc(order: BruhatOrder, kind: OrderKind) -> dict:
    """The P, Q, green and map blocks of the order's instance file.

    This is the dissection of the level descent B(n,k) -> B(n-1,k), written
    from the enumeration: no poset, whole relation or map object is built.
    The labels are _label of the families, and the bounds are the first
    and last family, which the growth certified (_grow).  A family is
    green iff it lacks the top member {n-k..n}, the colex-largest, so iff
    its top bit is clear.  The tables f, i and j are the mask, identity
    and OR of _level_maps, each image looked up among the enumerated
    families in table order: a miss raises InvariantError, as in
    descent_conditions.  The covers are the order's own under single-step,
    and _inclusion_covers under inclusion.  In the base case n = k+1 there
    is no level below, and the blocks are P and green alone.
    """

    def poset_block(o: BruhatOrder, names: list[str]) -> dict:
        covers = _inclusion_covers(o) if kind is OrderKind.INCLUSION else o.covers
        return {
            "labels": names,
            "covers": [[names[a], names[b]] for a, b in covers],
            "bottom": names[0],
            "top": names[-1],
        }

    params = order.params
    labels = list(map(partial(_label, params), order.bits))
    top = 1 << params.num_members - 1
    doc = {"green": [label for label, b in zip(labels, order.bits) if not b & top]}
    if params.n >= params.k + 2:
        small, kept, added = _level_maps(params)
        suborder = enumerate_bruhat(small)
        sub_labels = list(map(partial(_label, small), suborder.bits))
        index, sub_index = order._index, suborder._index
        try:
            doc["maps"] = {
                "f": {x: sub_labels[sub_index[b & kept]] for x, b in zip(labels, order.bits)},
                "i": {a: labels[index[b]] for a, b in zip(sub_labels, suborder.bits)},
                "j": {a: labels[index[b | added]] for a, b in zip(sub_labels, suborder.bits)},
            }
        except KeyError as exc:
            raise _not_enumerated(params, exc.args[0])
        doc["Q"] = poset_block(suborder, sub_labels)
    doc["P"] = poset_block(order, labels)
    return doc
