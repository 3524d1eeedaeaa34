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
level W - c of W members is level c complemented and read backwards, and
its addable columns are level c's droppable columns, bit-reversed.  Each
level, grown or mirrored, is certified against the packet segments by
the segment kernel, which reads each packet as a monotone run, before
the next one is made.  The growth is a stream of certified levels, each
emitted with its member, addable and droppable columns, level c right
before its mirror W - c: the induction reads the levels as they come
and holds two at a time, and enumerate_bruhat collects them into an
order.  The brute-force oracle runs the same kernel over all bitsets, in
chunks, to decide membership on its own; it must find the same families.
Both relations (single-step inclusion and ordinary inclusion) live on the
same element set; single-step comparability is reachability in the
digraph of single-member additions.  Every cover adds one member, so
covers join consecutive levels, and reach is the level closure: the rows
of a level are built from the rows of the level above alone, top level
first, so only two levels of rows need be held at once.
An order's instance file, the dissection of B(n,k) over B(n-1,k), is
written from the order itself (dissection_doc): the labels, covers,
colouring and map tables are read off the families, and a poset is built
only for an inclusion order whose relation differs from single-step.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left
from functools import cached_property, partial, reduce
from operator import and_, ge, ne, or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import posets
from .errors import InvariantError, NotBoundedError, ParameterError, ResourceLimitError
from .subsets import ConsistentSet, GroundParams, _label, _packet_checks, _segment_columns
from .suspension_check import Check, ConditionReport

__all__ = [
    "OrderKind",
    "BruhatOrder",
    "enumerate_bruhat",
    "level_sizes",
    "compare_orders",
    "to_poset",
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

    def __contains__(self, family: int) -> bool:
        """Whether the order holds the family, by bisection within its level.

        Level c holds the families of cardinality c, in ascending bitset
        order, so no index of all the families is built.
        """
        card = family.bit_count()
        if card >= len(self.addable):
            return False
        lo = self.addable[card][0]
        hi = self.addable[card + 1][0] if card + 1 < len(self.addable) else len(self.bits)
        at = bisect_left(self.bits, family, lo, hi)
        return at < hi and self.bits[at] == family

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


def _inclusion_rows(families, containing: list[int], width: int) -> Iterator[int]:
    """Inclusion up rows of the given families, one at a time.

    A family's row is the AND of its members' columns over their low width
    bits, so the columns set what each bit of a row stands for and width
    how many bits are kept.  Each family shares with the one before the
    members above their highest differing member: the ANDs over those,
    taken highest member first, are kept and only the rest are redone.
    That reuse is exact for families in any order; it saves most when
    consecutive families share their highest members, as within a level
    in ascending bitset order.
    """
    partial = [(1 << width) - 1]
    prev = 0
    for family in families:
        low = (family ^ prev).bit_length()
        del partial[1 + (family >> low).bit_count():]
        for x in reversed(posets._bits(family & ((1 << low) - 1))):
            partial.append(partial[-1] & containing[x])
        yield partial[-1]
        prev = family


def compare_orders(order: BruhatOrder) -> tuple[int, int, list[tuple[int, int]]]:
    """Both orders' comparable pairs, and the pairs under inclusion only.

    Returns the number of comparable pairs a < b under single-step
    inclusion, the number under inclusion, and the pairs of indices
    (i, j) comparable under inclusion only, in (i, j) order.  Each
    family's inclusion row is built next to its reach row from up_levels,
    as the AND of its members' columns over the families at or above its
    level, and both are dropped once their level is compared: at most two
    levels of rows are held, never a whole relation.
    """
    n, bits = len(order), order.bits
    # bit t of a column stands for family n - 1 - t, as in up_levels' rows
    containing = posets._columns(bits[::-1], order.params.num_members)
    single_step_pairs = inclusion_pairs = 0
    by_level: list[list[tuple[int, int]]] = []
    for start, reach in order.up_levels():
        inclusion = _inclusion_rows(bits[start:start + len(reach)], containing, n - start)
        pairs: list[tuple[int, int]] = []
        for i, r, inc in zip(range(start, n), reach, inclusion):
            single_step_pairs += r.bit_count() - 1
            inclusion_pairs += inc.bit_count() - 1
            if inc != r:
                pairs.extend((i, n - 1 - t) for t in reversed(posets._bits(inc & ~r)))
        by_level.append(pairs)
    return single_step_pairs, inclusion_pairs, [p for pairs in reversed(by_level) for p in pairs]


def _bruteforce_bits(params: GroundParams) -> list[int]:
    """Every consistent bitset of the order's width, ascending.

    The segment kernel runs over all 2^W bitsets in chunks of _CHUNK
    consecutive values (one chunk of 2^W when that is smaller).  A chunk
    starts at a multiple of its size, so its member columns are
    arithmetic: bit x of the values runs in blocks of 2^x zeros and 2^x
    ones for x below log2 of the size, and is constant above it.
    """
    width = params.num_members
    low = min(width, _CHUNK.bit_length() - 1)
    size = 1 << low
    full = (1 << size) - 1
    periodic = [
        full // ((1 << (2 << x)) - 1) * (((1 << (1 << x)) - 1) << (1 << x))
        for x in range(low)
    ]
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


def _certified_columns(params: GroundParams, level: list[int]) -> list[int]:
    """The member columns of a level, once the segment kernel has passed them.

    The kernel decides every family of the level on these columns, from
    the segments as monotone runs and apart from the neighbour rule, the
    canonical parent and the mirror.  A family that fails a packet raises
    InvariantError naming the level's first such family and the packet.
    Then the level must be strictly ascending and within the order's
    width, else InvariantError names the level or the order.
    """
    cols = posets._columns(level, params.num_members)
    full = (1 << len(level)) - 1
    for c, passing in _segment_columns(cols, full, params.n, params.k):
        failing = full ^ passing
        if failing:
            bad = level[(failing & -failing).bit_length() - 1]
            raise InvariantError(
                f"enumeration emitted {_label(params, bad)}, which is inconsistent "
                f"on the packet with base {c.base}"
            )
    if any(map(ge, level, itertools.islice(level, 1, None))):
        raise InvariantError(
            f"the growth of B({params.n},{params.k}) repeats a family at level "
            f"{level[0].bit_count()}"
        )
    if level and not 0 <= level[0] <= level[-1] <= params.full_bits:
        raise InvariantError(f"enumeration emitted a bitset out of range for {params}")
    return cols


class Level(NamedTuple):
    """One certified level of B(n,k), as _grow emits it.

    card is the level's cardinality and families its families, ascending.
    Bit f of cols[x] is set iff family f holds member x, of add[x] iff
    family f can take x, and of drop[x] iff family f can drop x.
    """

    card: int
    families: list[int]
    cols: list[int]
    add: list[int]
    drop: list[int]


def _mirror(
    level: list[int], add: list[int], drop: list[int], full: int
) -> tuple[list[int], list[int], list[int]]:
    """The complements of a level's families, their addable and droppable columns.

    The complements come in ascending order, so family g of the result is
    the complement of family len(level) - 1 - g of the level.  The
    addable column of x is the level's droppable column of x bit-reversed
    over the level's length, and the droppable column of x its addable
    column of x, reversed (see _grow).
    """
    flip = partial(_reversed_bits, length=len(level))
    return [full ^ f for f in reversed(level)], list(map(flip, drop)), list(map(flip, add))


def _mirrored(params: GroundParams, level: Level) -> Level:
    """Level W - c, certified on its own columns, from level c (see _grow)."""
    upper, add, drop = _mirror(level.families, level.add, level.drop, params.full_bits)
    cols = _certified_columns(params, upper)
    return Level(params.num_members - level.card, upper, cols, add, drop)


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

    Completeness.  Every level must be strictly ascending and within the
    order's width (_certified_columns).  After level c is certified, its
    droppable columns must have as many set bits as the addable columns
    of level c - 1, else InvariantError names the level.  Let level c - 1
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
    W - c is level c complemented and read backwards, and its addable
    column of x is the droppable column of x of level c, bit-reversed over
    the level's length, and its droppable column of x the addable column
    of x of level c, reversed (_mirror).  Every consistent family of
    cardinality W - c is the complement of one of cardinality c, which
    the growth holds, so the upper levels are complete because the lower
    ones are.  The count runs on the mirrored side too, from the top
    down: the addable columns of level W - c must have as many set bits
    as the droppable columns of level W - c + 1, which checks the
    mirrored columns.

    Every level, grown or mirrored, is certified against the packets by
    the segment kernel on its own columns (_certified_columns), so the
    mirror is checked, not trusted.  A family that fails a packet raises
    InvariantError naming the family and the packet, at the first level
    that holds one, so a faulty rule stops before its levels grow large.

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
    level, below, above = [0], 0, 0
    for c in range(width // 2 + 1):
        cols = _certified_columns(params, level)
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
        yield grown
        if 2 * c < width:
            mirror = _mirrored(params, grown)
            taken = sum(map(int.bit_count, mirror.add))
            if taken != above:
                raise InvariantError(
                    f"the growth of {name} misses a family at level {width - c}: its "
                    f"families take {taken} members, the level above drops {above}"
                )
            above = sum(map(int.bit_count, mirror.drop))
            yield mirror
            # the consumer keeps the mirror if it needs it; the growth does not
            del mirror
        if c < width // 2:
            level = _grown(level, _canonical(add, drop, cols, absent, plan))


def _check_width(params: GroundParams, method: str, max_subsets: int | None) -> None:
    """Refuse an order whose member count exceeds the method's limit."""
    if method not in ("bfs", "bruteforce"):
        raise ParameterError(f"unknown enumeration method {method!r}")
    limit = max_subsets
    if limit is None:
        limit = DEFAULT_BFS_LIMIT if method == "bfs" else DEFAULT_BRUTEFORCE_LIMIT
    width = params.num_members
    if width > limit:
        raise ResourceLimitError(
            f"C({params.n},{params.k + 1}) = {width} members exceeds the {method} "
            f"limit of {limit}"
        )


def enumerate_bruhat(
    params: GroundParams,
    method: str = "bfs",
    max_subsets: int | None = None,
) -> BruhatOrder:
    """Enumerate B(n,k); method is "bfs" or "bruteforce" (an oracle pair).

    This is the one collector of the growth's stream (_grow), which
    certifies every level before the next one is made; a failure raises
    InvariantError.  The lower levels are appended to the order's bits as
    they come, and the mirrored ones, which come top level first, are
    held as lists and appended once the middle is reached, each dropped
    as it is moved: the bits are built once, as a list, and never copied.
    The order keeps each level's addable columns, to give its covers on
    first use.  "bruteforce" then decides membership by scanning every
    bitset against every packet, and raises InvariantError unless the
    scan finds the same families.
    """
    _check_width(params, method, max_subsets)
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
    if method == "bruteforce":
        scanned = sorted(_bruteforce_bits(params), key=lambda b: (b.bit_count(), b))
        if scanned != bits:
            raise InvariantError(
                f"brute-force scan and addable-mask growth disagree: the scan finds "
                f"{len(scanned)} families, the growth {len(bits)}"
            )
    return BruhatOrder(params, bits, tuple(addable))


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


def to_poset(order: BruhatOrder, kind: OrderKind) -> posets.FiniteBoundedPoset:
    """The order as a bounded poset under the relation of the given kind.

    The relation is built from the enumeration's covers and certified by
    construction.  The inclusion order reuses that certificate when its
    rows equal the single-step rows.  Those are streamed from member
    columns (_inclusion_rows), which never read the covers, and compared
    one at a time, so no whole inclusion relation is held; only when a
    row differs are the rows built again, in full, for from_relation's
    validation.

    Element i is labelled _label(params, bits[i]), rendered when the
    poset's labels are first read and then kept.  The bitsets are
    distinct and _label is injective, so the labels are unique unchecked.
    """
    top = len(order) - 1
    p = posets.from_covers(order.bits, order.covers, 0, top, render=partial(_label, order.params))
    if kind is OrderKind.INCLUSION:
        containing = posets._columns(order.bits, order.params.num_members)
        rows = partial(_inclusion_rows, order.bits, containing, len(order))
        if any(map(ne, rows(), p.leq)):
            return posets.from_relation(p.labels, tuple(rows()), bottom=0, top=top)
    return p


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


def _bounded(params: GroundParams, levels: Iterable[Level]) -> Iterator[Level]:
    """The levels, passed on as they come; then NotBoundedError, as to_poset
    raises it, unless the full family is the top.

    The full family lies above every family under both orders iff it is
    the top level's only family and each family below that level takes
    some member.  Then the empty family is the bottom under both orders:
    the growth reaches every family up to the middle level from it by
    single-member additions, and a family above the middle has a lower
    cover, as its complement takes some member.  The error names the
    order's last family in (cardinality, bits) order.
    """
    topped, last, grows = False, (-1, 0), True
    for level in levels:
        if level.card == params.num_members:
            topped = len(level.families) == 1 and level.families[0] == params.full_bits
        elif reduce(or_, level.add, 0) != (1 << len(level.families)) - 1:
            grows = False
        last = max(last, (level.card, level.families[-1]))
        yield level
        del level  # the next level grows without this one
    if not (grows and topped):
        raise NotBoundedError(f"{_label(params, last[1])} is not above every element")


def _bounded_size(params: GroundParams, levels: Iterable[Level]) -> int:
    """The number of families over the levels, once _bounded has passed them."""
    size = 0
    for level in _bounded(params, levels):
        size += len(level.families)
        del level  # the next level grows without this one
    return size


def _check_top(order: BruhatOrder) -> None:
    """_bounded on a collected order, whose levels hold no member columns."""
    levels = enumerate(order._levels())
    _bounded_size(order.params, (
        Level(c, order.bits[start:end], [], add, []) for c, (start, end, add) in levels
    ))


def descent_conditions(params: GroundParams, kind: OrderKind) -> ConditionReport:
    """The lemma's hypotheses on B(n,k) -> B(n-1,k), decided level by level.

    This is check_conditions on the instance that dissection_doc writes
    and resolve_dissection reads back, with the same checks in the same
    order and the same verdicts, but no poset, no relation row and no map
    table is built, and Q is never enumerated.  P = B(n,k) is read from
    its growth's stream, one level at a time, from the columns that the
    growth certified, and each level is dropped after use (_decided).  f,
    i and j are the mask, identity and OR of _level_maps.  A failing
    check's witness is worded as check_conditions words it: each level
    gives its lowest failing family, and the lowest over all levels, in
    (cardinality, bits) order, is the witness.  P's bounds are checked on
    its stream as to_poset checks them (_bounded), then Q's on Q's own
    stream, then the images (_condition_report), the order in which the
    row route checks them.

    Images, from the masks.  Colex ranks do not depend on n, so kept, the
    members without n, is Q's full family.  A packet of P whose base
    avoids n is a packet of Q and holds no added member.  A packet whose
    base B holds n has B - {n} as its first member in lex order, and
    every other member holds n.  Suppose kept is Q's full family and
    added = P's full family minus kept, which _level_maps gives; then:
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
    So the two mask equalities, checked in O(1), decide every image, the
    compositions_identity and images_two_colored.  Masks that fail them
    are decided family by family: an image is enumerated iff it lies
    within its order's width and passes the segment kernel, since the
    growth is complete, and Q's families are P's families within Q's
    width, in the same order.  A missing image raises the InvariantError
    that the row route raises: the first f(x) in P's order, else the
    first j(a) in Q's (i(a) is a family of P by definition).

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

    Decided by bit tests, per level:
    - extreme_fibers: the fibre over Q's bottom (the empty family) is the
      AND of the kept members' absent columns, the fibre over Q's top (its
      full family) the AND of their columns.  Level 0 holds only P's
      bottom and level W only P's top.
    - sandwich, i(f(x)) <= x <= j(f(x)).  Under inclusion, x & kept lies
      in x, and x lies in (x & kept) | added iff x holds no member outside
      kept | added.  Under single-step, by induction on the number of
      members to drop (to add), the lower half holds for every x iff each
      family holding a dropped member has a lower cover dropping one, and
      the upper half iff each family missing an added member, and holding
      nothing outside kept | added, has an upper cover adding one; for the
      converse, the last (first) step of a chain of single-member
      additions from x & kept to x (from x to x | added) is such a cover.
      The upper covers are the level's addable columns.  The lower covers
      are its droppable columns: x minus m is consistent, so the
      enumeration holds it, since it holds every consistent family: the
      growth reaches every one up to the middle level (B(n,k) has the
      empty family as its unique minimum under single-step), the levels
      above are their complements, and the brute-force oracle finds the
      same families.  A family that fails a test fails the sandwich.  A
      family that fails the lower half but passes its test has a lower
      cover that fails the lower half, so the lowest family failing the
      lower half fails its test: when only the lower half fails, the
      witness is the row route's.  An upper failure names the lowest
      family that fails its test, though a lower family may fail too, by
      reaching only such families.

    Proved from the five conditions, as suspension_check's docstring
    shows, so not built: the proof maps g and h and the carrier cones.
    check-lemma reports both as passing when the conditions do.
    """
    small = _level_maps(params)[0]
    lowest = _decided(params, kind)[1]
    _bounded_size(small, _grow(small))
    return _condition_report(params, lowest)


def _decided(
    params: GroundParams, kind: OrderKind
) -> tuple[int, dict[str, tuple[int, int, object]]]:
    """P's size, and the lowest failure of each check that descent_conditions
    decides on P's growth, keyed by check, as (cardinality, index within
    the level, witness); P's bounds are checked on the stream (_bounded).
    """
    small, kept, added = _level_maps(params)
    # labels are rendered only for a witness
    label, sub_label = partial(_label, params), partial(_label, small)
    width = params.num_members
    red = width - 1
    kept_members = posets._bits(kept)
    dropped = posets._bits(params.full_bits & ~kept)
    gained = posets._bits(added)
    stray = posets._bits(params.full_bits & ~kept & ~added)
    single_step = kind is OrderKind.SINGLE_STEP
    by_masks = kept == small.full_bits and added == params.full_bits ^ kept
    # per check, (cardinality, index within the level, witness) of the lowest failure
    lowest: dict[str, tuple[int, int, object]] = {}

    def note(name: str, card: int, at: int, witness) -> None:
        if name not in lowest or (card, at) < lowest[name][:2]:
            lowest[name] = (card, at, witness)

    def union(columns: list[int], members: list[int]) -> int:
        return reduce(or_, map(columns.__getitem__, members), 0)

    def first(mask: int) -> int:
        return (mask & -mask).bit_length() - 1

    def decide(level: Level) -> None:
        """The sandwich and the extreme fibres on one level, by bit tests."""
        c, families, cols, add, drop = level
        full = (1 << len(families)) - 1
        absent = [full ^ col for col in cols]
        below, above = 0, union(cols, stray)
        if single_step:
            below = union(cols, dropped) & ~union(drop, dropped)
            above |= union(absent, gained) & ~union(add, gained)
        if below | above:
            at = first(below | above)
            x = label(families[at])
            half = "i(f({})) is not below {}" if below >> at & 1 else "j(f({})) is not above {}"
            note("sandwich", c, at, half.format(x, x))
        green_low = reduce(and_, map(absent.__getitem__, kept_members), absent[red])
        red_high = reduce(and_, map(cols.__getitem__, kept_members), cols[red])
        miscoloured = (green_low if c else 0) | (red_high if c < width else 0)
        if miscoloured:
            at = first(miscoloured)
            x = label(families[at])
            note("fibres", c, at,
                 f"{x} is red in the fiber over the top of Q" if red_high >> at & 1
                 else f"{x} is green in the fiber over the bottom of Q")

    def by_family(level: Level) -> None:
        """The images, compositions and colours on one level, where the masks
        do not prove them."""
        c, families = level.card, level.families
        images = [b & kept for b in families]
        missing = (1 << len(families)) - 1 & ~_held(small, images)
        if missing:
            note("f", c, first(missing), images[first(missing)])
        subs = [a for a in families if a <= small.full_bits]
        images = [a | added for a in subs]
        missing = (1 << len(subs)) - 1 & ~_held(params, images)
        if missing:
            note("j", c, first(missing), images[first(missing)])
        for at, a in enumerate(subs):
            if a & kept != a or (a | added) & kept != a:
                g = "i" if a & kept != a else "j"
                note("compositions", c, at, f"f({g}({sub_label(a)})) != {sub_label(a)}")
                break
        for at, a in enumerate(subs):
            if a >> red & 1 or not (a | added) >> red & 1:
                note("colours", c, at,
                     f"i({sub_label(a)}) = {label(a)} is red" if a >> red & 1
                     else f"j({sub_label(a)}) = {label(a | added)} is green")
                break

    size = 0
    for level in _bounded(params, _grow(params)):
        size += len(level.families)
        decide(level)
        if not by_masks:
            by_family(level)
        del level  # the next level grows without this one
    return size, lowest


def _condition_report(
    params: GroundParams, lowest: dict[str, tuple[int, int, object]]
) -> ConditionReport:
    """descent_conditions' report from _decided's lowest failures; the first
    missing image raises InvariantError, as on the row route."""
    missing = lowest.get("f") or lowest.get("j")
    if missing is not None:
        raise _not_enumerated(params, missing[2])

    def found(name: str):
        return lowest[name][2] if name in lowest else None

    proved = ("p_bounded", "q_bounded", "q_nondegenerate", "f_monotone", "i_monotone", "j_monotone")
    decided = (
        ("green_is_down_set", None),
        ("compositions_identity", found("compositions")),
        ("images_two_colored", found("colours")),
        ("sandwich", found("sandwich")),
        ("extreme_fibers", found("fibres")),
    )
    return ConditionReport(
        tuple(Check(name, True) for name in proved),
        tuple(Check(name, witness is None, witness) for name, witness in decided),
    )


def _held(params: GroundParams, families: list[int]) -> int:
    """The column of the given bitsets that B(n,k) holds.

    A bitset is a family of the order iff it lies within the order's
    width and meets every packet in a segment, since the growth is
    complete.
    """
    inside = [b & params.full_bits for b in families]
    held = sum(1 << f for f, (b, low) in enumerate(zip(families, inside)) if b == low)
    for _, passing in _segment_columns(
        posets._columns(inside, params.num_members), held, params.n, params.k
    ):
        held &= passing
    return held


def descent_chain(
    params: GroundParams, kind: OrderKind, max_subsets: int | None
) -> Iterator[tuple[int, int, ConditionReport]]:
    """The paper's induction on B(n,k): descent_conditions for m = n, ..., k+2.

    Yields (m, |B(m,k)|, the report on B(m,k) -> B(m-1,k)) per step, and
    stops after the first step whose conditions fail.  Each order is
    grown once, as a stream of levels, and decided as it grows; only the
    level being read and the one being grown are held.  A step's Q is the
    next step's P, so a step is reported once the next order's stream has
    been read: P's bounds, Q's and then the images are checked in the
    order descent_conditions checks them.  max_subsets is checked on
    B(n,k), before any growth, and the orders below have fewer members.
    Once every step passes, the base B(k+1,k) must be bounded with exactly
    two families, so that its proper part is empty, the (-1)-sphere;
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
            size, lowest = _bounded_size(order, _grow(order)), {}
        if held is not None:
            above, above_size, above_lowest = held
            report = _condition_report(above, above_lowest)
            yield above.n, above_size, report
            if not report.all_pass:
                return
        held = order, size, lowest
    if size != 2:
        raise InvariantError(f"the base B({params.k + 1},{params.k}) has {size} families, not 2")


def dissection_doc(order: BruhatOrder, kind: OrderKind) -> dict:
    """The P, Q, green and map blocks of the order's instance file.

    This is the dissection of the level descent B(n,k) -> B(n-1,k), written
    from the enumeration: no poset, relation row or map object is built.
    The labels are _label of the families, and the bounds, the first and
    last family, are checked as descent_conditions checks them
    (_check_top).  A family is green iff it lacks the top member
    {n-k..n}, the colex-largest, so iff its top bit is clear.  The tables
    f, i and j are the mask, identity and OR of _level_maps, each image
    looked up among the enumerated families in table order: a miss raises
    InvariantError, as in descent_conditions.  The covers are the order's
    own, under inclusion too whenever compare_orders finds no pair
    comparable under inclusion only; otherwise they are read from
    to_poset's validated relation.  In the base case n = k+1 there is no
    level below, and the blocks are P and green alone.
    """

    def poset_block(o: BruhatOrder, names: list[str]) -> dict:
        # compare_orders runs first, so its rows and the covers are not held at once
        if kind is OrderKind.INCLUSION and compare_orders(o)[2]:
            covers = to_poset(o, kind).covers()
        else:
            covers = o.covers
        return {
            "labels": names,
            "covers": [[names[a], names[b]] for a, b in covers],
            "bottom": names[0],
            "top": names[-1],
        }

    params = order.params
    _check_top(order)
    labels = list(map(partial(_label, params), order.bits))
    top = 1 << params.num_members - 1
    doc = {"green": [label for label, b in zip(labels, order.bits) if not b & top]}
    if params.n >= params.k + 2:
        small, kept, added = _level_maps(params)
        suborder = enumerate_bruhat(small)
        _check_top(suborder)
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
