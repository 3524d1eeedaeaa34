"""Independent oracles and generators shared by the test modules.

Everything here is deliberately written from the definitions, without
using the library's bitset machinery, or follows an older and slower route
through the library, so the tests cross-check two independent routes to
the same answers.
"""

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from math import gcd
from operator import and_, getitem, ne, or_

from constructions import from_facets
from higher_bruhat import __version__, bruhat, posets
from higher_bruhat.bruhat import (
    BruhatOrder,
    OrderKind,
    _addable,
    _inclusion_rows,
    _neighbour_terms,
    enumerate_bruhat,
)
from higher_bruhat.cli import SPHERICITY_NOTE
from higher_bruhat.complexes import SimplicialComplex, make_complex
from higher_bruhat.errors import InvariantError, NotAPosetError, NotBoundedError, ParameterError
from higher_bruhat.instance_io import SCHEMA_VERSION, poset_to_doc
from higher_bruhat.posets import FiniteBoundedPoset
from higher_bruhat.subsets import (
    ConsistentSet,
    GroundParams,
    _label,
    _packet_checks,
)
from higher_bruhat.suspension_check import Check, ConditionReport, DissectionInstance


def naive_colex_subsets(n, r):
    """All r-subsets of [n] in colex order, by direct recursion on the maximum."""
    if r == 0:
        return [()]
    if r > n:
        return []
    # subsets with max < n first, then subsets with max = n
    return naive_colex_subsets(n - 1, r) + [
        s + (n,) for s in naive_colex_subsets(n - 1, r - 1)
    ]


def naive_violated_bases(members, n, k):
    """The bases of the packets that the family does not meet in a segment.

    Straight from the definition, with list slicing.
    """
    family = {tuple(sorted(m)) for m in members}
    violated = []
    for base in itertools.combinations(range(1, n + 1), k + 2):
        packet = sorted(itertools.combinations(base, k + 1))
        flags = [m in family for m in packet]
        count = sum(flags)
        if count in (0, len(packet)):
            continue
        if not (all(flags[:count]) or all(flags[-count:])):
            violated.append(base)
    return violated


def naive_is_consistent(members, n, k):
    """Segment condition straight from the definition: no violated packet."""
    return not naive_violated_bases(members, n, k)


@lru_cache(maxsize=None)
def naive_member_names(n, r):
    """The "{1,2,4}"-style name of every r-subset of [n], in naive_colex_subsets order."""
    return tuple("{" + ",".join(map(str, s)) + "}" for s in naive_colex_subsets(n, r))


def family(params, *members):
    """The ConsistentSet of the given sorted members, ranked by naive_colex_subsets."""
    ranks = naive_colex_subsets(params.n, params.member_size)
    return ConsistentSet(params, sum(1 << ranks.index(m) for m in set(members)))


def inversion_family(perm):
    """The inversion set of a permutation of [n], as sorted pairs."""
    pos = {v: i for i, v in enumerate(perm)}
    n = len(perm)
    return frozenset(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if pos[i] > pos[j]
    )


def det_int(matrix):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i]:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


def snf_by_minor_gcds(dense):
    """Invariant factors and rank via determinantal divisors.

    d_k = gcd of all k x k minors; the k-th invariant factor is
    d_k / d_{k-1}.  Only viable for small matrices.
    """
    rows = len(dense)
    cols = len(dense[0]) if rows else 0
    divisors = []
    for size in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), size):
            for cs in itertools.combinations(range(cols), size):
                sub = [[dense[r][c] for c in cs] for r in rs]
                g = gcd(g, abs(det_int(sub)))
        if g == 0:
            break
        divisors.append(g)
    factors = []
    prev = 1
    for d in divisors:
        factors.append(d // prev)
        prev = d
    return tuple(factors), len(divisors)


def random_bounded_poset(rng, max_elements=10) -> FiniteBoundedPoset:
    """A random bounded poset with at most max_elements elements."""
    middle = rng.randrange(0, max_elements - 1)
    labels = ["bot"] + [f"m{i}" for i in range(middle)] + ["top"]
    n = len(labels)
    covers = set()
    for a in range(1, middle + 1):
        for b in range(a + 1, middle + 1):
            if rng.random() < 0.3:
                covers.add((a, b))
    has_in = {b for _, b in covers}
    has_out = {a for a, _ in covers}
    for m in range(1, middle + 1):
        if m not in has_in:
            covers.add((0, m))
        if m not in has_out:
            covers.add((m, n - 1))
    if middle == 0:
        covers.add((0, n - 1))
    return FiniteBoundedPoset(labels, sorted(covers), 0, n - 1)


def to_poset(order: BruhatOrder, kind: OrderKind) -> FiniteBoundedPoset:
    """The order as a bounded poset under the relation of the given kind.

    The library's former route, kept as the row oracle.  The relation is
    built from the enumeration's covers and certified by construction.
    The inclusion order reuses that certificate when its rows equal the
    single-step rows.  Those are streamed from member columns
    (_inclusion_rows), which never read the covers, and compared one at a
    time, so no whole inclusion relation is held; only when a row differs
    are the rows built again, in full, and checked by rows_poset.

    Element i is labelled _label(params, bits[i]).
    """
    top = len(order) - 1
    labels = list(map(partial(_label, order.params), order.bits))
    p = FiniteBoundedPoset(labels, order.covers, 0, top)
    if kind is OrderKind.INCLUSION:
        containing = posets._columns(order.bits, order.params.num_members)
        rows = partial(_inclusion_rows, order.bits, containing, len(order))
        if any(map(ne, rows(), p.leq)):
            return rows_poset(p.labels, rows(), 0, top)
    return p


def naive_inclusion_rows(order):
    """Inclusion relation rows of a Bruhat order, one element pair at a time."""
    rows = []
    for u in order.elements:
        row = 0
        for j, v in enumerate(order.elements):
            if u.bits & ~v.bits == 0:
                row |= 1 << j
        rows.append(row)
    return tuple(rows)


def member_column_inclusion_rows(order):
    """Inclusion relation rows of a Bruhat order, as ANDs of member columns.

    Column x holds the elements whose family contains member x, read one
    element at a time; row i is the AND of the columns of i's members.
    """
    everything = (1 << len(order.elements)) - 1
    columns = [
        sum(1 << j for j, v in enumerate(order.elements) if v.bits >> x & 1)
        for x in range(order.params.num_members)
    ]
    rows = []
    for u in order.elements:
        row = everything
        for x in range(order.params.num_members):
            if u.bits >> x & 1:
                row &= columns[x]
        rows.append(row)
    return tuple(rows)


def naive_cover_pairs(order):
    """Cover pairs of a Bruhat order, probing every one-member growth of every element."""
    index = {u.bits: i for i, u in enumerate(order.elements)}
    covers = []
    for i, u in enumerate(order.elements):
        for e in range(order.params.num_members):
            if u.bits >> e & 1:
                continue
            j = index.get(u.bits | 1 << e)
            if j is not None:
                covers.append((i, j))
    return tuple(covers)


def addable_thinned(order, level, x, f):
    """order with bit f of the level's addable column x cleared.

    The cover from the level's family f to that family plus member x is
    gone, and nothing else: covers, reach and compare-orders all read the
    thinned columns.  Inclusion still holds the lost pair.
    """
    start, add = order.addable[level]
    cols = list(add)
    cols[x] &= ~(1 << f)
    addable = order.addable[:level] + ((start, tuple(cols)),) + order.addable[level + 1:]
    return BruhatOrder(order.params, order.bits, addable)


def addable_bits(order):
    """(level, x, f) of every set bit of every addable column: one per cover."""
    return [
        (level, x, f)
        for level, (_, add) in enumerate(order.addable)
        for x, col in enumerate(add)
        for f in members(col)
    ]


def addable_cover(order, level, x, f):
    """The cover (a, b) that bit f of the level's addable column x stands for."""
    a = order.addable[level][0] + f
    return a, order._index[order.bits[a] | 1 << x]


def bounded_thinning(order):
    """(level, x, f) of the first cover a < b whose loss keeps the order bounded.

    a has another upper cover and b another lower one, so the order thinned
    by addable_thinned keeps its bounds under single-step but loses a <= b;
    inclusion keeps every pair.
    """
    uppers = [a for a, _ in order.covers]
    lowers = [b for _, b in order.covers]
    return next(
        m for m in addable_bits(order)
        if uppers.count(addable_cover(order, *m)[0]) > 1
        and lowers.count(addable_cover(order, *m)[1]) > 1
    )


def closure_reach_rows(order):
    """Single-step up rows as the closure of order.covers, over the whole order.

    The library's former route: a Kahn sort of the cover digraph, then each
    element's bit ORed with the rows of its upper covers, in reverse
    topological order.
    """
    n = len(order)
    above = [[] for _ in range(n)]
    indegree = [0] * n
    for a, b in order.covers:
        above[a].append(b)
        indegree[b] += 1
    topological = [i for i in range(n) if not indegree[i]]
    for i in topological:
        for j in above[i]:
            indegree[j] -= 1
            if not indegree[j]:
                topological.append(j)
    assert len(topological) == n, "the cover digraph has a cycle"
    rows = [0] * n
    for i in reversed(topological):
        rows[i] = reduce(or_, (rows[j] for j in above[i]), 1 << i)
    return tuple(rows)


def whole_relation_compare(order):
    """compare-orders' counts and differing pairs, from two whole relations.

    The library's former route: reach is closure_reach_rows and inclusion
    is member_column_inclusion_rows, a subset test member by member (the
    Bruhat tests check it against the pairwise subset test).
    """
    reach = closure_reach_rows(order)
    inclusion = member_column_inclusion_rows(order)
    differing = [
        [naive_label(order.elements[i]), naive_label(order.elements[j])]
        for i, (inc, row) in enumerate(zip(inclusion, reach))
        for j in members(inc & ~row)
    ]
    return {
        "count": len(order),
        "comparable_pairs_single_step": sum(row.bit_count() - 1 for row in reach),
        "comparable_pairs_inclusion": sum(row.bit_count() - 1 for row in inclusion),
        "differing_pairs_count": len(differing),
        "differing_pairs": differing,
    }


def naive_label(u):
    """The label of a consistent family, member by member."""
    names = naive_member_names(u.params.n, u.params.member_size)
    return "{" + ",".join(names[x] for x in members(u.bits)) + "}"


def naive_covers(p):
    """Pairs a < b with nothing strictly between, one triple at a time."""
    n = len(p.labels)
    return tuple(
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b
        and p.le(a, b)
        and not any(c not in (a, b) and p.le(a, c) and p.le(c, b) for c in range(n))
    )


def members(live):
    """The indices in the mask live, ascending, one bit at a time."""
    return [i for i in range(live.bit_length()) if live >> i & 1]


def iter_chains(p, live):
    """All non-empty chains of live, each listed in increasing poset order."""
    points = posets._bits(live)
    strict_up = {i: posets._bits(p.leq[i] & live & ~(1 << i)) for i in points}

    def extend(chain):
        yield chain
        for j in strict_up[chain[-1]]:
            yield from extend(chain + (j,))

    for start in points:
        yield from extend((start,))


def bottom_up(p, live):
    """The members of live sorted by down-set size, a linear extension."""
    # an element's down-set is a proper superset of the down-set of every
    # element below it
    return sorted(posets._bits(live), key=lambda i: p.down[i].bit_count())


def count_chains(p, live):
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
    planes = []
    total = 0
    for i in bottom_up(p, live):
        e = 1
        for t, count in enumerate(map(int.bit_count, map(down[i].__and__, planes))):
            e += count << t
        total += e
        bit = 1 << i
        planes.extend(itertools.repeat(0, e.bit_length() - len(planes)))
        for t in posets._bits(e):
            planes[t] |= bit
    return total


def order_complex(p, live):
    """The simplicial complex whose simplices are the chains of live.

    Vertex v is the v-th member of live in index order.
    """
    position = {i: v for v, i in enumerate(posets._bits(live))}
    chains = iter_chains(p, live)
    return make_complex(len(position), (tuple(map(position.__getitem__, c)) for c in chains))


def proper_part_complex(p):
    """The order complex of the proper part of p."""
    return order_complex(p, proper_part(p))


def naive_boolean_atoms(p, live):
    """m if live is the proper part of a Boolean lattice on m atoms, else
    None: straight from the definition, with one frozenset of atoms per
    point and one le() per pair.  The empty subposet has m = 1."""
    points = members(live)
    if not points:
        return 1
    atoms = [a for a in points if not any(b != a and p.le(b, a) for b in points)]
    image = {x: frozenset(a for a in atoms if p.le(a, x)) for x in points}
    proper = {
        frozenset(c) for r in range(1, len(atoms)) for c in itertools.combinations(atoms, r)
    }
    boolean = (
        len(points) == len(proper)
        and set(image.values()) == proper
        and all(p.le(x, y) == (image[x] <= image[y]) for x in points for y in points)
    )
    return len(atoms) if boolean else None


def naive_chains(p, live):
    """Every non-empty subset of live that p totally orders, ascending by index."""
    points = members(live)
    return [
        subset
        for size in range(1, len(points) + 1)
        for subset in itertools.combinations(points, size)
        if all(p.le(a, b) or p.le(b, a) for a, b in itertools.combinations(subset, 2))
    ]


# The routes below are the library's former per-bit and pair-walk routes,
# kept verbatim as oracles for the certified, cover-based ones.


def bitwise_transpose(rows, width):
    """Column bitsets of a bit matrix, one lowest set bit at a time."""
    cols = [0] * width
    for i, row in enumerate(rows):
        m = row
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= 1 << i
            m ^= low
    return tuple(cols)


def per_bitset_bruteforce_bits(params):
    """Every consistent bitset, testing each bitset against each packet in turn."""
    checks = _packet_checks(params.n, params.k)
    out = []
    for bits in range(1 << params.num_members):
        for c in checks:
            if (bits & c.mask) not in c.segments:
                break
        else:
            out.append(bits)
    return out


def blocking_tables(n, k):
    """Per packet, a table from its current segment to the members it blocks.

    A consistent family meets each packet in a segment; the table maps that
    segment to the packet members outside it whose addition would leave a
    non-segment.  Returned with the packet masks, in packet order.
    """
    tables = []
    masks = []
    for c in _packet_checks(n, k):
        table = {}
        for segment in c.segments:
            blocked = 0
            m = c.mask & ~segment
            while m:
                low = m & -m
                if segment | low not in c.segments:
                    blocked |= low
                m ^= low
            table[segment] = blocked
        tables.append(table)
        masks.append(c.mask)
    return tuple(tables), tuple(masks)


def explicit_segment_columns(cols, full, n, k):
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


def all_levels_grow(params):
    """Elements in (cardinality, bits) order and each level's addable columns.

    The library's growth before it mirrored the upper half and kept one
    parent per family: every level, up to the full family, is the sorted
    set of all growths of the level below, transposed bit by bit and
    certified by the explicit-segment kernel, with no use of complements.
    """
    width = params.num_members
    terms = _neighbour_terms([c.members for c in _packet_checks(params.n, params.k)], width)
    elements: list[int] = []
    levels: list[tuple[int, tuple[int, ...]]] = []
    level = [0]
    while level:
        cols = bitwise_transpose(level, width)
        full = (1 << len(level)) - 1
        for c, passing in explicit_segment_columns(cols, full, params.n, params.k):
            failing = full ^ passing
            if failing:
                bad = level[(failing & -failing).bit_length() - 1]
                raise InvariantError(
                    f"enumeration emitted {_label(params, bad)}, which is inconsistent "
                    f"on the packet with base {c.base}"
                )
        add = _addable(cols, [full ^ col for col in cols], terms)
        levels.append((len(elements), tuple(add)))
        elements.extend(level)
        level = sorted(
            {level[f] | 1 << x for x, col in enumerate(add) for f in posets._bits(col)}
        )
    return elements, levels


def table_grow(params):
    """Elements in (cardinality, bits) order and covers in (i, j) order.

    Each family's addable mask is read from the per-packet blocking tables,
    one family at a time.
    """
    tables, masks = blocking_tables(params.n, params.k)
    full = params.full_bits

    def addable(bits):
        segments = map(and_, itertools.repeat(bits), masks)
        return full & ~bits & ~reduce(or_, map(getitem, tables, segments), 0)

    elements = []
    covers = []
    level = [0]
    while level:
        growths = []
        for bits, add in zip(level, map(addable, level)):
            row = []
            while add:
                low = add & -add
                row.append(bits | low)
                add ^= low
            growths.append(row)
        upper = sorted(set(itertools.chain.from_iterable(growths)))
        pos = {bits: j for j, bits in enumerate(upper, len(elements) + len(level))}
        for i, row in enumerate(growths, len(elements)):
            covers.extend(zip(itertools.repeat(i), map(pos.__getitem__, row)))
        elements.extend(level)
        level = upper
    return elements, covers


def pair_walk_validate(labels, leq, bottom, top):
    """Raise unless the rows are a bounded partial order, pair by pair."""
    n = len(labels)
    if len(leq) != n:
        raise ParameterError("labels and relation rows differ in length")
    if len(set(labels)) != n:
        raise ParameterError("labels must be unique")
    full = (1 << n) - 1
    for i, row in enumerate(leq):
        if row & ~full:
            raise ParameterError(f"row {i} references elements out of range")
        if not row >> i & 1:
            raise NotAPosetError(f"relation is not reflexive at {labels[i]}")
    for i, (row, col) in enumerate(zip(leq, bitwise_transpose(leq, n))):
        both = row & col & ~(1 << i)
        if both:
            j = (both & -both).bit_length() - 1
            raise NotAPosetError(
                f"relation is not antisymmetric on {labels[i]}, {labels[j]}"
            )
    for i in range(n):
        row = leq[i]
        m = row
        while m:
            low = m & -m
            j = low.bit_length() - 1
            if leq[j] & ~row:
                raise NotAPosetError(f"relation is not transitive through {labels[j]}")
            m ^= low
    if not 0 <= bottom < n or not 0 <= top < n:
        raise NotBoundedError("bottom/top index out of range")
    if leq[bottom] != full:
        raise NotBoundedError(f"{labels[bottom]} is not below every element")
    for i in range(n):
        if not leq[i] >> top & 1:
            raise NotBoundedError(f"{labels[top]} is not above every element")


def hasse(labels, up):
    """Covers of a reflexive, antisymmetric relation given by its up rows,
    ascending; NotAPosetError if the relation is not transitive.

    beyond is the union of the strict up-sets of the elements strictly
    above i.  The relation is transitive iff every strict up-set holds its
    beyond, and then the covers of i are its strict up-set minus beyond.
    """
    strict = [row & ~(1 << i) for i, row in enumerate(up)]
    out = []
    for i, row in enumerate(strict):
        members = posets._bits(row)
        beyond = reduce(or_, map(strict.__getitem__, members), 0)
        if beyond & ~row:
            j = next(j for j in members if strict[j] & ~row)
            raise NotAPosetError(f"relation is not transitive through {labels[j]}")
        out.extend(zip(itertools.repeat(i), posets._bits(row & ~beyond)))
    return tuple(out)


def rows_poset(labels, rows, bottom, top):
    """The bounded poset whose up rows are rows, built from their covers.

    The rows are checked pair by pair and reduced to their covers; the
    class's closure of those covers must give the rows back.
    """
    labels, rows = tuple(labels), tuple(rows)
    pair_walk_validate(labels, rows, bottom, top)
    p = FiniteBoundedPoset(labels, hasse(labels, rows), bottom, top)
    assert p.leq == rows
    return p


def pair_walk_check_monotone(source, target, images):
    """(ok, violating pairs) from every comparable pair of the source."""
    violations = []
    for i in range(len(source.labels)):
        mm = source.leq[i]
        while mm:
            low = mm & -mm
            j = low.bit_length() - 1
            if not target.leq[images[i]] >> images[j] & 1:
                violations.append((i, j))
            mm ^= low
    return not violations, violations


def size_sorted_count_chains(p, live):
    """Non-empty chains of live, by the down-set recursion over transposed rows."""
    n = len(p.labels)
    below = [col & live & ~(1 << j) for j, col in enumerate(bitwise_transpose(p.leq, n))]
    ending = [0] * n
    for i in sorted(members(live), key=lambda i: below[i].bit_count()):
        total = 1
        m = below[i]
        while m:
            low = m & -m
            total += ending[low.bit_length() - 1]
            m ^= low
        ending[i] = total
    return sum(ending)


def any_beat_core(p, live):
    """beat_core by its former route: each point is tested against every
    member of its strict down-set and strict up-set, in any index order."""
    up, down = p.leq, p.down

    def has_extremum(strict, rows):
        # the extremum of `strict` is the member whose closed row holds it all
        return any(not strict & ~rows[j] for j in posets._bits(strict))

    changed = True
    while changed:
        changed = False
        for i in posets._bits(live):
            bit = 1 << i
            if live & bit and (
                has_extremum(down[i] & live & ~bit, down)
                or has_extremum(up[i] & live & ~bit, up)
            ):
                live &= ~bit
                changed = True
    return live


@dataclass(frozen=True)
class OverLimit:
    """chain_f_vector's answer when its count passed the limit after visited points."""

    visited: int


def chain_f_vector(p, live, limit=None):
    """Non-empty chains of live counted by size, without enumerating them:
    the census that verify-sphericity once ran on the whole proper part.

    Entry d counts the chains of d + 1 elements, so this is the f-vector of
    the order complex.  It runs the down-set recursion of count_chains with
    one count per chain size, over the points of live bottom up.  With a
    limit, the count stops at the first point whose chains take the running
    total past limit, and returns OverLimit.
    """
    if limit is not None and limit < 0:
        return OverLimit(0)
    down = p.down
    ending = [[] for _ in down]
    total = 0
    for visited, i in enumerate(bottom_up(p, live), 1):
        lower = map(ending.__getitem__, posets._bits(down[i] & live & ~(1 << i)))
        # a chain ending at i is i alone or i on top of a chain ending below i
        ending[i] = [1, *map(sum, itertools.zip_longest(*lower, fillvalue=0))]
        total += sum(ending[i])
        if limit is not None and total > limit:
            return OverLimit(visited)
    return tuple(map(sum, itertools.zip_longest(*ending, fillvalue=0)))


def bitwise_green_witness(p, green):
    """The green_is_down_set witness, one green element and one bit at a time."""
    down = bitwise_transpose(p.leq, len(p.labels))
    for y in sorted(green):
        m = down[y]
        while m:
            low = m & -m
            x = low.bit_length() - 1
            if x not in green:
                lx, ly = p.labels[x], p.labels[y]
                return f"{lx} <= {ly} with {ly} green but {lx} red"
            m ^= low
    return None


def naive_beat_points(p, live):
    """Points of live whose strict down-set in live has a maximum or whose
    strict up-set in live has a minimum."""
    points = members(live)
    beats = []
    for x in points:
        below = [y for y in points if y != x and p.le(y, x)]
        above = [y for y in points if y != x and p.le(x, y)]
        if any(all(p.le(y, m) for y in below) for m in below) or any(
            all(p.le(m, y) for y in above) for m in above
        ):
            beats.append(x)
    return beats


# The Boolean-core route: the certificate verify-sphericity gave before the
# paper's induction, kept as its cross-check oracle.


def proper_part(p: FiniteBoundedPoset) -> int:
    """The mask of p's elements other than its bounds.

    A one-element poset has an empty proper part.
    """
    return ((1 << len(p)) - 1) & ~(1 << p.bottom | 1 << p.top)


def beat_core(p: FiniteBoundedPoset, live: int) -> int:
    """Delete beat points of the subposet live until none is left (Stong, 1966).

    A beat point is a point whose strict down-set has a maximum or whose
    strict up-set has a minimum.  Deleting one keeps the homotopy type of
    the order complex, so the core has the homotopy type of live.  The
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
        for i in posets._bits(live):
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


def boolean_core(p: FiniteBoundedPoset, core: int) -> tuple[int, tuple[str, str] | None]:
    """Recognise the subposet core as the proper part of a Boolean lattice.

    Returns (m, failure).  The atoms are the m minimal points of core, and
    the image of a point x is the set of atoms below it, down[x] & atoms.
    failure is None, or the (check, witness) pair of the first of these
    checks that fails, its witness naming a point by its label:

    - size: core has 2^m - 2 points;
    - images: the images are distinct proper subsets of the atoms;
    - order: the points of core above x are those above every atom in
      x's image.

    Proof that they make x -> image(x) an order isomorphism onto the
    non-empty proper subsets of the atoms.  Every image is non-empty,
    since each point of a finite poset lies above a minimal one.  By
    images the map is injective into those 2^m - 2 subsets, so by size it
    is onto them.  The order check says that, for x and y in core,
    x <= y iff every atom below x is below y, that is image(x) ⊆
    image(y).  So core is the proper part of the Boolean lattice on m
    atoms, whose order complex is sd ∂Δ^(m-1) ≅ S^(m-2) (Björner,
    "Topological methods", 1995).  A beat-point core has the homotopy
    type of the subposet it came from (see beat_core).

    An empty core is the proper part of the one-atom lattice: m = 1, and
    the core is S^-1.  A label is rendered only for a witness.
    """
    if not core:
        return 1, None
    up, down = p.leq, p.down
    points = posets._bits(core)
    atoms = reduce(or_, (1 << x for x in points if down[x] & core == 1 << x))
    m = atoms.bit_count()
    if len(points) != (1 << m) - 2:
        return m, ("size", f"{len(points)} points on {m} atoms, not {(1 << m) - 2}")
    seen: dict[int, int] = {}
    for x in points:
        image = down[x] & atoms
        if image == atoms:
            return m, ("images", f"{p.labels[x]} lies above every atom")
        if image in seen:
            other = p.labels[seen[image]]
            return m, ("images", f"{other} and {p.labels[x]} lie above the same atoms")
        seen[image] = x
    for x in points:
        # up[x] lies inside the AND by transitivity, so only a point above
        # x's atoms but not above x can tell them apart
        missed = reduce(and_, map(up.__getitem__, posets._bits(down[x] & atoms)), core) & ~up[x]
        if missed:
            y = (missed & -missed).bit_length() - 1
            return m, (
                "order",
                f"{p.labels[y]} lies above every atom below {p.labels[x]} but not above it",
            )
    return m, None


def core_route(n, k, kind):
    """The Boolean-core route on B(n,k): the poset, its core and the verdict.

    It builds the relation rows (to_poset), deletes the beat points of the
    proper part (beat_core) and recognises the core as the proper part of
    a Boolean lattice (boolean_core).  A Boolean core on m atoms is an
    (m-2)-sphere up to homotopy, so the verdict is is_sphere, whether the
    core is Boolean, and sphere_dimension, m - 2.  The rows take ~|B(n,k)|^2
    / 8 bytes per direction: 1.26 GB on B(8,4).
    """
    p = to_poset(enumerate_bruhat(GroundParams(n, k)), OrderKind(kind))
    core = beat_core(p, proper_part(p))
    atoms, failure = boolean_core(p, core)
    return p, core, {"is_sphere": failure is None, "sphere_dimension": atoms - 2}


def full_route_report(n, k, kind):
    """The verify-sphericity report of a sphere, its verdict from the
    Boolean-core oracle (core_route).

    The steps are those of an induction whose every step passes, each
    with |B(m,k)| from its own enumeration.  The oracle must find a
    Boolean core on n-k atoms, as it does on every B(n,k).
    """
    _, _, verdict = core_route(n, k, kind)
    assert verdict == {"is_sphere": True, "sphere_dimension": n - k - 2}, (n, k, kind)
    steps = [
        {"n": m, "elements": len(enumerate_bruhat(GroundParams(m, k))), "passed": True}
        for m in range(n, k + 1, -1)
    ]
    return {
        "version": __version__,
        "command": "verify_sphericity",
        "n": n,
        "k": k,
        "order": kind,
        "route": "induction",
        **verdict,
        "steps": steps,
        "failed_check": None,
        "notes": [SPHERICITY_NOTE],
    }


def green(order):
    """Indices of the green families, those without the member {n-k..n}.

    That member is the colex-largest, so a family is green iff its top bit
    is clear.
    """
    top = 1 << order.params.num_members - 1
    return frozenset(i for i, b in enumerate(order.bits) if not b & top)


def dissection_instance(order, kind):
    """The row-route oracle: the level descent as posets and image tables.

    Builds P from the order and Q from the order one ground-set size down,
    both with to_poset under the relation of the given kind, colours the
    elements green/red, and tabulates the three maps of _level_maps: f
    forgets the members holding n, i keeps a family as it is, and j adds
    every member holding n.  An image that was not enumerated raises the
    library's InvariantError.  check_conditions on this instance is the
    oracle of descent_conditions, and instance_to_doc of it the oracle of
    the export.  The bruhat names are looked up on each call, so that a
    test's monkeypatch of them reaches the oracle too.
    """
    params = order.params
    small, kept, added = bruhat._level_maps(params)
    suborder = bruhat.enumerate_bruhat(small)
    p = to_poset(order, kind)
    q = to_poset(suborder, kind)
    index, sub_index = order._index, suborder._index
    try:
        f_images = tuple(sub_index[b & kept] for b in order.bits)
        i_images = tuple(index[b] for b in suborder.bits)
        j_images = tuple(index[b | added] for b in suborder.bits)
    except KeyError as exc:
        raise bruhat._not_enumerated(params, exc.args[0])
    return DissectionInstance(
        p=p,
        q=q,
        green=green(order),
        f=f_images,
        i=i_images,
        j=j_images,
    )


def order_holds(order, family):
    """Whether the order holds the family, by bisection within its level.

    Level c holds the families of cardinality c, in ascending bitset
    order, so no index of all the families is built.
    """
    card = family.bit_count()
    if card >= len(order.addable):
        return False
    lo = order.addable[card][0]
    hi = order.addable[card + 1][0] if card + 1 < len(order.addable) else len(order.bits)
    at = bisect_left(order.bits, family, lo, hi)
    return at < hi and order.bits[at] == family


def broken_mask_message(params, name, mask, proved):
    """The error that descent_conditions raises when _level_maps gives
    f's or j's mask (name) as mask, not as the proved one."""
    return (
        f"the descent B({params.n},{params.k}) -> B({params.n - 1},{params.k}) has the "
        f"{name} mask {_label(params, mask)}, not the proved {_label(params, proved)}"
    )


def check_order_bounds(order):
    """NotBoundedError unless the order's full family is its top.

    That holds under both orders iff the top level holds the full family
    alone and every family below it takes some member: by induction on
    the cardinalities still to add, each such family then lies below the
    full family.  The error names the order's last family.
    """
    params, levels = order.params, order._levels()
    top_start, _, _ = levels[-1]
    topped = list(order.bits[top_start:]) == [params.full_bits]
    grows = all(reduce(or_, add, 0) == (1 << end - start) - 1 for start, end, add in levels[:-1])
    if not (topped and grows):
        raise NotBoundedError(f"{_label(params, order.bits[-1])} is not above every element")


def top_dropping(params):
    """A bruhat._mirrored that leaves the top level of params' order empty.

    The emptied top keeps its member, addable and droppable columns, so
    the segment kernel and both cover counts still pass it, and only the
    growth's bounds check sees that the full family is gone.
    """
    real = bruhat._mirrored

    def mirrored(of, level):
        mirror = real(of, level)
        if of == params and mirror.card == of.num_members:
            return mirror._replace(families=[])
        return mirror

    return mirrored


def lookup_descent_conditions(order, suborder, kind):
    """The library's descent_conditions before it read the growth's stream.

    P and Q are whole enumerated orders.  Every image f(x), i(a) and j(a)
    is looked up among the enumerated families, the compositions and
    colours are tested per family of Q, and every level is transposed and
    its droppable columns built again.  The streamed descent_conditions
    must give the same checks, verdicts, witnesses and errors.  The
    bruhat names are looked up on each call, so that a test's monkeypatch
    of them reaches the oracle too.
    """
    params = order.params
    small, kept, added = bruhat._level_maps(params)
    if suborder.params != small:
        got = suborder.params
        raise ParameterError(f"Q must be B({small.n},{small.k}), got B({got.n},{got.k})")
    check_order_bounds(order)
    check_order_bounds(suborder)
    in_q = set(suborder.bits)
    missing = next(
        itertools.chain(
            (b & kept for b in order.bits if b & kept not in in_q),
            (a for a in suborder.bits if not order_holds(order, a)),
            (a | added for a in suborder.bits if not order_holds(order, a | added)),
        ),
        None,
    )
    if missing is not None:
        raise bruhat._not_enumerated(params, missing)

    # labels are rendered only for a witness
    label, sub_label = partial(_label, params), partial(_label, small)
    width, bits = params.num_members, order.bits
    red = width - 1
    compositions = next(
        (
            f"f({g}({sub_label(a)})) != {sub_label(a)}"
            for a in suborder.bits
            for g, image in (("i", a), ("j", a | added))
            if image & kept != a
        ),
        None,
    )
    colours = next(
        (
            f"i({sub_label(a)}) = {label(a)} is red" if a >> red & 1
            else f"j({sub_label(a)}) = {label(a | added)} is green"
            for a in suborder.bits
            if a >> red & 1 or not (a | added) >> red & 1
        ),
        None,
    )

    packets = [c.members for c in _packet_checks(params.n, params.k)]
    terms = bruhat._neighbour_terms(packets, width)
    kept_members = posets._bits(kept)
    dropped = posets._bits(params.full_bits & ~kept)
    gained = posets._bits(added)
    stray = posets._bits(params.full_bits & ~kept & ~added)
    single_step = kind is OrderKind.SINGLE_STEP

    def union(columns: list[int], members: list[int]) -> int:
        return reduce(or_, map(columns.__getitem__, members), 0)

    def lowest(mask: int) -> int:
        return (mask & -mask).bit_length() - 1

    sandwich = fibres = None
    for start, end, add in order._levels():
        cols = posets._columns(bits[start:end], width)
        full = (1 << end - start) - 1
        absent = [full ^ col for col in cols]
        below, above = 0, union(cols, stray)
        if single_step:
            drop = bruhat._droppable(cols, absent, terms)
            below = union(cols, dropped) & ~union(drop, dropped)
            above |= union(absent, gained) & ~union(add, gained)
        if sandwich is None and below | above:
            at = lowest(below | above)
            x = label(bits[start + at])
            sandwich = (
                f"i(f({x})) is not below {x}" if below >> at & 1 else f"j(f({x})) is not above {x}"
            )
        green_low = reduce(and_, map(absent.__getitem__, kept_members), absent[red])
        red_high = reduce(and_, map(cols.__getitem__, kept_members), cols[red])
        miscoloured = (green_low if start else 0) | (red_high if end < len(bits) else 0)
        if fibres is None and miscoloured:
            at = lowest(miscoloured)
            x = label(bits[start + at])
            fibres = (
                f"{x} is red in the fiber over the top of Q" if red_high >> at & 1
                else f"{x} is green in the fiber over the bottom of Q"
            )

    proved = ("p_bounded", "q_bounded", "q_nondegenerate", "f_monotone", "i_monotone", "j_monotone")
    decided = (
        ("green_is_down_set", None),
        ("compositions_identity", compositions),
        ("images_two_colored", colours),
        ("sandwich", sandwich),
        ("extreme_fibers", fibres),
    )
    return ConditionReport(
        tuple(Check(name, True) for name in proved),
        tuple(Check(name, witness is None, witness) for name, witness in decided),
    )


def collected_levels(order):
    """The Level records of a collected order, lowest level first.

    The columns are transposed from the families and the droppable
    columns built from them, apart from the growth's own.
    """
    params = order.params
    terms = _neighbour_terms(
        [c.members for c in _packet_checks(params.n, params.k)], params.num_members
    )
    for card, (start, end, add) in enumerate(order._levels()):
        families = list(order.bits[start:end])
        cols = posets._columns(families, params.num_members)
        full = (1 << len(families)) - 1
        drop = bruhat._droppable(cols, [full ^ col for col in cols], terms)
        yield bruhat.Level(card, families, cols, list(add), drop)


def instance_to_doc(inst):
    """A dissection instance in the explicit document form, from its posets and maps."""
    return {
        "schema": SCHEMA_VERSION,
        "P": poset_to_doc(inst.p),
        "Q": poset_to_doc(inst.q),
        "green": [inst.p.labels[i] for i in sorted(inst.green)],
        "maps": {
            "f": {inst.p.labels[x]: inst.q.labels[inst.f[x]]
                  for x in range(len(inst.p.labels))},
            "i": {inst.q.labels[a]: inst.p.labels[inst.i[a]]
                  for a in range(len(inst.q.labels))},
            "j": {inst.q.labels[a]: inst.p.labels[inst.j[a]]
                  for a in range(len(inst.q.labels))},
        },
    }


def condition_verdicts(report):
    """(name, passed, witness) of every precondition and condition, in order."""
    return [(c.name, c.passed, c.witness) for c in report.preconditions + report.conditions]


def chain_carrier_failures(inst):
    """Carrier-cone failures found by walking every chain of the proper part of P.

    The carrier of a chain s is the set of proper x with i(f(min s)) <= x <=
    j(f(max s)).  Its apex is i(f(min s)) when that is proper, else
    j(f(max s)) when that is; the apex must lie in the carrier and be
    comparable to all of it.  Each failure is worded as carrier_cone_check
    words it, with the chain named by its least and greatest elements, so
    the result is the chain failure set projected to (min, max).
    """
    p = inst.p
    bounds = (p.bottom, p.top)
    failures = set()
    for chain in iter_chains(p, proper_part(p)):
        least, greatest = chain[0], chain[-1]
        lo = inst.i[inst.f[least]]
        hi = inst.j[inst.f[greatest]]
        name = p.labels[least]
        if least != greatest:
            name += "<" + p.labels[greatest]
        apex = next((x for x in (lo, hi) if x not in bounds), None)
        if apex is None:
            failures.add(f"chain {name}: neither carrier endpoint is proper")
            continue
        carrier = [
            x for x in range(len(p.labels))
            if x not in bounds and p.le(lo, x) and p.le(x, hi)
        ]
        if apex not in carrier:
            failures.add(f"chain {name}: apex {p.labels[apex]} outside its carrier")
            continue
        stray = [x for x in carrier if not (p.le(x, apex) or p.le(apex, x))]
        if stray:
            failures.add(
                f"chain {name}: carrier element {p.labels[max(stray)]} is "
                f"incomparable to apex {p.labels[apex]}"
            )
    return failures



class ConditionViolationError(InvariantError):
    """build_proof_maps found a map that is not well defined, monotone or a section."""


def product_with_two_chain(q):
    """The poset q x {0,1} with componentwise order.

    Element (a, s) has index a + s * len(q) and label "(a,s)", from q's
    labels; (a, s) <= (b, t) iff a <= b in q and s <= t.  Its covers are
    q's in each layer plus (a, 0) < (a, 1).
    """
    n = len(q)
    covers = (
        q.cover_pairs
        + tuple((a + n, b + n) for a, b in q.cover_pairs)
        + tuple((a, a + n) for a in range(n))
    )
    labels = [f"({q.labels[z % n]},{z // n})" for z in range(2 * n)]
    return FiniteBoundedPoset(labels, covers, q.bottom, q.top + n)


@dataclass(frozen=True)
class PosetMap:
    """A map between posets as build_proof_maps returns it: its image table
    and the posets at both ends."""

    source: FiniteBoundedPoset
    target: FiniteBoundedPoset
    images: tuple


def build_proof_maps(inst):
    """Build and check the comparison maps between the proper parts, on rows.

    The oracle of the proofs in suspension_check's docstring.  g sends a
    green proper x to (f(x), 0) and a red proper x to (f(x), 1) in
    Q x {0,1}; h sends a proper (a, 0) to i(a) and a proper (a, 1) to
    j(a) back in P.  Both send bounds to bounds, so a map is monotone iff
    its restriction to the proper parts is.  Raises ConditionViolationError
    if either map sends a proper element to a bound, fails monotonicity,
    or g o h is not the identity on the proper part; on a broken instance
    the first violated obligation is reported.
    """
    p, q = inst.p, inst.q
    nq = len(q)
    doubled = product_with_two_chain(q)
    bounds_p, bounds_z = (p.bottom, p.top), (doubled.bottom, doubled.top)

    g_images = [0] * len(p)
    g_images[p.bottom], g_images[p.top] = bounds_z
    for x in posets._bits(proper_part(p)):
        side = 0 if x in inst.green else 1
        z = inst.f[x] + side * nq
        if z in bounds_z:
            raise ConditionViolationError(
                f"g is not well-defined: {p.labels[x]} maps to the bound "
                f"{doubled.labels[z]}"
            )
        g_images[x] = z
    g = PosetMap(p, doubled, tuple(g_images))

    h_images = [0] * len(doubled)
    h_images[doubled.bottom], h_images[doubled.top] = bounds_p
    proper_z = posets._bits(proper_part(doubled))
    for z in proper_z:
        a, side = z % nq, z // nq
        x = (inst.i if side == 0 else inst.j)[a]
        if x in bounds_p:
            raise ConditionViolationError(
                f"h is not well-defined: {doubled.labels[z]} maps to the bound "
                f"{p.labels[x]}"
            )
        h_images[z] = x
    h = PosetMap(doubled, p, tuple(h_images))

    for name, m in (("g", g), ("h", h)):
        violation = posets.check_monotone(m.source, m.target, m.images)
        if violation:
            x, y = violation
            raise ConditionViolationError(
                f"{name} is not order-preserving on {m.source.labels[x]} <= "
                f"{m.source.labels[y]}"
            )
    for z in proper_z:
        if g.images[h.images[z]] != z:
            raise ConditionViolationError(
                f"g(h({doubled.labels[z]})) != {doubled.labels[z]}"
            )
    return g, h


@dataclass(frozen=True)
class CarrierReport:
    pairs_checked: int
    failures: tuple

    @property
    def all_cones(self):
        return not self.failures


def carrier_cone_check(inst):
    """Decide, on rows, that every chain of the proper part of P has a coned carrier.

    The oracle of the carrier proof in suspension_check's docstring, and
    the fast counterpart of chain_carrier_failures.  A chain's carrier, the
    interval from i(f(min s)) to j(f(max s)) within the proper part,
    depends on the chain only through its least and greatest elements,
    and every comparable pair a <= b is itself a chain, so the comparable
    pairs of the proper part cover the chains.  At least one carrier end
    must be proper, and that end, the apex, must lie in the carrier; no
    carrier element can then be incomparable to it.

    A pair a <= b decides through its fibre class (f(a), f(b)) alone, so
    each class is decided once.  One pass over the proper a builds, for
    each c in Q, fibre[c], the proper elements with f(a) = c, and
    above[c], the union of their up rows within the proper part.  A class
    (c, d) is realised by some pair iff above[c] meets fibre[d].  A
    monotone f realises only classes with c <= d, so d runs over the up
    row of c in Q.  Every member of above[c] lies in some fibre[d]; if
    one lies outside the fibres of that row, f is not monotone and a
    realised class was not tested.  Then, and when a tested class fails,
    the comparable pairs are walked to list the failures, each named as
    the chain a<b (or a, when a = b).  pairs_checked counts the pairs as
    the popcounts of the same up rows.
    """
    p, q, f = inst.p, inst.q, inst.f
    proper = proper_part(p)
    fibre = [0] * len(q)
    above = [0] * len(q)
    pairs = 0
    for a in posets._bits(proper):
        row = p.leq[a] & proper
        fibre[f[a]] |= 1 << a
        above[f[a]] |= row
        pairs += row.bit_count()
    failures = [] if _classes_cone(inst, fibre, above) else _pair_failures(inst, proper)
    return CarrierReport(pairs_checked=pairs, failures=tuple(failures))


def _cone_failure(p, lo, hi):
    """Why the carrier from lo to hi is not a cone, or None when it is.

    The apex is lo when lo is proper, else hi when hi is.  Being proper,
    it lies in the carrier iff lo <= apex <= hi, that is iff lo <= hi.
    """
    bounds = (p.bottom, p.top)
    if lo in bounds and hi in bounds:
        return "neither carrier endpoint is proper"
    if not p.le(lo, hi):
        apex = hi if lo in bounds else lo
        return f"apex {p.labels[apex]} outside its carrier"
    return None


def _classes_cone(inst, fibre, above):
    """True iff every realised fibre class is tested and has a coned carrier."""
    p, q, i, j = inst.p, inst.q, inst.i, inst.j
    for c, reach in enumerate(above):
        tested = 0
        for d in posets._bits(q.leq[c]):
            if reach & fibre[d] and _cone_failure(p, i[c], j[d]):
                return False
            tested |= fibre[d]
        if reach & ~tested:
            return False
    return True


def _pair_failures(inst, proper):
    """The carrier failures of the comparable proper pairs of P, pair by pair."""
    p, f, i, j = inst.p, inst.f, inst.i, inst.j
    failures = []
    for a in posets._bits(proper):
        lo = i[f[a]]
        for b in posets._bits(p.leq[a] & proper):
            why = _cone_failure(p, lo, j[f[b]])
            if why:
                chain = p.labels[a] if a == b else f"{p.labels[a]}<{p.labels[b]}"
                failures.append(f"chain {chain}: {why}")
    return failures

def random_complex(rng, max_vertices=12) -> SimplicialComplex:
    """A random small complex generated from random facets."""
    nv = rng.randrange(0, max_vertices + 1)
    facets = []
    if nv:
        for _ in range(rng.randrange(0, 8)):
            size = rng.randrange(1, min(4, nv) + 1)
            facets.append(rng.sample(range(nv), size))
    return from_facets(nv, facets)


def dense_matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for t in range(inner):
            v = a[i][t]
            if v:
                for j in range(cols):
                    out[i][j] += v * b[t][j]
    return out


def homology_dict(report):
    """Degree -> (betti, torsion) over the support, for cross-report equality."""
    return {
        d: (report.betti_at(d), report.torsion_at(d))
        for d in report.degrees()
        if report.betti_at(d) or report.torsion_at(d)
    }
