"""The paper's explicit constructions, kept as oracles for the certifier.

The paper proves the hypotheses of the level descent B(n,k) -> B(n-1,k)
constructively: the level maps f, i and j on families, admissible
permutations, build-up chains and their duals, and interval descent.  The
library decides the same hypotheses exhaustively on bitsets and runs none
of these, so the tests run both routes and compare them.  Single-step
comparability is read off the rows of BruhatOrder.reach().  Families are
ConsistentSets; their members are plain sorted tuples, ranked in colex
order (colex_rank, subset_of_rank).
"""

import heapq
import itertools
from math import comb

from higher_bruhat.complexes import make_complex
from higher_bruhat.errors import InvariantError, ParameterError
from higher_bruhat.subsets import ConsistentSet, GroundParams, colex_rank


def subset_of_rank(rank, size):
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


def members_of(family):
    """The members of a family, as sorted tuples in colex rank order."""
    size = family.params.member_size
    return tuple(
        subset_of_rank(x, size) for x in range(family.bits.bit_length()) if family.bits >> x & 1
    )


def holds(family, member):
    """Whether the family holds the member, a sorted tuple."""
    return bool(family.bits >> colex_rank(member) & 1)


def leq_inclusion(u, v):
    """Ordinary containment of member families."""
    if u.params != v.params:
        raise ParameterError(f"parameter mismatch: {u.params} vs {v.params}")
    return u.bits & ~v.bits == 0


def map_f(u):
    """Forget the members containing n; lands one ground-set size down.

    Colex ranks are stable under shrinking the ground set, so this is a
    plain mask on the bitset.  GroundParams refuses n < k+2.
    """
    small = GroundParams(u.params.n - 1, u.params.k)
    return ConsistentSet(small, u.bits & small.full_bits)


def map_i(v):
    """Reinterpret a family over [n-1] as one over [n] (same members)."""
    return ConsistentSet(GroundParams(v.params.n + 1, v.params.k), v.bits)


def map_j(v):
    """Extend a family over [n-1] by every (k+1)-subset containing n."""
    big = GroundParams(v.params.n + 1, v.params.k)
    return ConsistentSet(big, v.bits | big.full_bits ^ v.params.full_bits)


def is_green(u):
    """True iff the interval {n-k, ..., n}, the colex-largest member, is absent."""
    return not u.bits >> (u.params.num_members - 1) & 1


def complement(family):
    """The complementary family; consistent because prefixes and suffixes swap."""
    return ConsistentSet(family.params, family.bits ^ family.params.full_bits)


def admissible_permutation(v):
    """The k-subsets of [m], topologically sorted under the packet constraints.

    For each (k+1)-subset Q of [m], the k-subsets of Q are chained in lex
    order when Q belongs to the family and in reverse-lex order otherwise.
    Ties are broken by smallest colex rank.
    """
    m, k = v.params.n, v.params.k
    nodes = [subset_of_rank(rank, k) for rank in range(comb(m, k))]
    succ = [[] for _ in nodes]
    indegree = [0] * len(nodes)
    for q in itertools.combinations(range(1, m + 1), k + 1):
        members = sorted(itertools.combinations(q, k))
        if not holds(v, q):
            members.reverse()
        ranks = [colex_rank(t) for t in members]
        for a, b in zip(ranks, ranks[1:]):
            succ[a].append(b)
            indegree[b] += 1
    ready = [i for i, d in enumerate(indegree) if d == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        i = heapq.heappop(ready)
        out.append(nodes[i])
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, j)
    if len(out) != len(nodes):
        raise InvariantError("packet precedence constraints are cyclic; the family is corrupted")
    return tuple(out)


def buildup_sequence(u):
    """The chain from i(f(u)) up to u, adding the members containing n one at a time.

    The additions are ordered by where their truncations appear in an
    admissible permutation for f(u).  Every family of the chain is checked
    as it is built, so a wrong order raises InconsistentSetError.
    """
    restricted = map_f(u)
    position = {s: pos for pos, s in enumerate(admissible_permutation(restricted))}
    additions = sorted(
        (m for m in members_of(u) if m[-1] == u.params.n),
        key=lambda m: position[m[:-1]],
    )
    steps = [map_i(restricted)]
    for member in additions:
        steps.append(ConsistentSet(u.params, steps[-1].bits | 1 << colex_rank(member)))
    return tuple(steps)


def dual_buildup_sequence(u):
    """A single-addition chain from u up to j(f(u)).

    Obtained by complementing, building up, and complementing back.
    """
    return tuple(complement(s) for s in reversed(buildup_sequence(complement(u))))


def internal_gaps(subset, n):
    """Elements of [n] strictly between min and max of the subset but not in it."""
    if len(subset) == 0:
        raise ParameterError("internal gaps are undefined for the empty subset")
    if subset[-1] > n:
        raise ParameterError(f"{subset} is not a subset of [{n}]")
    present = set(subset)
    return [j for j in range(subset[0] + 1, subset[-1]) if j not in present]


def interval_descent(family):
    """Gap-filling descent from the least member to a gap-free member.

    Start at the member with the smallest colex rank.  While the tracked
    member I has internal gaps, fill the smallest gap j, form the packet
    base I + {j}, and move to base minus min(I) or base minus max(I) --
    consistency guarantees one of them is present, and either one has
    strictly fewer internal gaps.  base minus min(I) is preferred when
    both are present.  Returns the whole descent chain; the last entry is
    an interval.
    """
    if family.bits == 0:
        raise ParameterError("the empty family contains no interval")
    n = family.params.n
    low = family.bits & -family.bits
    current = subset_of_rank(low.bit_length() - 1, family.params.member_size)
    trace = [current]
    gaps = internal_gaps(current, n)
    while gaps:
        base = tuple(sorted(current + (gaps[0],)))
        drop_min, drop_max = base[1:], base[:-1]
        if holds(family, drop_min):
            nxt = drop_min
        elif holds(family, drop_max):
            nxt = drop_max
        else:
            raise InvariantError(
                f"descent stuck at {current}: neither {drop_min} nor {drop_max} present; "
                "input family is corrupted"
            )
        next_gaps = internal_gaps(nxt, n)
        if len(next_gaps) >= len(gaps):
            raise InvariantError(f"descent failed to reduce gap count at {current} -> {nxt}")
        current, gaps = nxt, next_gaps
        trace.append(current)
    return trace


def from_facets(num_vertices, facets):
    """The complex generated by the given facets: every subset of a facet is a face."""
    return make_complex(
        num_vertices,
        [face for facet in facets for r in range(len(facet) + 1)
         for face in itertools.combinations(facet, r)],
    )


def suspension(x):
    """Join with two new apex points.

    Every face sigma (including the empty simplex) contributes sigma+{a}
    and sigma+{b}; no face contains both apexes.
    """
    a, b = x.num_vertices, x.num_vertices + 1
    faces = [(a,), (b,)]
    for fs in x.faces:
        for face in fs:
            faces.append(face)
            faces.append(face + (a,))
            faces.append(face + (b,))
    return make_complex(x.num_vertices + 2, faces)
