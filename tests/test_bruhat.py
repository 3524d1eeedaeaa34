import itertools
import random
import re
from functools import partial
from math import comb, factorial

import pytest

from constructions import (
    admissible_permutation,
    buildup_sequence,
    complement,
    dual_buildup_sequence,
    holds,
    is_green,
    leq_inclusion,
    map_f,
    map_i,
    map_j,
    members_of,
)
from helpers import (
    addable_bits,
    all_levels_grow,
    addable_cover,
    addable_thinned,
    broken_mask_message,
    closure_reach_rows,
    collected_levels,
    condition_verdicts,
    dissection_instance,
    family,
    inversion_family,
    lookup_descent_conditions,
    member_column_inclusion_rows,
    members,
    naive_colex_subsets,
    naive_cover_pairs,
    naive_inclusion_rows,
    naive_is_consistent,
    naive_label,
    order_holds,
    per_bitset_bruteforce_bits,
    rows_poset,
    table_grow,
    to_poset,
    top_dropping,
)
from higher_bruhat import bruhat, posets
from higher_bruhat.bruhat import (
    BruhatOrder,
    OrderKind,
    descent_conditions,
    enumerate_bruhat,
)
from higher_bruhat.errors import (
    InconsistentSetError,
    InvariantError,
    NotBoundedError,
    ParameterError,
    ResourceLimitError,
)
from higher_bruhat.subsets import (
    ConsistentSet,
    GroundParams,
    _label,
    _packet_checks,
    colex_rank,
)
from higher_bruhat.suspension_check import check_conditions

ORDER_CACHE = {}

# Every B(n,k) with n <= 7, and the larger rungs the CLI tests reach.
GROWTH_CASES = [(n, k) for n in range(1, 8) for k in range(n)] + [
    (8, 4), (10, 7), (9, 7), (8, 6),
]
# Every B(n,k) with n <= 7 the brute-force limit admits, and one-packet
# orders of 16, 17, 20 and 21 members, on both sides of the 2^16 chunk.
SCAN_CASES = [(n, k) for n in range(1, 8) for k in range(n) if comb(n, k + 1) <= 21] + [
    (16, 14), (17, 15), (20, 18), (21, 19),
]


def order(n, k, scanned=False):
    # scanned: grown, then found again by the brute-force scan of --method both
    key = (n, k, scanned)
    if key not in ORDER_CACHE:
        params = GroundParams(n, k)
        ORDER_CACHE[key] = bruhat._scanned(params, None) if scanned else enumerate_bruhat(params)
    return ORDER_CACHE[key]


def at_card(cols, absent, card):
    # whether a level's member columns hold card members per family
    return sum(map(int.bit_count, cols)) == card * (cols[0] | absent[0]).bit_length()


def fam(n, k, *members):
    return family(GroundParams(n, k), *members)


class TestEnumeration:
    def test_base_case_two_elements(self):
        o = order(2, 1)
        assert len(o) == 2
        assert [u.bits for u in o.elements] == [0, 1]

    def test_three_one_is_weak_order_s3(self):
        assert len(order(3, 1)) == 6

    def test_four_two_structure(self):
        o = order(4, 2)
        assert len(o) == 8
        members = {frozenset(members_of(u)) for u in o.elements}
        packet = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        expected = {frozenset()}
        expected.add(frozenset(packet))
        for t in range(1, 4):
            expected.add(frozenset(packet[:t]))
            expected.add(frozenset(packet[-t:]))
        assert members == expected

    def test_oracle_pair_small(self):
        for n in range(2, 7):
            for k in range(0, n - 1):
                if comb(n, k + 1) > 15:
                    continue
                bfs = order(n, k)
                brute = order(n, k, scanned=True)
                assert [u.bits for u in bfs.elements] == [u.bits for u in brute.elements]
                assert bfs.covers == brute.covers

    @pytest.mark.parametrize(
        "n,k,scanned",
        [
            (n, k, scanned)
            for n, k in ((2, 1), (3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 2), (6, 4), (4, 0))
            for scanned in (False, True)
        ]
        + [(7, 3, False)],
    )
    def test_covers_match_naive_probe(self, n, k, scanned):
        o = order(n, k, scanned)
        assert o.covers == naive_cover_pairs(o)

    @pytest.mark.parametrize("n,k", [(4, 1), (6, 2), (10, 7)])
    def test_labels_match_member_by_member(self, n, k):
        for u in order(n, k).elements:
            assert str(u) == naive_label(u)

    def test_bruteforce_disagreement_raises(self, monkeypatch):
        scan = bruhat._bruteforce_bits
        # drop the family {12} of B(3,1), an atom of the order
        monkeypatch.setattr(
            bruhat, "_bruteforce_bits", lambda params: [b for b in scan(params) if b != 1]
        )
        with pytest.raises(InvariantError, match="finds 5 families, the growth 6"):
            bruhat._scanned(GroundParams(3, 1), None)

    @pytest.mark.parametrize("n,k", GROWTH_CASES)
    def test_sliced_growth_matches_table_growth(self, n, k):
        # the covers are read off the kept addable columns on first use
        params = GroundParams(n, k)
        o = enumerate_bruhat(params)
        assert "covers" not in vars(o)
        assert (list(o.bits), list(o.covers)) == table_grow(params)

    @pytest.mark.parametrize("n,k", GROWTH_CASES)
    def test_mirrored_growth_matches_all_levels_growth(self, n, k):
        params = GroundParams(n, k)
        o = enumerate_bruhat(params)
        elements, levels = all_levels_grow(params)
        assert list(o.bits) == elements
        assert list(o.addable) == levels
        width, full = params.num_members, params.full_bits
        by_card = [o.bits[start:end] for start, end, _ in o._levels()]
        assert len(by_card) == width + 1
        for c in range(width + 1):
            assert list(by_card[width - c]) == [full ^ f for f in reversed(by_card[c])]

    @pytest.mark.parametrize("n,k", GROWTH_CASES)
    def test_stream_matches_the_collected_order(self, n, k):
        # level c comes right before its mirror W - c, and each level carries
        # the columns of the collected order, transposed and built again
        params = GroundParams(n, k)
        width = params.num_members
        stream = list(bruhat._grow(params))
        assert [level.card for level in stream] == [
            card for c in range(width // 2 + 1) for card in dict.fromkeys((c, width - c))
        ]
        stream.sort(key=lambda level: level.card)
        assert stream == list(collected_levels(enumerate_bruhat(params)))

    def test_growth_cases_have_odd_and_even_widths(self):
        # an even width has a middle level that is its own mirror
        assert {comb(n, k + 1) % 2 for n, k in GROWTH_CASES} == {0, 1}

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 2)])
    def test_corrupted_mirrored_family_is_refused_by_the_kernel(self, n, k, monkeypatch):
        # one inconsistent family in a mirrored level: the segment kernel,
        # not the mirror, decides it, and names it
        params = GroundParams(n, k)
        held = set(enumerate_bruhat(params).bits)
        width, full = params.num_members, params.full_bits
        mirror = bruhat._mirror
        corrupted = 0
        for c in range(1, (width + 1) // 2):
            complements = (
                full ^ sum(1 << x for x in xs) for xs in itertools.combinations(range(width), c)
            )
            bad = next((b for b in complements if b not in held), None)
            if bad is None:
                continue

            def corrupting(level, add, drop, full, c=c, bad=bad):
                upper, up_add, up_drop = mirror(level, add, drop, full)
                if upper[0].bit_count() == width - c:
                    upper[len(upper) // 2] = bad
                return upper, up_add, up_drop

            monkeypatch.setattr(bruhat, "_mirror", corrupting)
            message = f"emitted {_label(params, bad)}, which is inconsistent on the packet"
            with pytest.raises(InvariantError, match=re.escape(message)):
                enumerate_bruhat(params)
            corrupted += 1
        assert corrupted >= 2

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 2)])
    def test_mirrored_columns_are_counted(self, n, k, monkeypatch):
        # the mirror of level 1 loses an addable bit: its families are right,
        # so only the count from above, against the level above's droppable
        # columns, sees it
        params = GroundParams(n, k)
        width = params.num_members
        mirror = bruhat._mirror

        def thinning(level, add, drop, full):
            upper, up_add, up_drop = mirror(level, add, drop, full)
            if upper[0].bit_count() == width - 1:
                x = next(x for x, col in enumerate(up_add) if col)
                up_add[x] &= up_add[x] - 1
            return upper, up_add, up_drop

        monkeypatch.setattr(bruhat, "_mirror", thinning)
        message = rf"B\({n},{k}\) misses a family at level {width - 1}: its families take"
        with pytest.raises(InvariantError, match=message):
            enumerate_bruhat(params)

    @pytest.mark.parametrize("n,k,card", [(4, 1, 1), (5, 2, 2), (6, 2, 4)])
    def test_a_family_that_takes_no_member_is_refused(self, n, k, card, monkeypatch):
        # the lowest family of a level below the middle loses its addable
        # columns: the bounds check on that level fires before any count
        # reads them
        params = GroundParams(n, k)
        real = bruhat._addable
        monkeypatch.setattr(
            bruhat, "_droppable", lambda cols, absent, terms: real(absent, cols, terms)
        )

        def stuck(cols, absent, terms):
            add = real(cols, absent, terms)
            return [col & ~1 for col in add] if at_card(cols, absent, card) else add

        lowest = order(n, k).bits[order(n, k).addable[card][0]]
        monkeypatch.setattr(bruhat, "_addable", stuck)
        message = (
            f"the growth of B({n},{k}) is not bounded: {_label(params, lowest)} at "
            f"level {card} takes no member"
        )
        with pytest.raises(InvariantError, match=re.escape(message)):
            enumerate_bruhat(params)

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 2)])
    def test_a_family_that_drops_no_member_is_counted(self, n, k, monkeypatch):
        # the lowest family of level 2 loses its droppable columns, so its
        # mirror would take no member: the count on level 2 fires first
        real = bruhat._droppable

        def stuck(cols, absent, terms):
            drop = real(cols, absent, terms)
            return [col & ~1 for col in drop] if at_card(cols, absent, 2) else drop

        monkeypatch.setattr(bruhat, "_droppable", stuck)
        message = rf"the growth of B\({n},{k}\) misses a family at level 2: its families drop"
        with pytest.raises(InvariantError, match=message):
            enumerate_bruhat(GroundParams(n, k))

    @pytest.mark.parametrize("n,k", SCAN_CASES)
    def test_sliced_scan_matches_per_bitset_scan(self, n, k):
        params = GroundParams(n, k)
        assert bruhat._bruteforce_bits(params) == per_bitset_bruteforce_bits(params)

    def test_scan_cases_straddle_the_chunk(self):
        widths = {comb(n, k + 1) for n, k in SCAN_CASES}
        assert {16, 17, 20, 21} <= widths

    def test_inconsistent_growth_raises(self, monkeypatch):
        addable = bruhat._addable
        rank = colex_rank((1, 2, 4))

        def admits_124(cols, absent, packets):
            # {1,2,4} alone meets the packet of {1,2,3,4} in its second member
            add = addable(cols, absent, packets)
            add[rank] = absent[rank]
            return add

        monkeypatch.setattr(bruhat, "_addable", admits_124)
        message = "emitted {{1,2,4}}, which is inconsistent on the packet with base (1, 2, 3, 4)"
        with pytest.raises(InvariantError, match=re.escape(message)):
            enumerate_bruhat(GroundParams(6, 2))

    def mutate_canonical(self, monkeypatch, mutant):
        # mutant(add, grows) edits the canonical columns that grow level 2
        canonical = bruhat._canonical
        calls = []

        def mutated(add, *rest):
            grows = canonical(add, *rest)
            if len(calls) == 1:
                mutant(add, grows)
            calls.append(None)
            return grows

        monkeypatch.setattr(bruhat, "_canonical", mutated)

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 2)])
    def test_missing_canonical_growth_raises(self, n, k, monkeypatch):
        # a family of level 2 loses its only emission; the rest are consistent
        def dropping(add, grows):
            x = next(x for x, col in enumerate(grows) if col)
            grows[x] &= grows[x] - 1

        self.mutate_canonical(monkeypatch, dropping)
        with pytest.raises(InvariantError, match=rf"B\({n},{k}\) misses a family at level 2:"):
            enumerate_bruhat(GroundParams(n, k))

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 2)])
    def test_repeated_growth_raises(self, n, k, monkeypatch):
        # a family of level 2 is also emitted from a parent that is not canonical
        def doubling(add, grows):
            x = next(x for x, (a, col) in enumerate(zip(add, grows)) if a & ~col)
            extra = add[x] & ~grows[x]
            grows[x] |= extra & -extra

        self.mutate_canonical(monkeypatch, doubling)
        with pytest.raises(InvariantError, match=rf"B\({n},{k}\) repeats a family at level 2$"):
            enumerate_bruhat(GroundParams(n, k))

    @pytest.mark.parametrize("n,k,size", [(8, 1, factorial(8)), (8, 2, 1_232_944)])
    def test_counts_at_size(self, n, k, size):
        # n! for k = 1, and OEIS A006245 for k = 2
        assert len(enumerate_bruhat(GroundParams(n, k))) == size

    def test_out_of_range_growth_raises(self, monkeypatch):
        # the last family of a grown level gains a bit beyond the width,
        # which the kernel, reading the low bits only, cannot see
        params = GroundParams(4, 1)
        grown = bruhat._grown

        def widened(level, grows):
            out = grown(level, grows)
            out[-1] |= 1 << params.num_members
            return out

        monkeypatch.setattr(bruhat, "_grown", widened)
        with pytest.raises(InvariantError, match="out of range"):
            enumerate_bruhat(params)

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 2)])
    def test_batch_built_elements_match_single_constructions(self, n, k):
        o = enumerate_bruhat(GroundParams(n, k))
        # the families are built on first access, from the certified bitsets
        assert "elements" not in vars(o)
        assert len(o.elements) == len(o) == len(o.bits)
        assert o.elements is o.elements
        for u, bits in zip(o.elements, o.bits):
            single = ConsistentSet(o.params, bits)
            assert u == single
            assert hash(u) == hash(single)
            assert str(u) == str(single)
            assert repr(u) == repr(single)
            assert not hasattr(u, "__dict__")

    def test_weak_order_counts_and_inversion_sets(self):
        for n in range(2, 6):
            o = order(n, 1)
            assert len(o) == factorial(n)
        got = {frozenset(members_of(u)) for u in order(4, 1).elements}
        expected = {
            inversion_family(p) for p in itertools.permutations(range(1, 5))
        }
        assert got == expected

    def test_cover_edges_add_one_member(self):
        o = order(4, 1)
        for a, b in o.covers:
            diff = o.elements[b].bits & ~o.elements[a].bits
            assert diff.bit_count() == 1
            assert o.bits[b].bit_count() == o.bits[a].bit_count() + 1

    def test_limits(self):
        with pytest.raises(ResourceLimitError, match="bruteforce limit of 24"):
            bruhat._scanned(GroundParams(10, 1), None)
        with pytest.raises(ResourceLimitError, match="bfs limit of 64"):
            enumerate_bruhat(GroundParams(40, 1))
        # explicit override admits the instance
        o = bruhat._scanned(GroundParams(7, 5), 21)
        assert len(o) == 14

    def test_hand_built_order_checks_its_families_on_access(self):
        # {1,2,4} alone is inconsistent on the packet of {1,2,3,4}
        bad = BruhatOrder(GroundParams(4, 2), (0, 1 << colex_rank((1, 2, 4))), ())
        bad.covers = ()
        assert len(bad) == 2
        with pytest.raises(InconsistentSetError):
            bad.elements


class TestOrderRelations:
    def test_inclusion_basics(self):
        o = order(3, 1)
        empty = o.elements[0]
        for u in o.elements:
            assert leq_inclusion(empty, u)
            assert leq_inclusion(u, u)
        assert not leq_inclusion(fam(3, 1, (1, 2)), fam(3, 1, (1, 3), (2, 3)))

    def test_inclusion_params_mismatch(self):
        with pytest.raises(ParameterError):
            leq_inclusion(fam(3, 1, (1, 2)), fam(4, 1, (1, 2)))

    def test_single_step_reflexive_and_reaches_top(self):
        for n, k in [(3, 1), (4, 1), (4, 2)]:
            o = order(n, k)
            reach = o.reach()
            for i in range(len(o)):
                assert reach[i] >> i & 1
            assert reach[0] >> (len(o) - 1) & 1

    def test_single_step_implies_inclusion(self):
        for n, k in [(4, 1), (4, 2)]:
            o = order(n, k)
            reach = o.reach()
            for i, u in enumerate(o.elements):
                for j, v in enumerate(o.elements):
                    if reach[i] >> j & 1:
                        assert leq_inclusion(u, v)

    def test_foreign_element_rejected(self):
        # reach rows are indexed by position in o.bits; a family of B(4,1)
        # holding a member with 4 has no position in B(3,1)
        o = order(3, 1)
        assert fam(4, 1, (3, 4)).bits not in o._index

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(1, 8) for k in range(n)] + [(8, 5)]
    )
    def test_inclusion_rows_match_pairwise_containment(self, n, k):
        # rows streamed with prefix reuse against ANDs over every member,
        # and against every pair where the pairs are few enough
        o = order(n, k)
        containing = posets._columns(o.bits, o.params.num_members)
        rows = tuple(bruhat._inclusion_rows(o.bits, containing, len(o)))
        assert rows == member_column_inclusion_rows(o)
        assert to_poset(o, OrderKind.INCLUSION).leq == rows
        if len(o) <= 1000:
            assert rows == naive_inclusion_rows(o)

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 2), (5, 3), (6, 3)])
    def test_inclusion_rows_ignore_lost_covers(self, n, k):
        # every mutant with one addable bit cleared: the inclusion covers
        # are those of the full order's validated inclusion rows, and the
        # row oracle keeps those rows wherever the thinned covers still
        # bound the order; B(k+2,k) is two chains, so there no thinning
        # does.  With no bit cleared the orders coincide, and the covers
        # are the order's own
        full = order(n, k)
        expected = naive_inclusion_rows(full)
        labels = tuple(map(str, range(len(full))))
        covers = rows_poset(labels, expected, 0, len(full) - 1).covers()
        assert bruhat._inclusion_covers(full) is full.covers
        assert full.covers == covers
        bounded = 0
        for mutant in addable_bits(full):
            thinned = addable_thinned(full, *mutant)
            assert bruhat._inclusion_covers(thinned) == covers
            try:
                p = to_poset(thinned, OrderKind.INCLUSION)
            except NotBoundedError:
                continue
            bounded += 1
            assert p.leq == expected
        assert bool(bounded) is (n > k + 2)


class TestLevelMaps:
    def test_f_drops_members_containing_n(self):
        full = fam(3, 1, (1, 2), (1, 3), (2, 3))
        assert members_of(map_f(full)) == ((1, 2),)
        assert map_f(fam(3, 1)).bits == 0

    def test_f_needs_room_below(self):
        with pytest.raises(ParameterError):
            map_f(fam(2, 1, (1, 2)))

    def test_sections(self):
        for v in order(3, 1).elements:
            assert map_f(map_i(v)) == v
            assert map_f(map_j(v)) == v
        for v in order(4, 2).elements:
            assert map_f(map_i(v)) == v
            assert map_f(map_j(v)) == v

    def test_i_image_green_j_image_red(self):
        assert map_i(fam(2, 1)).bits == 0
        v = fam(2, 1, (1, 2))
        assert is_green(map_i(v))
        assert members_of(map_j(fam(2, 1))) == ((1, 3), (2, 3))
        assert not is_green(map_j(v))
        assert map_j(v).bits == GroundParams(3, 1).full_bits

    def test_green_classification(self):
        assert is_green(fam(3, 1))
        assert not is_green(fam(3, 1, (1, 2), (1, 3), (2, 3)))
        assert not is_green(fam(3, 1, (2, 3)))

    def test_maps_preserve_both_orders(self):
        big = order(4, 1)
        small = order(3, 1)

        def inclusion(o, u, v):
            return leq_inclusion(u, v)

        def single_step(o, u, v):
            return o.reach()[o._index[u.bits]] >> o._index[v.bits] & 1

        for le in (inclusion, single_step):
            for u in big.elements:
                for v in big.elements:
                    if le(big, u, v):
                        assert le(small, map_f(u), map_f(v))
            for a in small.elements:
                for b in small.elements:
                    if le(small, a, b):
                        assert le(big, map_i(a), map_i(b))
                        assert le(big, map_j(a), map_j(b))

    def test_green_is_down_set(self):
        o = order(4, 1)
        for u in o.elements:
            for v in o.elements:
                if leq_inclusion(u, v) and is_green(v):
                    assert is_green(u)

    def test_complement_swaps_colors_and_reverses(self):
        o = order(4, 2)
        for u in o.elements:
            assert is_green(u) != is_green(complement(u))
            for v in o.elements:
                assert leq_inclusion(u, v) == leq_inclusion(complement(v), complement(u))


class TestAdmissiblePermutation:
    def test_two_elements(self):
        alpha = admissible_permutation(fam(2, 1, (1, 2)))
        assert alpha == ((1,), (2,))

    def test_three_elements_with_pair(self):
        alpha = admissible_permutation(fam(3, 1, (1, 2)))
        assert alpha == ((3,), (1,), (2,))

    def test_three_elements_empty_family(self):
        alpha = admissible_permutation(fam(3, 1))
        assert alpha == ((3,), (2,), (1,))

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 2)])
    def test_packet_restrictions_exhaustive(self, n, k):
        for v in order(n, k).elements:
            alpha = admissible_permutation(v)
            position = {s: pos for pos, s in enumerate(alpha)}
            assert len(position) == comb(n, k)
            for q in itertools.combinations(range(1, n + 1), k + 1):
                members = sorted(itertools.combinations(q, k))
                spots = [position[m] for m in members]
                if holds(v, q):
                    assert spots == sorted(spots)
                else:
                    assert spots == sorted(spots, reverse=True)


class TestBuildup:
    def test_no_new_members_single_entry(self):
        u = map_i(fam(3, 1, (1, 2)))
        seq = buildup_sequence(u)
        assert seq == (u,)

    def test_full_three_one(self):
        u = fam(3, 1, (1, 2), (1, 3), (2, 3))
        seq = buildup_sequence(u)
        assert [members_of(s) for s in seq] == [
            ((1, 2),),
            ((1, 2), (1, 3)),
            ((1, 2), (1, 3), (2, 3)),
        ]

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 2)])
    def test_exhaustive_witnesses(self, n, k):
        o = order(n, k)
        reach = o.reach()
        for i, u in enumerate(o.elements):
            seq = buildup_sequence(u)
            assert seq[0] == map_i(map_f(u))
            assert seq[-1] == u
            for a, b in zip(seq, seq[1:]):
                new_members = [m for m in members_of(b) if not holds(a, m)]
                assert len(new_members) == 1
                assert new_members[0][-1] == n
            assert reach[o._index[seq[0].bits]] >> i & 1

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2)])
    def test_dual_witnesses(self, n, k):
        o = order(n, k)
        reach = o.reach()
        for i, u in enumerate(o.elements):
            seq = dual_buildup_sequence(u)
            assert seq[0] == u
            assert seq[-1] == map_j(map_f(u))
            for a, b in zip(seq, seq[1:]):
                added = b.bits & ~a.bits
                assert added.bit_count() == 1
            assert reach[i] >> o._index[seq[-1].bits] & 1


class TestDissectionInstance:
    @pytest.mark.parametrize(
        "n,k", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 2)]
    )
    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_maps_and_colors_match_the_family_maps(self, n, k, kind):
        big, small = order(n, k), order(n - 1, k)
        inst = dissection_instance(big, kind)
        assert inst.f == tuple(small._index[map_f(u).bits] for u in big.elements)
        assert inst.i == tuple(big._index[map_i(v).bits] for v in small.elements)
        assert inst.j == tuple(big._index[map_j(v).bits] for v in small.elements)
        assert inst.green == frozenset(i for i, u in enumerate(big.elements) if is_green(u))

    def test_image_outside_the_target_raises(self, monkeypatch):
        # B(3,1) with {{1,2},{1,3}} swapped for the inconsistent {{1,2},{2,3}}:
        # the restriction of some element of B(4,1) is no longer found
        real = order(3, 1)
        swapped = tuple(5 if b == 3 else b for b in real.bits)
        fake = BruhatOrder(real.params, swapped, real.addable)
        fake.covers = real.covers
        monkeypatch.setattr(bruhat, "enumerate_bruhat", lambda params: fake)
        message = "sends a family to {{1,2},{1,3}}, which was not enumerated"
        with pytest.raises(InvariantError, match=re.escape(message)):
            dissection_instance(order(4, 1), OrderKind.SINGLE_STEP)


# Every level descent B(n,k) -> B(n-1,k) with n <= 7, but B(7,2) and B(7,3):
# test_stretch.py compares those with the row runs it makes for the carrier.
DESCENT_CASES = [
    (n, k) for n in range(2, 8) for k in range(n - 1) if (n, k) not in ((7, 2), (7, 3))
]


# The orders on which the streamed conditions are compared with the lookup
# oracle: every B(n,k) with n <= 7, and the larger rungs the CLI tests reach.
STREAM_CASES = [(n, k) for n in range(2, 8) for k in range(n - 1)] + [(8, 4), (10, 7), (11, 8)]


def level_maps_mutants(params):
    """_level_maps mutants of B(n,k): j loses an added member, f keeps one
    kept member too few, or f keeps an added member too; each with the
    error that the column route raises on it."""
    small, kept, added = bruhat._level_maps(params)
    refused = partial(broken_mask_message, params)
    for member in posets._bits(added):
        yield (small, kept, added & ~(1 << member)), refused("j", added & ~(1 << member), added)
    for member in posets._bits(kept)[:2]:
        yield (small, kept & ~(1 << member), added), refused("f", kept & ~(1 << member), kept)
    for member in posets._bits(added)[:2]:
        yield (small, kept | 1 << member, added), refused("f", kept | 1 << member, kept)


def run_or_error(function, *args):
    """function(*args), or the type and text of the error it raises."""
    try:
        return function(*args)
    except (InvariantError, ParameterError) as exc:
        return type(exc), str(exc)


class TestDescentConditions:
    """The column route against the row route, its oracle."""

    @pytest.mark.parametrize("n,k", DESCENT_CASES)
    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_matches_the_row_route(self, n, k, kind):
        columns = descent_conditions(GroundParams(n, k), kind)
        rows = check_conditions(dissection_instance(order(n, k), kind))
        assert columns.all_pass is rows.all_pass is True
        assert condition_verdicts(columns) == condition_verdicts(rows)

    @pytest.mark.parametrize("n,k", STREAM_CASES)
    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_stream_matches_the_lookup_oracle(self, n, k, kind):
        # the same report as looking every image up among whole orders
        streamed = descent_conditions(GroundParams(n, k), kind)
        looked_up = lookup_descent_conditions(order(n, k), order(n - 1, k), kind)
        assert streamed == looked_up
        assert streamed.all_pass

    @pytest.mark.parametrize("n,k", [(3, 0), (4, 1), (5, 0), (5, 1), (5, 2), (6, 2)])
    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_mask_mutants_are_refused(self, n, k, kind, monkeypatch):
        # the column route never passes a broken mask; the lookup oracle,
        # which looks every image up, does not pass one either
        params = GroundParams(n, k)
        outcomes = set()
        for maps, refused in level_maps_mutants(params):
            monkeypatch.setattr(bruhat, "_level_maps", lambda params, maps=maps: maps)
            assert run_or_error(descent_conditions, params, kind) == (InvariantError, refused)
            looked_up = run_or_error(
                lookup_descent_conditions, order(n, k), order(n - 1, k), kind
            )
            outcomes.add(looked_up[0] if isinstance(looked_up, tuple) else looked_up.all_pass)
        assert outcomes <= {InvariantError, False}
        assert InvariantError in outcomes or k == 0

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (5, 1), (6, 3)])
    def test_droppable_columns_match_consistency(self, n, k):
        o = order(n, k)
        width = o.params.num_members
        names = naive_colex_subsets(n, k + 1)
        terms = bruhat._neighbour_terms([c.members for c in _packet_checks(n, k)], width)
        for start, end, _ in o._levels():
            level = o.bits[start:end]
            cols = posets._columns(level, width)
            full = (1 << len(level)) - 1
            drop = bruhat._droppable(cols, [full ^ c for c in cols], terms)
            for x in range(width):
                expected = [
                    f for f, b in enumerate(level)
                    if b >> x & 1
                    and naive_is_consistent([names[y] for y in members(b ^ 1 << x)], n, k)
                ]
                assert members(drop[x]) == expected

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 4)])
    def test_membership_is_the_set_of_families(self, n, k):
        o = order(n, k)
        held = set(o.bits)
        everything = range(o.params.full_bits + 1)
        probes = list(everything[: 1 << 12])
        if len(everything) > len(probes):
            probes += random.Random(n * 10 + k).sample(everything, 200)
        assert all(order_holds(o, b) is (b in held) for b in probes + list(o.bits))
        assert not order_holds(o, o.params.full_bits + 1)
        assert not order_holds(o, (1 << o.params.num_members + 1) - 1)

    def test_image_outside_the_target_raises_on_both_routes(self, monkeypatch):
        # f keeps the added member {1,4} (rank 3) too, so some restriction is
        # no longer a family of B(3,1): the column route refuses the mask,
        # and the row oracle looks the images up
        real = bruhat._level_maps

        def keeps_14(params):
            small, kept, added = real(params)
            return small, kept | 1 << 3, added

        monkeypatch.setattr(bruhat, "_level_maps", keeps_14)
        params = GroundParams(4, 1)
        refused = (
            "the descent B(4,1) -> B(3,1) has the f mask {{1,2},{1,3},{2,3},{1,4}}, "
            "not the proved {{1,2},{1,3},{2,3}}"
        )
        with pytest.raises(InvariantError, match=re.escape(refused)):
            descent_conditions(params, OrderKind.SINGLE_STEP)
        message = "sends a family to {{1,2},{1,3},{1,4}}, which was not enumerated"
        with pytest.raises(InvariantError, match=re.escape(message)):
            dissection_instance(order(4, 1), OrderKind.SINGLE_STEP)

    @pytest.mark.parametrize("cut_n", [4, 3], ids=["P", "Q"])
    def test_an_order_without_its_full_family_is_refused(self, cut_n, monkeypatch):
        # P's growth certifies P's bounds, Q's growth Q's
        monkeypatch.setattr(bruhat, "_mirrored", top_dropping(GroundParams(cut_n, 1)))
        message = f"the growth of B({cut_n},1) is not bounded: level {comb(cut_n, 2)} is not"
        with pytest.raises(InvariantError, match=re.escape(message)):
            descent_conditions(GroundParams(4, 1), OrderKind.INCLUSION)

    def test_base_case_has_no_level_below(self):
        with pytest.raises(ParameterError, match="need n >= k[+]2"):
            descent_conditions(GroundParams(3, 2), OrderKind.SINGLE_STEP)

    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_builds_no_poset_or_row_index(self, kind, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the column route built rows, a poset or an index")

        monkeypatch.setattr(posets.FiniteBoundedPoset, "__post_init__", refuse)
        monkeypatch.setattr(bruhat, "enumerate_bruhat", refuse)
        for name in ("reach", "up_levels"):
            monkeypatch.setattr(BruhatOrder, name, refuse)
        for name in ("covers", "_index", "elements"):
            monkeypatch.setattr(BruhatOrder, name, property(refuse))
        assert descent_conditions(GroundParams(6, 2), kind).all_pass

    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_reads_the_growth_columns(self, kind, monkeypatch):
        # no level is transposed, and no droppable column built, a second time
        calls = {}
        for module, name in ((posets, "_columns"), (bruhat, "_droppable")):
            def counting(*args, real=getattr(module, name), name=name):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)
        params = GroundParams(7, 2)
        list(bruhat._grow(params))
        list(bruhat._grow(GroundParams(6, 2)))
        grown, calls = calls, {}
        assert descent_conditions(params, kind).all_pass
        # P's growth and Q's, which is read for its bounds
        assert calls == grown == {"_columns": 36 + 21, "_droppable": 18 + 11}


class TestDescentChain:
    """The paper's induction: one descent per level, each order enumerated once."""

    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_enumerates_each_order_once(self, kind, monkeypatch):
        enumerated = []
        real = bruhat._grow

        def recording(params):
            enumerated.append((params.n, params.k))
            return real(params)

        monkeypatch.setattr(bruhat, "_grow", recording)
        steps = list(bruhat.descent_chain(GroundParams(6, 2), kind, None))
        assert [(m, elements) for m, elements, _ in steps] == [(6, 908), (5, 62), (4, 8)]
        assert all(report.all_pass for _, _, report in steps)
        assert enumerated == [(6, 2), (5, 2), (4, 2), (3, 2)]

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(n - 1)])
    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_steps_are_the_descents(self, n, k, kind):
        steps = list(bruhat.descent_chain(GroundParams(n, k), kind, None))
        assert [m for m, _, _ in steps] == list(range(n, k + 1, -1))
        for m, elements, report in steps:
            expected = lookup_descent_conditions(order(m, k), order(m - 1, k), kind)
            assert elements == len(order(m, k))
            assert report == expected

    def test_a_step_waits_for_the_bounds_of_its_q(self, monkeypatch):
        # B(6,2) -> B(5,2) is reported only once B(5,2)'s stream is read
        monkeypatch.setattr(bruhat, "_mirrored", top_dropping(GroundParams(5, 2)))
        steps = bruhat.descent_chain(GroundParams(6, 2), OrderKind.SINGLE_STEP, None)
        message = "the growth of B(5,2) is not bounded: level 10 is not its full family alone"
        with pytest.raises(InvariantError, match=re.escape(message)):
            next(steps)

    def test_budget_is_checked_on_the_top_order(self):
        with pytest.raises(ResourceLimitError):
            next(bruhat.descent_chain(GroundParams(10, 7), OrderKind.SINGLE_STEP, 44))


class TestReach:
    def test_success_renders_no_label_and_builds_no_family(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a label or a family was built")

        monkeypatch.setattr(bruhat, "_label", refuse)
        monkeypatch.setattr(ConsistentSet, "__post_init__", refuse)
        o = enumerate_bruhat(GroundParams(5, 2))
        assert len(o.reach()) == len(o)

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(1, 7) for k in range(n)] + [(7, 3)]
    )
    def test_level_kernel_matches_the_closure_of_the_covers(self, n, k):
        o = enumerate_bruhat(GroundParams(n, k))
        assert o.reach() == closure_reach_rows(o)

    def test_reversed_bits_reverses_the_low_bits(self):
        rng = random.Random(18)
        for length in (1, 7, 8, 9, 63, 64, 65, 200):
            for value in (0, 1, (1 << length) - 1, rng.getrandbits(length)):
                expected = int(format(value, f"0{length}b")[::-1], 2)
                assert bruhat._reversed_bits(value, length) == expected
        assert bruhat._reversed_bits(0, 0) == 0

    def test_levels_come_top_first_and_count_down_from_the_top(self):
        o = order(5, 2)
        reach, top = o.reach(), len(o) - 1
        levels = list(o.up_levels())
        assert [start for start, _ in levels] == [start for start, _ in reversed(o.addable)]
        assert [len(rows) for _, rows in levels] == o.level_sizes()[::-1]
        for start, rows in levels:
            for i, row in enumerate(rows, start):
                assert row == sum(1 << top - j for j in members(reach[i]))

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 2), (5, 3)])
    def test_thinned_addable_columns_match_the_closure(self, n, k):
        # every mutant with one addable bit cleared: the lost cover is the
        # only single-step path between its ends, which inclusion keeps
        full = enumerate_bruhat(GroundParams(n, k))
        for mutant in addable_bits(full):
            thinned = addable_thinned(full, *mutant)
            a, b = addable_cover(full, *mutant)
            assert thinned.covers == tuple(c for c in full.covers if c != (a, b))
            reach = thinned.reach()
            assert reach == closure_reach_rows(thinned)
            assert not reach[a] >> b & 1


class TestToPoset:
    def test_base_case_is_two_chain(self):
        p = to_poset(order(2, 1), OrderKind.SINGLE_STEP)
        assert len(p) == 2
        assert p.le(0, 1) and not p.le(1, 0)
        assert p.bottom == 0 and p.top == 1

    def test_three_one_is_hexagon(self):
        # weak order on S3: 6 elements, 6 cover edges, two chains meeting at ends
        p = to_poset(order(3, 1), OrderKind.SINGLE_STEP)
        assert len(p) == 6
        covers = p.covers()
        assert len(covers) == 6
        atoms = [b for a, b in covers if a == p.bottom]
        coatoms = [a for a, b in covers if b == p.top]
        assert len(atoms) == 2 and len(coatoms) == 2

    def test_kinds_agree_at_small_scale(self):
        ss = to_poset(order(4, 1), OrderKind.SINGLE_STEP)
        inc = to_poset(order(4, 1), OrderKind.INCLUSION)
        assert ss.leq == inc.leq

    def test_single_step_relation_contained_in_inclusion(self):
        p_ss = to_poset(order(4, 1), OrderKind.SINGLE_STEP)
        p_inc = to_poset(order(4, 1), OrderKind.INCLUSION)
        for i in range(len(p_ss)):
            assert p_ss.leq[i] & ~p_inc.leq[i] == 0
