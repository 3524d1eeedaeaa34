import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructions import complement, internal_gaps, interval_descent
from helpers import naive_colex_subsets, naive_is_consistent
from higher_bruhat.errors import InconsistentSetError, InvariantError, ParameterError
from higher_bruhat.posets import _columns
from higher_bruhat.subsets import (
    ConsistentSet,
    GroundParams,
    KSubset,
    _segment_columns,
    enumerate_subsets,
    is_consistent,
    packet_of,
    subset_of_rank,
    violating_packets,
)


def fam(params, *members):
    return ConsistentSet.from_members(params, [tuple(m) for m in members])


class TestEnumerateSubsets:
    def test_pairs_of_three(self):
        assert [s.elements for s in enumerate_subsets(3, 2)] == [(1, 2), (1, 3), (2, 3)]

    def test_empty_subset(self):
        for n in range(0, 5):
            assert [s.elements for s in enumerate_subsets(n, 0)] == [()]

    def test_matches_recursive_generator(self):
        for n in range(0, 7):
            for r in range(0, n + 1):
                got = [s.elements for s in enumerate_subsets(n, r)]
                assert got == naive_colex_subsets(n, r)

    def test_last_pair_of_four_is_34(self):
        subs = enumerate_subsets(4, 2)
        assert len(subs) == 6
        assert subs[-1].elements == (3, 4)

    def test_rank_is_position(self):
        for n, r in [(5, 2), (6, 3), (4, 1)]:
            for pos, s in enumerate(enumerate_subsets(n, r)):
                assert s.rank == pos
                assert subset_of_rank(pos, r) == s.elements

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            enumerate_subsets(3, 4)
        with pytest.raises(ParameterError):
            enumerate_subsets(-1, 0)
        with pytest.raises(ParameterError):
            enumerate_subsets(3, -2)


class TestKSubset:
    def test_must_increase(self):
        with pytest.raises(ParameterError):
            KSubset((2, 1))
        with pytest.raises(ParameterError):
            KSubset((1, 1))
        with pytest.raises(ParameterError):
            KSubset((0, 1))

    def test_of_sorts(self):
        assert KSubset.of([3, 1]).elements == (1, 3)

    def test_str(self):
        assert str(KSubset((1, 2, 4))) == "{1,2,4}"


class TestPacketOf:
    def test_three_base(self):
        p = packet_of(KSubset((1, 2, 3)))
        assert [m.elements for m in p.members] == [(1, 2), (1, 3), (2, 3)]

    def test_with_gap(self):
        p = packet_of(KSubset((1, 2, 4)))
        assert [m.elements for m in p.members] == [(1, 2), (1, 4), (2, 4)]

    def test_four_base_sorted(self):
        p = packet_of(KSubset((1, 2, 3, 4)))
        got = [m.elements for m in p.members]
        # brute-force comparison: sort by explicit pairwise lex comparison
        expected = sorted(itertools.combinations((1, 2, 3, 4), 3))
        assert got == expected
        assert got == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_member_endpoints(self):
        # members[0] drops the max, members[-1] drops the min
        for base in itertools.combinations(range(1, 6), 3):
            p = packet_of(KSubset(base))
            assert p.members[0].elements == base[:-1]
            assert p.members[-1].elements == base[1:]
            assert list(p.members) == sorted(p.members, key=lambda m: m.elements)

    def test_wrong_size_for_params(self):
        with pytest.raises(ParameterError):
            packet_of(KSubset((1, 2, 3)), GroundParams(4, 2))
        with pytest.raises(ParameterError):
            packet_of(KSubset((1,)))


class TestIsConsistent:
    def test_empty_and_full(self):
        for n, k in [(3, 1), (4, 1), (5, 2)]:
            params = GroundParams(n, k)
            assert is_consistent([], params)
            everything = [s.elements for s in enumerate_subsets(n, k + 1)]
            assert is_consistent(everything, params)

    def test_skipping_middle_is_inconsistent(self):
        assert not is_consistent([(1, 2), (2, 3)], GroundParams(3, 1))

    def test_wrong_member_size(self):
        with pytest.raises(ParameterError):
            is_consistent([(1, 2, 3)], GroundParams(3, 1))
        with pytest.raises(ParameterError):
            is_consistent([(1, 5)], GroundParams(3, 1))

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (4, 2), (5, 2), (6, 1), (6, 3)])
    def test_agrees_with_naive_oracle_exhaustively(self, n, k):
        # every instance with at most 2^16 member families
        params = GroundParams(n, k)
        subs = [s.elements for s in enumerate_subsets(n, k + 1)]
        assert len(subs) <= 16
        for bits in range(1 << len(subs)):
            family = [subs[i] for i in range(len(subs)) if bits >> i & 1]
            consistent = is_consistent(family, params)
            assert consistent == naive_is_consistent(family, n, k)
            assert consistent == (not violating_packets(family, params))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_naive_oracle_random(self, data):
        n = data.draw(st.integers(min_value=2, max_value=6))
        k = data.draw(st.integers(min_value=0, max_value=n - 1))
        subs = [s.elements for s in enumerate_subsets(n, k + 1)]
        family = data.draw(st.lists(st.sampled_from(subs), unique=True, max_size=len(subs)))
        params = GroundParams(n, k)
        assert is_consistent(family, params) == naive_is_consistent(family, n, k)
        assert is_consistent(family, params) == (not violating_packets(family, params))


class TestSegmentKernel:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_is_consistent_on_random_bitsets(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        k = data.draw(st.integers(min_value=0, max_value=n - 1))
        params = GroundParams(n, k)
        subs = [s.elements for s in enumerate_subsets(n, k + 1)]
        bitsets = data.draw(st.lists(st.integers(0, params.full_bits), max_size=40))
        families = [[subs[i] for i in range(len(subs)) if bits >> i & 1] for bits in bitsets]
        violated = [
            {p.base.elements for p in violating_packets(family, params)}
            for family in families
        ]
        full = (1 << len(bitsets)) - 1
        ok = full
        for check, passing in _segment_columns(
            _columns(bitsets, params.num_members), full, n, k
        ):
            ok &= passing
            for f, bases in enumerate(violated):
                assert bool(passing >> f & 1) == (check.base not in bases)
        for f, family in enumerate(families):
            assert bool(ok >> f & 1) == is_consistent(family, params)
            assert bool(ok >> f & 1) == naive_is_consistent(family, n, k)


class TestViolatingPackets:
    def test_consistent_family_has_none(self):
        assert violating_packets([(1, 2), (1, 3)], GroundParams(3, 1)) == []

    def test_single_packet_instance(self):
        bad = violating_packets([(1, 2), (2, 3)], GroundParams(3, 1))
        assert [p.base.elements for p in bad] == [(1, 2, 3)]

    def test_only_the_offending_packet_reported(self):
        bad = violating_packets([(1, 2), (2, 3)], GroundParams(4, 1))
        bases = [p.base.elements for p in bad]
        assert (1, 2, 3) in bases
        assert (1, 2, 4) not in bases
        # hand check of the other two packets of [4]
        assert (1, 3, 4) not in bases
        assert (2, 3, 4) not in bases


class TestConsistentSet:
    def test_construction_rejects_inconsistent(self):
        with pytest.raises(InconsistentSetError):
            fam(GroundParams(3, 1), (1, 2), (2, 3))

    def test_members_roundtrip(self):
        params = GroundParams(4, 1)
        u = fam(params, (1, 2), (1, 3), (1, 4))
        assert [m.elements for m in u.members()] == [(1, 2), (1, 3), (1, 4)]
        assert (1, 2) in u and KSubset((1, 4)) in u and (2, 3) not in u
        assert len(u) == 3

    def test_str_forms(self):
        params = GroundParams(3, 1)
        assert str(fam(params)) == "{}"
        assert str(fam(params, (1, 2), (1, 3))) == "{{1,2},{1,3}}"


class TestInternalGaps:
    def test_definition_cases(self):
        assert internal_gaps(KSubset((2, 4)), 5) == [3]
        assert internal_gaps(KSubset((1, 2, 3)), 5) == []
        assert internal_gaps(KSubset((1, 4)), 4) == [2, 3]

    def test_empty_subset_rejected(self):
        with pytest.raises(ParameterError):
            internal_gaps(KSubset(()), 4)

    def test_not_a_subset_rejected(self):
        with pytest.raises(ParameterError):
            internal_gaps(KSubset((2, 6)), 5)

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 3), (6, 1)])
    def test_only_interval_containing_n_is_the_top_one(self, n, k):
        gap_free = [
            s
            for s in enumerate_subsets(n, k + 1)
            if n in s and internal_gaps(s, n) == []
        ]
        assert [s.elements for s in gap_free] == [tuple(range(n - k, n + 1))]


class TestFindInterval:
    def test_already_an_interval(self):
        u = fam(GroundParams(3, 1), (1, 2))
        assert interval_descent(u)[-1].elements == (1, 2)

    def test_consistent_star_family(self):
        u = fam(GroundParams(4, 1), (1, 2), (1, 3), (1, 4))
        found = interval_descent(u)[-1]
        assert found.elements == (1, 2)
        assert internal_gaps(found, 4) == []

    def test_empty_family_rejected(self):
        with pytest.raises(ParameterError):
            interval_descent(fam(GroundParams(3, 1)))

    def test_descent_strictly_decreases_gaps(self):
        u = fam(GroundParams(5, 1), (1, 5), (1, 4), (1, 3), (1, 2), (2, 5), (2, 4), (2, 3))
        trace = interval_descent(u)
        counts = [len(internal_gaps(s, 5)) for s in trace]
        assert all(a > b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 0
        assert trace[-1] in list(u.members())

    def test_corrupted_family_raises(self):
        # bypass construction checks to simulate corrupted input
        params = GroundParams(4, 1)
        bits = (1 << KSubset((1, 4)).rank) | (1 << KSubset((2, 4)).rank)
        corrupt = ConsistentSet.__new__(ConsistentSet)
        object.__setattr__(corrupt, "params", params)
        object.__setattr__(corrupt, "bits", bits)
        with pytest.raises(InvariantError):
            interval_descent(corrupt)


class TestComplement:
    def test_empty_and_full_swap(self):
        params = GroundParams(4, 2)
        empty = fam(params)
        assert complement(empty).bits == params.full_bits
        assert complement(complement(empty)) == empty

    def test_three_one_example(self):
        u = fam(GroundParams(3, 1), (1, 2))
        assert [m.elements for m in complement(u).members()] == [(1, 3), (2, 3)]

    def test_involution_exhaustive(self):
        params = GroundParams(4, 2)
        subs = [s.elements for s in enumerate_subsets(4, 3)]
        for bits in range(1 << len(subs)):
            family = [subs[i] for i in range(len(subs)) if bits >> i & 1]
            if not is_consistent(family, params):
                continue
            u = ConsistentSet.from_members(params, family)
            assert complement(complement(u)) == u
