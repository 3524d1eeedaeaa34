import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructions import (
    complement,
    internal_gaps,
    interval_descent,
    members_of,
    subset_of_rank,
)
from helpers import (
    explicit_segment_columns,
    family,
    naive_colex_subsets,
    naive_is_consistent,
    naive_member_names,
    naive_violated_bases,
)
from higher_bruhat.errors import InconsistentSetError, InvariantError, ParameterError
from higher_bruhat.posets import _columns
from higher_bruhat.subsets import (
    ConsistentSet,
    GroundParams,
    _label,
    _packet_checks,
    _segment_columns,
    colex_rank,
)


def certified(params, bits):
    """Whether ConsistentSet accepts the bitset."""
    try:
        ConsistentSet(params, bits)
    except InconsistentSetError:
        return False
    return True


def bits_of(members):
    return sum(1 << colex_rank(m) for m in members)


def failing_bases(params, members):
    """The packet bases on which the segment kernel fails the one family."""
    cols = _columns([bits_of(members)], params.num_members)
    return [c.base for c, passing in _segment_columns(cols, 1, params.n, params.k) if not passing]


class TestColexRank:
    @pytest.mark.parametrize("n,r", [(5, 2), (6, 3), (4, 1), (4, 0)])
    def test_rank_is_position(self, n, r):
        for pos, s in enumerate(naive_colex_subsets(n, r)):
            assert colex_rank(s) == pos
            assert subset_of_rank(pos, r) == s


class TestLabels:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_family_label_matches_the_naive_rendering(self, n):
        for k in range(n):
            params = GroundParams(n, k)
            names = naive_member_names(n, k + 1)
            assert _label(params, params.full_bits) == "{" + ",".join(names) + "}"


class TestPacketChecks:
    @pytest.mark.parametrize("n,k", [(5, 1), (5, 2), (6, 3)])
    def test_member_endpoints(self, n, k):
        # members[0] drops the max, members[-1] drops the min
        for c in _packet_checks(n, k):
            assert c.members[0] == colex_rank(c.base[:-1])
            assert c.members[-1] == colex_rank(c.base[1:])
            lex = sorted(itertools.combinations(c.base, k + 1))
            assert list(c.members) == [colex_rank(m) for m in lex]


class TestConsistency:
    def test_empty_and_full(self):
        for n, k in [(3, 1), (4, 1), (5, 2)]:
            params = GroundParams(n, k)
            assert certified(params, 0)
            assert certified(params, params.full_bits)

    def test_skipping_middle_is_inconsistent(self):
        assert not certified(GroundParams(3, 1), bits_of([(1, 2), (2, 3)]))

    def test_bitset_out_of_range(self):
        params = GroundParams(3, 1)
        for bits in (-1, params.full_bits + 1):
            with pytest.raises(ParameterError):
                ConsistentSet(params, bits)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (4, 2), (5, 2), (6, 1), (6, 3)])
    def test_agrees_with_naive_oracle_exhaustively(self, n, k):
        # every instance with at most 2^16 member families
        params = GroundParams(n, k)
        subs = naive_colex_subsets(n, k + 1)
        assert len(subs) <= 16
        for bits in range(1 << len(subs)):
            members = [subs[i] for i in range(len(subs)) if bits >> i & 1]
            assert certified(params, bits) == naive_is_consistent(members, n, k)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_naive_oracle_random(self, data):
        n = data.draw(st.integers(min_value=2, max_value=6))
        k = data.draw(st.integers(min_value=0, max_value=n - 1))
        subs = naive_colex_subsets(n, k + 1)
        members = data.draw(st.lists(st.sampled_from(subs), unique=True, max_size=len(subs)))
        assert certified(GroundParams(n, k), bits_of(members)) == naive_is_consistent(members, n, k)


class TestSegmentKernel:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_naive_oracle_on_random_bitsets(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        k = data.draw(st.integers(min_value=0, max_value=n - 1))
        params = GroundParams(n, k)
        subs = naive_colex_subsets(n, k + 1)
        bitsets = data.draw(st.lists(st.integers(0, params.full_bits), max_size=40))
        families = [[subs[i] for i in range(len(subs)) if bits >> i & 1] for bits in bitsets]
        violated = [set(naive_violated_bases(members, n, k)) for members in families]
        full = (1 << len(bitsets)) - 1
        cols = _columns(bitsets, params.num_members)
        explicit = explicit_segment_columns(cols, full, n, k)
        ok = full
        for (check, passing), (_, expected) in zip(_segment_columns(cols, full, n, k), explicit):
            assert passing == expected
            ok &= passing
            for f, bases in enumerate(violated):
                assert bool(passing >> f & 1) == (check.base not in bases)
        for f, (bits, members) in enumerate(zip(bitsets, families)):
            assert bool(ok >> f & 1) == certified(params, bits)
            assert bool(ok >> f & 1) == naive_is_consistent(members, n, k)

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(1, 17) for k in range(n) if comb(n, k + 1) <= 16]
    )
    def test_run_form_matches_explicit_segments_on_every_bitset(self, n, k):
        # every bitset of the width at once, one family per bitset
        params = GroundParams(n, k)
        cols = _columns(range(1 << params.num_members), params.num_members)
        full = (1 << (1 << params.num_members)) - 1
        runs = list(_segment_columns(cols, full, n, k))
        assert runs == list(explicit_segment_columns(cols, full, n, k))
        assert len(runs) == comb(n, k + 2)

    def test_consistent_family_fails_no_packet(self):
        assert failing_bases(GroundParams(3, 1), [(1, 2), (1, 3)]) == []

    def test_single_packet_instance(self):
        assert failing_bases(GroundParams(3, 1), [(1, 2), (2, 3)]) == [(1, 2, 3)]

    def test_only_the_offending_packet_fails(self):
        # hand check of the other three packets of [4]
        assert failing_bases(GroundParams(4, 1), [(1, 2), (2, 3)]) == [(1, 2, 3)]


class TestConsistentSet:
    def test_construction_rejects_inconsistent(self):
        with pytest.raises(InconsistentSetError):
            family(GroundParams(3, 1), (1, 2), (2, 3))

    def test_str_forms(self):
        params = GroundParams(3, 1)
        assert str(family(params)) == "{}"
        assert str(family(params, (1, 2), (1, 3))) == "{{1,2},{1,3}}"


class TestInternalGaps:
    def test_definition_cases(self):
        assert internal_gaps((2, 4), 5) == [3]
        assert internal_gaps((1, 2, 3), 5) == []
        assert internal_gaps((1, 4), 4) == [2, 3]

    def test_empty_subset_rejected(self):
        with pytest.raises(ParameterError):
            internal_gaps((), 4)

    def test_not_a_subset_rejected(self):
        with pytest.raises(ParameterError):
            internal_gaps((2, 6), 5)

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 3), (6, 1)])
    def test_only_interval_containing_n_is_the_top_one(self, n, k):
        gap_free = [
            s
            for s in naive_colex_subsets(n, k + 1)
            if n in s and internal_gaps(s, n) == []
        ]
        assert gap_free == [tuple(range(n - k, n + 1))]


class TestFindInterval:
    def test_already_an_interval(self):
        u = family(GroundParams(3, 1), (1, 2))
        assert interval_descent(u)[-1] == (1, 2)

    def test_consistent_star_family(self):
        u = family(GroundParams(4, 1), (1, 2), (1, 3), (1, 4))
        found = interval_descent(u)[-1]
        assert found == (1, 2)
        assert internal_gaps(found, 4) == []

    def test_empty_family_rejected(self):
        with pytest.raises(ParameterError):
            interval_descent(family(GroundParams(3, 1)))

    def test_descent_strictly_decreases_gaps(self):
        u = family(GroundParams(5, 1), (1, 5), (1, 4), (1, 3), (1, 2), (2, 5), (2, 4), (2, 3))
        trace = interval_descent(u)
        counts = [len(internal_gaps(s, 5)) for s in trace]
        assert all(a > b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 0
        assert trace[-1] in members_of(u)

    def test_corrupted_family_raises(self):
        # bypass construction checks to simulate corrupted input
        params = GroundParams(4, 1)
        bits = bits_of([(1, 4), (2, 4)])
        corrupt = ConsistentSet.__new__(ConsistentSet)
        object.__setattr__(corrupt, "params", params)
        object.__setattr__(corrupt, "bits", bits)
        with pytest.raises(InvariantError):
            interval_descent(corrupt)


class TestComplement:
    def test_empty_and_full_swap(self):
        params = GroundParams(4, 2)
        empty = family(params)
        assert complement(empty).bits == params.full_bits
        assert complement(complement(empty)) == empty

    def test_three_one_example(self):
        u = family(GroundParams(3, 1), (1, 2))
        assert members_of(complement(u)) == ((1, 3), (2, 3))

    def test_involution_exhaustive(self):
        params = GroundParams(4, 2)
        subs = naive_colex_subsets(4, 3)
        for bits in range(1 << len(subs)):
            members = [subs[i] for i in range(len(subs)) if bits >> i & 1]
            if not naive_is_consistent(members, 4, 2):
                continue
            u = ConsistentSet(params, bits)
            assert complement(complement(u)) == u
