import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    homology_dict,
    naive_beat_points,
    naive_proper_part,
    random_bounded_poset,
)
from higher_bruhat.bruhat import dissection_instance, enumerate_bruhat, to_poset
from higher_bruhat.errors import NotAPosetError, NotBoundedError, ParameterError
from higher_bruhat.homology import reduced_homology
from higher_bruhat.posets import (
    FiniteBoundedPoset,
    MonotoneMap,
    beat_core,
    chain_f_vector,
    check_monotone,
    count_chains,
    from_covers,
    from_relation,
    iter_chains,
    order_complex,
    product_with_two_chain,
    proper_part,
)
from higher_bruhat.subsets import GroundParams


def shuffled(p, rng):
    """p with its indices permuted; from four elements on, neither bound is
    the first or the last index."""
    n = len(p)
    order = [i for i in range(n) if i not in (p.bottom, p.top)]
    rng.shuffle(order)
    if n >= 4:
        order.insert(rng.randrange(1, len(order)), p.top)
        order.insert(rng.randrange(1, len(order)), p.bottom)
    else:
        order += sorted({p.bottom, p.top})
        rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    rows = [0] * n
    for old, row in enumerate(p.leq):
        for j in range(n):
            if row >> j & 1:
                rows[position[old]] |= 1 << position[j]
    return FiniteBoundedPoset(
        tuple(p.labels[old] for old in order),
        tuple(rows),
        position[p.bottom],
        position[p.top],
    )


def chain_poset(n):
    labels = [f"c{i}" for i in range(n)]
    return from_covers(labels, [(i, i + 1) for i in range(n - 1)], 0, n - 1)


def diamond_poset(middle):
    labels = ["bot"] + [f"m{i}" for i in range(middle)] + ["top"]
    covers = [(0, i) for i in range(1, middle + 1)]
    covers += [(i, middle + 1) for i in range(1, middle + 1)]
    if middle == 0:
        covers = [(0, 1)]
    return from_covers(labels, covers, 0, len(labels) - 1)


class TestFromCovers:
    def test_two_chain(self):
        p = chain_poset(2)
        assert p.le(0, 1) and not p.le(1, 0)
        assert len(proper_part(p)) == 0

    def test_cycle_rejected(self):
        with pytest.raises(NotAPosetError):
            from_covers(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)], 0, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(NotAPosetError):
            from_covers(["a", "b"], [(0, 0), (0, 1)], 0, 1)

    def test_unbounded_rejected(self):
        # two maximal elements
        with pytest.raises(NotBoundedError):
            from_covers(["a", "b", "c"], [(0, 1), (0, 2)], 0, 2)

    def test_out_of_range_cover(self):
        with pytest.raises(ParameterError):
            from_covers(["a", "b"], [(0, 5)], 0, 1)

    def test_matches_bruhat_poset(self):
        target = to_poset(enumerate_bruhat(GroundParams(3, 1)))
        rebuilt = from_covers(target.labels, target.covers(), target.bottom, target.top)
        assert rebuilt == target

    def test_closure_of_transitive_reduction_is_identity(self):
        rng = random.Random(7)
        for _ in range(25):
            p = random_bounded_poset(rng)
            rebuilt = from_covers(p.labels, p.covers(), p.bottom, p.top)
            assert rebuilt.leq == p.leq


class TestFromRelation:
    def test_detects_bounds(self):
        rows = (0b111, 0b110, 0b100)
        p = from_relation(("a", "b", "c"), rows)
        assert p.bottom == 0 and p.top == 2

    def test_missing_reflexivity(self):
        with pytest.raises(NotAPosetError):
            from_relation(("a", "b"), (0b11, 0b00), bottom=0, top=1)

    def test_antisymmetry_violation(self):
        with pytest.raises(NotAPosetError):
            from_relation(("a", "b"), (0b11, 0b11), bottom=0, top=1)

    def test_antisymmetry_names_the_first_pair(self):
        # b<->d and c<->d both break antisymmetry; b, d comes first
        rows = (0b1111, 0b1010, 0b1110, 0b1110)
        with pytest.raises(NotAPosetError, match="antisymmetric on b, d$"):
            from_relation(("a", "b", "c", "d"), rows, bottom=0, top=3)

    def test_antisymmetry_witness_matches_pairwise_scan(self):
        rng = random.Random(5)
        witnessed = 0
        for _ in range(60):
            n = rng.randrange(2, 9)
            labels = tuple(f"e{i}" for i in range(n))
            rows = tuple(
                sum(1 << j for j in range(n) if rng.random() < 0.3) | 1 << i
                for i in range(n)
            )
            first = next(
                (
                    (i, j)
                    for i in range(n)
                    for j in range(n)
                    if i != j and rows[i] >> j & 1 and rows[j] >> i & 1
                ),
                None,
            )
            if first is None:
                continue
            witnessed += 1
            i, j = first
            with pytest.raises(NotAPosetError, match=f"antisymmetric on e{i}, e{j}$"):
                FiniteBoundedPoset(labels, rows, 0, n - 1)
        assert witnessed >= 20

    @pytest.mark.parametrize("seed", range(10))
    def test_detects_interior_bounds(self, seed):
        q = shuffled(random_bounded_poset(random.Random(seed)), random.Random(seed))
        p = from_relation(q.labels, q.leq)
        assert (p.bottom, p.top) == (q.bottom, q.top)

    def test_transitivity_violation(self):
        rows = (0b011, 0b110, 0b100)  # a<=b, b<=c, but not a<=c
        with pytest.raises(NotAPosetError):
            from_relation(("a", "b", "c"), rows, bottom=0, top=2)

    def test_no_bottom(self):
        rows = (0b101, 0b110, 0b100)  # two minimal elements a, b
        with pytest.raises(NotBoundedError):
            from_relation(("a", "b", "c"), rows)

    def test_duplicate_labels(self):
        with pytest.raises(ParameterError):
            from_relation(("a", "a"), (0b11, 0b10))


class TestProperPart:
    def test_chains(self):
        assert len(proper_part(chain_poset(2))) == 0
        assert len(proper_part(chain_poset(3))) == 1

    def test_one_element_poset(self):
        p = FiniteBoundedPoset(("x",), (0b1,), 0, 0)
        assert len(proper_part(p)) == 0
        assert proper_part(p) == naive_proper_part(p)

    @pytest.mark.parametrize("seed", range(30))
    def test_interior_bounds_match_pairwise(self, seed):
        rng = random.Random(seed)
        p = shuffled(random_bounded_poset(rng), rng)
        assert proper_part(p) == naive_proper_part(p)

    def test_bruhat_three_one(self):
        pp = proper_part(to_poset(enumerate_bruhat(GroundParams(3, 1))))
        assert len(pp) == 4
        strict = [
            (i, j)
            for i in range(4)
            for j in range(4)
            if i != j and pp.le(i, j)
        ]
        assert len(strict) == 2  # two disjoint two-chains


class TestProductWithTwoChain:
    def test_square(self):
        p = product_with_two_chain(chain_poset(2))
        assert len(p) == 4
        assert sorted(p.labels) == ["(c0,0)", "(c0,1)", "(c1,0)", "(c1,1)"]
        # Boolean lattice: the two middle elements are incomparable
        pp = proper_part(p)
        assert len(pp) == 2
        assert not pp.le(0, 1) and not pp.le(1, 0)

    def test_doubles_size(self):
        rng = random.Random(3)
        for _ in range(10):
            q = random_bounded_poset(rng)
            assert len(product_with_two_chain(q)) == 2 * len(q)

    def test_componentwise_order(self):
        q = diamond_poset(2)
        p = product_with_two_chain(q)
        n = len(q)
        for a in range(n):
            for s in (0, 1):
                for b in range(n):
                    for t in (0, 1):
                        expected = q.le(a, b) and s <= t
                        assert p.le(a + s * n, b + t * n) == expected


class TestOrderComplex:
    def test_empty_proper_part(self):
        cx = order_complex(proper_part(chain_poset(2)))
        assert cx.dim == -1
        assert cx.f_vector() == ()

    def test_antichain(self):
        cx = order_complex(proper_part(diamond_poset(4)))
        assert cx.f_vector() == (4,)

    def test_two_disjoint_edges(self):
        pp = proper_part(to_poset(enumerate_bruhat(GroundParams(3, 1))))
        cx = order_complex(pp)
        assert cx.f_vector() == (4, 2)

    def test_full_chain_gives_simplex(self):
        cx = order_complex(chain_poset(4))
        assert cx.f_vector() == (4, 6, 4, 1)

    def test_f_vector_counts_chains(self):
        rng = random.Random(11)
        for _ in range(10):
            p = random_bounded_poset(rng)
            cx = order_complex(p)
            by_len = {}
            for chain in iter_chains(p):
                by_len[len(chain)] = by_len.get(len(chain), 0) + 1
            assert cx.f_vector() == tuple(
                by_len.get(d + 1, 0) for d in range(cx.dim + 1)
            )
            assert count_chains(p) == sum(cx.f_vector())

    def test_monotone_image_of_chain_is_chain(self):
        inst = dissection_instance(enumerate_bruhat(GroundParams(3, 1)))
        cx = order_complex(inst.p)
        for fs in cx.faces:
            for face in fs:
                image = sorted(set(inst.f.images[v] for v in face))
                for a, b in itertools.combinations(image, 2):
                    assert inst.q.le(a, b) or inst.q.le(b, a)


def boolean_lattice(n):
    """The subsets of [n] under inclusion, indexed by their bitmasks."""
    size = 1 << n
    rows = [sum(1 << b for b in range(size) if a & ~b == 0) for a in range(size)]
    return FiniteBoundedPoset(tuple(f"s{a}" for a in range(size)), tuple(rows), 0, size - 1)


def with_new_bound(p, above):
    """p with a new top above its top (or a new bottom below its bottom)."""
    labels = p.labels + ("new",)
    new = len(p)
    if above:
        return from_covers(labels, p.covers() + ((p.top, new),), p.bottom, new)
    return from_covers(labels, p.covers() + ((new, p.bottom),), new, p.top)


class TestBeatCore:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_core_of_random_proper_part(self, seed):
        p = random_bounded_poset(random.Random(seed), max_elements=12)
        pp = proper_part(p)
        core = beat_core(pp)
        assert homology_dict(reduced_homology(order_complex(core))) == homology_dict(
            reduced_homology(order_complex(pp))
        )
        assert naive_beat_points(core) == []
        # an induced subposet of pp, indexed into the bounded poset p
        assert core.parent is p
        assert set(core.parent_index) <= set(pp.parent_index)
        for a, pa in enumerate(core.parent_index):
            assert core.labels[a] == p.labels[pa]
            for b, pb in enumerate(core.parent_index):
                assert core.le(a, b) == p.le(pa, pb)
        assert chain_f_vector(pp) == order_complex(pp).f_vector()
        assert chain_f_vector(p) == order_complex(p).f_vector()

    def test_boolean_lattice_is_its_own_core(self):
        pp = proper_part(boolean_lattice(3))
        core = beat_core(pp)
        assert len(core) == 6
        assert core.parent_index == pp.parent_index
        assert core.leq == pp.leq

    def test_hanging_beat_points_are_deleted(self):
        # 2^[3] with two points hung between the bottom and the atom {1},
        # each with a strict up-set that has a minimum but no maximum, and
        # two between the 2-set {1,2} and the top, each with a strict
        # down-set that has a maximum but no minimum
        b = boolean_lattice(3)
        p = from_covers(
            b.labels + ("under", "under2", "over", "over2"),
            b.covers() + ((0, 8), (8, 1), (0, 9), (9, 1),
                          (3, 10), (10, 7), (3, 11), (11, 7)),
            0,
            7,
        )
        core = beat_core(proper_part(p))
        assert len(core) == 6
        assert naive_beat_points(core) == []

    def test_chain_collapses_to_a_point(self):
        for n in range(3, 7):
            assert len(beat_core(proper_part(chain_poset(n)))) == 1

    def test_proper_part_with_a_bound_collapses_to_a_point(self):
        rng = random.Random(17)
        for _ in range(20):
            p = random_bounded_poset(rng)
            for above in (True, False):
                core = beat_core(proper_part(with_new_bound(p, above)))
                assert len(core) == 1
            assert len(beat_core(p)) == 1

    def test_empty_proper_part(self):
        pp = proper_part(chain_poset(2))
        core = beat_core(pp)
        assert len(core) == 0
        assert core.parent_index == ()
        assert list(chain_f_vector(pp)) == []


class TestMaximalChains:
    def test_count_matches_enumeration(self):
        rng = random.Random(5)
        for _ in range(10):
            p = random_bounded_poset(rng)
            assert count_chains(p) == len(list(iter_chains(p)))
            pp = proper_part(p)
            assert count_chains(pp) == len(list(iter_chains(pp)))


class TestCheckMonotone:
    def test_identity_and_constant(self):
        p = chain_poset(3)
        ok, bad = check_monotone(MonotoneMap(p, p, (0, 1, 2)))
        assert ok and bad == []
        ok, bad = check_monotone(MonotoneMap(p, p, (2, 2, 2)))
        assert ok and bad == []

    def test_order_reversal_detected(self):
        p = chain_poset(2)
        ok, bad = check_monotone(MonotoneMap(p, p, (1, 0)))
        assert not ok
        assert bad == [(0, 1)]

    def test_map_validation(self):
        p = chain_poset(2)
        with pytest.raises(ParameterError):
            MonotoneMap(p, p, (0,))
        with pytest.raises(ParameterError):
            MonotoneMap(p, p, (0, 5))
