import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    OverLimit,
    addable_cover,
    addable_thinned,
    any_beat_core,
    beat_core,
    bitwise_transpose,
    boolean_core,
    bounded_thinning,
    chain_f_vector,
    count_chains,
    dissection_instance,
    homology_dict,
    iter_chains,
    member_column_inclusion_rows,
    members,
    naive_beat_points,
    naive_boolean_atoms,
    naive_chains,
    naive_cover_pairs,
    naive_covers,
    naive_inclusion_rows,
    order_complex,
    pair_walk_check_monotone,
    pair_walk_validate,
    product_with_two_chain,
    proper_part,
    random_bounded_poset,
    size_sorted_count_chains,
)
from higher_bruhat import posets
from higher_bruhat.bruhat import (
    OrderKind,
    enumerate_bruhat,
    to_poset,
)
from higher_bruhat.errors import NotAPosetError, NotBoundedError, ParameterError
from higher_bruhat.homology import reduced_homology
from higher_bruhat.posets import (
    FiniteBoundedPoset,
    check_monotone,
    from_covers,
    from_relation,
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


def whole(p):
    """The mask of every element of p."""
    return (1 << len(p)) - 1


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
        assert proper_part(p) == 0

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
        target = to_poset(enumerate_bruhat(GroundParams(3, 1)), OrderKind.SINGLE_STEP)
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

    def test_transitivity_witness_matches_pair_walk(self):
        # upper-triangular reflexive rows are antisymmetric, so the first
        # failure either route finds is of transitivity or of a bound
        rng = random.Random(11)
        failed = 0
        for _ in range(80):
            n = rng.randrange(2, 9)
            labels = tuple(f"e{i}" for i in range(n))
            rows = tuple(
                1 << i | sum(1 << j for j in range(i + 1, n) if rng.random() < 0.4)
                for i in range(n)
            )
            try:
                pair_walk_validate(labels, rows, 0, n - 1)
            except (NotAPosetError, NotBoundedError) as exc:
                failed += isinstance(exc, NotAPosetError)
                with pytest.raises(type(exc)) as info:
                    FiniteBoundedPoset(labels, rows, 0, n - 1)
                assert str(info.value) == str(exc)
            else:
                p = FiniteBoundedPoset(labels, rows, 0, n - 1)
                assert p.covers() == naive_covers(p)
        assert failed >= 20

    def test_no_bottom(self):
        rows = (0b101, 0b110, 0b100)  # two minimal elements a, b
        with pytest.raises(NotBoundedError):
            from_relation(("a", "b", "c"), rows)

    def test_duplicate_labels(self):
        with pytest.raises(ParameterError):
            from_relation(("a", "a"), (0b11, 0b10))

    @pytest.mark.parametrize("rows", [(0b11,), (0b111, 0b110, 0b100)])
    def test_row_count_must_match_labels(self, rows):
        with pytest.raises(ParameterError, match="labels and relation rows differ in length"):
            from_relation(("a", "b"), rows)


class TestProperPart:
    def test_chains(self):
        assert proper_part(chain_poset(2)) == 0
        assert proper_part(chain_poset(3)) == 0b010

    def test_one_element_poset(self):
        p = FiniteBoundedPoset(("x",), (0b1,), 0, 0)
        assert proper_part(p) == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_interior_bounds_match_pairwise(self, seed):
        rng = random.Random(seed)
        p = shuffled(random_bounded_poset(rng), rng)
        assert members(proper_part(p)) == [
            i for i in range(len(p)) if not (p.le(i, p.bottom) or p.le(p.top, i))
        ]

    def test_reads_no_row(self):
        # the bounds and the number of rows alone decide the mask: the bare
        # poset has no labels, and any operation on one of its rows raises
        p = random_bounded_poset(random.Random(3))
        bare = object.__new__(FiniteBoundedPoset)
        bare.__dict__.update(leq=(None,) * len(p), bottom=p.bottom, top=p.top)
        assert proper_part(bare) == proper_part(p)

    def test_bruhat_three_one(self):
        p = to_poset(enumerate_bruhat(GroundParams(3, 1)), OrderKind.SINGLE_STEP)
        pp = members(proper_part(p))
        assert len(pp) == 4
        strict = [(i, j) for i in pp for j in pp if i != j and p.le(i, j)]
        assert len(strict) == 2  # two disjoint two-chains


class TestProductWithTwoChain:
    def test_square(self):
        p = product_with_two_chain(chain_poset(2))
        assert len(p) == 4
        assert sorted(p.labels) == ["(c0,0)", "(c0,1)", "(c1,0)", "(c1,1)"]
        # Boolean lattice: the two middle elements are incomparable
        a, b = members(proper_part(p))
        assert not p.le(a, b) and not p.le(b, a)

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
        p = chain_poset(2)
        cx = order_complex(p, proper_part(p))
        assert cx.dim == -1
        assert cx.f_vector() == ()

    def test_antichain(self):
        p = diamond_poset(4)
        cx = order_complex(p, proper_part(p))
        assert cx.f_vector() == (4,)

    def test_two_disjoint_edges(self):
        p = to_poset(enumerate_bruhat(GroundParams(3, 1)), OrderKind.SINGLE_STEP)
        cx = order_complex(p, proper_part(p))
        assert cx.f_vector() == (4, 2)

    def test_full_chain_gives_simplex(self):
        p = chain_poset(4)
        cx = order_complex(p, whole(p))
        assert cx.f_vector() == (4, 6, 4, 1)

    def test_f_vector_counts_chains(self):
        rng = random.Random(11)
        for _ in range(10):
            p = random_bounded_poset(rng)
            cx = order_complex(p, whole(p))
            by_len = {}
            for chain in iter_chains(p, whole(p)):
                by_len[len(chain)] = by_len.get(len(chain), 0) + 1
            assert cx.f_vector() == tuple(
                by_len.get(d + 1, 0) for d in range(cx.dim + 1)
            )
            assert count_chains(p, whole(p)) == sum(cx.f_vector())

    def test_monotone_image_of_chain_is_chain(self):
        inst = dissection_instance(enumerate_bruhat(GroundParams(3, 1)), OrderKind.SINGLE_STEP)
        cx = order_complex(inst.p, whole(inst.p))
        for fs in cx.faces:
            for face in fs:
                image = sorted(set(inst.f[v] for v in face))
                for a, b in itertools.combinations(image, 2):
                    assert inst.q.le(a, b) or inst.q.le(b, a)


def boolean_lattice(n):
    """The subsets of [n] under inclusion, indexed by their bitmasks."""
    size = 1 << n
    rows = [sum(1 << b for b in range(size) if a & ~b == 0) for a in range(size)]
    return FiniteBoundedPoset(tuple(f"s{a}" for a in range(size)), tuple(rows), 0, size - 1)


def with_new_bound(p, above):
    """p with a new top above its top (or a new bottom below its bottom).

    The new top takes the last index and the new bottom the first, so an
    index order that is a linear extension stays one.
    """
    if above:
        new = len(p)
        return from_covers(p.labels + ("new",), p.covers() + ((p.top, new),), p.bottom, new)
    covers = tuple((a + 1, b + 1) for a, b in p.covers()) + ((0, p.bottom + 1),)
    return from_covers(("new",) + p.labels, covers, 0, p.top + 1)


def moebius(p):
    """The Moebius number mu(bottom, top) of p, from its down rows.

    mu(bottom, bottom) = 1, and mu(bottom, x) is minus the sum of
    mu(bottom, y) over the y strictly below x.  p's index order must be a
    linear extension, so that every such y is reached before x.
    """
    mu = [0] * len(p)
    for x in range(len(p)):
        below = p.down[x] & ~(1 << x)
        mu[x] = 1 if x == p.bottom else -sum(mu[y] for y in members(below))
    return mu[p.top]


def reduced_euler_characteristic(p, live):
    """The reduced Euler characteristic of the order complex of live.

    By P. Hall's theorem, on the proper part it is the Moebius number of
    p; deleting beat points keeps the homotopy type, so the core keeps it.
    """
    faces = order_complex(p, live).f_vector()
    return -1 + sum((-1) ** d * count for d, count in enumerate(faces))


class TestBeatCore:
    def test_boolean_lattice_is_its_own_core(self):
        p = boolean_lattice(3)
        pp = proper_part(p)
        assert beat_core(p, pp) == pp

    def test_hanging_beat_points_are_deleted(self):
        # 2^[3] with two points hung between the bottom and the atom {1},
        # each with a strict up-set that has a minimum but no maximum, and
        # two between the 2-set {1,2} and the top, each with a strict
        # down-set that has a maximum but no minimum.  The hung points take
        # indices that keep the index order a linear extension
        b = boolean_lattice(3)
        index = [0, 3, 4, 5, 6, 7, 8, 11]
        p = from_covers(
            ("bot", "under", "under2") + b.labels[1:7] + ("over", "over2", "top"),
            tuple((index[x], index[y]) for x, y in b.covers())
            + ((0, 1), (1, 3), (0, 2), (2, 3), (5, 9), (9, 11), (5, 10), (10, 11)),
            0,
            11,
        )
        core = beat_core(p, proper_part(p))
        assert core == sum(1 << index[x] for x in members(proper_part(b)))
        assert naive_beat_points(p, core) == []

    def test_chain_collapses_to_a_point(self):
        for n in range(3, 7):
            p = chain_poset(n)
            assert beat_core(p, proper_part(p)).bit_count() == 1

    def test_proper_part_with_a_bound_collapses_to_a_point(self):
        rng = random.Random(17)
        for _ in range(20):
            p = random_bounded_poset(rng)
            for above in (True, False):
                extended = with_new_bound(p, above)
                assert beat_core(extended, proper_part(extended)).bit_count() == 1
            assert beat_core(p, whole(p)).bit_count() == 1

    def test_empty_proper_part(self):
        p = chain_poset(2)
        assert beat_core(p, proper_part(p)) == 0
        assert chain_f_vector(p, proper_part(p)) == ()

    @pytest.mark.parametrize(
        "n,k", [(3, 1), (4, 1), (4, 2), (5, 2), (5, 1), (6, 3), (6, 2), (6, 1), (7, 3)]
    )
    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_bruhat_ladder_matches_any_route(self, n, k, kind):
        # one candidate row per side gives the same masks as the test
        # against every member of the strict sets
        p = to_poset(enumerate_bruhat(GroundParams(n, k)), kind)
        for live in (proper_part(p), whole(p)):
            assert beat_core(p, live) == any_beat_core(p, live)

    def test_random_posets_match_any_route(self):
        rng = random.Random(29)
        for _ in range(40):
            p = random_bounded_poset(rng, max_elements=14)
            for q in (p, with_new_bound(p, True), with_new_bound(p, False)):
                for live in (proper_part(q), whole(q), rng.getrandbits(len(q))):
                    assert beat_core(q, live) == any_beat_core(q, live)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(n)])
    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_bruhat_core_keeps_the_moebius_number(self, n, k, kind):
        # the proper part of B(n,k) is an (n-k-2)-sphere
        p = to_poset(enumerate_bruhat(GroundParams(n, k)), kind)
        core = beat_core(p, proper_part(p))
        assert moebius(p) == reduced_euler_characteristic(p, core) == (-1) ** (n - k)

    def test_random_cores_keep_the_moebius_number(self):
        # random_bounded_poset lists its elements in a linear extension
        rng = random.Random(37)
        for _ in range(60):
            p = random_bounded_poset(rng, max_elements=14)
            for q in (p, with_new_bound(p, True), with_new_bound(p, False)):
                core = beat_core(q, proper_part(q))
                assert moebius(q) == reduced_euler_characteristic(q, core)

    def test_index_order_must_be_a_linear_extension(self):
        # c2 < c1 is a cover that runs down the index order
        p = from_covers(["c0", "c1", "c2", "c3"], [(0, 2), (2, 1), (1, 3)], 0, 3)
        with pytest.raises(ParameterError, match="linear extension"):
            beat_core(p, proper_part(p))



def without_comparability(p, a, b):
    """p with the comparability a < b removed; a must be covered by b."""
    rows = list(p.leq)
    rows[a] &= ~(1 << b)
    return FiniteBoundedPoset(p.labels, tuple(rows), p.bottom, p.top)


class TestBooleanCore:
    """boolean_core accepts Boolean proper parts and names the first failing check."""

    @pytest.mark.parametrize("m", range(1, 6))
    def test_boolean_lattices_are_accepted(self, m):
        rng = random.Random(m)
        for p in (boolean_lattice(m), shuffled(boolean_lattice(m), rng)):
            assert boolean_core(p, proper_part(p)) == (m, None)

    def test_empty_core_has_one_atom(self):
        # B(k+1,k) and every 2-element poset: the proper part of 2^[1], S^-1
        p = chain_poset(2)
        assert boolean_core(p, proper_part(p)) == (1, None)

    def test_square_face_lattice_fails_size(self):
        # the faces of a square: its proper part is a circle, 4 vertices and
        # 4 edges, but 4 atoms would need 14 points
        labels = ["empty", "v0", "v1", "v2", "v3", "e01", "e12", "e23", "e30", "square"]
        covers = [(0, v) for v in range(1, 5)]
        covers += [(1 + v, 5 + e) for e in range(4) for v in (e, (e + 1) % 4)]
        covers += [(e, 9) for e in range(5, 9)]
        p = from_covers(labels, covers, 0, 9)
        assert beat_core(p, proper_part(p)) == proper_part(p)
        assert boolean_core(p, proper_part(p)) == (4, ("size", "8 points on 4 atoms, not 14"))

    def test_contractible_core_fails_size(self):
        p = chain_poset(5)
        core = beat_core(p, proper_part(p))
        assert core.bit_count() == 1
        assert boolean_core(p, core) == (1, ("size", "1 points on 1 atoms, not 0"))

    def test_point_above_every_atom_fails_images(self):
        # 6 = 2^3 - 2 points on 3 atoms, but "t" lies above all three
        labels = ["bot", "a1", "a2", "a3", "b12", "b23", "t", "top"]
        covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5), (4, 6), (5, 6)]
        covers += [(6, 7)]
        p = from_covers(labels, covers, 0, 7)
        assert boolean_core(p, proper_part(p)) == (3, ("images", "t lies above every atom"))

    def test_lost_atom_comparability_fails_images(self):
        # without {1} < {1,2}, the 2-set lies above the atom {2} alone;
        # rank 2 has no pair of non-atoms, so B_3 cannot fail order
        p = without_comparability(boolean_lattice(3), 1, 3)
        assert boolean_core(p, proper_part(p)) == (
            3, ("images", "s2 and s3 lie above the same atoms")
        )

    def test_lost_comparability_between_non_atoms_fails_order(self):
        # without {1,2} < {1,2,3}, the images are still those of 2^[4]
        p = without_comparability(boolean_lattice(4), 3, 7)
        assert boolean_core(p, proper_part(p)) == (
            4, ("order", "s7 lies above every atom below s3 but not above it")
        )

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(n)])
    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_bruhat_cores_are_boolean_on_n_minus_k_atoms(self, n, k, kind):
        p = to_poset(enumerate_bruhat(GroundParams(n, k)), kind)
        core = beat_core(p, proper_part(p))
        assert boolean_core(p, core) == (n - k, None)
        assert naive_boolean_atoms(p, core) == n - k

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_cores_match_the_definition(self, seed):
        rng = random.Random(seed)
        p = random_bounded_poset(rng, max_elements=14)
        for live in (beat_core(p, proper_part(p)), proper_part(p), rng.getrandbits(len(p))):
            m, failure = boolean_core(p, live)
            assert (failure is None) == (naive_boolean_atoms(p, live) is not None)
            if failure is None:
                assert naive_boolean_atoms(p, live) == m

class TestMaskKernels:
    """The mask kernels against brute force over subsets of live."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_random_subposets(self, seed):
        rng = random.Random(seed)
        plain = random_bounded_poset(rng, max_elements=12)
        for p in (plain, shuffled(plain, rng)):
            n = len(p)
            subset = sum(1 << i for i in range(n) if rng.random() < 0.5)
            for live in (proper_part(p), subset, whole(p)):
                chains = naive_chains(p, live)
                listed = list(iter_chains(p, live))
                assert all(p.le(a, b) for c in listed for a, b in zip(c, c[1:]))
                assert sorted(tuple(sorted(c)) for c in listed) == sorted(chains)
                assert count_chains(p, live) == len(chains)
                sizes = [len(c) for c in chains]
                f_vector = tuple(sizes.count(d) for d in range(1, max(sizes, default=0) + 1))
                assert chain_f_vector(p, live) == f_vector
                # the bounded count gives the same vector up to its limit and
                # stops only once the last point is counted, one below it
                total = len(chains)
                assert chain_f_vector(p, live, total) == f_vector
                assert chain_f_vector(p, live, total - 1) == OverLimit(
                    live.bit_count() if total else 0
                )
                cx = order_complex(p, live)
                position = {i: v for v, i in enumerate(members(live))}
                assert cx.num_vertices == live.bit_count()
                assert {face for faces in cx.faces for face in faces} == {
                    tuple(position[i] for i in c) for c in chains
                }
                # beat_core needs an index order that is a linear extension,
                # which a shuffle may break; the any() route needs none
                core = any_beat_core(p, live)
                if all(a < b for a, b in p.covers()):
                    assert beat_core(p, live) == core
                else:
                    with pytest.raises(ParameterError, match="linear extension"):
                        beat_core(p, live)
                assert core & ~live == 0
                assert naive_beat_points(p, core) == []
                assert homology_dict(
                    reduced_homology(order_complex(p, core))
                ) == homology_dict(reduced_homology(cx))


class TestMaximalChains:
    def test_count_matches_enumeration(self):
        rng = random.Random(5)
        for _ in range(10):
            p = random_bounded_poset(rng)
            for live in (whole(p), proper_part(p)):
                assert count_chains(p, live) == len(list(iter_chains(p, live)))


class TestBitPlaneChainCount:
    """The bit-plane chain count against the pair-by-pair sum and the listing."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_posets(self, seed):
        rng = random.Random(seed)
        plain = random_bounded_poset(rng, max_elements=12)
        for p in (plain, shuffled(plain, rng)):
            n = len(p)
            point = 1 << rng.randrange(n)
            subset = sum(1 << i for i in range(n) if rng.random() < 0.5)
            for live in (0, point, subset, whole(p)):
                listed = len(list(iter_chains(p, live)))
                assert size_sorted_count_chains(p, live) == listed
                assert count_chains(p, live) == listed

    @pytest.mark.parametrize(
        "n,k", [(3, 1), (4, 1), (4, 2), (5, 2), (5, 1), (6, 3), (6, 2)]
    )
    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_bruhat_ladder(self, n, k, kind):
        # B(6,2) has ~10^11 chains, so its counts run through 37 planes
        p = to_poset(enumerate_bruhat(GroundParams(n, k)), kind)
        for live in (proper_part(p), whole(p)):
            count = count_chains(p, live)
            assert count == size_sorted_count_chains(p, live)
            if count < 200_000:
                assert count == len(list(iter_chains(p, live)))
            f_vector = chain_f_vector(p, live)
            assert sum(f_vector) == count
            assert chain_f_vector(p, live, count) == f_vector
            assert chain_f_vector(p, live, count - 1) == OverLimit(live.bit_count())


class TestBoundedChainCount:
    """chain_f_vector with a limit stops as soon as its count passes it."""

    @pytest.mark.parametrize("limit", [0, 1, 10, 10_000, 500_000])
    def test_stops_at_the_first_point_over(self, limit):
        # B(6,2) has ~10^11 chains in its proper part; the count stops at the
        # first point, bottom up, whose chains take the total past the limit
        p = to_poset(enumerate_bruhat(GroundParams(6, 2)), OrderKind.SINGLE_STEP)
        pp = proper_part(p)
        over = chain_f_vector(p, pp, limit)
        assert isinstance(over, OverLimit)
        order = sorted(members(pp), key=lambda i: p.down[i].bit_count())
        counted = sum(1 << i for i in order[: over.visited])
        assert count_chains(p, counted) > limit
        assert count_chains(p, counted & ~(1 << order[over.visited - 1])) <= limit


class TestCheckMonotone:
    def test_identity_and_constant(self):
        p = chain_poset(3)
        ok, bad = check_monotone(p, p, (0, 1, 2))
        assert ok and bad == []
        ok, bad = check_monotone(p, p, (2, 2, 2))
        assert ok and bad == []

    def test_order_reversal_detected(self):
        p = chain_poset(2)
        ok, bad = check_monotone(p, p, (1, 0))
        assert not ok
        assert bad == [(0, 1)]


def random_map(rng, source, target, monotone):
    """Images for a map source -> target; monotone ones factor through a chain.

    x -> (size of the down-set of x) is monotone into a chain, and the
    chain maps monotonically onto any chain of the target.
    """
    if not monotone:
        return tuple(rng.randrange(len(target)) for _ in range(len(source)))
    steps = [target.bottom]
    while steps[-1] != target.top:
        steps.append(rng.choice(naive_up_covers(target, steps[-1])))
    sizes = sorted({col.bit_count() for col in source.down})
    rank = {size: min(r * len(steps) // len(sizes), len(steps) - 1) for r, size in enumerate(sizes)}
    return tuple(steps[rank[col.bit_count()]] for col in source.down)


def naive_up_covers(p, a):
    return [b for x, b in naive_covers(p) if x == a]


class TestColumns:
    """The stride-scan columns against the per-bit transpose."""

    @pytest.mark.parametrize("width", [1, 2, 7, 63, 64, 65])
    def test_random_rows(self, width):
        rng = random.Random(width)
        for count in (0, 1, 2, 9, 200):
            rows = [rng.getrandbits(width) for _ in range(count)]
            expected = bitwise_transpose(rows, width)
            assert posets._columns(rows, width) == list(expected)
            assert posets.transpose(rows, width) == expected

    def test_zero_and_full_rows(self):
        rows = [0, (1 << 64) - 1, 1, 1 << 63, 0]
        assert posets._columns(rows, 64) == list(bitwise_transpose(rows, 64))

    @pytest.mark.parametrize("count", [
        posets._BLOCK - 1, posets._BLOCK, posets._BLOCK + 1, 2 * posets._BLOCK + 3,
    ])
    def test_rows_over_several_blocks(self, count):
        # each block's bytes must end where the next block's rows begin
        rng = random.Random(count)
        rows = [rng.getrandbits(5) for _ in range(count)]
        assert posets._columns(rows, 5) == list(posets.transpose(rows, 5))
        assert posets._columns(rows[::-1], 5) == list(posets.transpose(rows[::-1], 5))


class TestCertifiedAgainstPairWalk:
    """The certified, cover-based routes against the former pair-walk ones."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_random_posets(self, seed):
        rng = random.Random(seed)
        p = random_bounded_poset(rng)
        # index order is not a linear extension here, so from_covers sorts
        q = shuffled(p, rng)
        rebuilt = from_covers(q.labels, q.covers(), q.bottom, q.top)
        for poset in (p, q, rebuilt):
            n = len(poset)
            pair_walk_validate(poset.labels, poset.leq, poset.bottom, poset.top)
            assert poset.down == bitwise_transpose(poset.leq, n)
            assert poset.covers() == naive_covers(poset)
            for live in (whole(poset), proper_part(poset)):
                assert count_chains(poset, live) == size_sorted_count_chains(poset, live)
                assert chain_f_vector(poset, live) == order_complex(poset, live).f_vector()
        assert rebuilt == q and rebuilt.down == q.down
        # every comparable pair, some twice: from_covers keeps only the covers
        pairs = [(a, b) for a in range(len(q)) for b in range(len(q)) if a != b and q.le(a, b)]
        pairs += rng.sample(pairs, len(pairs) // 3)
        rng.shuffle(pairs)
        redundant = from_covers(q.labels, pairs, q.bottom, q.top)
        assert redundant == q and redundant.down == q.down
        assert redundant.covers() == naive_covers(q)
        target = random_bounded_poset(rng)
        for source in (p, q):
            for monotone in (True, False):
                images = random_map(rng, source, target, monotone)
                verdict = check_monotone(source, target, images)
                assert verdict == pair_walk_check_monotone(source, target, images)
                if monotone:
                    assert verdict[0]
            # one image moved off a monotone map: a short violation list
            images = list(random_map(rng, source, target, True))
            if images:
                images[rng.randrange(len(images))] = rng.randrange(len(target))
            verdict = check_monotone(source, target, images)
            assert verdict == pair_walk_check_monotone(source, target, images)

    def test_product_with_two_chain_matches_pair_walk(self):
        rng = random.Random(23)
        for _ in range(20):
            p = product_with_two_chain(shuffled(random_bounded_poset(rng), rng))
            pair_walk_validate(p.labels, p.leq, p.bottom, p.top)
            assert p.down == bitwise_transpose(p.leq, len(p))
            assert p.covers() == naive_covers(p)
            assert from_relation(p.labels, p.leq) == p

    @pytest.mark.parametrize(
        "n,k", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 2), (6, 3), (7, 3)]
    )
    def test_bruhat_ladder_matches_validated_rows(self, n, k, monkeypatch):
        order = enumerate_bruhat(GroundParams(n, k))
        labels = tuple(str(u) for u in order.elements)
        # on the ladder the inclusion rows equal the single-step rows, so
        # the inclusion order reuses the cover certificate
        rows = order.reach()
        assert member_column_inclusion_rows(order) == rows
        validated = from_relation(labels, rows, bottom=0, top=len(labels) - 1)
        monkeypatch.setattr(posets, "from_relation", None)
        for kind in OrderKind:
            certified = to_poset(order, kind)
            assert certified == validated
            assert certified.down == validated.down
            assert certified.covers() == validated.covers() == order.covers
        if len(order) <= 1000:
            p = certified
            pair_walk_validate(p.labels, p.leq, p.bottom, p.top)
            assert p.down == bitwise_transpose(p.leq, len(p))
            assert p.covers() == naive_cover_pairs(order)

    def test_inclusion_falls_back_to_validation_where_orders_differ(self):
        # clearing the addable bit of a cover a < b, where a has another
        # upper cover and b another lower one, keeps the single-step order
        # bounded but loses a <= b from it; inclusion keeps every pair
        full = enumerate_bruhat(GroundParams(4, 1))
        mutant = bounded_thinning(full)
        drop = addable_cover(full, *mutant)
        thinned = addable_thinned(full, *mutant)
        assert thinned.covers == tuple(c for c in full.covers if c != drop)
        assert not to_poset(thinned, OrderKind.SINGLE_STEP).le(*drop)
        inclusion = naive_inclusion_rows(thinned)
        assert inclusion == naive_inclusion_rows(full) != thinned.reach()
        p = to_poset(thinned, OrderKind.INCLUSION)
        assert p.leq == inclusion
        assert p.covers() == to_poset(full, OrderKind.SINGLE_STEP).covers()


class TestFromCoversCertificate:
    def test_down_going_covers_build_the_same_poset(self):
        # c2 < c1 < c0: every cover goes down in index
        p = from_covers(["c0", "c1", "c2"], [(2, 1), (1, 0)], 2, 0)
        assert p.leq == (0b001, 0b011, 0b111)
        assert p.down == (0b111, 0b110, 0b100)

    @pytest.mark.parametrize(
        "covers",
        [
            [(0, 1), (1, 0)],
            [(0, 1), (1, 2), (2, 1), (2, 3)],
            [(0, 2), (2, 1), (1, 3), (3, 2)],
        ],
        ids=["two-cycle", "ascending-cycle-with-a-down-cover", "cycle-off-the-bottom"],
    )
    def test_cycles_raise(self, covers):
        labels = [f"e{i}" for i in range(4)]
        with pytest.raises(NotAPosetError, match="cycle"):
            from_covers(labels, covers, 0, 3)

    def test_rank_skipping_covers_are_kept_and_shortcuts_dropped(self):
        # a < b < c < e and a < d < e: (d, e) joins ranks 1 and 3 yet is a
        # cover; (a, c) joins ranks 0 and 2 through b and is not
        pairs = [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4), (0, 2)]
        p = from_covers(list("abcde"), pairs, 0, 4)
        assert p.covers() == ((0, 1), (0, 3), (1, 2), (2, 4), (3, 4)) == naive_covers(p)

    def test_down_going_self_loop_raises(self):
        with pytest.raises(NotAPosetError, match="self-loop at b"):
            from_covers(["a", "b", "c"], [(2, 1), (1, 1), (1, 0)], 2, 0)

    def test_unbounded_down_going_covers_raise(self):
        with pytest.raises(NotBoundedError):
            from_covers(["a", "b", "c"], [(2, 1), (2, 0)], 2, 0)
