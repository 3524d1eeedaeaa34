import random
from dataclasses import replace

import pytest

import helpers
from constructions import is_green, map_f
from helpers import (
    ConditionViolationError,
    bitwise_green_witness,
    build_proof_maps,
    carrier_cone_check,
    chain_carrier_failures,
    count_chains,
    dissection_instance,
    instance_to_doc,
    iter_chains,
    product_with_two_chain,
    proper_part,
    random_bounded_poset,
    rows_poset,
)
from higher_bruhat.bruhat import OrderKind, enumerate_bruhat
from higher_bruhat.errors import ParameterError
from higher_bruhat.instance_io import parse_instance_doc
from higher_bruhat.posets import FiniteBoundedPoset
from higher_bruhat.subsets import GroundParams
from higher_bruhat.suspension_check import (
    CONDITION_NAMES,
    HOMOTOPY_DISCLAIMER,
    DissectionInstance,
    check_conditions,
)

INSTANCE_CACHE = {}

# Instances whose Q has an element off its bounds with one upper cover;
# both orders of B(5,2) are the same poset.
MUTANT_CASES = [
    (4, 1, OrderKind.SINGLE_STEP),
    (4, 1, OrderKind.INCLUSION),
    (5, 2, OrderKind.SINGLE_STEP),
]


def bruhat_instance(n, k, kind=OrderKind.SINGLE_STEP):
    key = (n, k, kind)
    if key not in INSTANCE_CACHE:
        INSTANCE_CACHE[key] = dissection_instance(enumerate_bruhat(GroundParams(n, k)), kind)
    return INSTANCE_CACHE[key]


def swap_sections(inst):
    return DissectionInstance(
        p=inst.p, q=inst.q, green=inst.green,
        f=inst.f, i=inst.j, j=inst.i,
    )


def i_for_j(inst):
    """Both sections i: only chains inside the bottom fiber lose their cone."""
    return DissectionInstance(
        p=inst.p, q=inst.q, green=inst.green,
        f=inst.f, i=inst.i, j=inst.i,
    )


def one_upper_cover(q):
    """The first c0 of Q off its bottom whose one upper cover c1 is not its top."""
    uppers = {}
    for a, b in q.covers():
        uppers.setdefault(a, []).append(b)
    return next(
        (c, ups[0]) for c, ups in sorted(uppers.items())
        if c != q.bottom and len(ups) == 1 and ups != [q.top]
    )


def diagonal_class_fails(inst):
    """i sends c0 to i(c1), where c1 is the one upper cover of c0 in Q.

    Every d >= c0 other than c0 lies above c1, and then i(c1) <= j(c1) <=
    j(d); but i(c1) <= j(c0) would give c1 <= c0 under f.  So of the
    fibre classes, exactly (c0, c0) loses its cone.
    """
    c0, c1 = one_upper_cover(inst.q)
    images = list(inst.i)
    images[c0] = images[c1]
    return replace(inst, i=tuple(images)), (c0, c0)


def off_diagonal_class_fails(inst):
    """i sends c0 to j(c0), and j sends its upper cover c1 to i(c1).

    A realised class (c, d) keeps its cone iff i(c) <= j(d).  That
    holds on the diagonal, and off it wherever one side is unchanged, by
    the monotonicity of i and j; but j(c0) <= i(c1) would put a member
    containing n into a family without one.  So of the fibre classes,
    exactly (c0, c1) loses its cone.
    """
    c0, c1 = one_upper_cover(inst.q)
    i_images, j_images = list(inst.i), list(inst.j)
    i_images[c0] = inst.j[c0]
    j_images[c1] = inst.i[c1]
    return replace(inst, i=tuple(i_images), j=tuple(j_images)), (c0, c1)


def non_monotone_f(inst):
    """f sends the first proper a0 that has a proper b > a0 with f(b) not
    above some proper c of Q to that c.

    The classes (c, d) with d >= c keep their cones, but the class
    (c, f(b)) is realised outside the up row of c in Q and loses its
    cone, so only the coverage guard can find it.
    """
    p, q = inst.p, inst.q
    pp, qp = proper_part(p), proper_part(q)
    a0, c = next(
        (a, c) for a in range(len(p)) if pp >> a & 1
        for c in range(len(q)) if qp >> c & 1
        if any(b != a and pp >> b & 1 and not q.le(c, inst.f[b])
               for b in range(len(p)) if p.le(a, b))
    )
    images = list(inst.f)
    images[a0] = c
    return replace(inst, f=tuple(images))


def failing_pairs(p, failures):
    """The (min, max) index pairs that the failures name."""
    index = {label: x for x, label in enumerate(p.labels)}
    pairs = set()
    for failure in failures:
        name = failure[len("chain "):failure.index(": ")]
        least, _, greatest = name.partition("<")
        pairs.add((index[least], index[greatest or least]))
    return pairs


def swap_colors(inst):
    all_indices = frozenset(range(len(inst.p.labels)))
    return DissectionInstance(
        p=inst.p, q=inst.q, green=all_indices - inst.green,
        f=inst.f, i=inst.i, j=inst.j,
    )


def reverse_poset(p: FiniteBoundedPoset) -> FiniteBoundedPoset:
    n = len(p.labels)
    rows = [0] * n
    for i in range(n):
        m = p.leq[i]
        while m:
            low = m & -m
            rows[low.bit_length() - 1] |= 1 << i
            m ^= low
    return rows_poset(p.labels, rows, p.top, p.bottom)


def dual_instance(inst):
    """Reverse both orders, swap green/red, swap i and j."""
    p = reverse_poset(inst.p)
    q = reverse_poset(inst.q)
    red = frozenset(range(len(p.labels))) - inst.green
    return DissectionInstance(p=p, q=q, green=red, f=inst.f, i=inst.j, j=inst.i)


class TestCheckConditions:
    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (4, 2)])
    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_bruhat_instances_pass(self, n, k, kind):
        report = check_conditions(bruhat_instance(n, k, kind))
        assert report.all_pass
        assert tuple(c.name for c in report.conditions) == CONDITION_NAMES
        assert all(c.witness is None for c in report.conditions)

    def test_swapped_colors_fail_down_set(self):
        report = check_conditions(swap_colors(bruhat_instance(3, 1)))
        assert not report.all_pass
        failed = {c.name for c in report.failures()}
        assert "green_is_down_set" in failed
        down_set = next(c for c in report.conditions if c.name == "green_is_down_set")
        assert down_set.witness is not None

    def test_down_set_witness_matches_bitwise_scan(self):
        # recolor each element of B(5,2) in turn; a failure names the first
        # green element with the lowest red element below it
        inst = bruhat_instance(5, 2)
        failures = 0
        for x in range(len(inst.p.labels)):
            recolored = DissectionInstance(
                p=inst.p, q=inst.q, green=inst.green ^ {x},
                f=inst.f, i=inst.i, j=inst.j,
            )
            check = check_conditions(recolored).conditions[0]
            assert check.name == "green_is_down_set"
            expected = bitwise_green_witness(inst.p, recolored.green)
            assert check.witness == expected
            assert check.passed == (expected is None)
            failures += not check.passed
        assert failures > 0

    def test_one_element_target_fails_precondition(self):
        p = FiniteBoundedPoset(["a", "b"], [(0, 1)], 0, 1)
        q = FiniteBoundedPoset(("q",), (), 0, 0)
        inst = DissectionInstance(p=p, q=q, green=frozenset({0}), f=(0, 0), i=(0,), j=(1,))
        report = check_conditions(inst)
        assert not report.all_pass
        names = {c.name for c in report.failures()}
        assert "q_nondegenerate" in names

    def test_duality(self):
        for n, k in [(3, 1), (4, 2)]:
            inst = bruhat_instance(n, k)
            assert check_conditions(dual_instance(inst)).all_pass

    def test_map_validation(self):
        # one image per source element, each an index of its target
        p = FiniteBoundedPoset(["a", "b"], [(0, 1)], 0, 1)
        green = frozenset({0})
        assert DissectionInstance(p=p, q=p, green=green, f=(0, 1), i=(0, 1), j=(0, 1))
        with pytest.raises(ParameterError, match="image table of f does not cover its source"):
            DissectionInstance(p=p, q=p, green=green, f=(0,), i=(0, 1), j=(0, 1))
        with pytest.raises(ParameterError, match="image of b under f is out of range"):
            DissectionInstance(p=p, q=p, green=green, f=(0, 5), i=(0, 1), j=(0, 1))
        with pytest.raises(ParameterError, match="image of a under j is out of range"):
            DissectionInstance(p=p, q=p, green=green, f=(0, 1), i=(0, 1), j=(-1, 1))

    def test_structural_validation(self):
        inst = bruhat_instance(3, 1)
        with pytest.raises(ParameterError):
            DissectionInstance(
                p=inst.p, q=inst.q, green=frozenset({999}),
                f=inst.f, i=inst.i, j=inst.j,
            )
        # i and f swapped: each table has the other's length
        with pytest.raises(ParameterError, match="image table of f does not cover its source"):
            DissectionInstance(
                p=inst.p, q=inst.q, green=inst.green,
                f=inst.i, i=inst.f, j=inst.j,
            )


class TestBuildProofMaps:
    def test_three_one_maps(self):
        inst = bruhat_instance(3, 1)
        g, h = build_proof_maps(inst)
        doubled = product_with_two_chain(inst.q)
        assert g.source == h.target == inst.p   # B(3,1), 4 proper elements
        assert h.source == g.target == doubled  # B(2,1) x 2, 2 proper elements
        assert proper_part(doubled) == 0b0110
        # bounds go to bounds and proper elements to proper elements
        for m in (g, h):
            assert m.images[m.source.bottom] == m.target.bottom
            assert m.images[m.source.top] == m.target.top
            source_pp, target_pp = proper_part(m.source), proper_part(m.target)
            for x, image in enumerate(m.images):
                assert (source_pp >> x & 1) == (target_pp >> image & 1)
        assert [g.images[h.images[z]] for z in range(4)] == [0, 1, 2, 3]

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2)])
    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_larger_instances(self, n, k, kind):
        g, h = build_proof_maps(bruhat_instance(n, k, kind))
        for z in range(len(h.source.labels)):
            assert g.images[h.images[z]] == z

    def test_broken_extreme_fibers_hit_well_definedness(self):
        inst = bruhat_instance(3, 1)
        # recolor a red element of the bottom fiber green: g would send it
        # to the bottom of the doubled poset
        order = enumerate_bruhat(GroundParams(3, 1))
        culprit = next(
            idx
            for idx, u in enumerate(order.elements)
            if not is_green(u) and map_f(u).bits == 0
        )
        broken = DissectionInstance(
            p=inst.p, q=inst.q, green=inst.green | {culprit},
            f=inst.f, i=inst.i, j=inst.j,
        )
        report = check_conditions(broken)
        assert {c.name for c in report.failures()} == {"extreme_fibers"}
        with pytest.raises(ConditionViolationError) as err:
            build_proof_maps(broken)
        assert inst.p.labels[culprit] in str(err.value)


class TestCarrierConeCheck:
    def test_all_chains_of_three_one(self):
        inst = bruhat_instance(3, 1)
        report = carrier_cone_check(inst)
        assert count_chains(inst.p, proper_part(inst.p)) == 6
        assert report.pairs_checked == 6
        assert report.all_cones

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2)])
    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_exhaustive_larger(self, n, k, kind):
        inst = bruhat_instance(n, k, kind)
        assert carrier_cone_check(inst).all_cones
        assert chain_carrier_failures(inst) == set()
        chains = len(list(iter_chains(inst.p, proper_part(inst.p))))
        assert count_chains(inst.p, proper_part(inst.p)) == chains

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3)])
    @pytest.mark.parametrize("kind", list(OrderKind))
    @pytest.mark.parametrize(
        "variant", [None, swap_sections, i_for_j], ids=["valid", "swapped", "i_for_j"]
    )
    def test_pairs_agree_with_chain_oracle(self, n, k, kind, variant):
        inst = bruhat_instance(n, k, kind)
        if variant is not None:
            inst = variant(inst)
        report = carrier_cone_check(inst)
        assert len(set(report.failures)) == len(report.failures)
        assert set(report.failures) == chain_carrier_failures(inst)
        assert report.all_cones == (variant is None)
        pp = proper_part(inst.p)
        assert report.pairs_checked == sum(
            (inst.p.leq[a] & pp).bit_count() for a in range(len(inst.p)) if pp >> a & 1
        )

    @pytest.mark.parametrize("n,k,kind", MUTANT_CASES)
    @pytest.mark.parametrize("mutant", [diagonal_class_fails, off_diagonal_class_fails])
    def test_exactly_one_failing_class(self, n, k, kind, mutant):
        inst, (c, d) = mutant(bruhat_instance(n, k, kind))
        report = carrier_cone_check(inst)
        assert set(report.failures) == chain_carrier_failures(inst)
        f = inst.f
        pp = proper_part(inst.p)
        in_class = {
            (a, b) for a in range(len(inst.p)) for b in range(len(inst.p))
            if pp >> a & 1 and pp >> b & 1 and inst.p.le(a, b)
            and (f[a], f[b]) == (c, d)
        }
        assert in_class
        assert failing_pairs(inst.p, report.failures) == in_class

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (4, 2), (5, 2), (5, 1), (6, 3), (6, 2)])
    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_valid_instances_are_decided_by_fibre_classes(self, n, k, kind, monkeypatch):
        def no_walk(inst, proper):
            raise AssertionError("a valid instance walked its pairs")

        monkeypatch.setattr(helpers, "_pair_failures", no_walk)
        report = carrier_cone_check(bruhat_instance(n, k, kind))
        assert report.all_cones

    @pytest.mark.parametrize("n,k,kind", MUTANT_CASES)
    def test_non_monotone_f_falls_back_to_the_pairs(self, n, k, kind):
        inst = non_monotone_f(bruhat_instance(n, k, kind))
        assert not check_conditions(inst).all_pass
        report = carrier_cone_check(inst)
        assert not report.all_cones
        assert set(report.failures) == chain_carrier_failures(inst)
        # every failing pair lies in a class outside Q's order, which the
        # fibre classes tested do not reach
        f = inst.f
        for a, b in failing_pairs(inst.p, report.failures):
            assert not inst.q.le(f[a], f[b])

    def test_swapped_sections_break_cones(self):
        report = carrier_cone_check(swap_sections(bruhat_instance(3, 1)))
        assert not report.all_cones

    def test_disclaimer_says_what_is_not_certified(self):
        assert "not certified" in HOMOTOPY_DISCLAIMER
        assert "proved from" in HOMOTOPY_DISCLAIMER


def random_dissection(rng):
    """A dissection of P = Q x {0,1} over a random bounded Q, with interior elements.

    f is the projection, i and j the sections into layers 0 and 1, and
    green is layer 0.  Over some elements a of Q, P also holds an element
    m_a with the covers (a,0) < m_a < (a,1).  The fibre of a then holds
    m_a, which may take either colour when a is proper; over the bottom of
    Q it is red and over the top green, by the extreme fibres.  Every
    condition holds, so one edit of a colour or an image may keep them.
    """
    q = random_bounded_poset(rng, max_elements=7)
    doubled = product_with_two_chain(q)
    nq = len(q)
    extra = [a for a in range(nq) if rng.random() < 0.5]
    labels = list(doubled.labels) + [f"m{q.labels[a]}" for a in extra]
    covers = list(doubled.cover_pairs)
    green = set(range(nq))
    for m, a in enumerate(extra, start=2 * nq):
        covers += [(a, m), (m, a + nq)]
        if a == q.top or (a != q.bottom and rng.random() < 0.5):
            green.add(m)
    p = FiniteBoundedPoset(labels, covers, doubled.bottom, doubled.top)
    f = [z % nq for z in range(2 * nq)] + extra
    return DissectionInstance(
        p=p, q=q, green=frozenset(green),
        f=tuple(f), i=tuple(range(nq)), j=tuple(range(nq, 2 * nq)),
    )


def random_edit(inst, rng):
    """inst with one colour flipped or one image of f, i or j redirected."""
    edit = rng.choice(["green", "f", "i", "j"])
    if edit == "green":
        return replace(inst, green=inst.green ^ {rng.randrange(len(inst.p))})
    images = list(getattr(inst, edit))
    target = inst.q if edit == "f" else inst.p
    images[rng.randrange(len(images))] = rng.randrange(len(target))
    return replace(inst, **{edit: tuple(images)})


class TestProofsFromTheConditions:
    """The five conditions give the proof maps and the carrier cones.

    check-lemma reports both as proved whenever the conditions pass; the
    row oracles check that on random dissections, one edit away from
    passing.
    """

    def test_random_edits(self):
        rng = random.Random(23)
        passed = failed = edited_passes = 0
        for _ in range(400):
            base = random_dissection(rng)
            assert check_conditions(base).all_pass
            inst = random_edit(base, rng)
            if not check_conditions(inst).all_pass:
                failed += 1
                continue
            passed += 1
            edited_passes += inst != base
            build_proof_maps(inst)
            assert carrier_cone_check(inst).all_cones
            assert chain_carrier_failures(inst) == set()
        assert passed and failed and edited_passes


class TestReadBoundary:
    """An instance file's labels resolve into the dissection they were written from."""

    def test_random_dissections_round_trip(self):
        rng = random.Random(31)
        for _ in range(200):
            inst = random_dissection(rng)
            if rng.random() < 0.5:
                inst = random_edit(inst, rng)
            doc = instance_to_doc(inst)
            loaded = parse_instance_doc(doc)
            back = loaded.resolve_dissection()
            for name in ("p", "q"):
                mine, theirs = getattr(back, name), getattr(inst, name)
                assert mine == theirs
                assert (mine.down, mine.cover_pairs) == (theirs.down, theirs.cover_pairs)
            assert (back.green, back.f, back.i, back.j) == (inst.green, inst.f, inst.i, inst.j)
            assert back == inst
            assert loaded.to_doc() == doc
