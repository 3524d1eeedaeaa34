"""Acceptance suite: one test per criterion, one printed verdict line each.

The heavy artifacts (enumerated orders, posets, homology reports) are
cached at module scope and shared between criteria.
"""

import json
import random
import time
from math import comb, factorial

from constructions import (
    buildup_sequence,
    complement,
    dual_buildup_sequence,
    holds,
    internal_gaps,
    interval_descent,
    is_green,
    leq_inclusion,
    map_f,
    map_i,
    map_j,
    suspension,
)
from helpers import (
    build_proof_maps,
    carrier_cone_check,
    dissection_instance,
    homology_dict,
    product_with_two_chain,
    proper_part,
    proper_part_complex,
    random_bounded_poset,
    random_complex,
)
from higher_bruhat.bruhat import OrderKind, enumerate_bruhat, to_poset
from higher_bruhat.cli import main
from higher_bruhat.homology import is_sphere_homology, reduced_homology
from higher_bruhat.subsets import GroundParams
from higher_bruhat.suspension_check import check_conditions

SPHERICITY_INSTANCES = [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3), (6, 4)]

_orders = {}
_posets = {}


def order(n, k, method="bfs"):
    key = (n, k, method)
    if key not in _orders:
        _orders[key] = enumerate_bruhat(GroundParams(n, k), method=method)
    return _orders[key]


def poset(n, k, kind):
    key = (n, k, kind)
    if key not in _posets:
        _posets[key] = to_poset(order(n, k), kind)
    return _posets[key]


def verdict(number, description, check):
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS")


def test_criterion_1_base_case():
    def check():
        start = time.perf_counter()
        for k in range(1, 5):
            o = order(k + 1, k)
            assert len(o) == 2
            p = to_poset(o, OrderKind.SINGLE_STEP)
            assert proper_part(p) == 0
            report = reduced_homology(proper_part_complex(p))
            assert is_sphere_homology(report, -1)
        assert time.perf_counter() - start < 1.0

    verdict(1, "base case B(k+1,k)", check)


def test_criterion_2_sphericity():
    def check():
        start = time.perf_counter()
        for n, k in SPHERICITY_INSTANCES:
            for kind in OrderKind:
                complex_ = proper_part_complex(poset(n, k, kind))
                report = reduced_homology(complex_)
                target = n - k - 2
                assert is_sphere_homology(report, target), (n, k, kind)
                assert report.betti_at(target) == 1
                assert all(not report.torsion_at(d) for d in report.degrees())
        assert time.perf_counter() - start < 300.0

    verdict(2, "sphericity of proper parts", check)


def test_criterion_3_condition_checks(tmp_path):
    def check():
        for n, k in SPHERICITY_INSTANCES:
            for kind in OrderKind:
                out = tmp_path / f"lemma_{n}_{k}_{kind.value}.json"
                code = main(
                    ["check-lemma", "--bruhat", str(n), str(k), kind.value,
                     "--out", str(out)]
                )
                assert code == 0, (n, k, kind)
                report = json.loads(out.read_text(encoding="utf-8"))
                assert report["all_pass"] is True
                assert report["route"] == "columns"
                assert report["proof_maps"]["passed"] is True
                assert report["carrier"]["failures"] == []
                # the CLI proves the proof maps and carrier from the
                # conditions; the row oracles build and check them
                inst = dissection_instance(order(n, k), kind)
                assert check_conditions(inst).all_pass
                build_proof_maps(inst)
                assert carrier_cone_check(inst).failures == ()

    verdict(3, "suspension conditions and proof skeleton", check)


def test_criterion_4_enumeration_oracle():
    def check():
        for n in range(2, 9):
            for k in range(0, n):
                if comb(n, k + 1) > 20:
                    continue
                bfs = order(n, k, method="bfs")
                brute = enumerate_bruhat(GroundParams(n, k), method="bruteforce")
                assert [u.bits for u in bfs.elements] == [
                    u.bits for u in brute.elements
                ], (n, k)
        for n in range(2, 7):
            assert len(order(n, 1)) == factorial(n), n

    verdict(4, "bfs/bruteforce oracle and weak-order counts", check)


def test_criterion_5_interval_descent():
    def check():
        for n, k in SPHERICITY_INSTANCES:
            for u in order(n, k).elements:
                if u.bits == 0:
                    continue
                trace = interval_descent(u)
                gaps = [len(internal_gaps(s, n)) for s in trace]
                assert all(a > b for a, b in zip(gaps, gaps[1:])), (n, k, str(u))
                assert gaps[-1] == 0
                assert holds(u, trace[-1])

    verdict(5, "interval existence via gap descent", check)


def test_criterion_6_buildup_witnesses():
    def check():
        for n, k in SPHERICITY_INSTANCES:
            o = order(n, k)
            reach = o.reach()
            for i, u in enumerate(o.elements):
                seq = buildup_sequence(u)
                assert seq[0] == map_i(map_f(u))
                assert seq[-1] == u
                for a, b in zip(seq, seq[1:]):
                    assert (b.bits & ~a.bits).bit_count() == 1
                assert reach[o._index[seq[0].bits]] >> i & 1

                dual = dual_buildup_sequence(u)
                assert dual[0] == u
                assert dual[-1] == map_j(map_f(u))
                for a, b in zip(dual, dual[1:]):
                    assert (b.bits & ~a.bits).bit_count() == 1
                assert reach[i] >> o._index[dual[-1].bits] & 1

    verdict(6, "build-up witnesses for the sandwich condition", check)


def test_criterion_7_suspension_identity():
    def check():
        rng = random.Random(20260808)
        for _ in range(50):
            cx = random_complex(rng, max_vertices=12)
            plain = reduced_homology(cx)
            lifted = reduced_homology(suspension(cx))
            top = max(plain.max_degree + 1, lifted.max_degree)
            for d in range(-1, top + 1):
                assert lifted.betti_at(d) == plain.betti_at(d - 1)
                assert lifted.torsion_at(d) == plain.torsion_at(d - 1)

        q_posets = [poset(2, 1, OrderKind.SINGLE_STEP),
                    poset(3, 1, OrderKind.SINGLE_STEP),
                    poset(4, 2, OrderKind.SINGLE_STEP)]
        q_posets += [random_bounded_poset(rng, max_elements=10) for _ in range(10)]
        for q in q_posets:
            via_product = reduced_homology(
                proper_part_complex(product_with_two_chain(q))
            )
            via_suspension = reduced_homology(
                suspension(proper_part_complex(q))
            )
            assert homology_dict(via_product) == homology_dict(via_suspension)

    verdict(7, "suspension shifts homology by one degree", check)


def test_criterion_8_containment_and_duality():
    def check():
        for n, k in SPHERICITY_INSTANCES:
            o = order(n, k)
            reach = o.reach()
            elements = o.elements
            size = len(elements)
            for i in range(size):
                for j in range(size):
                    if reach[i] >> j & 1:
                        assert leq_inclusion(elements[i], elements[j])
            comp_index = {u.bits: o._index[complement(u).bits] for u in elements}
            for i, u in enumerate(elements):
                cu = complement(u)
                assert complement(cu) == u
                assert is_green(u) != is_green(cu)
                for j, v in enumerate(elements):
                    assert leq_inclusion(u, v) == leq_inclusion(
                        complement(v), complement(u)
                    )
                    forward = bool(reach[i] >> j & 1)
                    backward = bool(
                        reach[comp_index[v.bits]] >> comp_index[u.bits] & 1
                    )
                    assert forward == backward

    verdict(8, "order containment and complement duality", check)


def test_criterion_9_cli_determinism(tmp_path):
    def check():
        battery = [
            ["enumerate", "4", "1", "--method", "both"],
            ["enumerate", "5", "2", "--elements"],
            ["check-lemma", "--bruhat", "4", "1", "single_step"],
            ["check-lemma", "--bruhat", "4", "2", "inclusion"],
            ["verify-sphericity", "--bruhat", "4", "1", "single_step"],
            ["verify-sphericity", "--bruhat", "5", "3", "inclusion"],
            ["compare-orders", "4", "1"],
            ["export", "--bruhat", "3", "1", "single_step", "--format", "json"],
            ["export", "--bruhat", "3", "1", "inclusion", "--format", "dot"],
        ]
        for idx, argv in enumerate(battery):
            first = tmp_path / f"first_{idx}.out"
            second = tmp_path / f"second_{idx}.out"
            code_first = main(argv + ["--out", str(first)])
            code_second = main(argv + ["--out", str(second)])
            assert code_first == code_second == 0, argv
            assert first.read_bytes() == second.read_bytes(), argv

    verdict(9, "byte-deterministic reports", check)
