"""Behavior at the edge of desk scale.

B(6,2) is enumerable (908 elements) but its proper part has ~10^11
chains: the sphericity route decides it on the 14-point beat-point core,
the proper part of a Boolean lattice on 4 atoms, while the row oracle's
carrier pass still covers every chain, because it decides the fibre
classes of the 50,598 comparable pairs that bound them.  The same pass decides B(7,3) and
B(7,2), with ~10^21 and ~10^23 chains, and each of these row runs is the
oracle of the column route that check-lemma takes on the same instance,
and of the proof by which it reports the carrier cones.
B(5,1) certifies in well under a second, because the Boolean
recognition runs on the 14-point beat-point core of its 118-point
proper part.  The cross-check against Smith normal form on the whole
order complex takes a few seconds, and B(7,2) and B(8,1) build posets
of 24,698 and 40,320 elements at a few hundred MB, B(8,1) with ~1.7 s
of Smith normal form on its core; these run only when explicitly asked
for via HIGHER_BRUHAT_STRETCH=1.
"""

import json
import os
import time

import pytest

from helpers import (
    any_beat_core,
    build_proof_maps,
    carrier_cone_check,
    chain_f_vector,
    condition_verdicts,
    count_chains,
    dissection_instance,
    full_route_report,
    order_complex,
)
from higher_bruhat import cli
from higher_bruhat.bruhat import (
    OrderKind,
    descent_conditions,
    enumerate_bruhat,
    to_poset,
)
from higher_bruhat.cli import main
from higher_bruhat.homology import is_sphere_homology, reduced_homology
from higher_bruhat.posets import beat_core, boolean_core, proper_part
from higher_bruhat.subsets import GroundParams
from higher_bruhat.suspension_check import check_conditions


def test_six_two_enumerates():
    order = enumerate_bruhat(GroundParams(6, 2))
    assert len(order) == 908


def test_six_two_sphericity_decided_on_the_core(tmp_path, monkeypatch):
    # the recognition reads the 14-point core, not the ~10^11 chains of the
    # proper part, so the verdict comes fast
    sizes = []
    recognise = cli.boolean_core

    def recording(p, live):
        sizes.append(live.bit_count())
        return recognise(p, live)

    monkeypatch.setattr(cli, "boolean_core", recording)
    out = tmp_path / "report.json"
    started = time.perf_counter()
    assert main(["verify-sphericity", "--bruhat", "6", "2", "single_step",
                 "--out", str(out)]) == 0
    assert time.perf_counter() - started < 5
    assert sizes == [14]
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["is_sphere"] is True
    assert report["sphere_dimension"] == 2
    assert (report["proper_part_points"], report["core_points"], report["core_atoms"]) == (
        906, 14, 4
    )


def row_route(n, k, kind):
    """The order, the row conditions, the carrier oracle's report and the chain count.

    check-lemma decides the conditions and proves the proof maps and the
    carrier; these pins build and count them on the rows.
    """
    order = enumerate_bruhat(GroundParams(n, k))
    inst = dissection_instance(order, OrderKind(kind))
    conditions = check_conditions(inst)
    build_proof_maps(inst)
    chains = count_chains(inst.p, proper_part(inst.p))
    return order, conditions, carrier_cone_check(inst), chains


def test_six_two_carrier_check_is_exhaustive():
    order, conditions, carrier, chains = row_route(6, 2, "single_step")
    assert conditions.all_pass is True
    assert carrier.failures == ()
    assert carrier.pairs_checked == 50_598
    assert chains == 99_888_984_062
    columns = descent_conditions(order, OrderKind.SINGLE_STEP)
    assert condition_verdicts(columns) == condition_verdicts(conditions)


@pytest.mark.parametrize(
    "n,k,kind,pairs,chains",
    [
        (7, 3, "single_step", 1_985_826, 4_718_007_841_307_777_744_894),
        (7, 3, "inclusion", 1_985_826, 4_718_007_841_307_777_744_894),
        (7, 2, "single_step", 10_959_978, 114_438_064_833_722_181_633_536),
    ],
)
def test_seven_rung_carrier_check_is_exhaustive(n, k, kind, pairs, chains):
    # the carrier check decides per fibre class, so B(7,2) takes seconds;
    # the pair and chain totals were recorded from the per-pair walk
    order, conditions, carrier, counted = row_route(n, k, kind)
    assert conditions.all_pass is True
    assert carrier.failures == ()
    assert carrier.pairs_checked == pairs
    assert counted == chains
    # the same row run is the column route's oracle on this rung.  B(7,2)
    # has no row run under inclusion (it would add seconds), but
    # compare-orders finds that its two orders coincide (10,984,675
    # comparable pairs each), as do B(6,2)'s, and the map tables do not
    # depend on the order, so this run decides that instance too
    kinds = [kind, "inclusion"] if (n, k) == (7, 2) else [kind]
    for other in kinds:
        columns = descent_conditions(order, OrderKind(other))
        assert condition_verdicts(columns) == condition_verdicts(conditions)


def test_six_two_orders_coincide_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["compare-orders", "6", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    # recorded observation at this size, not a general claim
    assert report["differing_pairs_count"] == 0


def test_five_one_is_a_two_sphere(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-sphericity", "--bruhat", "5", "1", "single_step",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["is_sphere"] is True
    assert report["sphere_dimension"] == 2
    assert (report["proper_part_points"], report["core_points"], report["core_atoms"]) == (
        118, 14, 4
    )
    # the census of the whole proper part, which the command no longer takes
    p = to_poset(enumerate_bruhat(GroundParams(5, 1)), OrderKind.SINGLE_STEP)
    assert 1 + sum(chain_f_vector(p, proper_part(p))) == 113_391


@pytest.mark.skipif(
    not os.environ.get("HIGHER_BRUHAT_STRETCH"),
    reason="takes a few seconds; set HIGHER_BRUHAT_STRETCH=1 to run",
)
def test_five_one_matches_full_route(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-sphericity", "--bruhat", "5", "1", "single_step",
                 "--out", str(out)]) == 0
    expected = full_route_report(5, 1, "single_step")
    assert expected["is_sphere"] is True
    assert json.loads(out.read_text(encoding="utf-8")) == expected


@pytest.mark.skipif(
    not os.environ.get("HIGHER_BRUHAT_STRETCH"),
    reason="builds a 24,698-element poset; set HIGHER_BRUHAT_STRETCH=1 to run",
)
@pytest.mark.parametrize("kind", ["single_step", "inclusion"])
def test_seven_two_is_a_three_sphere(kind, tmp_path):
    # ~1.1 * 10^23 chains in the proper part, 30 points in its core
    out = tmp_path / "report.json"
    started = time.perf_counter()
    assert main(["verify-sphericity", "--bruhat", "7", "2", kind, "--out", str(out)]) == 0
    assert time.perf_counter() - started < 3
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["is_sphere"] is True
    assert report["sphere_dimension"] == 3
    assert (report["core_points"], report["core_atoms"]) == (30, 5)


@pytest.mark.skipif(
    not os.environ.get("HIGHER_BRUHAT_STRETCH"),
    reason="builds a 40,320-element poset at ~400 MB; set HIGHER_BRUHAT_STRETCH=1 to run",
)
def test_eight_one_beat_core_matches_any_route():
    p = to_poset(enumerate_bruhat(GroundParams(8, 1)), OrderKind.SINGLE_STEP)
    pp = proper_part(p)
    started = time.perf_counter()
    core = beat_core(p, pp)
    assert time.perf_counter() - started < 1
    assert core.bit_count() == 126
    assert core == any_beat_core(p, pp)


@pytest.mark.skipif(
    not os.environ.get("HIGHER_BRUHAT_STRETCH"),
    reason="builds a 40,320-element poset at ~400 MB; set HIGHER_BRUHAT_STRETCH=1 to run",
)
def test_eight_one_boolean_verdict_matches_snf_on_the_core(tmp_path):
    # the weak order on S_8: its proper part is a 5-sphere (Bjoerner 1984),
    # and Smith normal form on the core's 47,293 simplices takes ~1.7 s
    out = tmp_path / "report.json"
    assert main(["verify-sphericity", "--bruhat", "8", "1", "single_step",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["is_sphere"] is True and report["failed_check"] is None
    assert (report["core_points"], report["core_atoms"]) == (126, 7)
    p = to_poset(enumerate_bruhat(GroundParams(8, 1)), OrderKind.SINGLE_STEP)
    core = beat_core(p, proper_part(p))
    assert boolean_core(p, core) == (7, None)
    assert is_sphere_homology(reduced_homology(order_complex(p, core)), 5)
