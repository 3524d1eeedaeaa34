"""Behavior at the edge of desk scale.

B(6,2) is enumerable (908 elements) but its proper part has ~10^11
chains: the sphericity route decides it by the paper's induction, three
level descents from columns, and the Boolean-core oracle recognises its
14-point beat-point core, the proper part of a Boolean lattice on 4
atoms, while the row oracle's carrier pass still covers every chain,
because it decides the fibre classes of the 50,598 comparable pairs
that bound them.  The same pass decides B(7,3) and B(7,2), with ~10^21
and ~10^23 chains, and each of these row runs is the oracle of the
column route that check-lemma takes on the same instance, and of the
proof by which the carrier cones follow from the conditions.
Smith normal form on the whole order complex of B(5,1) takes a few
seconds.  The Boolean-core oracle on B(7,2), B(8,1) and B(8,4) builds
posets of 24,698, 40,320 and 78,032 elements at up to 1.26 GB, B(8,1)
with ~1.7 s of Smith normal form on its core, and the induction on
B(8,2), B(8,3) and B(10,1) runs for seconds each, and on B(11,1), with
11! families, for about half a minute per order; these run only when
explicitly asked for via HIGHER_BRUHAT_STRETCH=1.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from helpers import (
    any_beat_core,
    beat_core,
    build_proof_maps,
    carrier_cone_check,
    chain_f_vector,
    condition_verdicts,
    core_route,
    count_chains,
    dissection_instance,
    full_route_report,
    order_complex,
    proper_part,
    proper_part_complex,
    to_poset,
)
from higher_bruhat import posets
from higher_bruhat.bruhat import (
    OrderKind,
    descent_conditions,
    enumerate_bruhat,
)
from higher_bruhat.cli import main
from higher_bruhat.homology import is_sphere_homology, reduced_homology
from higher_bruhat.subsets import GroundParams
from higher_bruhat.suspension_check import check_conditions


def test_six_two_enumerates():
    order = enumerate_bruhat(GroundParams(6, 2))
    assert len(order) == 908


def test_six_two_sphericity_decided_on_the_core(tmp_path):
    # the induction reads three level descents, and the oracle's
    # recognition the 14-point core, not the ~10^11 chains of the proper
    # part, so both verdicts come fast
    out = tmp_path / "report.json"
    started = time.perf_counter()
    assert main(["verify-sphericity", "--bruhat", "6", "2", "single_step",
                 "--out", str(out)]) == 0
    p, core, verdict = core_route(6, 2, "single_step")
    assert time.perf_counter() - started < 5
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["is_sphere"] is True
    assert report["sphere_dimension"] == 2
    assert [step["elements"] for step in report["steps"]] == [908, 62, 8]
    assert verdict == {"is_sphere": True, "sphere_dimension": 2}
    assert (proper_part(p).bit_count(), core.bit_count()) == (906, 14)


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
    columns = descent_conditions(order.params, OrderKind.SINGLE_STEP)
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
        columns = descent_conditions(order.params, OrderKind(other))
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
    assert [step["elements"] for step in report["steps"]] == [120, 24, 6]
    # the oracle's core, and the census of the whole proper part, which
    # the command no longer takes
    p, core, _ = core_route(5, 1, "single_step")
    assert (proper_part(p).bit_count(), core.bit_count()) == (118, 14)
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
    # Smith normal form on the order complex of the whole proper part
    p = to_poset(enumerate_bruhat(GroundParams(5, 1)), OrderKind.SINGLE_STEP)
    assert is_sphere_homology(reduced_homology(proper_part_complex(p)), 2)


stretch = pytest.mark.skipif(
    not os.environ.get("HIGHER_BRUHAT_STRETCH"),
    reason="builds posets of up to 1.26 GB or runs for seconds; set HIGHER_BRUHAT_STRETCH=1",
)


@stretch
@pytest.mark.parametrize("kind", ["single_step", "inclusion"])
def test_seven_two_is_a_three_sphere(kind, tmp_path):
    # ~1.1 * 10^23 chains in the proper part, 30 points in its core
    out = tmp_path / "report.json"
    started = time.perf_counter()
    assert main(["verify-sphericity", "--bruhat", "7", "2", kind, "--out", str(out)]) == 0
    assert time.perf_counter() - started < 0.5
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["is_sphere"] is True
    assert report["sphere_dimension"] == 3
    _, core, verdict = core_route(7, 2, kind)
    assert core.bit_count() == 30
    assert verdict == {"is_sphere": True, "sphere_dimension": 3}


@stretch
def test_eight_one_beat_core_matches_any_route():
    p = to_poset(enumerate_bruhat(GroundParams(8, 1)), OrderKind.SINGLE_STEP)
    pp = proper_part(p)
    started = time.perf_counter()
    core = beat_core(p, pp)
    assert time.perf_counter() - started < 1
    assert core.bit_count() == 126
    assert core == any_beat_core(p, pp)


@stretch
@pytest.mark.parametrize("kind", ["single_step", "inclusion"])
@pytest.mark.parametrize("n,k", [(7, 0), (8, 1), (8, 4)])
def test_eight_rung_induction_matches_the_boolean_core(n, k, kind, tmp_path):
    # the induction's verdict against the Boolean-core oracle's, whose
    # rows take 1.26 GB on B(8,4).  B(7,0) is the Boolean lattice on 7
    # atoms; the weak order on S_8, B(8,1), has a 5-sphere as its proper
    # part (Bjoerner 1984).  Smith normal form on the 126-point cores of
    # these two takes ~1.7 s
    out = tmp_path / "report.json"
    assert main(["verify-sphericity", "--bruhat", str(n), str(k), kind,
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    p, core, verdict = core_route(n, k, kind)
    assert {key: report[key] for key in verdict} == verdict
    assert verdict == {"is_sphere": True, "sphere_dimension": n - k - 2}
    assert is_sphere_homology(reduced_homology(order_complex(p, core)), n - k - 2)


@stretch
@pytest.mark.parametrize("kind", ["single_step", "inclusion"])
@pytest.mark.parametrize(
    "n,k,extra,elements",
    [
        # OEIS A006245 (primitive sorting networks)
        (8, 2, (), 1_232_944),
        # observed, with no published source; the two orders differ here
        # (Ziegler, Topology 1993)
        (8, 3, ("--max-subsets", "70"), 1_681_104),
        # the weak order on S_10: 10! elements, a 7-sphere
        (10, 1, (), 3_628_800),
    ],
    ids=["8-2", "8-3", "10-1"],
)
def test_induction_decides_what_rows_cannot_hold(n, k, extra, elements, kind, monkeypatch,
                                                 tmp_path):
    # one whole relation on B(8,2) would take ~190 GB of rows
    def refuse(*args, **kwargs):
        raise AssertionError("relation rows were built")

    monkeypatch.setattr(posets.FiniteBoundedPoset, "__post_init__", refuse)
    out = tmp_path / "report.json"
    assert main(["verify-sphericity", "--bruhat", str(n), str(k), kind, *extra,
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert (report["is_sphere"], report["sphere_dimension"]) == (True, n - k - 2)
    assert report["steps"][0] == {"n": n, "elements": elements, "passed": True}
    assert [step["n"] for step in report["steps"]] == list(range(n, k + 1, -1))
    if (n, k) == (10, 1):
        # the stream holds two levels of one order: 272 MB in a fresh
        # process when the induction held whole orders
        fresh, _, peak_mb = fresh_run(["verify-sphericity", "--bruhat", "10", "1", kind],
                                      tmp_path / "fresh.json")
        assert fresh == report
        assert peak_mb < 150


# Runs the script in argv[1] as a child and prints its exit code, wall
# time and peak RSS in KB (RUSAGE_CHILDREN).  The launcher is itself a
# fresh interpreter: a process spawned straight from the test process
# would carry that process's resident size into its own ru_maxrss.
LAUNCHER = (
    "import resource, subprocess, sys, time\n"
    "started = time.perf_counter()\n"
    "code = subprocess.call([sys.executable, '-I', '-c', sys.argv[1]], stdout=subprocess.DEVNULL)\n"
    "wall = time.perf_counter() - started\n"
    "print(code, wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


def fresh_run(argv, out):
    """The CLI's report on argv from a fresh interpreter, its wall time and
    its peak RSS in MB."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from higher_bruhat.cli import main\n"
        f"sys.exit(main({argv + ['--out', str(out)]!r}))\n"
    )
    launched = subprocess.run([sys.executable, "-I", "-c", LAUNCHER, script],
                              capture_output=True, text=True, check=True)
    code, wall, peak_kb = launched.stdout.split()
    assert code == "0"
    return json.loads(out.read_text(encoding="utf-8")), float(wall), int(peak_kb) / 1024


@stretch
@pytest.mark.parametrize("kind", ["single_step", "inclusion"])
def test_eleven_one_is_an_eight_sphere(kind, tmp_path):
    # the weak order on S_11, 11! = 39,916,800 families, has an 8-sphere
    # as its proper part (Bjoerner 1984; Edelman 1984).  Whole orders do
    # not fit; the stream took 26-36 s at 0.5 GB per order when written
    report, wall, peak_mb = fresh_run(["verify-sphericity", "--bruhat", "11", "1", kind],
                                      tmp_path / "report.json")
    assert (report["is_sphere"], report["sphere_dimension"]) == (True, 8)
    assert report["steps"][0] == {"n": 11, "elements": 39_916_800, "passed": True}
    assert [step["elements"] for step in report["steps"]] == [
        39_916_800, 3_628_800, 362_880, 40_320, 5_040, 720, 120, 24, 6
    ]
    assert wall < 180
    assert peak_mb < 1024
