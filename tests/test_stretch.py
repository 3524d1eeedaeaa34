"""Behavior at the edge of desk scale.

B(6,2) is enumerable (908 elements) but its proper part has ~10^11
chains: the sphericity route must refuse it before attempting the order
complex, while the carrier pass still covers every chain, because it
decides the fibre classes of the 50,598 comparable pairs that bound them.
The same pass decides B(7,3) and B(7,2), with ~10^21 and ~10^23 chains.
B(5,1) certifies in well under a second, because homology runs on the
14-point beat-point core of its 118-point proper part.  The cross-check
against Smith normal form on the whole order complex takes ~30 s and only
runs when explicitly asked for via HIGHER_BRUHAT_STRETCH=1.
"""

import json
import os

import pytest

from helpers import full_route_report
from higher_bruhat.bruhat import enumerate_bruhat
from higher_bruhat.cli import main
from higher_bruhat.subsets import GroundParams


def test_six_two_enumerates():
    order = enumerate_bruhat(GroundParams(6, 2))
    assert len(order) == 908


def test_six_two_sphericity_refused_before_building(tmp_path):
    # must return quickly with the resource exit code, not hang
    assert main(["verify-sphericity", "--bruhat", "6", "2", "single_step"]) == 2


def test_six_two_carrier_check_is_exhaustive(tmp_path):
    out = tmp_path / "report.json"
    code = main(["check-lemma", "--bruhat", "6", "2", "single_step", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["all_pass"] is True
    carrier = report["carrier"]
    assert carrier["failures"] == []
    assert carrier["pairs_checked"] == 50_598
    assert carrier["chains_checked"] == carrier["total_chains"] == 99_888_984_062


@pytest.mark.parametrize(
    "n,k,kind,pairs,chains",
    [
        (7, 3, "single_step", 1_985_826, 4_718_007_841_307_777_744_894),
        (7, 3, "inclusion", 1_985_826, 4_718_007_841_307_777_744_894),
        (7, 2, "single_step", 10_959_978, 114_438_064_833_722_181_633_536),
    ],
)
def test_seven_rung_carrier_check_is_exhaustive(tmp_path, n, k, kind, pairs, chains):
    # the carrier check decides per fibre class, so B(7,2) takes seconds;
    # the pair and chain totals were recorded from the per-pair walk
    out = tmp_path / "report.json"
    assert main(["check-lemma", "--bruhat", str(n), str(k), kind, "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["all_pass"] is True
    carrier = report["carrier"]
    assert carrier["failures"] == []
    assert carrier["pairs_checked"] == pairs
    assert carrier["chains_checked"] == carrier["total_chains"] == chains


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
    assert report["num_simplices"] == 113_391
    assert report["is_sphere"] is True
    assert report["sphere_dimension"] == 2


@pytest.mark.skipif(
    not os.environ.get("HIGHER_BRUHAT_STRETCH"),
    reason="takes ~30 s; set HIGHER_BRUHAT_STRETCH=1 to run",
)
def test_five_one_matches_full_route(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-sphericity", "--bruhat", "5", "1", "single_step",
                 "--out", str(out)]) == 0
    expected = full_route_report(5, 1, "single_step")
    assert expected["num_simplices"] == 113_391
    assert expected["is_sphere"] is True
    assert json.loads(out.read_text(encoding="utf-8")) == expected
