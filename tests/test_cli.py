import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from math import factorial

import pytest

import helpers
from helpers import (
    addable_bits,
    addable_thinned,
    boolean_core,
    bounded_thinning,
    broken_mask_message,
    build_proof_maps,
    carrier_cone_check,
    chain_f_vector,
    closure_reach_rows,
    core_route,
    dissection_instance,
    full_route_report,
    green,
    instance_to_doc,
    naive_label,
    order_complex,
    proper_part,
    whole_relation_compare,
)
from higher_bruhat import bruhat, cli, instance_io, posets, subsets
from higher_bruhat.bruhat import (
    COLUMN_ROUTE_NOTE,
    OrderKind,
    enumerate_bruhat,
    to_poset,
)
from higher_bruhat.cli import main
from higher_bruhat.homology import is_sphere_homology, reduced_homology
from higher_bruhat.instance_io import SCHEMA_VERSION, load_instance, poset_to_doc
from higher_bruhat.posets import from_covers
from higher_bruhat.subsets import ConsistentSet, GroundParams, colex_rank
from higher_bruhat.suspension_check import HOMOTOPY_DISCLAIMER


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestEnumerateCommand:
    def test_base_case(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["enumerate", "2", "1", "--out", str(out)]) == 0
        report = read_json(out)
        assert report["count"] == 2
        assert report["by_cardinality"] == [[0, 1], [1, 1]]

    def test_weak_order_count(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["enumerate", "4", "1", "--method", "both", "--out", str(out)]) == 0
        report = read_json(out)
        assert report["count"] == 24
        assert report["oracle_match"] is True

    def test_one_packet_count(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["enumerate", "4", "2", "--elements", "--out", str(out)]) == 0
        report = read_json(out)
        assert report["count"] == 8
        assert len(report["elements"]) == 8
        assert report["elements"][0] == "{}"

    def test_both_runs_one_bruteforce_enumeration(self, monkeypatch, capsys):
        calls = []

        def recording(params, method="bfs", max_subsets=None):
            calls.append(method)
            return enumerate_bruhat(params, method=method, max_subsets=max_subsets)

        monkeypatch.setattr(cli, "enumerate_bruhat", recording)
        assert main(["enumerate", "5", "2", "--method", "both"]) == 0
        assert calls == ["bruteforce"]
        assert capsys.readouterr().out.endswith("oracle match (bfs vs bruteforce): True\n")

    @pytest.mark.parametrize(
        "argv,limit",
        [
            (["8", "3"], "bfs limit of 64"),
            (["7", "2"], "bruteforce limit of 24"),
            (["6", "2", "--max-subsets", "10"], "bfs limit of 10"),
        ],
    )
    def test_both_refusal_names_the_first_limit_exceeded(self, argv, limit, capsys):
        assert main(["enumerate", *argv, "--method", "both"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"exceeds the {limit}\n")
        assert captured.err.count("\n") == 1

    def test_oracle_disagreement_is_exit_1(self, monkeypatch, capsys):
        scan = bruhat._bruteforce_bits
        monkeypatch.setattr(bruhat, "_bruteforce_bits", lambda params: scan(params)[:-1])
        assert main(["enumerate", "4", "1", "--method", "both"]) == 1
        assert "disagree" in capsys.readouterr().err

    def test_inconsistent_growth_is_exit_1(self, monkeypatch, capsys):
        addable = bruhat._addable
        rank = colex_rank((1, 2, 4))

        def admits_124(cols, absent, packets):
            add = addable(cols, absent, packets)
            add[rank] = absent[rank]
            return add

        monkeypatch.setattr(bruhat, "_addable", admits_124)
        assert main(["enumerate", "6", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: enumeration emitted {{1,2,4}}")

    def test_faulty_growth_rule_stops_at_its_first_bad_level(self, monkeypatch, capsys):
        # the neighbour rule with its end cases swapped never blocks an end
        # member, so it admits inconsistent families from the second level
        # on; each level is certified before the next grows, so B(8,4)
        # fails fast instead of growing past every consistent family
        packets = [c.members for c in subsets._packet_checks(8, 4)]

        def swapped_ends(cols, absent, terms):
            add = list(absent)
            for m in packets:
                add[m[0]] &= cols[m[-2]] | absent[m[0]]
                add[m[-1]] &= cols[m[1]] | absent[m[-1]]
                for prev, mid, nxt in zip(m, m[1:], m[2:]):
                    add[mid] &= cols[prev] | cols[nxt]
            return add

        monkeypatch.setattr(bruhat, "_addable", swapped_ends)
        start = time.perf_counter()
        assert main(["enumerate", "8", "4"]) == 1
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: enumeration emitted ")

    def test_seven_one_bruteforce_rung(self, tmp_path):
        # the largest brute-force rung under the default limit: 2^21 bitsets
        out = tmp_path / "report.json"
        assert main(["enumerate", "7", "1", "--method", "both", "--out", str(out)]) == 0
        report = read_json(out)
        assert report["count"] == factorial(7)
        assert report["oracle_match"] is True

    def test_eight_four_scale_rung(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerate collected the whole order")

        monkeypatch.setattr(cli, "enumerate_bruhat", refuse)
        out = tmp_path / "report.json"
        assert main(["enumerate", "8", "4", "--out", str(out)]) == 0
        report = read_json(out)
        assert report["count"] == 78_032
        # complementing a family reverses the order, so the level sizes
        # read the same from either end
        assert [card for card, _ in report["by_cardinality"]] == list(range(57))
        sizes = [count for _, count in report["by_cardinality"]]
        assert sizes == sizes[::-1]
        # enumerate reads the level sizes off the stream, never the covers;
        # observed, with no published source
        assert len(enumerate_bruhat(GroundParams(8, 4)).covers) == 289_408

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(1, 8) for k in range(n)] + [(8, 4), (10, 7), (9, 7), (8, 6)]
    )
    def test_streamed_histogram_matches_the_collected_order(self, n, k, tmp_path):
        out = tmp_path / "report.json"
        assert main(["enumerate", str(n), str(k), "--out", str(out)]) == 0
        sizes = enumerate_bruhat(GroundParams(n, k)).level_sizes()
        report = read_json(out)
        assert report["by_cardinality"] == [[card, size] for card, size in enumerate(sizes)]
        assert report["count"] == sum(sizes)

    @pytest.mark.parametrize("n,k", [(7, 2), (8, 1)])
    def test_streamed_count_holds_under_half_the_order(self, n, k, capsys):
        # enumerate drops each level once it is counted, where the collected
        # order holds them all: 0.56 against 1.37 MB on B(7,2) and 0.85
        # against 2.25 MB on B(8,1) under tracemalloc when written
        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        subsets._packet_checks(n, k)
        collected = peak(lambda: enumerate_bruhat(GroundParams(n, k)))
        streamed = peak(lambda: main(["enumerate", str(n), str(k)]))
        assert streamed < collected / 2
        assert capsys.readouterr().out.startswith(f"B({n},{k}): ")

    def test_limit_exceeded_is_exit_2(self):
        assert main(["enumerate", "10", "1", "--method", "bruteforce"]) == 2

    def test_bad_parameters_exit_3(self):
        assert main(["enumerate", "3", "7"]) == 3

    def test_jobs_flag_is_gone(self):
        assert main(["enumerate", "4", "1", "--method", "bruteforce",
                     "--jobs", "2"]) == 3

    def test_usage_error_exit_3(self):
        assert main(["enumerate", "three", "1"]) == 3
        assert main(["no-such-command"]) == 3
        assert main(["export", "--bruhat", "3", "1", "single_step",
                     "--format", "pdf"]) == 3


class TestCheckLemmaCommand:
    @pytest.mark.parametrize("order", ["single_step", "inclusion"])
    def test_bruhat_pass(self, order, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check-lemma", "--bruhat", "4", "1", order, "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["all_pass"] is True
        assert report["route"] == "columns"
        assert report["notes"] == [HOMOTOPY_DISCLAIMER, COLUMN_ROUTE_NOTE]
        proved = {"proved_from": "the five conditions"}
        assert report["proof_maps"] == {"error": None, "passed": True, **proved}
        assert report["carrier"] == {"failures": [], "notes": [HOMOTOPY_DISCLAIMER], **proved}
        # the row oracles build what check-lemma proves
        inst = dissection_instance(enumerate_bruhat(GroundParams(4, 1)), OrderKind(order))
        build_proof_maps(inst)
        assert carrier_cone_check(inst).failures == ()

    def test_sampling_flags_are_gone(self):
        for flag in ("--max-chains", "--seed"):
            assert main(["check-lemma", "--bruhat", "3", "1", "single_step",
                         flag, "7"]) == 3

    def test_swapped_sections_fail(self, tmp_path):
        source = tmp_path / "instance.json"
        assert main(["export", "--bruhat", "3", "1", "single_step",
                     "--format", "json", "--out", str(source)]) == 0
        doc = read_json(source)
        doc["maps"]["i"], doc["maps"]["j"] = doc["maps"]["j"], doc["maps"]["i"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["check-lemma", "--instance", str(broken), "--out", str(out)]) == 1
        report = read_json(out)
        failing = [c["name"] for c in report["conditions"] if not c["passed"]]
        assert "images_two_colored" in failing
        assert report["proof_maps"] == {"skipped": True}

    def test_malformed_file_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["check-lemma", "--instance", str(bad)]) == 3
        missing = tmp_path / "missing.json"
        assert main(["check-lemma", "--instance", str(missing)]) == 3
        wrong_schema = tmp_path / "schema.json"
        wrong_schema.write_text('{"schema": 99}', encoding="utf-8")
        assert main(["check-lemma", "--instance", str(wrong_schema)]) == 3

    @pytest.mark.parametrize("field", ["covers", "cover_entry", "bottom", "map_image"])
    def test_malformed_instance_fields_exit_3(self, field, tmp_path, capsys):
        source = tmp_path / "instance.json"
        assert main(["export", "--bruhat", "3", "1", "single_step",
                     "--format", "json", "--out", str(source)]) == 0
        doc = read_json(source)
        if field == "covers":
            doc["P"]["covers"] = 5
        elif field == "cover_entry":
            a, b = doc["P"]["covers"][0]
            doc["P"]["covers"][0] = [[a], b]
        elif field == "bottom":
            doc["P"]["bottom"] = [doc["P"]["bottom"]]
        else:
            label, image = next(iter(doc["maps"]["f"].items()))
            doc["maps"]["f"][label] = [image]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["check-lemma", "--instance", str(bad)],
                     ["export", "--instance", str(bad), "--format", "json"]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err

    def test_non_utf8_file_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"schema": 1, "P": "\u00e9"}'.encode("latin-1"))
        assert main(["check-lemma", "--instance", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: instance file is not UTF-8") and err.count("\n") == 1

    @pytest.mark.parametrize("n,k", [(True, 0), (3, False)])
    def test_boolean_bruhat_parameters_exit_3(self, n, k, tmp_path, capsys):
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps({"schema": 1, "bruhat": {"n": n, "k": k}}), encoding="utf-8")
        assert main(["check-lemma", "--instance", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err == "error: bruhat n and k must be integers\n"

    @pytest.mark.parametrize(
        "block,key",
        [({"n": 4, "k": 1, "ordr": "inclusion"}, "ordr"),
         ({"n": 4, "kind": "x", "k": 1, "ordr": "y"}, "kind")],
    )
    def test_unknown_bruhat_key_exit_3(self, block, key, tmp_path, capsys):
        # a misspelt order key must not fall back to single_step
        bad = tmp_path / "misspelt.json"
        bad.write_text(json.dumps({"schema": 1, "bruhat": block}), encoding="utf-8")
        for argv in (["check-lemma", "--instance", str(bad)],
                     ["export", "--instance", str(bad), "--format", "json"]):
            assert main(argv) == 3
            assert capsys.readouterr().err == (
                f"error: bruhat block has unknown key {key!r}; use n, k and order\n"
            )

    @pytest.mark.parametrize("fault", ["unknown_image", "missing_label", "unknown_green"])
    def test_export_checks_map_tables(self, fault, tmp_path, capsys):
        # export refuses the map tables and green labels that check-lemma
        # refuses, with the same message, instead of writing a file
        # check-lemma cannot read
        source = tmp_path / "instance.json"
        assert main(["export", "--bruhat", "4", "1", "single_step",
                     "--format", "json", "--out", str(source)]) == 0
        doc = read_json(source)
        label = next(iter(doc["maps"]["f"]))
        if fault == "unknown_image":
            doc["maps"]["f"][label] = "nowhere"
            message = f"error: map f sends {label!r} to unknown 'nowhere'\n"
        elif fault == "missing_label":
            del doc["maps"]["f"][label]
            message = f"error: map f is not total: missing {label!r}\n"
        else:
            doc["green"].append("nowhere")
            message = "error: green label 'nowhere' is not an element\n"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        reexport = tmp_path / "reexport.json"
        for argv in (["check-lemma", "--instance", str(bad)],
                     ["export", "--instance", str(bad), "--format", "json", "--out", str(reexport)],
                     ["export", "--instance", str(bad), "--format", "dot"]):
            assert main(argv) == 3
            assert capsys.readouterr() == ("", message)
        assert not reexport.exists()

    @pytest.mark.parametrize(
        "cut",
        ["maps", "maps_and_q", "q", "q_and_green", "no_maps_and_green", "no_maps_and_q_and_green"],
    )
    def test_export_refuses_maps_that_check_lemma_refuses(self, cut, tmp_path, capsys):
        # any maps object is written only as check-lemma would read it: a
        # table cut down to one bad image, or maps without Q.  Green labels
        # resolve when the file is read, after the completeness checks
        # that maps call for: without maps, check-lemma names an unknown
        # green label before the missing maps or Q, as export does
        source = tmp_path / "instance.json"
        assert main(["export", "--bruhat", "3", "1", "single_step",
                     "--format", "json", "--out", str(source)]) == 0
        doc = read_json(source)
        faults = cut.split("_and_")
        message = "error: instance needs label maps f, i and j\n"
        if "maps" in faults:
            doc["maps"] = {"f": {next(iter(doc["maps"]["f"])): "nowhere"}}
        if "no_maps" in faults:
            del doc["maps"]
        if "q" in faults:
            del doc["Q"]
            message = "error: instance needs both P and Q poset blocks\n"
        if "green" in faults:
            doc["green"].append("nowhere")
            if "no_maps" in faults:
                message = "error: green label 'nowhere' is not an element\n"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        reexport = tmp_path / "reexport.json"
        for argv in (["check-lemma", "--instance", str(bad)],
                     ["export", "--instance", str(bad), "--format", "json", "--out", str(reexport)],
                     ["export", "--instance", str(bad), "--format", "dot"]):
            assert main(argv) == 3
            assert capsys.readouterr() == ("", message)
        assert not reexport.exists()

    @pytest.mark.parametrize("schema", [True, 1.0, "1"])
    def test_schema_must_be_the_integer_one(self, schema, tmp_path, capsys):
        bad = tmp_path / "schema.json"
        bad.write_text(
            json.dumps({"schema": schema, "bruhat": {"n": 3, "k": 1}}), encoding="utf-8"
        )
        for argv in (["check-lemma", "--instance", str(bad)],
                     ["export", "--instance", str(bad), "--format", "json"]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err == f"error: unsupported schema {schema!r}, expected 1\n"

    @pytest.mark.parametrize("block", ["P", "Q", "green", "maps"])
    def test_bruhat_block_stands_alone(self, block, tmp_path, capsys):
        source = tmp_path / "instance.json"
        assert main(["export", "--bruhat", "3", "1", "single_step",
                     "--format", "json", "--out", str(source)]) == 0
        doc = {"schema": 1, "bruhat": {"n": 4, "k": 1, "order": "single_step"},
               block: read_json(source)[block]}
        bad = tmp_path / "mixed.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["check-lemma", "--instance", str(bad)],
                     ["export", "--instance", str(bad), "--format", "json"]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err == f"error: a bruhat block stands alone, but the document also has {block}\n"

    def test_instance_without_maps_exit_3(self, tmp_path):
        source = tmp_path / "poset_only.json"
        assert main(["export", "--bruhat", "2", "1", "single_step",
                     "--format", "json", "--out", str(source)]) == 0
        assert main(["check-lemma", "--instance", str(source)]) == 3

    def test_unknown_green_label_exit_3(self, tmp_path):
        source = tmp_path / "instance.json"
        assert main(["export", "--bruhat", "3", "1", "single_step",
                     "--format", "json", "--out", str(source)]) == 0
        doc = read_json(source)
        doc["green"].append("{{9,9}}")
        bad = tmp_path / "bad_green.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check-lemma", "--instance", str(bad)]) == 3
        assert main(["export", "--instance", str(bad), "--format", "dot"]) == 3

    def test_explicit_instance_pass(self, tmp_path):
        source = tmp_path / "instance.json"
        assert main(["export", "--bruhat", "3", "1", "single_step",
                     "--format", "json", "--out", str(source)]) == 0
        out = tmp_path / "report.json"
        assert main(["check-lemma", "--instance", str(source), "--out", str(out)]) == 0
        report = read_json(out)
        assert report["all_pass"] is True
        assert report["route"] == "rows"
        assert report["notes"] == [HOMOTOPY_DISCLAIMER]
        # the row route proves the proof maps and carrier as the column route
        # does, and counts no chain
        proved = {"proved_from": "the five conditions"}
        assert report["proof_maps"] == {"error": None, "passed": True, **proved}
        assert report["carrier"] == {"failures": [], "notes": [HOMOTOPY_DISCLAIMER], **proved}


def first_failure(report):
    return next(
        (c["name"], c["witness"])
        for c in report["preconditions"] + report["conditions"]
        if not c["passed"]
    )


def droppable_targets(order):
    """The families of the order holding exactly one member with n."""
    _, _, added = bruhat._level_maps(order.params)
    return [x for x, b in enumerate(order.bits) if (b & added).bit_count() == 1]


def clear_droppable_bit(monkeypatch, order, x):
    """Clear family x's droppable bit for its member with n in the growth's
    stream of the order, once the growth has used it; returns the family's
    label.

    The growth counts and filters with its droppable columns, so the
    mutant is a copy of the level that the stream emits, and only
    descent_conditions reads it.  Every family holding one member with n
    can drop it; with that bit cleared, x is the family that fails the
    sandwich's lower half.
    """
    _, _, added = bruhat._level_maps(order.params)
    family = order.bits[x]
    level = family.bit_count()
    at = x - order.addable[level][0]
    member = (family & added).bit_length() - 1
    real_grow = bruhat._grow

    def cleared(params):
        for grown in real_grow(params):
            if params == order.params and grown.card == level:
                assert grown.drop[member] >> at & 1
                drop = list(grown.drop)
                drop[member] &= ~(1 << at)
                grown = grown._replace(drop=drop)
            yield grown

    monkeypatch.setattr(bruhat, "_grow", cleared)
    return bruhat._label(order.params, family)


def j_mask_mutants(params):
    """(mutant of _level_maps, the error line that it makes the column
    route print) for each member that j's mask of B(n,k) can lose."""
    real = bruhat._level_maps
    _, _, added = real(params)
    for member in posets._bits(added):
        def mutant(params, member=member):
            small, kept, added = real(params)
            return small, kept, added & ~(1 << member)

        message = broken_mask_message(params, "j", added & ~(1 << member), added)
        yield mutant, f"error: {message}\n"


class TestColumnRouteMutants:
    """Broken column inputs fail on the column route; a broken mask is
    refused before any growth."""

    def run(self, argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2)])
    def test_cleared_droppable_bit_fails_the_sandwich(self, n, k, monkeypatch, tmp_path):
        order = enumerate_bruhat(GroundParams(n, k))
        targets = droppable_targets(order)
        for x in targets:
            label = clear_droppable_bit(monkeypatch, order, x)
            out = tmp_path / "report.json"
            assert main(["check-lemma", "--bruhat", str(n), str(k), "single_step",
                         "--out", str(out)]) == 1
            report = read_json(out)
            assert first_failure(report) == ("sandwich", f"i(f({label})) is not below {label}")
            assert [c["name"] for c in report["conditions"] if not c["passed"]] == ["sandwich"]
            assert report["proof_maps"] == report["carrier"] == {"skipped": True}
            monkeypatch.undo()
        assert len(targets) > 3

    @pytest.mark.parametrize("n,k", [(3, 0), (5, 0), (4, 1)])
    @pytest.mark.parametrize("kind", ["single_step", "inclusion"])
    def test_j_missing_an_added_member_is_refused(self, n, k, kind, monkeypatch,
                                                 tmp_path, capsys):
        # the column route refuses the mask and writes no report; the row
        # route looks the images up: with k > 0 some j(a) is no longer a
        # family, and on B(n,0) j adds nothing and fails images_two_colored
        columns, source, rows = (tmp_path / name for name in ("c.json", "i.json", "r.json"))
        for mutant, refused in j_mask_mutants(GroundParams(n, k)):
            monkeypatch.setattr(bruhat, "_level_maps", mutant)
            bruhat_argv = [str(n), str(k), kind]
            column_run = self.run(
                ["check-lemma", "--bruhat", *bruhat_argv, "--out", str(columns)], capsys
            )
            assert column_run == (1, refused)
            assert not columns.exists()
            export_run = self.run(
                ["export", "--bruhat", *bruhat_argv, "--format", "json", "--out", str(source)],
                capsys,
            )
            if k > 0:
                assert export_run[0] == 1 and "which was not enumerated" in export_run[1]
                continue
            assert export_run == (0, "")
            row_run = self.run(["check-lemma", "--instance", str(source), "--out", str(rows)],
                               capsys)
            assert row_run == (1, "")
            assert first_failure(read_json(rows))[0] == "images_two_colored"

    def test_verify_sphericity_refuses_a_broken_mask(self, monkeypatch, tmp_path, capsys):
        mutant, refused = next(j_mask_mutants(GroundParams(5, 2)))
        monkeypatch.setattr(bruhat, "_level_maps", mutant)
        out = tmp_path / "report.json"
        argv = ["--bruhat", "5", "2", "single_step", "--out", str(out)]
        assert self.run(["verify-sphericity", *argv], capsys) == (1, refused)
        assert self.run(["check-lemma", *argv], capsys) == (1, refused)
        assert not out.exists()


class TestInstanceRoutes:
    """--bruhat N K ORDER is the inline form of a file's bruhat block."""

    def test_check_lemma_reports_differ_only_in_instance(self, tmp_path):
        source = tmp_path / "b52.json"
        source.write_text(
            json.dumps({"schema": 1, "bruhat": {"n": 5, "k": 2, "order": "inclusion"}}),
            encoding="utf-8",
        )
        direct = tmp_path / "direct.json"
        via_file = tmp_path / "via_file.json"
        assert main(["check-lemma", "--bruhat", "5", "2", "inclusion",
                     "--out", str(direct)]) == 0
        assert main(["check-lemma", "--instance", str(source), "--out", str(via_file)]) == 0
        first, second = read_json(direct), read_json(via_file)
        assert first.pop("instance") == {"bruhat": {"n": 5, "k": 2, "order": "inclusion"}}
        assert second.pop("instance") == {"file": str(source)}
        assert first == second

    def test_bad_order_kind_reads_the_same_on_every_route(self, tmp_path, capsys):
        source = tmp_path / "sideways.json"
        source.write_text(
            json.dumps({"schema": 1, "bruhat": {"n": 3, "k": 1, "order": "sideways"}}),
            encoding="utf-8",
        )
        routes = [
            ["check-lemma", "--bruhat", "3", "1", "sideways"],
            ["verify-sphericity", "--bruhat", "3", "1", "sideways"],
            ["export", "--bruhat", "3", "1", "sideways", "--format", "json"],
            ["check-lemma", "--instance", str(source)],
            ["export", "--instance", str(source), "--format", "dot"],
        ]
        for argv in routes:
            assert main(argv) == 3
            assert capsys.readouterr().err == (
                "error: unknown order kind 'sideways'; use single_step or inclusion\n"
            )


def sphere_argv(n, k, kind, *extra):
    return ["verify-sphericity", "--bruhat", str(n), str(k), kind, *extra]


class TestVerifySphericityCommand:
    def test_zero_sphere(self, tmp_path):
        # B(k+2,k): one step down to the base
        out = tmp_path / "report.json"
        assert main(sphere_argv(3, 1, "single_step", "--out", str(out))) == 0
        report = read_json(out)
        assert report["sphere_dimension"] == 0
        assert report["is_sphere"] is True
        assert report["route"] == "induction"
        assert report["steps"] == [{"n": 3, "elements": 6, "passed": True}]

    def test_minus_one_sphere(self, tmp_path):
        # B(k+1,k) is the base: no step, and an empty proper part
        out = tmp_path / "report.json"
        assert main(sphere_argv(2, 1, "inclusion", "--out", str(out))) == 0
        report = read_json(out)
        assert report["sphere_dimension"] == -1
        assert report["is_sphere"] is True
        assert report["steps"] == []
        assert report["failed_check"] is None

    def test_bad_order_kind_exit_3(self):
        assert main(sphere_argv(3, 1, "sideways")) == 3

    @pytest.mark.parametrize("kind", ["single_step", "inclusion"])
    @pytest.mark.parametrize(
        "n,k", [(2, 1), (3, 1), (4, 1), (4, 2), (5, 2), (5, 3), (6, 4)]
    )
    def test_out_matches_full_route(self, tmp_path, n, k, kind):
        out = tmp_path / "report.json"
        assert main(sphere_argv(n, k, kind, "--out", str(out))) == 0
        expected = json.dumps(
            full_route_report(n, k, kind), sort_keys=True, indent=2, ensure_ascii=False
        ) + "\n"
        assert out.read_bytes() == expected.encode("utf-8")

    def test_verdict_never_transposes(self, monkeypatch):
        def transpose(*args):
            raise AssertionError("transpose called")

        monkeypatch.setattr(posets, "transpose", transpose)
        assert main(sphere_argv(10, 7, "single_step")) == 0

    @pytest.mark.parametrize("kind", ["single_step", "inclusion"])
    @pytest.mark.parametrize(
        "n,k",
        [(n, k) for n in range(1, 8) for k in range(n) if (n, k) != (7, 0)] + [(10, 7), (11, 8)],
    )
    def test_boolean_verdict_matches_snf_on_the_core(self, n, k, kind, tmp_path):
        # the induction's verdict against the Boolean-core oracle's, and a
        # Boolean core on n-k atoms is an (n-k-2)-sphere up to homotopy, so
        # Smith normal form on the core's complex must find that sphere's
        # homology.  The whole proper parts have up to ~10^26 chains; the
        # cores have at most 62 points.  B(7,0), whose core has 126, runs
        # with the size rungs in test_stretch.py
        out = tmp_path / "report.json"
        assert main(sphere_argv(n, k, kind, "--out", str(out))) == 0
        report = read_json(out)
        p, core, verdict = core_route(n, k, kind)
        assert {key: report[key] for key in verdict} == verdict
        assert verdict == {"is_sphere": True, "sphere_dimension": n - k - 2}
        assert is_sphere_homology(reduced_homology(order_complex(p, core)), n - k - 2)

    @pytest.mark.parametrize("kind", ["single_step", "inclusion"])
    @pytest.mark.parametrize(
        "n,k",
        [(n, k) for n in range(2, 6) for k in range(1, n)] + [(6, 3)],
    )
    def test_core_euler_characteristic_matches_the_census(self, n, k, kind):
        # the reduced Euler characteristic of the core's homology, from the
        # Smith normal form oracle, against the alternating sum of the whole
        # proper part's f-vector, the empty simplex included in degree -1
        p, core, _ = core_route(n, k, kind)
        homology = reduced_homology(order_complex(p, core))
        f_vector = chain_f_vector(p, proper_part(p))
        census = -1 + sum((-1) ** d * f for d, f in enumerate(f_vector))
        assert sum((-1) ** d * homology.betti_at(d) for d in homology.degrees()) == census

    def test_stdout_lists_the_steps_then_the_verdict(self, capsys):
        assert main(sphere_argv(5, 2, "single_step")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:5] == [
            "B(5,2) under single_step:",
            "  B(5,2) -> B(4,2), 62 families: pass",
            "  B(4,2) -> B(3,2), 8 families: pass",
            "  base B(3,2): empty proper part, the (-1)-sphere",
            "  homotopy equivalent to a 1-sphere",
        ]
        assert lines[5] == f"  note: {cli.SPHERICITY_NOTE}"

    def test_stdout_writes_the_minus_one_sphere_in_parentheses(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(sphere_argv(3, 2, "single_step", "--out", str(out))) == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            "B(3,2) under single_step:",
            "  base B(3,2): empty proper part, the (-1)-sphere",
            "  homotopy equivalent to a (-1)-sphere",
        ]
        assert read_json(out)["sphere_dimension"] == -1

    def test_oracle_recognises_the_core_only(self):
        # the Boolean recognition reads B(4,1)'s 6-point core, not its
        # 22-point proper part
        p, core, verdict = core_route(4, 1, "single_step")
        assert (proper_part(p).bit_count(), core.bit_count()) == (22, 6)
        assert verdict == {"is_sphere": True, "sphere_dimension": 1}

    def test_oracle_fails_a_non_boolean_core(self, monkeypatch):
        # with no beat point deleted, the proper part of B(4,1) keeps its 3
        # atoms but has 22 points, and the cross-check finds no sphere
        monkeypatch.setattr(helpers, "beat_core", lambda p, live: live)
        p, _, verdict = core_route(4, 1, "single_step")
        assert boolean_core(p, proper_part(p)) == (3, ("size", "22 points on 3 atoms, not 6"))
        assert verdict["is_sphere"] is False

    def test_oracle_on_too_few_atoms_finds_another_dimension(self, monkeypatch, tmp_path):
        # two atoms of B(4,1)'s core are the proper part of 2^[2], a
        # 0-sphere, which the cross-check tells from the induction's 1-sphere
        real = helpers.beat_core

        def two_atoms(p, live):
            core = real(p, live)
            atoms = [i for i in posets._bits(core) if p.down[i] & core == 1 << i]
            return 1 << atoms[0] | 1 << atoms[1]

        monkeypatch.setattr(helpers, "beat_core", two_atoms)
        _, core, verdict = core_route(4, 1, "single_step")
        assert core.bit_count() == 2
        assert verdict == {"is_sphere": True, "sphere_dimension": 0}
        out = tmp_path / "report.json"
        assert main(sphere_argv(4, 1, "single_step", "--out", str(out))) == 0
        report = read_json(out)
        assert {key: report[key] for key in verdict} == {"is_sphere": True, "sphere_dimension": 1}

    @pytest.mark.parametrize("n,k,m", [(6, 2, 5), (6, 1, 4), (6, 1, 5)])
    def test_failing_step_is_named_and_ends_the_chain(self, n, k, m, monkeypatch,
                                                      tmp_path, capsys):
        # the cleared-droppable-bit mutant on B(m,k) alone: the chain fails
        # at step m, as check-lemma on B(m,k) fails, and runs no step below
        order = enumerate_bruhat(GroundParams(m, k))
        sizes = {j: len(enumerate_bruhat(GroundParams(j, k))) for j in range(m, n + 1)}
        targets = droppable_targets(order)
        for x in (targets[0], targets[-1]):
            label = clear_droppable_bit(monkeypatch, order, x)
            lemma_out, sphere_out = tmp_path / "lemma.json", tmp_path / "sphere.json"
            assert main(["check-lemma", "--bruhat", str(m), str(k), "single_step",
                         "--out", str(lemma_out)]) == 1
            assert main(sphere_argv(n, k, "single_step", "--out", str(sphere_out))) == 1
            witness = f"i(f({label})) is not below {label}"
            assert first_failure(read_json(lemma_out)) == ("sandwich", witness)
            report = read_json(sphere_out)
            assert report["is_sphere"] is False
            assert report["sphere_dimension"] == n - k - 2
            assert report["failed_check"] == {"step": m, "name": "sandwich", "witness": witness}
            assert report["steps"] == [
                {"n": j, "elements": sizes[j], "passed": j != m} for j in range(n, m - 1, -1)
            ]
            stdout = capsys.readouterr().out
            assert f"B({m},{k}) -> B({m - 1},{k}), {sizes[m]} families: sandwich FAIL" in stdout
            assert f"NOT certified as a {n - k - 2}-sphere" in stdout
            monkeypatch.undo()

    def test_base_with_more_than_two_families_exits_1(self, monkeypatch, capsys):
        real = bruhat._grow

        def padded(params):
            if (params.n, params.k) != (3, 2):
                return real(params)
            # the empty family twice: the top is still above every family
            return [bruhat.Level(0, [0, 0], [0], [0b11], [0]),
                    bruhat.Level(1, [1], [1], [0], [1])]

        monkeypatch.setattr(bruhat, "_grow", padded)
        assert main(sphere_argv(4, 2, "inclusion")) == 1
        assert capsys.readouterr().err == "error: the base B(3,2) has 3 families, not 2\n"

    @pytest.mark.parametrize(
        "n,k,elements", [(8, 4, 78_032), (8, 1, 40_320)], ids=["8-4", "8-1"]
    )
    @pytest.mark.parametrize("kind", ["single_step", "inclusion"])
    def test_size_rungs_build_no_rows(self, n, k, elements, kind, monkeypatch, tmp_path):
        # the row route took 1.26 GB on B(8,4); the induction holds two
        # orders of families, and peaked at ~4.5 MiB under tracemalloc.
        # |B(8,4)| was observed and checked against the definition
        # (test_bruhat.py); |B(8,1)| = 8!, and the proper part of the weak
        # order on S_8 is a 5-sphere (Bjoerner 1984)
        def refuse(*args, **kwargs):
            raise AssertionError("relation rows were built")

        monkeypatch.setattr(bruhat, "to_poset", refuse)
        monkeypatch.setattr(posets, "from_covers", refuse)
        monkeypatch.setattr(posets, "from_relation", refuse)
        out = tmp_path / "report.json"
        tracemalloc.start()
        try:
            assert main(sphere_argv(n, k, kind, "--out", str(out))) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        report = read_json(out)
        assert (report["is_sphere"], report["sphere_dimension"]) == (True, n - k - 2)
        assert report["steps"][0] == {"n": n, "elements": elements, "passed": True}
        assert len(report["steps"]) == n - k - 1

    def test_verdict_imports_no_complex_or_homology(self):
        script = (
            "import sys\n"
            "from higher_bruhat.cli import main\n"
            "assert main(['verify-sphericity', '--bruhat', '5', '2', 'single_step']) == 0\n"
            "loaded = {'higher_bruhat.homology', 'higher_bruhat.complexes'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_max_simplices_is_gone(self, capsys):
        assert main(sphere_argv(3, 1, "inclusion", "--max-simplices", "10")) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: unrecognized arguments: --max-simplices 10\n")


class TestOutOfMemory:
    """Running out of memory is a resource failure, exit 2, not a failed condition."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "4", "1"],
            ["check-lemma", "--bruhat", "4", "1", "single_step"],
            ["verify-sphericity", "--bruhat", "4", "1", "inclusion"],
            ["compare-orders", "4", "1"],
            ["export", "--bruhat", "4", "1", "single_step", "--format", "json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_exit_2_and_no_report(self, argv, monkeypatch, tmp_path, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        for module in (cli, bruhat, instance_io):
            monkeypatch.setattr(module, "enumerate_bruhat", exhausted)
        monkeypatch.setattr(bruhat, "_grow", exhausted)
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: out of memory in {argv[0]}\n")
        assert not out.exists()


class TestCompareOrdersCommand:
    def test_three_one_coincide(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["compare-orders", "3", "1", "--out", str(out)]) == 0
        report = read_json(out)
        assert report["differing_pairs_count"] == 0
        assert report["differing_pairs"] == []
        assert (
            report["comparable_pairs_inclusion"]
            == report["comparable_pairs_single_step"]
        )

    def test_four_two_coincide(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["compare-orders", "4", "2", "--out", str(out)]) == 0
        assert read_json(out)["differing_pairs_count"] == 0

    def test_seven_three_coincide(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["compare-orders", "7", "3", "--out", str(out)]) == 0
        report = read_json(out)
        assert report["count"] == 7_686
        assert report["comparable_pairs_single_step"] == 1_993_511
        assert report["comparable_pairs_inclusion"] == 1_993_511
        assert report["differing_pairs_count"] == 0

    def test_lists_pairs_comparable_under_inclusion_only(self, tmp_path, monkeypatch):
        # no instance small enough for a test has differing pairs, so clear
        # the first addable bit of B(4,1): the cover it stands for is the
        # only single-step path between its ends, and inclusion keeps it
        full = enumerate_bruhat(GroundParams(4, 1))
        thinned = addable_thinned(full, *addable_bits(full)[0])
        monkeypatch.setattr(cli, "enumerate_bruhat", lambda *args, **kwargs: thinned)
        out = tmp_path / "report.json"
        assert main(["compare-orders", "4", "1", "--out", str(out)]) == 0
        report = read_json(out)
        reach = closure_reach_rows(thinned)
        inclusion_pairs = 0
        differing = []
        for i, u in enumerate(thinned.elements):
            for j, v in enumerate(thinned.elements):
                if i != j and u.bits & ~v.bits == 0:
                    inclusion_pairs += 1
                    if not reach[i] >> j & 1:
                        differing.append([str(u), str(v)])
        assert differing
        assert report["comparable_pairs_inclusion"] == inclusion_pairs
        assert report["comparable_pairs_single_step"] == (
            sum(row.bit_count() for row in reach) - len(reach)
        )
        assert report["differing_pairs_count"] == len(differing)
        assert report["differing_pairs"] == differing

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(1, 7) for k in range(n)] + [(7, 3)]
    )
    def test_matches_the_whole_relation_route(self, n, k, tmp_path):
        out = tmp_path / "report.json"
        assert main(["compare-orders", str(n), str(k), "--out", str(out)]) == 0
        report = read_json(out)
        expected = whole_relation_compare(enumerate_bruhat(GroundParams(n, k)))
        assert {key: report[key] for key in expected} == expected

    @pytest.mark.parametrize(
        "n,k,sample", [(4, 1, None), (4, 2, None), (5, 2, 25), (5, 3, None)]
    )
    def test_thinned_orders_match_the_whole_relation_route(
        self, n, k, sample, tmp_path, monkeypatch
    ):
        full = enumerate_bruhat(GroundParams(n, k))
        mutants = addable_bits(full)
        if sample is not None:
            mutants = random.Random(10 * n + k).sample(mutants, sample)
        out = tmp_path / "report.json"
        for mutant in mutants:
            thinned = addable_thinned(full, *mutant)
            monkeypatch.setattr(cli, "enumerate_bruhat", lambda *args, **kwargs: thinned)
            assert main(["compare-orders", str(n), str(k), "--out", str(out)]) == 0
            report, expected = read_json(out), whole_relation_compare(thinned)
            assert expected["differing_pairs"]
            assert {key: report[key] for key in expected} == expected

    def test_holds_two_levels_of_rows_and_no_relation(self, monkeypatch, capsys):
        # one whole relation on B(7,3) takes 7,686^2 / 8 bytes, about 7.4 MB;
        # the kernel reads the addable columns, never the covers
        order = enumerate_bruhat(GroundParams(7, 3))
        monkeypatch.setattr(cli, "enumerate_bruhat", lambda *args, **kwargs: order)
        tracemalloc.start()
        try:
            assert main(["compare-orders", "7", "3"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert "covers" not in vars(order) and order._reach is None
        assert "the two orders coincide" in capsys.readouterr().out


class TestExportCommand:
    def test_json_roundtrip(self, tmp_path):
        out = tmp_path / "instance.json"
        assert main(["export", "--bruhat", "3", "1", "single_step",
                     "--format", "json", "--out", str(out)]) == 0
        loaded = load_instance(str(out))
        rebuilt = loaded.p
        direct = to_poset(enumerate_bruhat(GroundParams(3, 1)), OrderKind.SINGLE_STEP)
        assert rebuilt == direct
        assert loaded.q is not None and len(loaded.q.labels) == 2

    def test_base_case_json(self, tmp_path):
        out = tmp_path / "b21.json"
        assert main(["export", "--bruhat", "2", "1", "single_step",
                     "--format", "json", "--out", str(out)]) == 0
        doc = read_json(out)
        assert len(doc["P"]["labels"]) == 2
        assert len(doc["P"]["covers"]) == 1

    def test_dot_output(self, tmp_path):
        out = tmp_path / "graph.dot"
        assert main(["export", "--bruhat", "3", "1", "single_step",
                     "--format", "dot", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        node_lines = [l for l in text.splitlines() if "fillcolor" in l]
        edge_lines = [l for l in text.splitlines() if "->" in l]
        assert len(node_lines) == 6
        assert len(edge_lines) == 6
        assert text.count("palegreen") == 3 and text.count("lightpink") == 3

    def test_export_imported_poset(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["export", "--bruhat", "4", "2", "single_step",
                     "--format", "json", "--out", str(first)]) == 0
        assert main(["export", "--instance", str(first),
                     "--format", "json", "--out", str(second)]) == 0
        assert read_json(first)["P"] == read_json(second)["P"]

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    @pytest.mark.parametrize("kind", ["single_step", "inclusion"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bruhat_block_exports_as_bruhat_flag(self, n, kind, fmt, tmp_path):
        source = tmp_path / "source.json"
        source.write_text(
            json.dumps({"schema": 1, "bruhat": {"n": n, "k": 1, "order": kind}}),
            encoding="utf-8",
        )
        direct = tmp_path / "direct.out"
        via_file = tmp_path / "via_file.out"
        assert main(["export", "--bruhat", str(n), "1", kind,
                     "--format", fmt, "--out", str(direct)]) == 0
        assert main(["export", "--instance", str(source),
                     "--format", fmt, "--out", str(via_file)]) == 0
        assert via_file.read_bytes() == direct.read_bytes()

    def test_dot_coloring_from_file_green_list(self, tmp_path):
        source = tmp_path / "instance.json"
        assert main(["export", "--bruhat", "3", "1", "inclusion",
                     "--format", "json", "--out", str(source)]) == 0
        out = tmp_path / "graph.dot"
        assert main(["export", "--instance", str(source),
                     "--format", "dot", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.count("palegreen") == 3 and text.count("lightpink") == 3


class TestLabelsOnlyWhenRead:
    """A route that prints no label renders none; a poset built from an
    order renders each label once."""

    @pytest.fixture
    def no_label(self, monkeypatch):
        def render(*args):
            raise AssertionError("a label was rendered")

        for module in (subsets, bruhat, cli):
            monkeypatch.setattr(module, "_label", render)

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["verify-sphericity", "--bruhat", "5", "2", "single_step"], 0),
            (["verify-sphericity", "--bruhat", "5", "2", "inclusion"], 0),
            (["verify-sphericity", "--bruhat", "10", "7", "single_step"], 0),
            (["check-lemma", "--bruhat", "5", "2", "single_step"], 0),
            (["check-lemma", "--bruhat", "5", "2", "inclusion"], 0),
        ],
        ids=lambda a: " ".join(a) if isinstance(a, list) else str(a),
    )
    def test_route_renders_no_label(self, argv, code, no_label, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == code

    def test_export_renders_labels(self, no_label):
        with pytest.raises(AssertionError, match="a label was rendered"):
            main(["export", "--bruhat", "3", "1", "single_step", "--format", "json"])

    def test_labels_render_once(self, monkeypatch):
        params = GroundParams(4, 1)
        order = enumerate_bruhat(params)
        rendered = []

        def render(params, bits):
            rendered.append(bits)
            return naive_label(ConsistentSet(params, bits))

        monkeypatch.setattr(bruhat, "_label", render)
        first = to_poset(order, OrderKind.SINGLE_STEP).labels
        assert rendered == list(order.bits)
        eager = from_covers(first, order.covers, 0, len(order) - 1)
        assert eager.labels == first
        fresh = to_poset(order, OrderKind.SINGLE_STEP)
        assert fresh == eager and eager == fresh
        assert fresh.labels == first


def row_route_export(order, kind):
    """The JSON export of an order, written from dissection_instance's posets and maps.

    In the base case n = k+1 there is no level below, and the document holds
    P and green alone.
    """
    params = order.params
    if params.n >= params.k + 2:
        doc = instance_to_doc(dissection_instance(order, kind))
    else:
        p = to_poset(order, kind)
        doc = {"schema": SCHEMA_VERSION, "P": poset_to_doc(p),
               "green": [p.labels[i] for i in sorted(green(order))]}
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


EXPORT_CASES = [(n, k) for n in range(1, 7) for k in range(n)] + [(7, 3)]


# The blocks of a check-lemma report that do not depend on its route.
ROUTE_FREE_BLOCKS = ("preconditions", "conditions", "proof_maps", "carrier", "all_pass")


class TestExportWriter:
    """export --bruhat writes from the order what the row route writes from posets."""

    @pytest.mark.parametrize("n,k", EXPORT_CASES)
    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_matches_the_row_route(self, n, k, kind, tmp_path):
        out = tmp_path / "instance.json"
        assert main(["export", "--bruhat", str(n), str(k), kind.value,
                     "--format", "json", "--out", str(out)]) == 0
        expected = row_route_export(enumerate_bruhat(GroundParams(n, k)), kind)
        assert out.read_bytes() == expected.encode("utf-8")
        # check-lemma decides the export on rows as the instance on columns;
        # the base case n = k+1 has no level below and exits 3 on both
        columns, rows = tmp_path / "columns.json", tmp_path / "rows.json"
        code = main(["check-lemma", "--bruhat", str(n), str(k), kind.value,
                     "--out", str(columns)])
        assert main(["check-lemma", "--instance", str(out), "--out", str(rows)]) == code
        if n == k + 1:
            assert code == 3
            return
        assert code == 0
        by_columns, by_rows = read_json(columns), read_json(rows)
        assert (by_columns["route"], by_rows["route"]) == ("columns", "rows")
        for block in ROUTE_FREE_BLOCKS:
            assert by_columns[block] == by_rows[block]

    def test_matches_the_row_route_where_the_orders_differ(self, monkeypatch, tmp_path):
        # the thinned B(4,1) loses a single-step pair that inclusion keeps,
        # so its inclusion covers come from to_poset's validated relation
        full = enumerate_bruhat(GroundParams(4, 1))
        thinned = addable_thinned(full, *bounded_thinning(full))
        assert bruhat.compare_orders(thinned)[2]
        monkeypatch.setattr(instance_io, "enumerate_bruhat", lambda params, **kwargs: thinned)
        out = tmp_path / "instance.json"
        assert main(["export", "--bruhat", "4", "1", "inclusion",
                     "--format", "json", "--out", str(out)]) == 0
        expected = row_route_export(thinned, OrderKind.INCLUSION)
        assert out.read_bytes() == expected.encode("utf-8")
        covers = read_json(out)["P"]["covers"]
        assert len(covers) == len(full.covers) == len(thinned.covers) + 1

    @pytest.mark.parametrize("kind", ["single_step", "inclusion"])
    def test_builds_no_poset_and_holds_no_text(self, kind, monkeypatch, tmp_path):
        # B(7,2) and B(6,2) are 24,698 and 908 families: built as posets,
        # P and Q peaked at ~146 MiB under tracemalloc; the writer peaks at
        # ~22 MiB, and streams the 38 MB of JSON text to the file
        def refuse(*args, **kwargs):
            raise AssertionError("a poset was built")

        monkeypatch.setattr(posets, "from_covers", refuse)
        monkeypatch.setattr(posets, "from_relation", refuse)
        out = tmp_path / "instance.json"
        tracemalloc.start()
        try:
            assert main(["export", "--bruhat", "7", "2", kind,
                         "--format", "json", "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the file alone would not fit under the bound
        bound = 32 * 2**20
        assert peak < bound < out.stat().st_size

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    @pytest.mark.parametrize("kind", ["single_step", "inclusion"])
    def test_image_outside_the_target_exits_1_and_writes_nothing(
        self, fmt, kind, monkeypatch, tmp_path, capsys
    ):
        # B(3,1) with {{1,2},{1,3}} swapped for the inconsistent {{1,2},{2,3}}:
        # the restriction of some element of B(4,1) is no longer found
        real = enumerate_bruhat(GroundParams(3, 1))
        swapped = tuple(5 if b == 3 else b for b in real.bits)
        fake = bruhat.BruhatOrder(real.params, swapped, real.addable)
        fake.covers = real.covers
        monkeypatch.setattr(bruhat, "enumerate_bruhat", lambda params: fake)
        out = tmp_path / "instance.out"
        assert main(["export", "--bruhat", "4", "1", kind, "--format", fmt,
                     "--out", str(out)]) == 1
        message = "a structure map sends a family to {{1,2},{1,3}}, which was not enumerated"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


class TestNoFamilyObjects:
    """The commands work on the enumeration's certified bitsets alone."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "8", "4"],
            ["compare-orders", "7", "3"],
            ["check-lemma", "--bruhat", "6", "2", "inclusion"],
            ["verify-sphericity", "--bruhat", "5", "1", "single_step"],
        ],
    )
    def test_no_consistent_set_is_built(self, argv, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(ConsistentSet, "__post_init__", lambda self: built.append(self))
        assert main(argv) == 0
        assert built == []


class TestNegativeBudgets:
    """A negative budget is a usage error, refused while the flags are parsed."""

    def assert_usage_error(self, capsys, flag, value):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert captured.err.count("error:") == 1
        assert captured.err.endswith(
            f": error: argument {flag}: must be a non-negative integer, got {value}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "4", "1"],
            ["check-lemma", "--bruhat", "3", "1", "single_step"],
            ["verify-sphericity", "--bruhat", "3", "1", "inclusion"],
            ["compare-orders", "4", "1"],
            ["export", "--bruhat", "3", "1", "single_step", "--format", "json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_max_subsets(self, argv, capsys):
        assert main(argv + ["--max-subsets", "-1"]) == 3
        self.assert_usage_error(capsys, "--max-subsets", -1)


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "4", "1"],
            ["export", "--bruhat", "4", "1", "single_step", "--format", "dot"],
        ],
        ids=["enumerate", "export"],
    )
    def test_exit_3(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "report.out"
        assert main(argv + ["--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert not out.exists()


class TestDeterminism:
    COMMANDS = [
        ["enumerate", "4", "1", "--method", "both"],
        ["enumerate", "4", "2", "--elements"],
        ["check-lemma", "--bruhat", "4", "1", "single_step"],
        ["check-lemma", "--bruhat", "4", "2", "inclusion"],
        ["verify-sphericity", "--bruhat", "4", "1", "single_step"],
        ["compare-orders", "4", "1"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a))
    def test_byte_identical_reports(self, argv, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(argv + ["--out", str(first)]) == main(argv + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_export_deterministic(self, fmt, tmp_path):
        first = tmp_path / "first.out"
        second = tmp_path / "second.out"
        base = ["export", "--bruhat", "3", "1", "single_step", "--format", fmt]
        assert main(base + ["--out", str(first)]) == 0
        assert main(base + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "higher_bruhat", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    def test_stdout_text_rendering(self, capsys):
        assert main(["enumerate", "3", "1"]) == 0
        text = capsys.readouterr().out
        assert "B(3,1): 6 consistent families" in text


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

# One process runs every subcommand, the three non-pass exits and an
# enumerate whose flags must not carry over to the plain one after it.
ONE_PROCESS_SEQUENCE = [
    ["enumerate", "4", "1", "--out", "report.json"],
    ["check-lemma", "--bruhat", "4", "1", "single_step", "--out", "report.json"],
    ["verify-sphericity", "--bruhat", "3", "2", "inclusion", "--out", "report.json"],
    ["compare-orders", "4", "1", "--out", "report.json"],
    ["export", "--bruhat", "3", "1", "single_step", "--format", "dot"],
    ["export", "--bruhat", "3", "1", "inclusion", "--format", "json", "--out", "report.json"],
    ["enumerate", "4", "1", "--bogus"],
    ["--version"],
    ["enumerate", "6", "2", "--max-subsets", "1", "--out", "report.json"],
    ["enumerate", "4", "1", "--elements", "--method", "both", "--out", "report.json"],
    ["enumerate", "4", "1", "--out", "report.json"],
]


def fresh_process_env():
    # a fixed width, so that usage text wraps alike in and out of process
    return dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")


def read_report(directory):
    report = directory / "report.json"
    if not report.exists():
        return None
    data = report.read_bytes()
    report.unlink()
    return data


class TestOneProcess:
    def test_matches_fresh_processes_call_by_call(self, tmp_path, monkeypatch, capsys):
        fresh_dir, shared_dir = tmp_path / "fresh", tmp_path / "shared"
        fresh_dir.mkdir()
        shared_dir.mkdir()
        fresh = []
        for argv in ONE_PROCESS_SEQUENCE:
            proc = subprocess.run(
                [sys.executable, "-m", "higher_bruhat", *argv], cwd=fresh_dir,
                env=fresh_process_env(), capture_output=True, text=True, timeout=60,
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr, read_report(fresh_dir)))

        for name, value in fresh_process_env().items():
            monkeypatch.setenv(name, value)
        monkeypatch.chdir(shared_dir)
        shared = []
        for argv in ONE_PROCESS_SEQUENCE:
            code = main(argv)
            captured = capsys.readouterr()
            shared.append((code, captured.out, captured.err, read_report(shared_dir)))

        for argv, got, expected in zip(ONE_PROCESS_SEQUENCE, shared, fresh):
            assert got == expected, argv
        assert [code for code, *_ in shared] == [0, 0, 0, 0, 0, 0, 3, 0, 2, 0, 0]
        with_flags, plain = (json.loads(data) for *_, data in shared[-2:])
        assert (with_flags["method"], with_flags["oracle_match"]) == ("both", True)
        assert len(with_flags["elements"]) == 24
        assert plain["method"] == "bfs"
        assert "elements" not in plain and "oracle_match" not in plain

    def test_importing_the_cli_builds_no_parser(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(type(self).__name__)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import higher_bruhat.cli\n"
            "print(len(built))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=fresh_process_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_many_calls_build_the_parser_once(self, monkeypatch, capsys):
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        cli._shared_parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["enumerate", "3", "1"]) == 0
                assert main(sphere_argv(4, 1, "single_step")) == 0
                assert main(["check-lemma", "--bruhat", "4", "1", "inclusion"]) == 0
                assert main(["enumerate", "3"]) == 3
                assert main(["--version"]) == 0
        finally:
            cli._shared_parser.cache_clear()
        # the top-level parser and one parser per subcommand
        assert built.count("higher-bruhat") == 1
        assert len(built) == 6

    def test_a_handler_replaced_after_the_first_call_runs(self, monkeypatch, capsys):
        assert main(["enumerate", "3", "1"]) == 0
        seen = []

        def replaced(ns):
            seen.append((ns.n, ns.k))
            return 0

        monkeypatch.setattr(cli, "cmd_enumerate", replaced)
        assert main(["enumerate", "4", "2"]) == 0
        assert seen == [(4, 2)]
        assert capsys.readouterr().out.count("consistent families") == 1
