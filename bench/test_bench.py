"""Tests of the benchmark itself: outcome classes, the time limit, the pass
order, determinism of the traced counts, and the known answers that have no
published source, cross-checked by an independent route.

    python3 -m pytest -q bench/test_bench.py
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from one_pass import run_op  # noqa: E402
from spans import COUNT_METRICS  # noqa: E402
from workloads import DECIDED, FAILED, REFUSED, WORKLOADS  # noqa: E402


def test_op_past_its_time_limit_is_stopped_and_failed():
    started = time.monotonic()
    exit_code, error = run_op(lambda argv: time.sleep(30), [], 0.5)
    assert time.monotonic() - started < 5
    assert exit_code is None and "time limit" in error


def test_op_exit_codes_and_exceptions():
    assert run_op(lambda argv: 2, [], 5) == (2, None)

    def boom(argv):
        raise ValueError("bad")

    exit_code, error = run_op(boom, [], 5)
    assert exit_code is None and error == "uncaught ValueError: bad"


def test_pass_killed_at_the_run_limit_fails_its_operations():
    sphere = WORKLOADS["sphere"]
    slow = next(i for i, op in enumerate(sphere) if op.argv[2:4] == ("5", "1"))
    result = run.run_pass("sphere", [slow], False, "unused.json", time.monotonic() + 3)
    assert result["outcomes"] == {slow: (FAILED, "killed at the run time limit")}


@pytest.fixture
def report_dir(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    os.makedirs(os.path.join(".bench_out", "w"))


def _write_report(index, report):
    with open(workloads.report_path("w", index), "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def test_outcome_classes(report_dir):
    op = workloads.sphere(5, 2, "single_step")
    _write_report(0, {"is_sphere": True, "sphere_dimension": 1})
    assert workloads.classify(op, "w", 0, 0, None) == (DECIDED, "")
    assert workloads.classify(op, "w", 0, 2, None)[0] == REFUSED
    assert workloads.classify(op, "w", 0, 1, None)[0] == FAILED
    assert workloads.classify(op, "w", 0, None, "uncaught KeyError")[0] == FAILED
    assert workloads.classify(op, "w", 1, 0, None)[0] == FAILED  # no report
    _write_report(0, {"is_sphere": True, "sphere_dimension": 2})
    outcome, reason = workloads.classify(op, "w", 0, 0, None)
    assert outcome == FAILED and "sphere_dimension" in reason


def test_pass_order_is_seeded_and_keeps_export_before_import():
    ops = WORKLOADS["lemma"]
    orders = [workloads.pass_order(ops, random.Random(7)) for _ in range(2)]
    assert orders[0] == orders[1]
    rng = random.Random(3)
    for _ in range(20):
        order = workloads.pass_order(ops, rng)
        assert sorted(order) == list(range(len(ops)))
        exp = order.index(next(i for i, op in enumerate(ops) if op.argv == workloads.EXPORT_ARGV))
        assert ops[order[exp + 1]].after == workloads.EXPORT_ARGV


def _traced_counts(workload, order):
    spawned_at = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-I", os.path.join(BENCH, "one_pass.py"), workload,
         ",".join(map(str, order)), "1", os.path.join(".bench_out", "spans", "test.json"),
         repr(spawned_at)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    events = [json.loads(line) for line in out.splitlines()]
    assert all(e["outcome"] == DECIDED for e in events if e["event"] == "verdict")
    layers = next(e for e in events if e["event"] == "done")["layers"]
    return {name: layers[name] for name in COUNT_METRICS}


@pytest.mark.parametrize("workload, order", [("sphere", [0, 1, 2]), ("lemma", [0, 8, 9])])
def test_traced_counts_are_identical_across_runs(workload, order):
    first = _traced_counts(workload, order)
    again = _traced_counts(workload, order[::-1] if workload == "sphere" else order)
    assert first == again
    assert sum(first.values()) > 0


def _consistent_families(n, k):
    """All consistent families of (k+1)-subsets of [n], straight from the
    definition: a family meets every (k+2)-subset's packet, in lexicographic
    order, in a beginning or an ending segment.  Grown one subset at a time
    from the empty family, which reaches every consistent family (Ziegler,
    Topology 1993)."""
    subsets = list(itertools.combinations(range(1, n + 1), k + 1))
    index = {s: i for i, s in enumerate(subsets)}
    packets = []
    for p in itertools.combinations(range(1, n + 1), k + 2):
        packets.append([index[s] for s in sorted(itertools.combinations(p, k + 1))])
    packets_of = [[pk for pk in packets if i in pk] for i in range(len(subsets))]
    size = k + 2

    def segment(family, packet):
        mask = sum(1 << pos for pos, i in enumerate(packet) if family >> i & 1)
        c = bin(mask).count("1")
        return mask == (1 << c) - 1 or mask == ((1 << size) - 1) ^ ((1 << (size - c)) - 1)

    seen = {0}
    frontier = [0]
    while frontier:
        grown = []
        for family in frontier:
            for i in range(len(subsets)):
                bigger = family | 1 << i
                if bigger != family and bigger not in seen and all(
                    segment(bigger, pk) for pk in packets_of[i]
                ):
                    seen.add(bigger)
                    grown.append(bigger)
        frontier = grown
    return sorted(seen), len(subsets)


def test_known_counts_by_an_independent_route():
    assert len(_consistent_families(5, 2)[0]) == workloads.B52
    assert len(_consistent_families(6, 2)[0]) == workloads.B62
    assert len(_consistent_families(8, 4)[0]) == workloads.B84
    families, members = _consistent_families(7, 3)
    assert len(families) == workloads.B73
    # comparable pairs under inclusion, from per-member column bitsets
    columns = [0] * members
    for pos, family in enumerate(families):
        for i in range(members):
            if family >> i & 1:
                columns[i] |= 1 << pos
    everything = (1 << len(families)) - 1
    pairs = 0
    for family in families:
        above = everything
        for i in range(members):
            if family >> i & 1:
                above &= columns[i]
        pairs += bin(above).count("1") - 1
    assert pairs == workloads.B73_PAIRS
