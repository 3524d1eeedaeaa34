"""The benchmark workloads and the known answer of every operation.

An operation is one CLI invocation, run in-process through
`higher_bruhat.cli.main(argv)` with `--out` added so that its verdict can be
read from the JSON report.  Every operation uses the default budgets.

Each known answer is written here by hand with its source; none is taken
from the run being timed.  "Observed" marks a value with no published
source, recorded from the seed code.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

# Outcome classes of one operation.
DECIDED = "decided"  # exit 0 and the verdict matches the known answer
REFUSED = "refused"  # exit 2: a budget refused the input; undecided
FAILED = "failed"  # wrong exit code or verdict, an exception, or over the time limit

EXIT_PASS = 0
EXIT_RESOURCE = 2


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv (without `--out`) and a check of its report."""

    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    # argv of an operation that must run right before this one (it writes
    # this operation's input file), or None.
    after: tuple[str, ...] | None = None


def _expect(report: dict, **expected) -> list[str]:
    return [
        f"{key} is {report.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if report.get(key) != value
    ]


def sphere(n: int, k: int, order: str) -> Op:
    """The paper: the proper part of B(n,k) has the homology of an (n-k-2)-sphere."""
    return Op(
        ("verify-sphericity", "--bruhat", str(n), str(k), order),
        lambda r: _expect(r, is_sphere=True, sphere_dimension=n - k - 2),
    )


def lemma(n: int, k: int, order: str) -> Op:
    """The paper's suspension lemma: its hypotheses hold on B(n,k) -> B(n-1,k)."""
    return Op(
        ("check-lemma", "--bruhat", str(n), str(k), order),
        lambda r: _expect(r, all_pass=True),
    )


def enumerate_count(n: int, k: int, count: int, *extra: str) -> Op:
    expected = {"count": count}
    if "both" in extra:
        expected["oracle_match"] = True
    return Op(("enumerate", str(n), str(k), *extra), lambda r: _expect(r, **expected))


# OEIS A006245 (primitive sorting networks): |B(5,2)| = 62, |B(6,2)| = 908,
# |B(7,2)| = 24,698.
B52, B62, B72 = 62, 908, 24_698
# Observed on the seed code, with no published source: |B(8,4)| = 78,032;
# B(7,3) has 7,686 elements and 1,993,511 comparable pairs under each order.
# test_bench.py re-derives all three straight from the definition.
B84, B73, B73_PAIRS = 78_032, 7_686, 1_993_511

# Inside the lemma report directory, which every pass empties first.
EXPORT_FILE = os.path.join(".bench_out", "lemma", "b62_single_step.json")
EXPORT_ARGV = ("export", "--bruhat", "6", "2", "single_step", "--format", "json")


def _exported_b62(doc: dict) -> list[str]:
    """The exported instance is B(6,2) over B(5,2) (sizes from OEIS A006245)."""
    sizes = (len(doc.get("P", {}).get("labels", ())), len(doc.get("Q", {}).get("labels", ())))
    return [] if sizes == (B62, B52) else [f"P and Q have {sizes} elements, expected {(B62, B52)}"]


WORKLOADS: dict[str, list[Op]] = {
    # Full certificate route; homology (SNF) does most of the work.
    "sphere": [
        sphere(4, 1, "single_step"),
        sphere(4, 1, "inclusion"),
        sphere(5, 2, "single_step"),
        sphere(5, 2, "inclusion"),
        sphere(5, 1, "single_step"),
    ],
    # Suspension-lemma route: conditions, proof maps and the carrier check,
    # plus an export -> import pair through instance_io.
    "lemma": [
        *(lemma(n, k, order) for n, k in ((5, 2), (5, 1), (6, 3), (6, 2))
          for order in ("single_step", "inclusion")),
        Op(EXPORT_ARGV, _exported_b62),
        Op(("check-lemma", "--instance", EXPORT_FILE), lambda r: _expect(r, all_pass=True),
           after=EXPORT_ARGV),
    ],
    # Size: enumeration, the brute-force oracle, the all-pairs order
    # comparison and a large poset build that ends in a budget refusal.
    "scale": [
        enumerate_count(8, 4, B84),
        enumerate_count(7, 2, B72),
        enumerate_count(6, 2, B62, "--method", "both"),
        # Ziegler (Topology 1993): the single-step and inclusion orders agree
        # when n-k <= 3, so no pair of B(7,3) is comparable under one only.
        Op(("compare-orders", "7", "3"), lambda r: _expect(
            r, count=B73, comparable_pairs_single_step=B73_PAIRS,
            comparable_pairs_inclusion=B73_PAIRS, differing_pairs_count=0)),
        # The seed refuses this one (exit 2); a verdict must still be a 1-sphere.
        sphere(10, 7, "single_step"),
    ],
}


def pass_order(ops: list[Op], rng: random.Random) -> list[int]:
    """A seeded permutation of operation indices; an op stays right after its `after`."""
    units = [[i] for i, op in enumerate(ops) if op.after is None]
    for i, op in enumerate(ops):
        if op.after is not None:
            head = next(u for u in units if ops[u[0]].argv == op.after)
            head.append(i)
    rng.shuffle(units)
    return [i for unit in units for i in unit]


def report_path(workload: str, index: int) -> str:
    return os.path.join(".bench_out", workload, f"op{index}.json")


def out_path(op: Op, workload: str, index: int) -> str:
    """Where the op's `--out` goes: its JSON report, or for `export` the instance file."""
    return EXPORT_FILE if op.argv == EXPORT_ARGV else report_path(workload, index)


def cli_argv(op: Op, workload: str, index: int) -> list[str]:
    return [*op.argv, "--out", out_path(op, workload, index)]


def classify(op: Op, workload: str, index: int, exit_code: int | None,
             error: str | None) -> tuple[str, str]:
    """Outcome class of one finished operation, with a reason when it failed."""
    if error is not None:
        return FAILED, error
    if exit_code == EXIT_RESOURCE:
        return REFUSED, "budget refusal (exit 2)"
    if exit_code != EXIT_PASS:
        return FAILED, f"exit code {exit_code}, expected {EXIT_PASS}"
    try:
        with open(out_path(op, workload, index), encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return FAILED, f"no readable report: {exc}"
    problems = op.check(report)
    return (FAILED, "; ".join(problems)) if problems else (DECIDED, "")
