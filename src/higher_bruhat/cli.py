"""Command-line surface: enumeration, condition checking, sphericity, export.

Exit codes are a stable contract: 0 pass, 1 mathematical-condition
failure, 2 resource limit exceeded or out of memory, 3 usage or input
error.  JSON reports are byte-deterministic for a fixed input and
library version.

main(argv) is re-entrant: it builds its parser on the first call, shares
it read-only with every later call, and resolves each subcommand's handler
when it is called.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import Iterable, Iterator

from . import __version__
from .bruhat import (
    COLUMN_ROUTE_NOTE,
    _check_width,
    _scanned,
    compare_orders,
    descent_chain,
    descent_conditions,
    enumerate_bruhat,
    level_sizes,
)
from .errors import InvariantError, ParameterError, ResourceLimitError
from .instance_io import LoadedInstance, load_instance, parse_bruhat_block
from .subsets import GroundParams, _label
from .suspension_check import HOMOTOPY_DISCLAIMER, check_conditions

EXIT_PASS = 0
EXIT_CONDITION = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 3

SPHERICITY_NOTE = (
    "Certifies that the proper part's order complex is homotopy equivalent "
    "to a sphere by the paper's induction: each step B(m,k) -> B(m-1,k) "
    "meets the hypotheses of the paper's suspension lemma, decided from "
    "member columns by the proofs in descent_conditions' docstring, and the "
    "proper part of B(k+1,k) is empty, the (-1)-sphere.  The enumeration is "
    "complete: the growth reaches every family from the unique minimum "
    "(Manin-Schechtman 1989), and a count of its covers from below checks "
    "each level."
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 3 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _budget(text: str) -> int:
    """The value of a budget flag: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _write_text(chunks: Iterable[str], out: str) -> None:
    """Write the chunks to out; a write that fails removes the partial file.

    Only a regular file is removed: out may name a device such as /dev/null.
    """
    try:
        fh = open(out, "w", encoding="utf-8", newline="\n")
        try:
            with fh:
                fh.writelines(chunks)
        except BaseException:
            if os.path.isfile(out):
                os.remove(out)
            raise
    except OSError as exc:
        raise ParameterError(f"cannot write {out}: {exc.strerror}")


def _json_chunks(doc: dict) -> Iterator[str]:
    """The sorted, indented JSON text of doc and a final newline, in pieces.

    The pieces join to json.dumps' text with the same options, so a large
    document is written without its whole text held at once.
    """
    encoder = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False)
    return itertools.chain(encoder.iterencode(doc), ("\n",))


def _write_report(report: dict, out: str | None) -> None:
    if out is not None:
        _write_text(_json_chunks(report), out)


def _bruhat_block(values) -> dict:
    """--bruhat N K ORDER as the bruhat block of an instance file."""
    n_str, k_str, order = values
    try:
        return {"n": int(n_str), "k": int(k_str), "order": order}
    except ValueError:
        raise ParameterError(f"bruhat n and k must be integers, got {n_str!r}, {k_str!r}")


def _load_instance(ns) -> tuple[LoadedInstance, dict]:
    """The instance that --instance or --bruhat names, and its report entry."""
    if ns.instance is not None:
        return load_instance(ns.instance), {"file": ns.instance}
    block = _bruhat_block(ns.bruhat)
    return LoadedInstance(bruhat=parse_bruhat_block(block)), {"bruhat": block}


def _check_to_dict(check) -> dict:
    return {"name": check.name, "passed": check.passed, "witness": check.witness}


def cmd_enumerate(ns) -> int:
    """Count B(n,k) by cardinality, reading the growth's stream level by level.

    The whole order is collected only when something needs it: the
    element list of --elements, or the brute-force scan of --method both.
    """
    params, order = GroundParams(ns.n, ns.k), None
    if ns.method == "both":
        order = _scanned(params, ns.max_subsets)
    elif ns.elements:
        order = enumerate_bruhat(params, ns.max_subsets)
    sizes = level_sizes(params, ns.max_subsets) if order is None else order.level_sizes()
    histogram = [[card, size] for card, size in enumerate(sizes)]
    count = sum(sizes)
    report = {
        "version": __version__,
        "command": "enumerate",
        "n": params.n,
        "k": params.k,
        "method": ns.method,
        "count": count,
        "by_cardinality": histogram,
    }
    if ns.method == "both":
        report["oracle_match"] = True
    if ns.elements:
        report["elements"] = [_label(params, b) for b in order.bits]
    _write_report(report, ns.out)
    print(f"B({params.n},{params.k}): {count} consistent families")
    for card, size in histogram:
        print(f"  cardinality {card}: {size}")
    if ns.method == "both":
        print("oracle match (bfs vs bruteforce): True")
    return EXIT_PASS


def cmd_check_lemma(ns) -> int:
    """Check the lemma on the column route for a Bruhat instance, else on rows.

    A Bruhat instance is decided from member columns (descent_conditions),
    an explicit instance on its relation rows (check_conditions).  On
    either route the proof maps and carrier cones are proved from the five
    conditions, so the report's all_pass says all that they would.
    """
    loaded, source = _load_instance(ns)
    if loaded.bruhat is not None:
        params, kind = loaded.bruhat
        _check_width(params, "bfs", ns.max_subsets)
        # ParameterError in the base case n = k+1, before any growth
        route, condition_report = "columns", descent_conditions(params, kind)
        notes = [HOMOTOPY_DISCLAIMER, COLUMN_ROUTE_NOTE]
    else:
        route, condition_report = "rows", check_conditions(loaded.resolve_dissection())
        notes = [HOMOTOPY_DISCLAIMER]
    ok = condition_report.all_pass
    report = {
        "version": __version__,
        "command": "check_lemma",
        "instance": source,
        "route": route,
        "notes": notes,
        "preconditions": [_check_to_dict(c) for c in condition_report.preconditions],
        "conditions": [_check_to_dict(c) for c in condition_report.conditions],
        "all_pass": ok,
    }
    _write_report(report, ns.out)

    print(HOMOTOPY_DISCLAIMER)
    print(f"  route: {route}")
    for check in condition_report.preconditions + condition_report.conditions:
        status = "pass" if check.passed else f"FAIL ({check.witness})"
        print(f"  {check.name}: {status}")
    print(f"overall: {'pass' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_CONDITION


def cmd_verify_sphericity(ns) -> int:
    params, kind = parse_bruhat_block(_bruhat_block(ns.bruhat))
    steps, failed = [], None
    for m, elements, condition_report in descent_chain(params, kind, ns.max_subsets):
        steps.append({"n": m, "elements": elements, "passed": condition_report.all_pass})
        checks = condition_report.preconditions + condition_report.conditions
        failure = next((c for c in checks if not c.passed), None)
        if failure is not None:
            failed = {"step": m, "name": failure.name, "witness": failure.witness}
    target = params.n - params.k - 2
    sphere = failed is None
    report = {
        "version": __version__,
        "command": "verify_sphericity",
        "n": params.n,
        "k": params.k,
        "order": kind.value,
        "route": "induction",
        "sphere_dimension": target,
        "is_sphere": sphere,
        "steps": steps,
        "failed_check": failed,
        "notes": [SPHERICITY_NOTE],
    }
    _write_report(report, ns.out)
    print(f"B({params.n},{params.k}) under {kind.value}:")
    for step in steps:
        m = step["n"]
        descent = f"B({m},{params.k}) -> B({m - 1},{params.k})"
        status = "pass" if step["passed"] else f"{failed['name']} FAIL ({failed['witness']})"
        print(f"  {descent}, {step['elements']} families: {status}")
    dimension = f"({target})" if target < 0 else str(target)
    if sphere:
        print(f"  base B({params.k + 1},{params.k}): empty proper part, the (-1)-sphere")
        print(f"  homotopy equivalent to a {dimension}-sphere")
    else:
        print(f"  NOT certified as a {dimension}-sphere")
    print(f"  note: {SPHERICITY_NOTE}")
    return EXIT_PASS if sphere else EXIT_CONDITION


def cmd_compare_orders(ns) -> int:
    params = GroundParams(ns.n, ns.k)
    order = enumerate_bruhat(params, max_subsets=ns.max_subsets)
    n = len(order)
    single_step_pairs, inclusion_pairs, inclusion_only = compare_orders(order)
    differing = [
        [_label(params, order.bits[i]), _label(params, order.bits[j])]
        for i, j in inclusion_only
    ]
    report = {
        "version": __version__,
        "command": "compare_orders",
        "n": params.n,
        "k": params.k,
        "count": n,
        "comparable_pairs_single_step": single_step_pairs,
        "comparable_pairs_inclusion": inclusion_pairs,
        "differing_pairs_count": len(differing),
        "differing_pairs": differing,
    }
    _write_report(report, ns.out)
    print(f"B({params.n},{params.k}): {n} elements")
    print(f"  comparable pairs, single-step: {single_step_pairs}")
    print(f"  comparable pairs, inclusion:   {inclusion_pairs}")
    if differing:
        print(f"  pairs comparable under inclusion only: {len(differing)}")
        for a, b in differing:
            print(f"    {a} < {b}")
    else:
        print("  the two orders coincide on this instance")
    return EXIT_PASS


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cmd_export(ns) -> int:
    loaded, _ = _load_instance(ns)
    doc = loaded.to_doc(ns.max_subsets)
    if ns.format == "json":
        chunks = _json_chunks(doc)
    else:
        green = set(doc["green"]) if "green" in doc else None
        lines = ["digraph poset {", "  rankdir=BT;"]
        for lbl in doc["P"]["labels"]:
            if green is None:
                lines.append(f"  {_dot_quote(lbl)};")
            else:
                color = "palegreen" if lbl in green else "lightpink"
                lines.append(f"  {_dot_quote(lbl)} [style=filled, fillcolor={color}];")
        for a, b in doc["P"]["covers"]:
            lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)};")
        lines.append("}")
        chunks = ["\n".join(lines) + "\n"]

    if ns.out is None:
        sys.stdout.writelines(chunks)
    else:
        _write_text(chunks, ns.out)
    return EXIT_PASS


def _add_instance_arguments(sub, require=True):
    group = sub.add_mutually_exclusive_group(required=require)
    group.add_argument("--instance", metavar="FILE", help="instance JSON file")
    group.add_argument(
        "--bruhat",
        nargs=3,
        metavar=("N", "K", "ORDER"),
        help="Bruhat instance: n, k and single_step or inclusion",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="higher-bruhat",
        description=(
            "Enumerate higher Bruhat orders, check suspension conditions on "
            "dissected bounded posets, and certify that proper parts are "
            "homotopy equivalent to spheres."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_enum = sub.add_parser("enumerate", help="enumerate B(n,k)")
    p_enum.add_argument("n", type=int)
    p_enum.add_argument("k", type=int)
    p_enum.add_argument("--method", choices=["bfs", "both"], default="bfs")
    p_enum.add_argument("--max-subsets", type=_budget, default=None,
                        help="override the member-count limit")
    p_enum.add_argument("--elements", action="store_true",
                        help="include the full element list in the report")
    p_enum.add_argument("--out", metavar="FILE", help="write the JSON report here")

    p_check = sub.add_parser(
        "check-lemma", help="check the suspension conditions on an instance"
    )
    _add_instance_arguments(p_check)
    p_check.add_argument("--max-subsets", type=_budget, default=None)
    p_check.add_argument("--out", metavar="FILE")

    p_sphere = sub.add_parser(
        "verify-sphericity",
        help="certify that a proper part is homotopy equivalent to a sphere",
    )
    p_sphere.add_argument(
        "--bruhat", nargs=3, metavar=("N", "K", "ORDER"), required=True
    )
    p_sphere.add_argument("--max-subsets", type=_budget, default=None)
    p_sphere.add_argument("--out", metavar="FILE")

    p_cmp = sub.add_parser(
        "compare-orders", help="compare single-step and inclusion comparability"
    )
    p_cmp.add_argument("n", type=int)
    p_cmp.add_argument("k", type=int)
    p_cmp.add_argument("--max-subsets", type=_budget, default=None)
    p_cmp.add_argument("--out", metavar="FILE")

    p_exp = sub.add_parser("export", help="export an instance as JSON or DOT")
    _add_instance_arguments(p_exp)
    p_exp.add_argument("--format", choices=["json", "dot"], required=True)
    p_exp.add_argument("--max-subsets", type=_budget, default=None)
    p_exp.add_argument("--out", metavar="FILE")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code.

    parse_args only reads the shared parser, so concurrent calls may share
    it.  The handler is looked up by subcommand name at each call, so a
    cmd_* function replaced after the first call is the one that runs.
    """
    try:
        ns = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = globals()["cmd_" + ns.subcommand.replace("-", "_")]
    try:
        return handler(ns)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    except MemoryError:
        print(f"error: out of memory in {ns.subcommand}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
