"""Span tracing of the higher_bruhat modules from outside the library.

`Tracer.install` replaces each public function of every layer module with a
wrapper that records a span (name, start, end, parent, operation id), in every
namespace that imported the function, and does the same for a few methods and
the three dataclass validators.  Spans stay in memory; `layer_metrics` turns
them into self times and `dump` writes them out once the pass is over.

Counts are read from arguments and return values.  The time spent reading
them is recorded as excluded time and left out of every self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
from time import perf_counter

PACKAGE = "higher_bruhat"

# The modules of the package that do work; `errors` and `__main__` do none.
LAYERS = (
    "subsets",
    "bruhat",
    "posets",
    "complexes",
    "homology",
    "suspension_check",
    "instance_io",
    "cli",
)

# Span names that differ from `<module>.<function>`.
RENAMED = {
    "homology.smith_normal_form": "homology.snf",
}

# Methods traced besides the module-level functions: (module, class, method, span).
METHODS = (
    ("subsets", "ConsistentSet", "__post_init__", "subsets.consistent_set"),
    ("bruhat", "BruhatOrder", "reach", "bruhat.reach"),
    ("posets", "FiniteBoundedPoset", "__post_init__", "posets.validate"),
    ("posets", "FiniteBoundedPoset", "covers", "posets.covers"),
    ("homology", "IntegerMatrix", "__post_init__", "homology.matrix_validate"),
)

# Degrees of the boundary matrices reported one by one (B(5,1) reaches 8).
SNF_DEGREES = range(9)

# Self-time metrics reported for single spans.
SELF_TIME_SPANS = (
    "bruhat.enumerate_bruhat",
    "bruhat.reach",
    "bruhat.to_poset",
    "bruhat.dissection_instance",
    "subsets.consistent_set",
    "posets.validate",
    "posets.from_relation",
    "posets.from_covers",
    "posets.proper_part",
    "posets.count_chains",
    "posets.check_monotone",
    "posets.covers",
    "posets.order_complex",
    "complexes.make_complex",
    "homology.boundary_matrices",
    "homology.matrix_validate",
    "homology.snf",
    "suspension_check.check_conditions",
    "suspension_check.build_proof_maps",
    "suspension_check.carrier_cone_check",
    "instance_io.instance_to_doc",
    "instance_io.load_instance",
)

# Count metrics: identical on every traced pass of one workload.
COUNT_METRICS = (
    "bruhat.elements",
    "bruhat.covers",
    "subsets.consistent_set.calls",
    "posets.validate.calls",
    "posets.comparable_pairs",
    "complexes.simplices",
    "homology.snf.nnz",
    "homology.snf.rank",
    *(f"homology.snf.d{d}.{part}" for d in SNF_DEGREES for part in ("rows", "cols", "nnz")),
    "suspension_check.carrier.checked",
    "suspension_check.carrier.total",
    "instance_io.bytes",
    *(f"{layer}.spans" for layer in LAYERS),
)

TIME_METRICS = (
    "cli.self_s",
    *(f"{layer}.self_s" for layer in LAYERS if layer != "cli"),
    *(f"{name}.self_s" for name in SELF_TIME_SPANS),
    *(f"homology.snf.d{d}.self_s" for d in SNF_DEGREES),
)


def _count_enumerate(counts, args, kwargs, order):
    counts["bruhat.elements"] += len(order.elements)
    counts["bruhat.covers"] += len(order.covers)


def _count_poset(counts, args, kwargs, result):
    counts["posets.comparable_pairs"] += sum(row.bit_count() for row in args[0].leq)


def _count_complex(counts, args, kwargs, complex_):
    counts["complexes.simplices"] += complex_.num_simplices()


def _count_carrier(counts, args, kwargs, report):
    counts["suspension_check.carrier.checked"] += report.chains_checked
    counts["suspension_check.carrier.total"] += report.total_chains


def _count_instance_file(counts, args, kwargs, loaded):
    counts["instance_io.bytes"] += os.path.getsize(args[0])


COUNTERS = {
    "bruhat.enumerate_bruhat": _count_enumerate,
    "posets.validate": _count_poset,
    "complexes.make_complex": _count_complex,
    "suspension_check.carrier_cone_check": _count_carrier,
    "instance_io.load_instance": _count_instance_file,
}


class Tracer:
    """In-memory spans of one pass.

    A span is [name, start, end, parent, op, excluded]: `parent` is the index
    of the enclosing span (-1 at top level), `op` the operation id, and
    `excluded` the time its interval spent reading counts after a child span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[str, int] = dict.fromkeys(COUNT_METRICS, 0)
        self.snf_degree: dict[int, int] = {}

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)
        is_snf = name == "homology.snf"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None or is_snf:
                began = perf_counter()
                if counter is not None:
                    counter(self.counts, args, kwargs, result)
                if is_snf:
                    self._count_snf(index, args[0], result)
                if stack:
                    spans[stack[-1]][5] += perf_counter() - began
            return result

        return traced

    def _count_snf(self, index, matrix, result):
        # reduced_homology eliminates the boundary matrices in degree order,
        # so the n-th elimination under one parent span is degree n.
        parent = self.spans[index][3]
        degree = self.snf_degree.get(parent, 0)
        self.snf_degree[parent] = degree + 1
        self.spans[index][0] = f"homology.snf.d{degree}"
        self.counts["homology.snf.nnz"] += matrix.nnz()
        self.counts["homology.snf.rank"] += result[1]
        if degree in SNF_DEGREES:
            for part, value in (("rows", matrix.rows), ("cols", matrix.cols),
                                ("nnz", matrix.nnz())):
                self.counts[f"homology.snf.d{degree}.{part}"] += value

    def install(self) -> None:
        """Wrap the layer functions and methods wherever they are bound."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                    or inspect.isgeneratorfunction(value)
                ):
                    continue
                name = RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
                wrappers[value] = self.wrap(name, value)
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(namespace, attr, wrappers[value])
        for layer, cls_name, method, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, method, self.wrap(name, getattr(cls, method)))

    def layer_metrics(self) -> dict[str, float]:
        """Self times by layer and by span name, plus the counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, excluded in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, float] = {}
        by_layer = dict.fromkeys(LAYERS, 0.0)
        counts = dict(self.counts)
        for (name, start, end, parent, op, excluded), inner in zip(self.spans, child_time):
            own = end - start - inner - excluded
            layer = name.split(".", 1)[0]
            by_layer[layer] += own
            counts[f"{layer}.spans"] += 1
            by_name[name] = by_name.get(name, 0.0) + own
            if name.startswith("homology.snf.d"):
                by_name["homology.snf"] = by_name.get("homology.snf", 0.0) + own
            elif name in ("subsets.consistent_set", "posets.validate"):
                counts[f"{name}.calls"] += 1
        metrics = {f"{layer}.self_s": t for layer, t in by_layer.items()}
        for name in SELF_TIME_SPANS:
            metrics[f"{name}.self_s"] = by_name.get(name, 0.0)
        for d in SNF_DEGREES:
            metrics[f"homology.snf.d{d}.self_s"] = by_name.get(f"homology.snf.d{d}", 0.0)
        metrics.update(counts)
        return metrics

    def dump(self, path: str, ops: list[list[str]]) -> None:
        """Write the spans, with the argv of each operation id, as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"ops": ops, "spans": self.spans}, fh)


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each time metric over traced passes; counts from the first."""
    merged = {name: statistics.median(p[name] for p in passes) for name in TIME_METRICS}
    merged.update({name: passes[0][name] for name in COUNT_METRICS})
    return merged
