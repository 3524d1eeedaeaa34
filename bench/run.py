"""Benchmark of the higher-bruhat CLI: time to a verified verdict, per workload.

    python3 bench/run.py --workload {sphere,lemma,scale} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  A run first starts the interpreter and
imports `higher_bruhat` several times to time set-up, then repeats passes of
the workload, each in a fresh interpreter, until about S seconds have gone
(at least one pass), and times set-up again.  A pass runs every operation of the workload once, in an
order the seed permutes, and checks each verdict against its known answer.

With `--trace 0` the last stdout line is the JSON result with the end-to-end
metrics.  With `--trace 1` untraced and traced passes alternate; the result
holds the per-layer metrics of the traced passes and the tracing overhead,
and the spans go to `.bench_out/spans/`.  The lines before the result are
for people: each metric with its unit, the spread of pass times, every failed
operation and an environment stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from spans import COUNT_METRICS, median_metrics  # noqa: E402
from workloads import DECIDED, FAILED, WORKLOADS, pass_order  # noqa: E402

ONE_PASS = os.path.join(ROOT, "bench", "one_pass.py")
# Set-up is timed this many times before the passes and again after them,
# so that its median is not taken from one moment of a busy machine.
SETUP_PROBES = 5
# A run stops starting passes, and kills a pass still running, this many
# seconds after it began, so that it always ends within the 180 s allowed.
RUN_LIMIT_S = 165.0


def spawn(args: list[str], deadline: float) -> tuple[list[dict], float, str | None]:
    """Run one_pass.py: its events, its spawn time, and what went wrong, if anything."""
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-I", ONE_PASS, *args, repr(spawned_at)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    problem = None
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        problem = "killed at the run time limit"
    if problem is None and proc.returncode != 0:
        problem = f"pass process exited with code {proc.returncode}"
    events = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    return events, spawned_at, problem


def setup_probe(deadline: float) -> float:
    events, _, problem = spawn(["--setup-only"], deadline)
    if problem or not events:
        raise SystemExit("error: cannot import higher_bruhat from this checkout's src/")
    return events[0]["setup_s"]


def run_pass(workload: str, order: list[int], traced: bool, spans_file: str,
             deadline: float) -> dict:
    """One pass: its set-up and wall time, peak RSS, outcomes and layer metrics."""
    events, spawned_at, problem = spawn(
        [workload, ",".join(map(str, order)), "1" if traced else "0", spans_file], deadline
    )
    ended = time.monotonic()
    ready = next((e for e in events if e["event"] == "ready"), None)
    if ready is None:
        raise SystemExit(f"error: a {workload} pass ended before its set-up finished")
    done = next((e for e in events if e["event"] == "done"), None)
    outcomes = {e["index"]: (e["outcome"], e["reason"]) for e in events
                if e["event"] == "verdict"}
    for index in order:
        outcomes.setdefault(index, (FAILED, problem or "no verdict"))
    return {
        "setup_s": ready["setup_s"],
        # a pass that never finished counts as lasting until it was stopped
        "wall_s": done["wall_s"] if done else ended - spawned_at - ready["setup_s"],
        "peak_rss_mb": done["peak_rss_mb"] if done else None,
        "outcomes": outcomes,
        "op_secs": {e["index"]: e["secs"] for e in events if e["event"] == "op"},
        "layers": done["layers"] if done else None,
        "traced": traced,
    }


def environment() -> dict:
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            commit = fh.read().strip()
        if commit.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", commit[5:])
            if os.path.exists(ref):
                with open(ref, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg()[0],
        "commit": commit,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "higher_bruhat", "cli.py")):
        print("error: no src/higher_bruhat in this checkout", file=sys.stderr)
        return 2

    env = environment()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    ops = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    setups = [setup_probe(deadline) for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    cycles: list[float] = []
    while True:
        began = time.monotonic()
        for traced in ((False, True) if args.trace else (False,)):
            spans_file = os.path.join(
                ".bench_out", "spans", f"{args.workload}-seed{args.seed}-pass{len(passes)}.json"
            )
            passes.append(run_pass(args.workload, pass_order(ops, rng), traced,
                                   spans_file, deadline))
        now = time.monotonic()
        cycles.append(now - began)
        if now - start + statistics.median(cycles) > min(args.seconds, RUN_LIMIT_S - 5):
            break
    setups += [setup_probe(deadline + 5) for _ in range(SETUP_PROBES)]

    plain = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["outcomes"]) for p in passes)
    failures = [(" ".join(ops[i].argv), reason) for p in passes
                for i, (outcome, reason) in p["outcomes"].items() if outcome == FAILED]
    decided = sum(outcome == DECIDED for p in passes for outcome, _ in p["outcomes"].values())
    walls = [p["wall_s"] for p in plain]
    rss = [p["peak_rss_mb"] for p in plain if p["peak_rss_mb"] is not None]
    setups += [p["setup_s"] for p in plain]
    wall_s = statistics.median(walls)

    if args.trace:
        layered = [p["layers"] for p in passes if p["traced"] and p["layers"]]
        if not layered:
            raise SystemExit("error: no traced pass finished")
        metrics = {name: metric(value, "count" if name in COUNT_METRICS else "s")
                   for name, value in median_metrics(layered).items()}
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        metrics["trace.wall_s"] = metric(traced_wall, "s")
        metrics["trace.overhead_s"] = metric(traced_wall - wall_s, "s")
        for counts in layered[1:]:
            if any(counts[name] != layered[0][name] for name in COUNT_METRICS):
                print("warning: count metrics differ between traced passes")
    else:
        metrics = {
            "wall_s": metric(wall_s, "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(statistics.median(rss) if rss else 0.0, "MB"),
            "decided_ratio": metric(decided / attempted, "ratio"),
        }

    print(f"workload {args.workload}, seed {args.seed}, environment {json.dumps(env)}")
    print(f"passes {len(plain)} untraced, {len(passes) - len(plain)} traced; "
          f"wall_s median {wall_s:.4f} s, max {max(walls):.4f} s over n={len(walls)}: "
          + " ".join(f"{w:.3f}" for w in walls))
    print(f"operations attempted {attempted}, decided {decided}, failed {len(failures)}, "
          f"fail_ratio {len(failures) / attempted:.4f}")
    for label, reason in failures:
        print(f"FAILED {label}: {reason}")
    for index, op in enumerate(ops):
        secs = [p["op_secs"][index] for p in plain if index in p["op_secs"]]
        if secs:
            print(f"op {' '.join(op.argv)}: median {statistics.median(secs):.4f} s "
                  f"over n={len(secs)}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
