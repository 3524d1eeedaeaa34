"""One pass of a workload, in a fresh interpreter started by `run.py`.

    python3 -I bench/one_pass.py WORKLOAD ORDER TRACE SPANS_FILE SPAWNED_AT
    python3 -I bench/one_pass.py --setup-only SPAWNED_AT

ORDER is the comma-separated list of operation indices to run, TRACE is 0 or
1, and SPAWNED_AT is the parent's `time.monotonic()` just before it started
this process, so the set-up time covers interpreter start and the import.

Every event is one JSON line on stdout, written as it happens, so the parent
still learns which operations finished if it has to kill this pass: `ready`
(set-up done), one `op` per operation, one `verdict` per operation once all
have run, and `done` with the pass totals.  The operations' own output is
discarded.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "bench")]

# An operation still running after this many seconds is stopped and failed.
OP_LIMIT_S = 90.0


class OpTimeout(BaseException):
    """Raised into an operation that ran past its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout


def run_op(call, argv: list[str], limit_s: float) -> tuple[int | None, str | None]:
    """Run `call(argv)` with its output discarded: (exit code, error or None).

    An operation past `limit_s` seconds is interrupted by SIGALRM and counts
    as an error, like an uncaught exception.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return call(argv), None
    except OpTimeout:
        return None, f"over the {limit_s:g} s time limit"
    except Exception as exc:
        return None, f"uncaught {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def emit(**event) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def import_program():
    """Import the CLI from this checkout's sources, never from elsewhere."""
    from higher_bruhat import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"higher_bruhat was imported from {cli.__file__}, not {SRC}")
    return cli


def main(args: list[str]) -> None:
    os.chdir(ROOT)
    if args[0] == "--setup-only":
        import_program()
        emit(event="ready", setup_s=time.monotonic() - float(args[1]))
        return
    workload, order, trace, spans_file, spawned_at = args
    cli = import_program()
    from workloads import WORKLOADS, classify, cli_argv, report_path

    ops = WORKLOADS[workload]
    order = [int(i) for i in order.split(",")]
    shutil.rmtree(os.path.dirname(report_path(workload, 0)), ignore_errors=True)
    os.makedirs(os.path.dirname(report_path(workload, 0)))
    emit(event="ready", setup_s=time.monotonic() - float(spawned_at))

    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    outcomes = []
    first = time.perf_counter()
    for op_id, index in enumerate(order):
        if tracer is not None:
            tracer.op = op_id
        started = time.perf_counter()
        exit_code, error = run_op(cli.main, cli_argv(ops[index], workload, index), OP_LIMIT_S)
        emit(event="op", index=index, exit_code=exit_code, error=error,
             secs=time.perf_counter() - started)
        outcomes.append((index, exit_code, error))
    wall = time.perf_counter() - first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for index, exit_code, error in outcomes:
        outcome, reason = classify(ops[index], workload, index, exit_code, error)
        emit(event="verdict", index=index, outcome=outcome, reason=reason)
    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics()
        tracer.dump(spans_file, [cli_argv(ops[i], workload, i) for i in order])
    emit(event="done", wall_s=wall, peak_rss_mb=peak_rss_mb, layers=layers)


if __name__ == "__main__":
    main(sys.argv[1:])
