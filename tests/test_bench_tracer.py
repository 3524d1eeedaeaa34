"""The benchmark's tracer wraps library methods by name; a rename breaks it."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import contextlib, io, sys
from spans import Tracer
from higher_bruhat.cli import main
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify-sphericity", "--bruhat", "4", "1", "single_step"]) == 0
    assert main(["verify-sphericity", "--bruhat", "4", "1", "inclusion"]) == 0
    assert main(["check-lemma", "--bruhat", "4", "1", "single_step"]) == 0
    assert main(["check-lemma", "--bruhat", "5", "2", "inclusion"]) == 0
    assert main(["verify-sphericity", "--bruhat", "10", "7", "single_step"]) == 0
    assert main(["verify-sphericity", "--bruhat", "10", "7", "single_step",
                 "--max-subsets", "1"]) == 2
    assert main(["enumerate", "6", "2", "--method", "both"]) == 0
    assert main(["compare-orders", "5", "2"]) == 0
    assert main(["export", "--bruhat", "4", "1", "single_step", "--format", "json",
                 "--out", sys.argv[1]]) == 0
    assert main(["check-lemma", "--instance", sys.argv[1]]) == 0
names = [span[0] for span in tracer.spans if span[0].startswith("cli.")]
print(" ".join(f"{name}:{names.count(name)}" for name in sorted(set(names))))
metrics = tracer.layer_metrics()
print(metrics["posets.validate.calls"], metrics["posets.comparable_pairs"])
"""


def test_tracer_installs_and_traces_a_run(tmp_path):
    path = os.pathsep.join(os.path.join(ROOT, d) for d in ("bench", "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "instance.json")],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    handlers, built = proc.stdout.splitlines()
    # every handler runs through its traced wrapper, and the ten calls
    # build one parser
    assert handlers.split() == [
        "cli.build_parser:1", "cli.cmd_check_lemma:3", "cli.cmd_compare_orders:1",
        "cli.cmd_enumerate:1", "cli.cmd_export:1", "cli.cmd_verify_sphericity:4",
    ]
    # only check-lemma --instance builds posets: P = B(4,1) with 127 strict
    # and 24 reflexive pairs, and Q = B(3,1) with 11 and 6
    assert built.split() == ["2", str(127 + 24 + 11 + 6)]
