"""The benchmark harness in perfbench/ against the library in src/.

The harness imports, calls and patches library names; running one traced
ideal-chain round and one traced CLI run here makes an API change that
breaks it fail in the test suite rather than only in the benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from charideals import char_ideal_profile, lookup, ztideal

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_ideal_chain_round_traced_and_untraced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    add = ztideal.GroebnerBuilder.add
    out = child.chain(1, 1, True)
    assert out["untraced"]["spans"] and out["traced"]["spans"]
    assert out["untraced"]["errors"] == []
    assert out["traced"]["errors"] == []
    records = out["trace"]["records"]
    assert records["graph_ideals.characteristic_ideal"][0] > 0
    # the tracer binds det_int, though this round takes no minor of two or
    # more rows, so it makes no call
    assert "graph_ideals.det_int" in records
    # patched and restored, though the lattice engine makes no call to it
    assert "ztideal.GroebnerBuilder.add" in records
    assert ztideal.GroebnerBuilder.add is add


def test_traced_profile_counts_the_engine_determinants(monkeypatch):
    # minors of two or more rows are integer determinants, which the
    # graph_ideals.det_int metric counts
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    tr = tracer.Tracer()
    tr.install()
    try:
        char_ideal_profile(lookup("petersen"))
    finally:
        tr.uninstall()
    assert tr.records["graph_ideals.det_int"][0] > 0


def test_traced_cli_lists_the_wrapped_functions():
    # a subprocess, because the traced CLI leaves its tracer installed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "cli", "mine", "--stat", "gammaA",
         "--k", "1", "--max-n", "4"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    mark = "PERFBENCH-TRACE "
    lines = [line for line in proc.stdout.splitlines() if line.startswith(mark)]
    assert len(lines) == 1, proc.stdout
    records = json.loads(lines[0][len(mark):])["records"]
    assert "ztideal.GroebnerBuilder.add" in records
    assert "isomorphism.find_induced" in records
