import importlib
import io
import json
import os
import queue
import random
import shutil
import signal
import subprocess
import sys
import threading
from importlib.metadata import EntryPoint, entry_points
from itertools import combinations
from pathlib import Path

import pytest

from charideals import (BlowupSpec, IdealZt, ZPoly, adjacency_matrix, blowup, canonical_form,
                        lookup, parse_graph6, snf_diagonal, to_graph6)
from charideals.catalog import FORBIDDEN_S4, cycle_graph, names, star_graph
from charideals.cli import main
from charideals.graphs import Graph
from charideals.ztideal import reduce


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def envelopes(out):
    return [json.loads(line) for line in out.strip().splitlines() if line.startswith("{")]


def test_snf_adjacency(capsys):
    code, out, _ = run(capsys, "snf", "C^")
    assert code == 0
    env = envelopes(out)[0]
    assert env["command"] == "snf"
    assert env["version"]
    assert env["payload"]["invariant_factors"] == [1, 1, 2, 0]
    assert env["payload"]["phi"] == 2


def test_snf_laplacian(capsys):
    code, out, _ = run(capsys, "snf", to_graph6(lookup("k4")), "--matrix", "laplacian")
    assert code == 0
    assert envelopes(out)[0]["payload"]["invariant_factors"] == [1, 4, 4, 0]


def test_phi(capsys):
    code, out, _ = run(capsys, "phi", "C^")
    assert code == 0
    assert envelopes(out)[0]["payload"] == {"matrix": "adjacency", "phi": 2}


def test_gamma(capsys):
    code, out, _ = run(capsys, "gamma", "C^")
    assert envelopes(out)[0]["payload"]["gamma"] == 2


def test_ideal_all_diamond(capsys):
    code, out, _ = run(capsys, "ideal", "--graph", "C^", "--all")
    assert code == 0
    env = envelopes(out)[0]
    pretties = [e["pretty"] for e in env["payload"]["ideals"]]
    assert pretties == ["⟨1⟩", "⟨1⟩", "⟨2, t⟩", "⟨t^4 - 5t^2 - 4t⟩"]
    assert env["payload"]["gamma"] == 2
    basis3 = env["payload"]["ideals"][2]["ideal"]["basis"]
    assert basis3 == [["2"], ["0", "1"]]


# I_1 .. I_7 of the 16-vertex clique blow-ups of C4 and K1,3, as
# coefficient tuples low degree first, computed by the unsplit engine
CHAIN_HEADS = {
    "c4": [((1,),), ((1,),), ((1,),), ((3,), (1, 1)), ((3, 3), (-2, -1, 1)),
           ((3, 6, 3), (-2, -3, 0, 1)), ((3, 9, 9, 3), (-2, -5, -3, 1, 1))],
    "k13": [((1,),), ((1,),), ((1,),), ((2,), (1, 1)), ((2, 2), (-1, 0, 1)),
            ((2, 4, 2), (-1, -1, 1, 1)), ((2, 6, 6, 2), (-3, -8, -6, 0, 1))],
}


@pytest.mark.parametrize("base", sorted(CHAIN_HEADS))
def test_ideal_all_on_16_vertex_clique_blowups(capsys, base):
    g = blowup(BlowupSpec({"c4": cycle_graph(4), "k13": star_graph(4)}[base], (-4,) * 4))
    code, out, _ = run(capsys, "ideal", "--graph", to_graph6(g), "--all")
    assert code == 0
    payload = envelopes(out)[0]["payload"]
    assert payload["gamma"] == 3
    ideals = [IdealZt(basis=[ZPoly(int(c) for c in p) for p in e["ideal"]["basis"]])
              for e in payload["ideals"]]
    assert [e["k"] for e in payload["ideals"]] == list(range(1, 17))
    for smaller, larger in zip(ideals[1:], ideals):
        assert not any(reduce(p, larger.basis) for p in smaller.basis)
    factors = snf_diagonal(adjacency_matrix(g)).factors
    at0 = 1
    for k, ideal in enumerate(ideals):
        at0 *= factors[k]
        assert ideal.evaluate(0) == abs(at0), k + 1
    assert [tuple(map(tuple, i.basis)) for i in ideals[:7]] == CHAIN_HEADS[base]


def test_ideal_single_k_pretty(capsys):
    code, out, _ = run(capsys, "ideal", "--graph", "C^", "--k", "3", "--pretty")
    assert code == 0
    assert out.strip() == "k=3: ⟨2, t⟩"


def test_ideal_requires_k_or_all(capsys):
    # exactly one of the two: neither flag and both flags are usage errors
    for flags in ((), ("--k", "2", "--all")):
        code, out, err = run(capsys, "ideal", "--graph", "C^", *flags)
        assert (code, out) == (2, ""), flags
        assert "--k or --all" in err


def test_ideal_flags_are_checked_before_the_graph_is_read(capsys, monkeypatch):
    # both flags are a usage error even for a bad graph, and stdin is not read
    class Unread:
        def read(self, *args):
            raise AssertionError("stdin read before the flags were checked")

    monkeypatch.setattr("sys.stdin", Unread())
    for graph in ("C^x", "-"):
        code, out, err = run(capsys, "ideal", "--graph", graph, "--k", "2", "--all")
        assert (code, out) == (2, ""), graph
        assert err == "error: provide either --k or --all\n", graph


def test_g6_decode(capsys):
    code, out, _ = run(capsys, "g6", "decode", "@")
    assert code == 0
    assert out.strip() == "n 1"


def test_g6_encode_decode_identity_on_catalog(capsys, monkeypatch):
    for name in ("diamond", "paw", "house", "prism", "c5", "k1", "s6+e", "k2,2,2"):
        g6 = to_graph6(lookup(name))
        code, out, _ = run(capsys, "g6", "decode", g6)
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out2, _ = run(capsys, "g6", "encode", "-")
        assert code == 0
        assert out2.strip() == g6


def test_classify_single(capsys):
    code, out, _ = run(capsys, "classify", "C^")
    env = envelopes(out)[0]
    assert env["payload"]["corank"] == 2
    assert env["payload"]["memberships"]["S<=2"] is True
    assert env["input"] == canonical_form(parse_graph6("C^"))


def test_classify_stream(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C^\nDhc\n"))
    code, out, _ = run(capsys, "classify", "-")
    assert code == 0
    envs = envelopes(out)
    assert len(envs) == 2
    assert all(e["command"] == "classify" for e in envs)


def test_classify_stream_respects_worker_env(capsys, monkeypatch):
    monkeypatch.setenv("GRAPHTOOL_THREADS", "2")
    monkeypatch.setattr("sys.stdin", io.StringIO("C^\n"))
    code, out, _ = run(capsys, "classify", "-")
    assert code == 0
    assert envelopes(out)[0]["payload"]["corank"] == 2


@pytest.mark.parametrize("threads", ["1", "2"])
def test_classify_stream_keeps_valid_lines_around_bad_ones(capsys, monkeypatch, threads):
    monkeypatch.setenv("GRAPHTOOL_THREADS", threads)
    monkeypatch.setattr("sys.stdin", io.StringIO("C^\nC?\n\nC~\nxx\n"))
    code, out, _ = run(capsys, "classify", "-")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 4
    for line, g6 in ((lines[0], "C^"), (lines[2], "C~")):
        assert run(capsys, "classify", g6)[1] == line + "\n"
    for line, g6, lineno in ((lines[1], "C?", 2), (lines[3], "xx", 5)):
        env = json.loads(line)
        single_code, _, err = run(capsys, "classify", g6)
        assert single_code == 1
        assert env["command"] == "classify" and env["input"] == g6
        assert env["payload"] == {"error": err.strip()[len("error: "):], "line": lineno}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_classify_stream_survives_an_unexpected_failure(capsys, monkeypatch, threads):
    # the package's `classify` attribute is the function, not the module
    classify_mod = importlib.import_module("charideals.classify")
    real = classify_mod.classify
    target = canonical_form(parse_graph6("Dhc"))

    def flaky(g):
        if canonical_form(g) == target:
            raise RuntimeError("boom")
        return real(g)

    # the stream reads it from the module when it runs
    monkeypatch.setattr(classify_mod, "classify", flaky)
    monkeypatch.setenv("GRAPHTOOL_THREADS", threads)
    monkeypatch.setattr("sys.stdin", io.StringIO("C^\nDhc\nC~\n"))
    code, out, _ = run(capsys, "classify", "-")
    assert code == 1
    envs = envelopes(out)
    assert len(envs) == 3
    assert envs[1]["input"] == "Dhc"
    assert envs[1]["payload"] == {"error": "RuntimeError: boom", "line": 2}
    for env, g6 in ((envs[0], "C^"), (envs[2], "C~")):
        rep = json.loads(json.dumps(real(parse_graph6(g6)).to_json_dict()))
        assert env["input"] == rep["graph6"] and env["payload"] == rep


def test_workers_clamped_to_usable_cpus(capsys, monkeypatch):
    # imap_workers alone reads GRAPHTOOL_THREADS and the usable CPUs; the
    # pool records the CPUs it is handed instead of forking
    handed = []

    def pool(fn, items, cpus, chunksize):
        handed.append(cpus)
        return map(fn, items)

    monkeypatch.setattr(importlib.import_module("charideals._forked"), "imap_forked", pool)

    def cpus_for(threads):
        handed.clear()
        monkeypatch.setenv("GRAPHTOOL_THREADS", threads)
        monkeypatch.setattr("sys.stdin", io.StringIO("C^\n"))
        assert run(capsys, "classify", "-")[0] == 0
        return handed[0] if handed else None  # None: no pool, fn ran in the parent

    if hasattr(os, "sched_getaffinity"):
        usable = sorted(os.sched_getaffinity(0))
        assert cpus_for("100000") == (usable if len(usable) > 1 else None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 0, 1}, raising=False)
    assert cpus_for("100000") == [0, 1, 2]
    for value, want in (("2", [0, 1]), ("1", None), ("0", None), ("-5", None), ("many", None)):
        assert cpus_for(value) == want, value
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cpus_for("100000") == [None] * 4  # forked, but nothing to pin to
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cpus_for("100000") is None


def test_mine_line_output(capsys):
    code, out, _ = run(capsys, "mine", "--max-n", "5", "--stat", "phiA", "--k", "2")
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if not ln.startswith("{")]
    assert len(lines) == 3
    summary = envelopes(out)[0]
    assert summary["payload"]["minimal"] == lines
    assert summary["payload"]["counts_by_size"] == {"4": 3}


def test_mine_emit_all(capsys):
    code, out, _ = run(capsys, "mine", "--max-n", "5", "--stat", "phiA", "--k", "2",
                       "--emit-all")
    lines = [ln for ln in out.strip().splitlines() if not ln.startswith("{")]
    summary = envelopes(out)[0]
    assert len(lines) == summary["payload"]["forbidden_total"] > 3


def test_catalog_list_and_emit(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "diamond" in out.split()
    code, out, _ = run(capsys, "catalog", "emit", "diamond")
    assert out.strip() == "C^"
    code, out, _ = run(capsys, "catalog", "emit", "forbidden-s4")
    assert out.split() == list(FORBIDDEN_S4)


def test_catalog_names_are_normalised_one_way(capsys):
    # the collections too: they once went through their own normalisation
    listed = [name for name in names() if "<" not in name]
    assert {"family-f", "forbidden-s4", "diamond"} <= set(listed)
    for name in listed:
        code, bare, _ = run(capsys, "catalog", "emit", name)
        assert code == 0 and bare
        code, padded, _ = run(capsys, "catalog", "emit", f"  {name.upper()} ")
        assert (code, padded) == (0, bare), name


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write fails."""

    def __init__(self, fd):
        super().__init__()
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


def test_closed_pipe_exits_quietly(tmp_path, monkeypatch, capsys):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        code = main(["catalog", "emit", "family-f"])
        monkeypatch.undo()
    assert code == 0
    assert "error:" not in capsys.readouterr().err


def test_reader_closing_the_pipe_first_is_not_an_error():
    # the reader is gone before the command writes: exit 0, stderr empty
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    with subprocess.Popen([sys.executable, "-m", "charideals", "catalog", "emit",
                           "forbidden-s4"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    assert code == 0, err
    assert err == b""


def test_catalog_list_takes_no_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "list", "extra"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert "catalog list takes no name" in out.err


@pytest.mark.parametrize("name,count", [("k100000", 100000), ("p1000000000", 1000000000)])
def test_huge_catalog_size_fails_before_the_build(name, count):
    # the child's address space is capped, so a build that runs anyway
    # fails with MemoryError instead of exhausting the machine
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "charideals", "catalog", "emit", name],
                          capture_output=True, env=env, preexec_fn=cap, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == (f"error: catalog graph {name!r} has {count} vertices; "
                                    "graph6 allows at most 62\n")


def test_catalog_unknown_name(capsys):
    # close matches come from every name emit accepts, collections included
    for name, matches in (("famly-f", "family-f"), ("family-g", "family-f"),
                          ("diamnod", "diamond, co-diamond-k2")):
        code, out, err = run(capsys, "catalog", "emit", name)
        assert (code, out) == (1, ""), name
        assert err == f"error: unknown catalog graph {name!r}; close matches: {matches}\n"


def test_crosscheck(capsys):
    code, out, _ = run(capsys, "crosscheck", "--max-n", "4")
    assert code == 0
    env = envelopes(out)[0]
    assert env["payload"]["graphs_checked"] == 10
    assert env["payload"]["violations"] == []


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_crosscheck_of_no_graphs_exits_1(capsys, max_n):
    code, out, err = run(capsys, "crosscheck", "--max-n", max_n)
    assert code == 1
    assert out == ""
    assert "max_n >= 1" in err


def test_crosscheck_past_the_known_counts_exits_1_before_enumerating(capsys, monkeypatch):
    # --max-n 11 would walk all 1,006,700,565 graphs on 11 vertices
    def no_walk(max_n):
        raise AssertionError(f"graphs up to {max_n} vertices were walked")
    monkeypatch.setattr(sys.modules["charideals.classify"], "_walk", no_walk)
    code, out, err = run(capsys, "crosscheck", "--max-n", "11")
    assert (code, out) == (1, "")
    assert err == "error: crosscheck supports max_n <= 10, got 11\n"


def test_mine_past_the_known_counts_exits_1_with_the_value(capsys):
    code, out, err = run(capsys, "mine", "--stat", "phiA", "--k", "4", "--max-n", "11")
    assert (code, out) == (1, "")
    assert err == "error: mining supports max_vertices <= 10, got 11\n"


def test_bad_graph6_exits_1_with_offset(capsys):
    code, out, err = run(capsys, "snf", "C^^")
    assert code == 1
    assert "byte offset" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mine", "--max-n", "5"])
    assert exc.value.code == 2


def test_edge_list_input(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("n 4\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "snf", str(path), "--edge-list")
    assert code == 0
    assert envelopes(out)[0]["payload"]["invariant_factors"] == [1, 1, 2, 0]


@pytest.mark.parametrize("via", ["g6 encode", "gamma --edge-list"])
def test_edge_list_count_past_an_index_is_a_domain_error(tmp_path, capsys, via):
    # 2**63 fits no list index, so it fails before anything is allocated
    text = f"n {2**63}\n"
    path = tmp_path / "big.txt"
    path.write_text(text)
    argv = ["g6", "encode", text] if via == "g6 encode" else ["gamma", str(path), "--edge-list"]
    assert run(capsys, *argv) == (1, "", f"error: vertex count {2**63} is too large\n")


def _path_63(tmp_path):
    """Edge-list file of the path on 63 vertices, one past graph6's limit."""
    path = tmp_path / "p63.txt"
    path.write_text("".join(f"{v} {v + 1}\n" for v in range(62)))
    return str(path)


@pytest.mark.parametrize("argv", [("snf",), ("phi",), ("ideal", "--all"), ("ideal", "--k", "2")])
def test_graph_past_graph6_fails_before_the_work(tmp_path, capsys, monkeypatch, argv):
    path = _path_63(tmp_path)

    def refuse(*args):
        raise AssertionError("computed before the echo")

    # each name where the command reads it
    for module, name in (("cli", "snf_diagonal"), ("graph_ideals", "char_ideal_profile"),
                         ("graph_ideals", "characteristic_ideal")):
        monkeypatch.setattr(importlib.import_module(f"charideals.{module}"), name, refuse)
    command, *rest = argv
    where = ["--graph", path] if command == "ideal" else [path]
    code, out, err = run(capsys, command, *where, "--edge-list", *rest)
    assert (code, out) == (1, "")
    assert err == "error: graph6 output limited to n <= 62\n"


def test_ideal_pretty_needs_no_echo(tmp_path, capsys):
    code, out, _ = run(capsys, "ideal", "--graph", _path_63(tmp_path), "--edge-list",
                       "--k", "62", "--pretty")
    assert (code, out) == (0, "k=62: ⟨1⟩\n")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_snf_payload_echoes_matrix(capsys):
    code, out, _ = run(capsys, "snf", "C^")
    env = envelopes(out)[0]
    assert env["payload"]["entries"] == [[0, 0, 1, 1], [0, 0, 1, 1],
                                         [1, 1, 0, 1], [1, 1, 1, 0]]


def test_mine_reproduces_43_lines(capsys):
    code, out, _ = run(capsys, "mine", "--max-n", "6", "--stat", "phiA", "--k", "4")
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if not ln.startswith("{")]
    assert len(lines) == 43


def test_crosscheck_violations_exit_3(capsys, monkeypatch):
    from charideals.classify import CrossCheckResult
    fake = CrossCheckResult(2, 2, {}, [{"graph6": "A_", "detail": "synthetic"}])
    monkeypatch.setattr(importlib.import_module("charideals.classify"), "cross_check",
                        lambda n: fake)
    code, out, _ = run(capsys, "crosscheck", "--max-n", "2")
    assert code == 3


REPO = Path(__file__).resolve().parent.parent


def _console_script_entry_point():
    """The ``charideals`` entry point declared in ``[project.scripts]``.

    Read from ``pyproject.toml``; where ``tomllib`` is missing (Python 3.10),
    from the installed distribution instead.  When both are there they must
    agree, so a stale install fails the test.
    """
    installed = list(entry_points(group="console_scripts", name="charideals"))
    try:
        import tomllib
    except ModuleNotFoundError:
        if not installed:
            pytest.importorskip("tomllib")
        return installed[0]
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["charideals"]
    declared = EntryPoint("charideals", target, "console_scripts")
    for ep in installed:
        assert ep.value == declared.value, \
            f"installed entry point {ep.value!r} != pyproject.toml {declared.value!r}"
    return declared


def test_console_script_installed():
    # Run what the wrapper that `pip install` writes for the declared entry
    # point runs: `from module import attr; sys.exit(attr())` with the
    # arguments in sys.argv, so the return value becomes the exit code.
    ep = _console_script_entry_point()
    wrapper = ("import sys; sys.argv = ['charideals', 'g6', 'decode', '@']; "
               f"from {ep.module} import {ep.attr}; sys.exit({ep.attr}())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    runs = [([sys.executable, "-c", wrapper], env)]
    # An installed executable is checked as well, in the caller's environment.
    exe = shutil.which("charideals")
    if exe:
        runs.append(([exe, "g6", "decode", "@"], None))
    for cmd, cmd_env in runs:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=cmd_env, timeout=60)
        assert proc.returncode == 0, f"{cmd}: exit {proc.returncode}\n{proc.stderr}"
        assert proc.stdout.strip() == "n 1", f"{cmd}: {proc.stdout!r}\n{proc.stderr}"


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "charideals", "g6", "decode", "@"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "n 1"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_classify_stream_answers_each_line_as_it_arrives(threads):
    # the first envelope must come while stdin is still open
    env = dict(os.environ, GRAPHTOOL_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    with subprocess.Popen([sys.executable, "-m", "charideals", "classify", "-"],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env) as proc:
        lines = queue.Queue()

        def read():
            for line in proc.stdout:
                lines.put(line)
            lines.put(None)

        threading.Thread(target=read, daemon=True).start()
        try:
            proc.stdin.write("C^\n")
            proc.stdin.flush()
            first = lines.get(timeout=60)
            assert proc.poll() is None
            proc.stdin.write("C?\nC~\n")
            proc.stdin.close()
            rest = [lines.get(timeout=60) for _ in range(2)]
            assert proc.wait(timeout=60) == 1, proc.stderr.read()
            assert lines.get(timeout=60) is None
        finally:
            if proc.poll() is None:
                proc.kill()
    envs = [json.loads(line) for line in [first] + rest]
    assert [e["input"] for e in envs] == [canonical_form(parse_graph6("C^")), "C?",
                                          canonical_form(parse_graph6("C~"))]
    assert envs[0]["payload"]["corank"] == 2
    assert envs[1]["payload"]["line"] == 2 and "disconnected" in envs[1]["payload"]["error"]
    assert envs[2]["payload"]["memberships"]["K<=1"] is True


def _stream_env(threads):
    env = dict(os.environ, GRAPHTOOL_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return env


def test_classify_stream_ends_when_its_reader_leaves(tmp_path):
    # like `classify - | head -1`: exit 0 at once, no worker left behind
    stream = tmp_path / "stream.txt"
    stream.write_text("C^\nC~\nDhc\n" * 100)
    with stream.open() as inp, subprocess.Popen(
            [sys.executable, "-m", "charideals", "classify", "-"], stdin=inp,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_stream_env("2"), start_new_session=True) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            code = "still running after 30 s"
        err = proc.stderr.read()
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            left = False
        else:
            left = True
            os.killpg(proc.pid, signal.SIGKILL)
    assert code == 0, err
    assert err == ""
    assert not left, "a process of the stream outlived it"
    assert json.loads(first)["input"] == canonical_form(parse_graph6("C^"))


_STREAM_THEN_MODULES = """
import sys
from charideals.cli import main
code = main(["classify", "-"])
print(sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"), file=sys.stderr)
sys.exit(code)
"""


def test_classify_stream_does_not_import_multiprocessing():
    proc = subprocess.run([sys.executable, "-c", _STREAM_THEN_MODULES], input="C^\nC~\n",
                          capture_output=True, text=True, env=_stream_env("2"), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(envelopes(proc.stdout)) == 2
    assert proc.stderr == "[]\n"


def _mixed_stream(seed, lines=50):
    """A seeded classify stream of random graphs on 3..7 vertices, some of
    them disconnected, with blank lines and malformed graph6 among them."""
    rng = random.Random(seed)
    out = []
    for _ in range(lines):
        kind = rng.random()
        if kind < 0.1:
            out.append(rng.choice(["", "  "]))
        elif kind < 0.25:
            out.append(rng.choice(["xx", "C", "C~~", "!", "?", "D?"]))
        else:
            n, p = rng.randint(3, 7), rng.uniform(0.3, 0.9)
            out.append(to_graph6(Graph(n, [e for e in combinations(range(n), 2)
                                           if rng.random() < p])))
    return "".join(line + "\n" for line in out)


def test_classify_stream_is_the_same_with_and_without_workers(capsys, monkeypatch):
    stream = _mixed_stream(32)
    got = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("GRAPHTOOL_THREADS", threads)
        monkeypatch.setattr("sys.stdin", io.StringIO(stream))
        got[threads] = run(capsys, "classify", "-")
    assert got["1"] == got["2"]
    code, out, err = got["1"]
    assert (code, err) == (1, "")
    errors = [env["payload"].get("error", "") for env in envelopes(out)]
    assert len(errors) == len([line for line in stream.splitlines() if line.strip()])
    assert "" in errors  # every kind of line is in the stream
    assert any(e.startswith("disconnected graph") for e in errors)
    assert any("byte offset" in e for e in errors)
    # a fresh process with two pinned workers, bounded in time so that a
    # worker that cannot start fails the test instead of hanging it
    proc = subprocess.run([sys.executable, "-m", "charideals.cli", "classify", "-"],
                          input=stream, capture_output=True, text=True,
                          env=_stream_env("2"), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == got["1"]
