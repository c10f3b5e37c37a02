"""Byte-for-byte comparison of the command line between two checkouts.

    python3 tools/sameout.py PARENT CHANGE

Runs a fixed list of commands, `python -m charideals ARGS` with the
checkout's src/ as PYTHONPATH, in each checkout, and prints each command
whose stdout, stderr or exit code differs between the two, with the first
line that differs on each side; the exit code is 1 if any does.  Progress
goes to stderr.  The list:

* crosscheck --max-n 7 and 8, `classify -` on each seed-1 classify-stream
  input the parent's perfbench/child.py times (built by its inputs.py), on
  a stream of blow-ups whose presentations split factors t and t + 1
  and a 20-vertex random graph, and on a stream with bad lines, each with
  GRAPHTOOL_THREADS 1 and 2;
  crosscheck --max-n 11 and 0, which are refused;
* mine for phiA k=4 and phiL k=1 and 2 at n <= 7 with --emit-all, phiA
  k=4 at n <= 9, phiA k=2 at n <= 8 with --emit-all, and gammaA k=3 at
  n <= 8 and k=4 at n <= 7; and the refused phiA k=4 at n <= 11 and
  n <= 1 and phiA k=-1 at n <= 5;
* catalog list, and catalog emit of every name the parent lists (`<n>`
  as 5, `<a>,<b>,...` as 2,3), of padded, too large, invalid and unknown
  names, and of no name;
* ideal --all (JSON and --pretty) and gamma on the 16-vertex clique
  blow-up of the 4-cycle, gamma on the 20-vertex random graph, classify,
  snf, phi and g6 on small graphs,
  g6 decode of an empty and a blank argument, --help, a bad --stat and
  no command at all.

Every process runs with PYTHONDONTWRITEBYTECODE=1, so neither checkout
gets a __pycache__ for tools/pairs.py to refuse.  Standard library only.
"""

import argparse
import json
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

# the clique blow-up of the 4-cycle with classes of 4 vertices
BLOWUP = "O~~~~{NBw^`~{N{N}F~`~"
# blow-ups of the paw by (-3, 3, -4, 3), of K_1,3 by (-3, 4, 3, -3) and of
# the 4-cycle by (3, -3, 4, -4), each splitting off factors t and t + 1
SPLIT_LINES = "Lw??w{^F~~~}~{\nL?????@?^~~~~~\nM???F~~~~{^p~b~b_\n"
# tests/oracles.random_graph(random.Random(1), 20, 0.3), of co-rank 19
RANDOM20 = "Si__qobp]b_OBHOIw?I?_?ZB?gQOpOBd?"
# a blank line, bad graph6, a disconnected graph and good lines between them
BAD_LINES = "C^\n\nnot-graph6\nC~\nA_\nDhc\n@@\n"
EXTRA_NAMES = ("  PRISM ", " Family-F", "k63", "k40,40", "p100000", "c2", "k2,0", "p0",
               "diamnod", "famly-f", "family-g", "nosuchgraph")


def run(checkout, args, stdin="", threads="1"):
    """(exit code, stdout, stderr) of `python -m charideals ARGS` in checkout,
    the streams as bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout, "src")),
               PYTHONDONTWRITEBYTECODE="1", GRAPHTOOL_THREADS=threads)
    proc = subprocess.run([sys.executable, "-m", "charideals", *args], cwd=checkout,
                          input=stdin.encode(), capture_output=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def classify_streams(parent):
    """The graph6 lines of each seed-1 classify-stream input the parent's
    perfbench/child.py times, built by its perfbench/inputs.py."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(str(Path(parent, d)) for d in ("src", "perfbench")))
    code = ("import json, child, inputs\nprint(json.dumps("
            "[inputs.classify_stream(1, i)[0] for i in range(child.CLASSIFY_STREAMS)]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=parent, capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout)


def commands(parent):
    """(label, args, stdin, threads) of each command compared, labels unique."""
    cmds = []  # (args, what stdin is, stdin, threads)
    for threads in ("1", "2"):
        for n in ("7", "8"):
            cmds.append((["crosscheck", "--max-n", n], "", "", threads))
        for i, lines in enumerate(classify_streams(parent)):
            stream = "".join(f"{g6}\n" for g6 in lines)
            cmds.append((["classify", "-"], f"classify-stream {i}", stream, threads))
        cmds.append((["classify", "-"], "split blow-ups", SPLIT_LINES + RANDOM20 + "\n",
                     threads))
        cmds.append((["classify", "-"], "bad lines", BAD_LINES, threads))
    cmds += [(args, "", "", "1") for args in (
        ["mine", "--stat", "phiA", "--k", "4", "--max-n", "7", "--emit-all"],
        ["mine", "--stat", "phiL", "--k", "1", "--max-n", "7", "--emit-all"],
        ["mine", "--stat", "phiL", "--k", "2", "--max-n", "7", "--emit-all"],
        ["mine", "--stat", "phiA", "--k", "4", "--max-n", "9"],
        ["mine", "--stat", "phiA", "--k", "2", "--max-n", "8", "--emit-all"],
        ["mine", "--stat", "gammaA", "--k", "3", "--max-n", "8"],
        ["mine", "--stat", "gammaA", "--k", "4", "--max-n", "7"],
        ["catalog", "list"], ["catalog", "emit"], ["catalog", "list", "extra"],
        ["ideal", "--graph", BLOWUP, "--all"], ["ideal", "--graph", BLOWUP, "--all", "--pretty"],
        ["ideal", "--graph", "C^", "--k", "2"], ["gamma", BLOWUP], ["gamma", RANDOM20],
        ["classify", "Dhc"],
        ["snf", "Dhc"], ["snf", "--matrix", "laplacian", "Dhc"], ["phi", "Dhc"],
        ["phi", "--matrix", "laplacian", "Dhc"], ["g6", "encode", "0 1\n1 2\n2 0\n2 3"],
        ["g6", "decode", "Dhc"], ["g6", "decode", ""], ["g6", "decode", "   "], ["--help"],
        ["mine", "--stat", "bogus", "--k", "4", "--max-n", "5"],
        ["mine", "--stat", "phiA", "--k", "4", "--max-n", "11"],
        ["mine", "--stat", "phiA", "--k", "4", "--max-n", "1"],
        ["mine", "--stat", "phiA", "--k", "-1", "--max-n", "5"],
        ["crosscheck", "--max-n", "11"], ["crosscheck", "--max-n", "0"], [])]
    cmds.append((["g6", "decode", "-"], "two graphs", "C^\n\nDhc\n", "1"))
    listed = run(parent, ["catalog", "list"])[1].decode().split()
    names = [n.replace("<n>", "5").replace("<a>,<b>,...", "2,3") for n in listed]
    # dict.fromkeys: p<n> fills to p5, a Family F name too
    cmds += [(["catalog", "emit", name], "", "", "1")
             for name in dict.fromkeys(names + list(EXTRA_NAMES))]
    labelled = [(label(args, what, threads), args, stdin, threads)
                for args, what, stdin, threads in cmds]
    assert len({cmd[0] for cmd in labelled}) == len(labelled)
    return labelled


def label(args, what, threads):
    text = " ".join(["charideals"] + [a if a and not set(a) & set(" \n") else repr(a)
                                       for a in args])
    text += f" < {what}" if what else ""
    return f"GRAPHTOOL_THREADS={threads} {text}" if threads != "1" else text


def differences(parent, change):
    """Report lines for each label whose (exit code, stdout, stderr) differ
    between the dicts parent and change, label -> result: the label, then
    per part that differs its value (exit code) or first differing line
    (streams) on each side."""
    lines = []
    for name, ours in parent.items():
        theirs = change[name]
        if ours == theirs:
            continue
        lines.append(f"differs: {name}")
        for part, a, b in zip(("exit code", "stdout", "stderr"), ours, theirs):
            if a != b:
                if part != "exit code":
                    a, b = next((x, y) for x, y in zip_longest(
                        a.splitlines(True), b.splitlines(True), fillvalue=b"") if x != y)
                lines.append(f"  {part}: parent {a!r}")
                lines.append(f"  {' ' * len(part)}  change {b!r}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    args = ap.parse_args(argv)
    # absolute, since each command runs inside its checkout
    parent, change = args.parent.resolve(), args.change.resolve()
    results = {"parent": {}, "change": {}}
    cmds = commands(parent)
    for i, (name, args, stdin, threads) in enumerate(cmds, 1):
        print(f"[{i}/{len(cmds)}] {name}", file=sys.stderr)
        for side, checkout in (("parent", parent), ("change", change)):
            results[side][name] = run(checkout, args, stdin, threads)
    report = differences(results["parent"], results["change"])
    print("\n".join(report + [f"{len(cmds)} commands, "
                              f"{sum(line.startswith('differs') for line in report)} differ"]))
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
