"""Paired benchmark runs of two checkouts: the numbers a speed-up is judged by.

    python3 tools/pairs.py PARENT CHANGE --workload mine --pairs 10 --seed 101

Pair i runs `perfbench/run.py --workload W --seed S+i --seconds 20 --trace 0`
in each checkout, the parent first in even pairs and the change first in
odd ones, so neither side always runs on a machine warmed by the other.
Each run's metrics go to stderr as it finishes.  Then, per end-to-end
metric, stdout gets each side's median and quartiles, the change's median
relative to the parent's, how many pairs the change won and lost (ties
count for neither) and whether it meets the bar for a claimed gain: wins in
at least nine tenths of the pairs, and a median better than the parent's by
more than the parent's interquartile range.  Beside it, per metric, whether
the change's median is worse than the parent's by more than the metric's
bound, the relative worsening a change that claims no gain may show.
Last, each side's failed and attempted items summed over its runs: a
change whose share of failed items grows is rejected whatever its speed.
It refuses to start while either checkout's src/ or perfbench/ holds a
__pycache__ directory: cached bytecode spares that side's processes the
compiling, which moves setup_s by a third, and every set-up process
imports from both.  Every run has PYTHONDONTWRITEBYTECODE=1 in its
environment, so no run leaves such a directory for the next to time.
Directions and bounds come from BENCHMARK.json beside this directory.
Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run(checkout, workload, seed):
    """The metrics, name -> value, of one untraced benchmark run in checkout,
    and its failed and attempted item counts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "20", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode:
        raise SystemExit(f"error: run in {checkout} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["failed"]:
        print(f"  {checkout}: {result['failed']} of {result['attempted']} items failed",
              file=sys.stderr)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, result["failed"], result["attempted"]


def cached_bytecode(checkout):
    """The __pycache__ directories under checkout's src/ and perfbench/, in
    sorted order."""
    return sorted(cache for folder in ("src", "perfbench")
                  for cache in (Path(checkout) / folder).rglob("__pycache__"))


def quartiles(values):
    """(first quartile, median, third quartile), by the inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(pairs, better, bound):
    """One row per metric of the (parent, change) metric dicts in pairs;
    better maps a metric to "higher" or "lower", and bound to the share of
    the parent's median by which the change's median may be worse."""
    rows = []
    for name in pairs[0][0]:
        sign = 1 if better[name] == "higher" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        gains = [sign * (c - p) for p, c in zip(parent, change)]
        pq, cq = quartiles(parent), quartiles(change)
        wins = sum(d > 0 for d in gains)
        rows.append({
            "metric": name, "parent": pq, "change": cq,
            "rel": cq[1] / pq[1] - 1 if pq[1] else None,
            "wins": wins, "losses": sum(d < 0 for d in gains), "pairs": len(pairs),
            "claim": wins >= 0.9 * len(pairs) and sign * (cq[1] - pq[1]) > pq[2] - pq[0],
            "bound": bound[name], "worse": sign * (pq[1] - cq[1]) > bound[name] * abs(pq[1]),
        })
    return rows


def format_rows(rows):
    lines = [f"{'metric':<14}{'parent median [q1, q3]':>32}{'change median [q1, q3]':>32}"
             f"{'change':>9}{'won':>7}{'lost':>6}  claim    bound"]
    for r in rows:
        sides = "".join(f"{f'{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]':>32}"
                        for q in (r["parent"], r["change"]))
        rel = "-" if r["rel"] is None else f"{100 * r['rel']:+.1f}%"
        lines.append(f"{r['metric']:<14}{sides}{rel:>9}{r['wins']:>4}/{r['pairs']:<2}"
                     f"{r['losses']:>6}  {'met' if r['claim'] else 'not met':<9}"
                     f"{'beyond' if r['worse'] else 'within'} {100 * r['bound']:.0f}%")
    return lines


def format_failures(totals):
    """One line of each side's (failed, attempted) totals, side -> totals."""
    return "failed items: " + ", ".join(
        f"{side} {failed} of {attempted}"
        + (f" ({100 * failed / attempted:.2f}%)" if attempted else "")
        for side, (failed, attempted) in totals.items())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="pair i runs seed S + i")
    args = ap.parse_args(argv)
    cached = cached_bytecode(args.parent) + cached_bytecode(args.change)
    if cached:
        raise SystemExit("error: cached bytecode would lower setup_s on one side; remove "
                         + ", ".join(map(str, cached)) + " or use fresh checkouts")
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bound = {m["name"]: m["bound"] for m in metrics}
    pairs = []
    totals = {"parent": [0, 0], "change": [0, 0]}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            got[side], failed, attempted = run(getattr(args, side), args.workload, seed)
            totals[side][0] += failed
            totals[side][1] += attempted
            print(f"pair {i} seed {seed} {side}: " + json.dumps(got[side]), file=sys.stderr)
        pairs.append((got["parent"], got["change"]))
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}")
    print("\n".join(format_rows(summary(pairs, better, bound))))
    print(format_failures(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
