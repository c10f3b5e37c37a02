"""charideals benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ideal-chain --seed 1 --seconds 20 --trace 0

Run from the root of a checkout holding src/charideals.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones (every unit then runs twice, untraced and traced, to measure the cost
of tracing).  --seconds sets how many units of work run.  --workload all
runs every workload untraced and prints each metric with its unit.
Workloads, metrics and the layer each metric should move are described in
interactions.json next to this file.

Every time is stated at a fixed reference speed of the machine (speed.py):
the work runs pinned to its CPUs, a sampler on each of them times a fixed
kernel throughout, and each measured interval is scaled by the speed seen
during it.  The detail line also gives the unscaled wall-clock figures.
"""

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = str(HERE / "child.py")
WORKLOADS = ("ideal-chain", "mine", "classify-stream")
SETUP_PROCESSES = 10
CPUS = sorted(os.sched_getaffinity(0))
WORKERS = min(2, len(CPUS))
MINE_ARGS = ["mine", "--stat", "phiA", "--k", "4", "--max-n", "7"]
# connected graphs on 1..7 vertices (OEIS A001349)
CONNECTED = (1, 1, 2, 6, 21, 112, 853)
PERCENTILES = (50, 75, 90, 95, 99, 99.9, 99.99)
NESTING = (
    ("S<=1", "S<=2"), ("S<=2", "S<=3"), ("S<=3", "S<=4"),
    ("C<=1", "C<=2"), ("C<=2", "C<=3"), ("K<=1", "K<=2"), ("K<=2", "K<=3"),
    ("S<=1", "C<=1"), ("S<=2", "C<=2"), ("S<=3", "C<=3"),
    ("K<=1", "C<=1"), ("K<=2", "C<=2"), ("K<=3", "C<=3"),
)
PHI_SAMPLE = 2  # graphs per classify stream rechecked by minor gcds
# seconds of one unit (a round, an invocation, a stream) at the reference
# speed of speed.py, for src commit d371fc2; on a slow spell of the machine
# a unit takes up to 1.6x as long on the wall clock
UNIT_SECONDS = {"ideal-chain": 21.0, "mine": 2.5, "classify-stream": 2.4}


class Child:
    """One finished child process, run on `cpus`: its stdout lines with
    their arrival times, start and end (time.monotonic()), exit code and
    peak RSS (MB)."""

    def __init__(self, cmd, env, cpus, stdin_text=None):
        self.start = monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE if stdin_text is not None else None,
                                stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                                preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        if stdin_text is not None:
            proc.stdin.write(stdin_text)
            proc.stdin.close()
        self.lines = []
        for line in proc.stdout:
            self.lines.append((monotonic(), line.rstrip("\n")))
        proc.stdout.close()
        # wait4 gives this child's own peak RSS, not the largest child so far
        _, status, usage = os.wait4(proc.pid, 0)
        self.end = monotonic()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024

    def last_json(self):
        return json.loads(self.lines[-1][1])


def child_env(workers=1):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["GRAPHTOOL_THREADS"] = str(workers)
    return env


def units_for(workload, seconds):
    """Whole units of work that take about `seconds` at the reference speed.

    The amount of work follows from --seconds alone, never from a clock, so
    two commits measured with the same --seconds run the same items and
    their latency percentiles cover the same samples.
    """
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def tail(latencies):
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it, by nearest rank."""
    xs = sorted(latencies)
    best = None
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * len(xs))
        if len(xs) - rank >= 10:
            best = (p, xs[rank - 1])
    return best


class Outcome:
    """What one pass over a workload produced.  Spans are (start, end)
    time.monotonic() pairs, scaled to the reference speed when the pass is
    over."""

    def __init__(self, cpus):
        self.cpus = cpus
        self.spans = []      # one per item, from handing it over to its result
        self.items = 0
        self.failed = 0
        self.busy = []       # the spans of the units of work
        self.rss_mb = 0.0
        self.units = 0
        self.errors = []
        self.trace = {}

    def fail(self, count, why):
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(why)


# -- workloads ---------------------------------------------------------------
#
# Each runner returns {False: untraced Outcome} or, when tracing, also
# {True: traced Outcome}.  A traced run makes every unit twice, untraced and
# traced, in ABBA order, so a slow spell of a shared machine hits both.

def _modes(unit, trace):
    if not trace:
        return (False,)
    return (False, True) if unit % 2 == 0 else (True, False)


def run_chain(seed, units, trace):
    cpus = CPUS[:1]
    child = Child([sys.executable, CHILD, "chain", str(seed), str(units), str(int(trace))],
                  child_env(), cpus)
    outs = {m: Outcome(cpus) for m in _modes(0, trace)}
    for out in outs.values():
        out.rss_mb = child.rss_mb
        out.units = units
    if child.code != 0:
        for out in outs.values():
            out.fail(1, f"chain process exited {child.code}")
            out.items = 1
        return outs
    res = child.last_json()
    for traced, out in outs.items():
        part = res["traced" if traced else "untraced"]
        out.spans = out.busy = [tuple(span) for span in part["spans"]]
        out.items = len(out.spans)
        for err in part["errors"]:
            out.fail(1, err)
    if trace:
        outs[True].trace = res["trace"]
    return outs


def _cli_cmd(traced):
    if traced:
        return [sys.executable, CHILD, "cli"]
    return [sys.executable, "-m", "charideals.cli"]


def _split_trace(child, out):
    import child as child_mod
    import tracer
    lines = []
    for t, line in child.lines:
        if line.startswith(child_mod.TRACE_MARK):
            tracer.merge(out.trace, json.loads(line[len(child_mod.TRACE_MARK):]))
        else:
            lines.append((t, line))
    return lines


def _g6_edges(text):
    """Edge set of a small graph6 string (n <= 62), decoded here rather than
    by the code under test."""
    n = ord(text[0]) - 63
    bits = [(ord(c) - 63) >> s & 1 for c in text[1:] for s in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, {p for p, b in zip(pairs, bits) if b}


def _brute_canon(text):
    """Least upper-triangle bit string over all vertex orders."""
    n, edges = _g6_edges(text)
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(tuple(sorted((perm[i], perm[j]))) in edges
                    for j in range(1, n) for i in range(j))
        if best is None or key < best:
            best = key
    return best


def run_mine(seed, units, trace):
    from charideals.catalog import FORBIDDEN_S4
    from charideals.mining import CONNECTED_COUNTS, enumerate_connected
    per_run = sum(CONNECTED[1:])  # mine examines every connected graph on 2..7 vertices
    want = sorted(_brute_canon(s) for s in FORBIDDEN_S4)
    verified = set()  # minimal lists already found isomorphic to the catalog's
    cpus = CPUS[:1]
    outs = {m: Outcome(cpus) for m in _modes(0, trace)}
    for i in range(units):
        for traced in _modes(i, trace):
            out = outs[traced]
            child = Child(_cli_cmd(traced) + MINE_ARGS, child_env(), cpus)
            out.units += 1
            out.rss_mb = max(out.rss_mb, child.rss_mb)
            out.busy.append((child.start, child.end))
            out.items += per_run
            lines = _split_trace(child, out)
            try:
                if child.code != 0:
                    raise ValueError(f"exit code {child.code}")
                t_done, last = lines[-1]
                minimal = tuple(json.loads(last)["payload"]["minimal"])
                if [line for _, line in lines[:-1]] != list(minimal):
                    raise ValueError("listed graphs differ from the summary's")
                if minimal not in verified:
                    if sorted(_brute_canon(s) for s in minimal) != want:
                        raise ValueError("minimal graphs are not catalog.FORBIDDEN_S4 "
                                         "up to isomorphism")
                    verified.add(minimal)
            except (ValueError, KeyError, IndexError) as exc:
                out.fail(per_run, f"mine: {exc}")
                t_done = child.end
            out.spans.extend([(child.start, t_done)] * per_run)
    # mine's output holds no per-size counts: check the enumeration it ran
    counts = tuple(sum(1 for _ in enumerate_connected(n)) for n in range(1, len(CONNECTED) + 1))
    if counts != CONNECTED or counts != CONNECTED_COUNTS[:len(CONNECTED)]:
        for out in outs.values():
            out.fail(out.items - out.failed, f"connected graph counts {counts} != {CONNECTED}")
    return outs


def _classify_checks(lines, envelopes, copies, sample):
    """Problems with one classify stream, as (item index, why)."""
    from charideals.graphs import adjacency_matrix, parse_graph6
    from charideals.intlinalg import delta_sequence, invariant_factors_from_deltas
    bad = []
    reports = []
    for i, line in enumerate(lines):
        try:
            env = json.loads(envelopes[i])
            rep = env["payload"]
            if env["command"] != "classify" or env["input"] != rep["graph6"]:
                raise ValueError("malformed envelope")
            m = rep["memberships"]
            for small, big in NESTING:
                if m.get(small) and big in m and not m[big]:
                    raise ValueError(f"in {small} but not {big}")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            bad.append((i, f"{line}: {exc}"))
            rep = None
        reports.append(rep)
    keys = ("graph6", "phi_adjacency", "phi_laplacian", "corank", "memberships")
    for copy, orig in copies:
        a, b = reports[copy], reports[orig]
        if a and b and any(a[k] != b[k] for k in keys):
            bad.append((copy, f"{lines[copy]}: report differs from its relabelled original"))
    for i in sample:
        if reports[i]:
            g = adjacency_matrix(parse_graph6(lines[i]))
            phi = invariant_factors_from_deltas(delta_sequence(g)).ones
            if phi != reports[i]["phi_adjacency"]:
                bad.append((i, f"{lines[i]}: phi_adjacency {reports[i]['phi_adjacency']} != {phi}"))
    return bad


def run_classify(seed, units, trace, workers=WORKERS):
    import random

    import child as child_mod
    import inputs
    streams = [inputs.classify_stream(seed, i) for i in range(child_mod.CLASSIFY_STREAMS)]
    cpus = CPUS[:workers]
    outs = {m: Outcome(cpus) for m in _modes(0, trace)}
    pending = []
    for idx in range(units):
        lines, copies = streams[idx % len(streams)]
        for traced in _modes(idx, trace):
            out = outs[traced]
            child = Child(_cli_cmd(traced) + ["classify", "-"], child_env(workers), cpus,
                          "".join(line + "\n" for line in lines))
            out.units += 1
            out.rss_mb = max(out.rss_mb, child.rss_mb)
            out.busy.append((child.start, child.end))
            out.items += len(lines)
            got = _split_trace(child, out)
            arrivals = [t for t, _ in got] + [child.end] * (len(lines) - len(got))
            out.spans.extend((child.start, t) for t in arrivals[:len(lines)])
            if child.code != 0 or len(got) != len(lines):
                out.fail(len(lines), f"classify stream {idx}: exit {child.code}, "
                                     f"{len(got)} envelopes for {len(lines)} graphs")
            else:
                pending.append((out, idx, lines, [line for _, line in got], copies))
    # checks run after the timed streams
    for out, idx, lines, envelopes, copies in pending:
        sample = random.Random(f"phi-sample:{seed}:{idx}").sample(range(len(lines)), PHI_SAMPLE)
        bad = {}
        for i, why in _classify_checks(lines, envelopes, copies, sample):
            bad.setdefault(i, why)
        for why in bad.values():
            out.fail(1, why)
    return outs


RUNNERS = {"ideal-chain": run_chain, "mine": run_mine, "classify-stream": run_classify}


# -- metrics -----------------------------------------------------------------

def measure_setup(workload, seed, count, spans):
    """Append `count` set-up spans, each from a fresh process; return the
    largest RSS among those processes."""
    rss = 0.0
    for _ in range(count):
        child = Child([sys.executable, CHILD, "setup", workload, str(seed)], child_env(),
                      CPUS[:1])
        if child.code != 0:
            raise RuntimeError(f"setup process exited {child.code}")
        spans.append(tuple(child.last_json()["setup_span"]))
        rss = max(rss, child.rss_mb)
    return rss


def end_to_end(out, setup_spans, rss, seconds):
    """The end-to-end metrics, with `seconds(span, cpus)` giving each span's
    length, and the tail percentile."""
    latencies = [seconds(span, out.cpus) for span in out.spans]
    pct, tail_s = tail(latencies)
    return {
        "items_per_s": (out.items / sum(seconds(span, out.cpus) for span in out.busy), "1/s"),
        "item_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "item_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (max(out.rss_mb, rss), "MB"),
        "setup_s": (statistics.median(seconds(span, CPUS[:1]) for span in setup_spans), "s"),
    }, pct


def per_layer(untraced, traced, seconds):
    import tracer
    metrics = tracer.layer_metrics(traced.trace.get("records", {}))
    untraced_s = sum(seconds(span, untraced.cpus) for span in untraced.busy)
    traced_s = sum(seconds(span, traced.cpus) for span in traced.busy)
    # the tracer's self times are unscaled, so they are set against the wall
    traced_wall = sum(b - a for a, b in traced.busy)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    metrics["trace.unwrapped_frac"] = (1 - traced.trace.get("self_s", 0.0) / traced_wall, "ratio")
    detail = {"untraced_s": untraced_s, "traced_s": traced_s, "traced_wall_s": traced_wall,
              "units": traced.units}
    return metrics, detail


def run_workload(workload, seed, seconds, trace):
    runner = RUNNERS[workload]
    units = units_for(workload, seconds)
    # one worker when tracing, so the tracer sees every call and the walls compare
    workers = WORKERS if workload == "classify-stream" and not trace else 1
    setup_spans = []
    with Speed(CPUS[:workers]) as speed:
        if trace:
            kwargs = {"workers": 1} if workload == "classify-stream" else {}
            outs = runner(seed, units, True, **kwargs)
        else:
            # set-up is sampled before and after the timed work, so one slow
            # moment of a shared machine does not set the median
            rss = measure_setup(workload, seed, SETUP_PROCESSES // 2, setup_spans)
            outs = runner(seed, units, False)
            rss = max(rss, measure_setup(workload, seed, SETUP_PROCESSES - SETUP_PROCESSES // 2,
                                         setup_spans))
        speed.stop()

    def scaled(span, cpus):
        return speed.scale(span[0], span[1], cpus)

    def wall(span, cpus):
        return span[1] - span[0]

    passes = list(outs.values())
    errors = [e for p in passes for e in p.errors][:20]
    if not all(p.spans for p in passes):
        raise SystemExit("error: no item was measured: " + "; ".join(errors))
    if trace:
        metrics, detail = per_layer(outs[False], outs[True], scaled)
    else:
        out = outs[False]
        metrics, pct = end_to_end(out, setup_spans, rss, scaled)
        raw, _ = end_to_end(out, setup_spans, rss, wall)
        detail = {"items": out.items, "units": out.units, "tail_percentile": pct,
                  "latency_samples": len(out.spans), "fail_frac": out.failed / out.items,
                  "wall": {k: v for k, (v, _) in raw.items() if k != "peak_rss_mb"},
                  "speed": {"mean": statistics.fmean(speed.factor(a, b, out.cpus)
                                                     for a, b in out.busy),
                            "samples": sum(map(len, speed.samples.values()))}}
    failed = sum(p.failed for p in passes)
    detail.update(workload=workload, seed=seed, trace=int(trace), nproc=os.cpu_count(),
                  workers=workers, python=platform.python_version(), errors=errors)
    return {
        "correct": failed == 0,
        "attempted": sum(p.items for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20,
                    help="sets how many units of work run: about this many seconds' worth "
                         "at the reference speed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "charideals" / "__init__.py").is_file():
        print(f"error: no charideals sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        for workload in WORKLOADS:
            result, detail = run_workload(workload, args.seed, args.seconds, False)
            print(f"{workload}: failed {result['failed']} of {result['attempted']}, "
                  f"fail_frac {detail['fail_frac']}")
            for name, m in result["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
        return 0
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
