"""Fresh processes started by run.py; each prints one JSON line last.

    child.py setup WORKLOAD SEED         time importing charideals and
                                         building the workload's inputs
    child.py chain SEED ROUNDS TRACE     run ideal-chain rounds in-process
    child.py cli ARGS...                 charideals.cli.main(ARGS) under the
                                         tracer, then print the trace

The parent puts the checkout's src/ on PYTHONPATH.  Times are
time.monotonic() readings, which every process of the machine shares, so
the parent can scale each interval by the speed measured during it.
"""

from time import monotonic

T0 = monotonic()

import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402

TRACE_MARK = "PERFBENCH-TRACE "
CLASSIFY_STREAMS = 10


def setup(workload, seed):
    import charideals.cli  # noqa: F401  (the CLI imports every layer)
    import inputs
    if workload == "ideal-chain":
        inputs.ideal_chain_items(seed)
    elif workload == "classify-stream":
        for i in range(CLASSIFY_STREAMS):
            inputs.classify_stream(seed, i)
    return {"setup_span": [T0, monotonic()]}


def _check(item, result):
    """None when the result is right, else what is wrong with it."""
    from charideals.graphs import adjacency_matrix
    from charideals.intlinalg import snf_diagonal
    kind, _, g, k, _, expected = item
    if kind == "ideal":
        if result != expected:
            return f"ideal {result.pretty()} != {expected.pretty()}"
        at0 = math.prod(snf_diagonal(adjacency_matrix(g)).factors[:k])
        if result.evaluate(0) != at0:
            return f"ideal at t=0 is {result.evaluate(0)}, Smith form gives {at0}"
        return None
    return None if result == expected else f"{result!r} != {expected!r}"


def chain(seed, rounds, trace):
    """Time each item of `rounds` rounds of ideal-chain, then check them.

    When tracing, every item runs twice, untraced and traced, in ABBA order.
    """
    import importlib
    import inputs
    gi = importlib.import_module("charideals.graph_ideals")
    items = inputs.ideal_chain_items(seed)
    tr = tracer.Tracer()
    calls = {
        "ideal": lambda it: gi.characteristic_ideal(it[2], it[3]),
        "corank": lambda it: gi.algebraic_corank(it[2]),
        "member": lambda it: gi.all_k_minors_in_ideal(it[2], it[3], it[4]),
    }
    modes = ((False, True), (True, False)) if trace else ((False,),)
    results = []  # (traced, item index, (start, end), result or error)
    for r in range(rounds):
        for idx, item in enumerate(items):
            for traced in modes[(r * len(items) + idx) % len(modes)]:
                # start each item from a fresh process's collector state: after
                # a 16-vertex item has held millions of minor keys, the next
                # full collection is far off and mid-size items run up to 2x
                # faster, so the seeded order would set their latency
                gc.collect()
                if traced:
                    tr.install()
                t = monotonic()
                try:
                    res = calls[item[0]](item)
                except Exception as exc:  # one bad item must not end the run
                    res = exc
                results.append((traced, idx, (t, monotonic()), res))
                tr.uninstall()
    out = {"untraced": {"spans": [], "errors": []}}
    if trace:
        out["traced"] = {"spans": [], "errors": []}
        out["trace"] = tr.snapshot()
    for traced, idx, span, res in results:
        item = items[idx]
        if isinstance(res, Exception):
            problem = f"{type(res).__name__}: {res}"
        else:
            problem = _check(item, res)
        part = out["traced" if traced else "untraced"]
        part["spans"].append(span)
        if problem:
            part["errors"].append(f"{item[1]}: {problem}")
    return out


def traced_cli(argv):
    tr = tracer.Tracer()
    tr.install()
    cli = sys.modules["charideals.cli"]
    rc = cli.main(argv)
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(tr.snapshot()))
    return rc


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return traced_cli(rest)
    if mode == "setup":
        out = setup(rest[0], int(rest[1]))
    else:
        out = chain(int(rest[0]), int(rest[1]), rest[2] == "1")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
