"""Command-line surface.

Every command is a pure function of its inputs.  Machine output is a JSON
envelope {command, input, payload, version} per result on stdout; the mine
and catalog commands additionally stream raw graph6 lines.  Exit codes:
0 success, 1 domain error, 2 usage error, 3 cross-check violation.
Start-up loads graphs, intlinalg, isomorphism and mining; the modules of
classify, catalog and graph_ideals load in the commands that read them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .graphs import (adjacency_matrix, format_edge_list, laplacian_matrix,
                     parse_edge_list, parse_graph6, to_graph6)
from .intlinalg import ConsistencyError, _unit_count, snf_diagonal
from .isomorphism import canonical_form
from .mining import STATISTICS, MiningTask, mine


def _envelope(command, input_echo, payload):
    return json.dumps({
        "command": command,
        "input": input_echo,
        "payload": payload,
        "version": __version__,
    })


def _emit(command, input_echo, payload):
    print(_envelope(command, input_echo, payload))


def _load_graph(arg, edge_list=False):
    if arg == "-":
        text = sys.stdin.read()
    elif edge_list:
        with open(arg, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = arg
    if edge_list:
        return parse_edge_list(text)
    return parse_graph6(text.strip())


def _matrix_of(g, which):
    return laplacian_matrix(g) if which == "laplacian" else adjacency_matrix(g)


def _cmd_snf(args):
    g = _load_graph(args.graph, args.edge_list)
    echo = canonical_form(g)
    mat = _matrix_of(g, args.matrix)
    inv = snf_diagonal(mat)
    _emit("snf", echo, {
        "matrix": args.matrix,
        "entries": mat,
        "invariant_factors": list(inv.factors),
        "rank": inv.rank,
        "phi": inv.ones,
    })
    return 0


def _cmd_phi(args):
    g = _load_graph(args.graph, args.edge_list)
    echo = canonical_form(g)
    _emit("phi", echo, {"matrix": args.matrix, "phi": _unit_count(_matrix_of(g, args.matrix))})
    return 0


def _cmd_gamma(args):
    from .graph_ideals import algebraic_corank
    g = _load_graph(args.graph, args.edge_list)
    _emit("gamma", canonical_form(g), {"gamma": algebraic_corank(g)})
    return 0


def _cmd_ideal(args):
    if (args.k is not None) == args.all:
        print("error: provide either --k or --all", file=sys.stderr)
        return 2
    from .graph_ideals import char_ideal_profile, characteristic_ideal
    g = _load_graph(args.graph, args.edge_list)
    # echoed before the work, so a graph past graph6's 62 vertices fails at once
    echo = None if args.pretty else canonical_form(g)
    if args.all:
        profile = char_ideal_profile(g)
        entries = list(enumerate(profile.ideals, start=1))
        gamma = profile.gamma
    else:
        entries = [(args.k, characteristic_ideal(g, args.k))]
        gamma = None
    if args.pretty:
        for k, ideal in entries:
            print(f"k={k}: {ideal.pretty()}")
        if gamma is not None:
            print(f"gamma = {gamma}")
        return 0
    payload = {
        "ideals": [{
            "k": k,
            "ideal": ideal.to_json_dict(),
            "pretty": ideal.pretty(),
            "trivial": ideal.is_trivial(),
        } for k, ideal in entries],
    }
    if gamma is not None:
        payload["gamma"] = gamma
    _emit("ideal", echo, payload)
    return 0


def _classify_line(numbered):
    """(False, envelope) for a good stdin line, (True, envelope) with an
    error payload and the stdin line number for a bad one.  A worker sends
    the parent this one string instead of the report."""
    from .classify import _check_line  # already loaded by _cmd_classify
    lineno, line = numbered
    g6, rep, error = _check_line(line.strip())
    if error is None:
        return False, _envelope("classify", rep["graph6"], rep)
    return True, _envelope("classify", g6, {"error": error, "line": lineno})


def _emit_stream(results):
    """Print each envelope, in input order, flushed as it arrives.  True if
    any line was bad."""
    failed = False
    for bad, envelope in results:
        failed |= bad
        print(envelope)
        sys.stdout.flush()
    return failed


def _cmd_classify(args):
    # loaded here, before imap_workers forks, so no worker compiles it again
    from .classify import classify, imap_workers
    if args.graph != "-":
        rep = classify(parse_graph6(args.graph)).to_json_dict()
        _emit("classify", rep["graph6"], rep)
        return 0
    numbered = ((no, ln) for no, ln in enumerate(sys.stdin, start=1) if ln.strip())
    failed = _emit_stream(imap_workers(_classify_line, numbered))
    return 1 if failed else 0


def _cmd_mine(args):
    task = MiningTask(max_vertices=args.max_n, statistic=args.stat, k=args.k)
    result = mine(task)
    listed = result.forbidden() if args.emit_all else result.minimal
    for g6 in listed:
        print(g6)
    _emit("mine", None, {
        "max_vertices": task.max_vertices,
        "statistic": task.statistic,
        "k": task.k,
        "minimal": list(result.minimal),
        "counts_by_size": {str(k): v for k, v in sorted(result.counts_by_size.items())},
        "forbidden_total": result.forbidden_total,
    })
    return 0


def _cmd_g6(args):
    text = sys.stdin.read() if args.value == "-" else args.value
    if args.direction == "decode":
        for line in text.splitlines() if args.value == "-" else [text]:
            line = line.strip()
            if not line:
                continue
            print(format_edge_list(parse_graph6(line)))
    else:
        print(to_graph6(parse_edge_list(text)))
    return 0


def _cmd_catalog(args):
    from .catalog import UnknownGraphError, names, resolve
    if args.action == "list":
        for name in names():
            print(name)
        return 0
    try:
        graphs = resolve(args.name)
    except UnknownGraphError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    for g in graphs:
        print(to_graph6(g))
    return 0


def _cmd_crosscheck(args):
    from .classify import cross_check
    result = cross_check(args.max_n)
    _emit("crosscheck", None, result.to_json_dict())
    return 3 if result.violations else 0


def _add_graph_arg(sub):
    sub.add_argument("graph", help="graph6 string, or - for stdin")
    sub.add_argument("--edge-list", action="store_true",
                     help="treat the graph argument as an edge-list file path")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="charideals",
        description="Exact Smith groups, critical groups, characteristic ideals "
                    "and graph-family classification.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("snf", help="Smith normal form diagonal of a graph matrix")
    _add_graph_arg(p)
    p.add_argument("--matrix", choices=("adjacency", "laplacian"), default="adjacency")
    p.set_defaults(fn=_cmd_snf)

    p = subs.add_parser("phi", help="number of invariant factors equal to 1")
    _add_graph_arg(p)
    p.add_argument("--matrix", choices=("adjacency", "laplacian"), default="adjacency")
    p.set_defaults(fn=_cmd_phi)

    p = subs.add_parser("ideal", help="characteristic ideals (Groebner bases)")
    p.add_argument("--graph", required=True, help="graph6 string, or - for stdin")
    p.add_argument("--edge-list", action="store_true")
    p.add_argument("--k", type=int, help="single ideal index")
    p.add_argument("--all", action="store_true", help="the whole chain plus gamma")
    p.add_argument("--pretty", action="store_true", help="human-readable output")
    p.set_defaults(fn=_cmd_ideal)

    p = subs.add_parser("gamma", help="algebraic co-rank")
    _add_graph_arg(p)
    p.set_defaults(fn=_cmd_gamma)

    p = subs.add_parser("classify", help="family memberships with certificates")
    p.add_argument("graph", help="graph6 string, or - for a line-delimited stream")
    p.set_defaults(fn=_cmd_classify)

    p = subs.add_parser("mine", help="minimal forbidden graphs for a statistic")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--stat", choices=STATISTICS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit-all", action="store_true",
                   help="also list non-minimal forbidden graphs")
    p.set_defaults(fn=_cmd_mine)

    p = subs.add_parser("g6", help="graph6 encode/decode")
    p.add_argument("direction", choices=("encode", "decode"))
    p.add_argument("value", help="graph6 string / edge-list text, or - for stdin")
    p.set_defaults(fn=_cmd_g6)

    p = subs.add_parser("catalog", help="named graph catalog")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?", help="catalog name (for emit)")
    p.set_defaults(fn=_cmd_catalog)

    p = subs.add_parser("crosscheck", help="verify the characterisation theorems "
                                           "over all small connected graphs")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(fn=_cmd_crosscheck)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "emit" and not args.name:
        parser.error("catalog emit requires a name")
    if args.command == "catalog" and args.action == "list" and args.name is not None:
        parser.error("catalog list takes no name")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader took what it wanted; the flush at exit goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, ConsistencyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
