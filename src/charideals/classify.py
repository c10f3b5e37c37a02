"""Family membership for connected graphs, cross-checked between routes.

Four families are decided:

* S<=k: at most k unit invariant factors of the adjacency matrix (k = 1..4),
* C<=k: at most k trivial characteristic ideals (k = 1..3),
* K<=k: for regular graphs, at most k unit invariant factors of the
  Laplacian (k = 1..3).

The directly computed count decides each membership, and every other route
must agree with it; any disagreement raises, naming the graph.  S<=k and
C<=k for k <= 3 have two more routes, a forbidden induced subgraph list and
structural recognition.  K<=k has one, the closed list of regular members.
S<=4 has no completeness theorem, so the count is only screened against the
known 43 minimal forbidden graphs: a witness in a counted member is a
disagreement, and the certificate marks the route partial.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .catalog import _COLLECTIONS, lookup
from .graphs import adjacency_matrix, parse_graph6, true_twin_quotient, twin_classes
from .graph_ideals import algebraic_corank
from .intlinalg import ConsistencyError, _integers, snf_diagonal
from .isomorphism import canonical_form, find_induced, is_isomorphic
from .mining import STATISTICS, _check_counted, _walk


class RouteDisagreement(ConsistencyError):
    def __init__(self, graph6, family, routes):
        detail = ", ".join(f"{name}={val}" for name, val in routes.items())
        super().__init__(f"routes disagree on {family} for {graph6}: {detail}")
        self.graph6 = graph6
        self.family = family
        self.routes = routes


# every pattern and fixed graph the routes below match against
_PATTERNS = {name: lookup(name) for name in
             ("p2", "p3", "p4", "paw", "k4", "k5", "k5-e", "c4", "c5", "s4", "prism")}


def _named(*names):
    return tuple((name, _PATTERNS[name]) for name in names)


# (name, pattern) tuples in search order
_S_FORBIDDEN = {1: _named("p2"), 2: _named("p4", "paw", "k4"), 3: _named("p4", "paw", "k5")}
_C_FORBIDDEN = {1: _named("p3"), 2: _named("p4", "paw", "k5-e"), 3: _COLLECTIONS["family-f"]}
_S4_FORBIDDEN = _COLLECTIONS["forbidden-s4"]


def _first_hit(g, patterns):
    """(name, embedding) for the first pattern that g holds as an induced
    subgraph, or None."""
    for name, pat in patterns:
        emb = find_induced(g, pat)
        if emb is not None:
            return name, emb
    return None


def complete_multipartite_parts(g):
    """Part sizes (descending) if g is complete multipartite, else None: the
    parts are the classes of false twins, each adjacent to all outside it."""
    classes = twin_classes(g.adj, 0)
    full = (1 << g.n) - 1
    if any(g.adj[c[0]] != full ^ sum(1 << v for v in c) for c in classes):
        return None
    return tuple(sorted(map(len, classes), reverse=True))


def _clique_blowup_form(g):
    """Recognise clique blow-ups of induced subgraphs of the 4-cycle or the
    4-vertex star by quotienting true twins."""
    q, sizes = true_twin_quotient(g)
    if q.n > 4:
        return None
    if find_induced(_PATTERNS["c4"], q) is not None:
        return {"form": "clique-blowup-of-4-cycle", "class_sizes": list(sizes)}
    if find_induced(_PATTERNS["s4"], q) is not None:
        return {"form": "clique-blowup-of-4-star", "class_sizes": list(sizes)}
    return None


def _structural_s(g, k):
    if k == 1:
        return {"form": "K1"} if g.n == 1 else None
    parts = complete_multipartite_parts(g)
    if parts is not None and len(parts) <= k + 1:
        return {"form": "complete-multipartite", "parts": list(parts)}
    return None


def _structural_c(g, k):
    parts = complete_multipartite_parts(g)
    if parts is not None and all(p == 1 for p in parts):
        return {"form": "complete", "n": g.n}
    if k == 1:
        return None
    if parts is not None and len(parts) <= (3 if k == 2 else 4):
        return {"form": "complete-multipartite", "parts": list(parts)}
    if k == 2:
        return None
    if g.n <= 5 and find_induced(_PATTERNS["c5"], g) is not None:
        return {"form": "induced-in-5-cycle"}
    if g.n <= 6 and find_induced(_PATTERNS["prism"], g) is not None:
        return {"form": "induced-in-prism"}
    return _clique_blowup_form(g)


def _check_connected(g):
    if g.n == 0:
        raise ValueError("the empty graph cannot be classified")
    if not g.is_connected():
        raise ValueError("disconnected graph: the families are defined for connected graphs")


def _decide(g, family, member, routes, cert, structural=None, hit=None):
    """(family, member, certificate) for a membership the count decided.
    `routes` maps every other route to its answer: True or False, or the
    name of a forbidden witness, which answers False.  Any answer that
    differs from the count raises.  The certificate is `cert` (the counts)
    plus the structural form of a member or the forbidden hit of a
    non-member."""
    if any((answer is True) != member for answer in routes.values()):
        raise RouteDisagreement(canonical_form(g), family, {"count": member, **routes})
    if member:
        cert.update(structural or {})
    elif hit is not None:
        cert["forbidden"] = hit[0]
        cert["embedding"] = list(hit[1])
    return family, member, cert


def is_S_leq(g, k):
    """Membership in the family with at most k unit adjacency invariant factors."""
    if k not in (1, 2, 3):
        raise ValueError("structural characterisations exist for k in {1, 2, 3}")
    _check_connected(g)
    return _leq(g, "S", k, STATISTICS["phiA"](g))[1:]


def is_C_leq(g, k):
    """Membership in the family with at most k trivial characteristic ideals."""
    if k not in (1, 2, 3):
        raise ValueError("characterisations exist for k in {1, 2, 3}")
    _check_connected(g)
    return _leq(g, "C", k, algebraic_corank(g))[1:]


def _k_regular_structural(g, k):
    parts = complete_multipartite_parts(g)
    if parts is not None:
        if all(p == 1 for p in parts):
            return {"form": "complete", "n": g.n}
        if k >= 2 and len(parts) in (2, 3) and len(set(parts)) == 1:
            return {"form": "balanced-complete-multipartite", "parts": list(parts)}
        if k >= 3 and len(parts) == 4 and len(set(parts)) == 1:
            return {"form": "balanced-complete-multipartite", "parts": list(parts)}
    if k >= 3:
        if is_isomorphic(g, _PATTERNS["c5"]):
            return {"form": "5-cycle"}
        if is_isomorphic(g, _PATTERNS["prism"]):
            return {"form": "triangular-prism"}
        q, sizes = true_twin_quotient(g)
        if q.n == 4 and len(set(sizes)) == 1 and is_isomorphic(q, _PATTERNS["c4"]):
            return {"form": "balanced-clique-blowup-of-4-cycle", "class_sizes": list(sizes)}
    return None


# family -> the certificate key of its count, its forbidden lists by k
# (None: no list) and its structural recogniser
_FAMILIES = {
    "S": ("phi_adjacency", _S_FORBIDDEN, _structural_s),
    "C": ("corank", _C_FORBIDDEN, _structural_c),
    "K": ("phi_laplacian", None, _k_regular_structural),
}


def _leq(g, family, k, count):
    """_decide for membership of g in family<=k, given its count."""
    key, forbidden, recognise = _FAMILIES[family]
    hit = _first_hit(g, forbidden[k]) if forbidden else None
    routes = {"forbidden-free": hit is None} if forbidden else {}
    structural = recognise(g, k)
    routes["structural"] = structural is not None
    return _decide(g, f"{family}<={k}", count <= k, routes, {key: count}, structural, hit)


def is_K_leq_regular(g, k):
    """Membership, for regular g, in the family with at most k unit Laplacian
    invariant factors; matched against the closed list and cross-checked
    against the directly computed count."""
    if k not in (1, 2, 3):
        raise ValueError("the closed lists cover k in {1, 2, 3}")
    _check_connected(g)
    phi_l = STATISTICS["phiL"](g)  # None off regular graphs
    if phi_l is None:
        raise ValueError(f"graph is not regular: degrees {sorted(set(g.degrees()))}")
    return _leq(g, "K", k, phi_l)[1:]


def _s4_partial(g, snf):
    # no completeness theorem: a witness rules a graph out, its absence
    # proves nothing
    hit = _first_hit(g, _S4_FORBIDDEN)
    return _decide(g, "S<=4", snf.ones <= 4, {"forbidden-witness": hit[0]} if hit else {},
                   {"phi_adjacency": snf.ones, "route": "partial",
                    "invariant_factors": list(snf.factors)}, hit=hit)


class ClassificationReport(namedtuple("ClassificationReport", (
        "graph6", "phi_adjacency", "phi_laplacian", "corank", "memberships", "certificates"))):
    """phi_laplacian is None on a graph that is not regular."""
    __slots__ = ()

    def to_json_dict(self):
        return {**self._asdict(), "memberships": dict(self.memberships),
                "certificates": dict(self.certificates)}


def classify(g):
    """Full per-graph record: counts, memberships and certificates, with every
    available route executed and cross-checked."""
    _check_connected(g)
    g6 = canonical_form(g)
    snf = snf_diagonal(adjacency_matrix(g))
    phi_a = snf.ones
    gamma = algebraic_corank(g)
    phi_l = STATISTICS["phiL"](g)
    decided = [*(_leq(g, "S", k, phi_a) for k in (1, 2, 3)), _s4_partial(g, snf),
               *(_leq(g, "C", k, gamma) for k in (1, 2, 3)),
               *(_leq(g, "K", k, phi_l) for k in (1, 2, 3) if phi_l is not None)]
    memberships = {family: member for family, member, _ in decided}
    certificates = {family: cert for family, _, cert in decided}
    return ClassificationReport(g6, phi_a, phi_l, gamma, memberships, certificates)


_NESTING = (
    ("S<=1", "S<=2"), ("S<=2", "S<=3"), ("S<=3", "S<=4"),
    ("C<=1", "C<=2"), ("C<=2", "C<=3"),
    ("K<=1", "K<=2"), ("K<=2", "K<=3"),
    ("S<=1", "C<=1"), ("S<=2", "C<=2"), ("S<=3", "C<=3"),
    ("K<=1", "C<=1"), ("K<=2", "C<=2"), ("K<=3", "C<=3"),
)


class CrossCheckResult(namedtuple("CrossCheckResult", (
        "max_n", "graphs_checked", "family_counts", "violations"))):
    __slots__ = ()

    def to_json_dict(self):
        return {**self._asdict(), "family_counts": dict(self.family_counts),
                "violations": list(self.violations)}


def _check_line(g6):
    """(g6, report as a JSON dict, None), or (g6, None, message) if g6 fails."""
    try:
        return g6, classify(parse_graph6(g6)).to_json_dict(), None
    except (ValueError, ConsistencyError) as exc:
        return g6, None, str(exc)
    except Exception as exc:  # one failing graph must not end the run
        return g6, None, f"{type(exc).__name__}: {exc}"


def imap_workers(fn, items, chunksize=1):
    """fn over items, lazily and in order.  GRAPHTOOL_THREADS=N (default 1)
    puts one forked worker on each of the first N CPUs this process may run
    on, pinned there, so every caller is capped at the usable CPUs; with
    one CPU, or without os.fork, fn runs here.  A worker answers `chunksize`
    items at a time, and each such batch goes to the worker that asks for
    one next, so a worker given less CPU time answers fewer.  An exception
    fn raises is raised here, and one `items` raises is raised in its place;
    a worker that dies raises ChildProcessError, and however the iterator
    ends, closed early included, every worker is killed and reaped."""
    try:
        requested = max(1, int(os.environ.get("GRAPHTOOL_THREADS", "1")))
    except ValueError:
        requested = 1
    if hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))[:requested]
    else:  # nothing to pin to
        cpus = [None] * min(requested, os.cpu_count() or 1)
    if len(cpus) <= 1 or not hasattr(os, "fork"):
        return map(fn, items)
    from ._forked import imap_forked  # loaded only by runs with workers
    return imap_forked(fn, items, cpus, chunksize)


def cross_check(max_n):
    """Classify every connected graph up to isomorphism with at most max_n
    vertices, recording route disagreements and nesting violations.  Graphs
    stream from a depth-first walk, over the workers imap_workers forks;
    counters merge in the parent either way."""
    (max_n,) = _integers((max_n,))
    if max_n < 1:
        raise ValueError(f"crosscheck needs max_n >= 1, got {max_n}")
    _check_counted(max_n, "crosscheck supports max_n")
    counts = {}
    violations = []
    results = imap_workers(_check_line, _walk(max_n), chunksize=16)
    for checked, (g6, rep, error) in enumerate(results, 1):  # K_1 comes first
        if error is not None:
            violations.append({"graph6": g6, "detail": error})
            continue
        m = rep["memberships"]
        for fam, member in m.items():
            counts[fam] = counts.get(fam, 0) + bool(member)
        for small, big in _NESTING:
            if m.get(small) and big in m and not m[big]:
                violations.append({
                    "graph6": rep["graph6"],
                    "detail": f"nesting violated: in {small} but not {big}",
                })
    # (size, graph6) order, as a graph6 string opens with its vertex count
    violations.sort(key=lambda v: v["graph6"])
    return CrossCheckResult(max_n, checked, counts, violations)
