"""Isomorph-free enumeration of connected graphs and mining of minimal
forbidden graphs.

Enumeration is canonical augmentation, after McKay, "Isomorph-free
exhaustive generation" (J. Algorithms 1998).  A connected graph C has a
canonical deletion vertex w: of its non-cut vertices of largest degree, the
first in canonical order.  C - w is connected, so C grows from the
representative of C - w by one new vertex.  Each representative is
augmented once per orbit of its automorphism group on the neighbourhoods
of the new vertex.  A child whose new vertex is not of largest degree among
its non-cut vertices is dropped before it is labelled; otherwise it is kept
only when the new vertex is in the orbit of w, so every class comes out
exactly once.

Mining looks for the connected graphs whose statistic exceeds the
threshold k (the forbidden graphs) that contain no smaller forbidden graph
as an induced subgraph.  phiA and gammaA never grow when a vertex is
deleted, so the connected graphs at or below k (the members) form a
hereditary family, and the miner grows it level by level: only the members
on n - 1 vertices are augmented, as in the PRUNE hook of nauty's geng.
This reaches every member and every minimal forbidden graph on n vertices,
because the canonical deletion of either leaves a member on n - 1
vertices: by heredity for a member, by minimality for a minimal one.  The
statistic is evaluated on those children only.  A forbidden child G is
minimal iff each connected G - v is a member.  Checking these is enough:
G is connected, so a connected proper induced subgraph H of G grows, one
neighbouring vertex at a time, to a connected induced subgraph G - v on
n - 1 vertices that contains H; H is a member when G - v is.  phiL is
defined on regular graphs only, which deletion does not keep, so for it
every connected graph is evaluated and each forbidden one is searched for
every smaller forbidden one.  Either way each minimal graph is then
rechecked: its value by a second route, and its minimality by deleting
each vertex.  That route takes phi from minor gcds and the co-rank bottom-up
from char_ideal_profile, without the Smith form or the evaluation bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile

from .graphs import Graph, adjacency_matrix, laplacian_matrix, parse_graph6, reach, to_graph6
from .graph_ideals import algebraic_corank, char_ideal_profile
from .intlinalg import (ConsistencyError, delta_sequence, invariant_factors_from_deltas,
                        snf_diagonal)
from .isomorphism import _label, _orbit, canonical_form, find_induced

# connected graphs up to isomorphism on 1, 2, 3, ... vertices (OEIS A001349)
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571)

_LEVELS = {}


def _mask_orbits(m, perms):
    """One nonempty subset of range(m), as a bitmask, per orbit of the
    group the permutations generate."""
    if not perms:
        return range(1, 1 << m)
    tables = []
    for p in perms:
        image = [0] * (1 << m)
        for x in range(1, 1 << m):
            low = x & -x
            image[x] = image[x ^ low] | 1 << p[low.bit_length() - 1]
        tables.append(image)
    seen = bytearray(1 << m)
    reps = []
    for x in range(1, 1 << m):
        if seen[x]:
            continue
        reps.append(x)
        seen[x] = 1
        stack = [x]
        while stack:
            y = stack.pop()
            for image in tables:
                z = image[y]
                if not seen[z]:
                    seen[z] = 1
                    stack.append(z)
    return reps


def _is_cut_vertex(adj, v):
    rest = ((1 << len(adj)) - 1) ^ 1 << v
    return reach(adj, rest & -rest, rest) != rest


def _children(g6):
    """The canonical graph6 of each connected class, on one vertex more,
    whose canonical deletion leaves the class of g6; each class once."""
    adj = parse_graph6(g6).adj
    new = len(adj)
    for mask in _mask_orbits(new, _label(adj)[1]):
        child = [a | (mask >> u & 1) << new for u, a in enumerate(adj)] + [mask]
        degree = mask.bit_count()
        # the deletion vertex is a non-cut vertex of largest degree
        if any(a.bit_count() > degree and not _is_cut_vertex(child, u)
               for u, a in enumerate(child)):
            continue
        order, perms = _label(child)
        w = next(u for u in order if child[u].bit_count() == degree
                 and not _is_cut_vertex(child, u))
        if w == new or _orbit(perms, 1 << w) >> new & 1:
            yield to_graph6(Graph.from_adj(child).relabelled(order))


def _level(n):
    if n in _LEVELS:
        return _LEVELS[n]
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        out = (canonical_form(Graph(1)),)
    else:
        out = tuple(sorted(c for s in _level(n - 1) for c in _children(s)))
    _LEVELS[n] = out
    return out


def enumerate_connected(n):
    """One canonically labelled representative per isomorphism class of
    connected graphs on n vertices, in sorted graph6 order."""
    for s in _level(n):
        yield parse_graph6(s)


def _stat_phi_adjacency(g):
    return snf_diagonal(adjacency_matrix(g)).ones


def _stat_phi_laplacian(g):
    if g.regular_degree() is None:
        return None
    return snf_diagonal(laplacian_matrix(g)).ones


STATISTICS = {
    "phiA": _stat_phi_adjacency,
    "gammaA": algebraic_corank,
    "phiL": _stat_phi_laplacian,
}

# statistics that deleting a vertex never raises; phiL is defined on
# regular graphs only, which deletion does not keep
_HEREDITARY = frozenset({"phiA", "gammaA"})


@dataclass(frozen=True)
class MiningTask:
    max_vertices: int
    statistic: str
    k: int

    def __post_init__(self):
        if self.max_vertices < 2:
            raise ValueError("mining needs max_vertices >= 2")
        if self.max_vertices > len(CONNECTED_COUNTS):
            # forbidden_total counts the graphs growth never visits
            raise ValueError(f"mining supports max_vertices <= {len(CONNECTED_COUNTS)}")
        if self.k < 0:
            raise ValueError("threshold k must be nonnegative")
        if self.statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}; "
                             f"choose from {sorted(STATISTICS)}")


@dataclass(frozen=True)
class MiningResult:
    task: MiningTask
    minimal: tuple          # canonical graph6, sorted by (size, string)
    members: frozenset      # canonical graph6 of the graphs on 2..N vertices not forbidden
    forbidden_total: int    # connected graphs on 2..N vertices not in members
    values: dict            # canonical graph6 -> statistic value, per graph evaluated
    counts_by_size: dict    # vertex count -> number of minimal graphs

    def forbidden(self):
        """Every forbidden graph, as canonical graph6 sorted by (size,
        string); this enumerates every connected graph on 2..N vertices."""
        for n in range(2, self.task.max_vertices + 1):
            for s in _level(n):
                if s not in self.members:
                    yield s


def _independent_value(g6, statistic):
    # the second route, on the canonically relabelled copy
    g = parse_graph6(g6)
    if statistic == "gammaA":
        return char_ideal_profile(g).gamma
    if statistic == "phiL" and g.regular_degree() is None:
        return None
    mat = adjacency_matrix(g) if statistic == "phiA" else laplacian_matrix(g)
    return invariant_factors_from_deltas(delta_sequence(mat)).ones


def _grow(max_vertices, limit, fn, values):
    """Minimal forbidden graphs as (size, graph6, Graph), and the members,
    of a statistic that deleting a vertex never raises."""
    level = {canonical_form(Graph(1))}  # K_1: phiA and gammaA are 0 on it
    members = set()
    minimal = []
    for size in range(2, max_vertices + 1):
        grown = set()
        for s in sorted(level):
            for c in _children(s):
                g = parse_graph6(c)
                val = values[c] = fn(g)
                if val < limit:
                    grown.add(c)
                elif all(canonical_form(h) in level
                         for h in map(g.delete_vertex, range(size)) if h.is_connected()):
                    minimal.append((size, c, g))
        members |= grown
        level = grown
    return minimal, members


def _scan(max_vertices, limit, fn, values):
    """The same for any statistic: every connected graph is evaluated, and
    each forbidden one is searched for every smaller forbidden one."""
    members = set()
    forbidden = []  # (size, graph6, Graph)
    for size in range(2, max_vertices + 1):
        for g6 in _level(size):
            g = parse_graph6(g6)
            val = fn(g)
            if val is not None:
                values[g6] = val
            if val is None or val < limit:
                members.add(g6)
            else:
                forbidden.append((size, g6, g))
    minimal = []
    for size, g6, g in forbidden:
        # forbidden is in size order: scan only the smaller graphs
        smaller = takewhile(lambda entry: entry[0] < size, forbidden)
        if not any(find_induced(g, g2) is not None for _, _, g2 in smaller):
            minimal.append((size, g6, g))
    return minimal, members


def mine(task):
    if not isinstance(task, MiningTask):
        raise TypeError("mine expects a MiningTask")
    fn = STATISTICS[task.statistic]
    limit = task.k + 1
    values = {}
    route = _grow if task.statistic in _HEREDITARY else _scan
    minimal, members = route(task.max_vertices, limit, fn, values)
    for size, g6, g in minimal:
        recheck = _independent_value(g6, task.statistic)
        if recheck != values[g6]:
            raise ConsistencyError(
                f"statistic routes disagree on {g6}: {values[g6]} vs {recheck}")
        for v in range(g.n):
            h = g.delete_vertex(v)
            if not h.is_connected():
                continue
            # a miss is K_1, or under phiL a graph that is not regular
            key = canonical_form(h)
            val = values[key] if key in values else fn(h)
            if val is not None and val >= limit:
                raise ConsistencyError(
                    f"{g6} is not minimal: deleting vertex {v} keeps the statistic at {val}")
    minimal.sort()
    counts = {}
    for size, _, _ in minimal:
        counts[size] = counts.get(size, 0) + 1
    return MiningResult(
        task=task,
        minimal=tuple(g6 for _, g6, _ in minimal),
        members=frozenset(members),
        forbidden_total=sum(CONNECTED_COUNTS[1:task.max_vertices]) - len(members),
        values=values,
        counts_by_size=counts,
    )
