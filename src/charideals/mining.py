"""Isomorph-free enumeration of connected graphs and mining of minimal
forbidden graphs for a hereditary statistic.

Enumeration is canonical augmentation, after McKay, "Isomorph-free
exhaustive generation" (J. Algorithms 1998).  A connected graph C has a
canonical deletion vertex w: of its non-cut vertices of largest degree, the
first in canonical order.  C - w is connected, so C grows from the
representative of C - w by one new vertex.  Each representative is
augmented once per orbit of its automorphism group on the neighbourhoods
of the new vertex.  A child whose new vertex is not of largest degree among
its non-cut vertices is dropped before it is labelled; otherwise it is kept
only when the new vertex is in the orbit of w, so every class comes out
exactly once.  Mining collects all graphs whose statistic exceeds the
threshold, filters to graphs containing no smaller forbidden one, then
re-verifies minimality exhaustively: generation-order filtering alone is
fragile.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile

from .graphs import Graph, adjacency_matrix, bits, laplacian_matrix, parse_graph6, to_graph6
from .graph_ideals import algebraic_corank
from .intlinalg import (ConsistencyError, count_unit_factors, delta_sequence,
                        invariant_factors_from_deltas)
from .isomorphism import _label, _orbit, canonical_form, find_induced

# connected graphs up to isomorphism on 1, 2, 3, ... vertices
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)

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
    seen = frontier = rest & -rest
    while frontier:
        reach = 0
        for u in bits(frontier):
            reach |= adj[u]
        frontier = reach & rest & ~seen
        seen |= frontier
    return seen != rest


def _level(n):
    if n in _LEVELS:
        return _LEVELS[n]
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        out = (canonical_form(Graph(1)),)
    else:
        new = n - 1
        found = []
        for s in _level(n - 1):
            adj = parse_graph6(s).adj
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
                    found.append(to_graph6(Graph.from_adj(child).relabelled(order)))
        out = tuple(sorted(found))
    _LEVELS[n] = out
    return out


def enumerate_connected(n):
    """One canonically labelled representative per isomorphism class of
    connected graphs on n vertices, in sorted graph6 order."""
    for s in _level(n):
        yield parse_graph6(s)


def _stat_phi_adjacency(g):
    return count_unit_factors(adjacency_matrix(g))


def _stat_corank(g):
    return algebraic_corank(g)


def _stat_phi_laplacian(g):
    if g.regular_degree() is None:
        return None
    return count_unit_factors(laplacian_matrix(g))


STATISTICS = {
    "phiA": _stat_phi_adjacency,
    "gammaA": _stat_corank,
    "phiL": _stat_phi_laplacian,
}


@dataclass(frozen=True)
class MiningTask:
    max_vertices: int
    statistic: str
    k: int

    def __post_init__(self):
        if self.max_vertices < 2:
            raise ValueError("mining needs max_vertices >= 2")
        if self.k < 0:
            raise ValueError("threshold k must be nonnegative")
        if self.statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}; "
                             f"choose from {sorted(STATISTICS)}")


@dataclass(frozen=True)
class MiningResult:
    task: MiningTask
    minimal: tuple          # canonical graph6, sorted by (size, string)
    forbidden: tuple        # every forbidden graph found, same order
    values: dict            # canonical graph6 -> statistic value
    counts_by_size: dict    # vertex count -> number of minimal graphs


def _independent_value(g6, statistic):
    # recomputation on the canonically relabelled copy; phi goes through the
    # minor-gcd route rather than the SNF elimination it was mined with
    g = parse_graph6(g6)
    if statistic == "phiA":
        return invariant_factors_from_deltas(delta_sequence(adjacency_matrix(g))).ones
    if statistic == "phiL":
        if g.regular_degree() is None:
            return None
        return invariant_factors_from_deltas(delta_sequence(laplacian_matrix(g))).ones
    return algebraic_corank(g)


def mine(task):
    if not isinstance(task, MiningTask):
        raise TypeError("mine expects a MiningTask")
    fn = STATISTICS[task.statistic]
    limit = task.k + 1
    # statistic values memoized by canonical form for the whole run
    cache = {}

    def stat(g, g6=None):
        key = g6 if g6 is not None else canonical_form(g)
        if key not in cache:
            cache[key] = fn(g)
        return cache[key]

    values = {}
    forbidden = []  # (size, graph6, Graph)
    for size in range(2, task.max_vertices + 1):
        for g in enumerate_connected(size):
            g6 = to_graph6(g)  # enumeration yields canonically labelled graphs
            val = stat(g, g6)
            if val is None:
                continue
            values[g6] = val
            if val >= limit:
                forbidden.append((size, g6, g))
    minimal = []
    for size, g6, g in forbidden:
        # forbidden is in size order: scan only the smaller graphs
        smaller = takewhile(lambda entry: entry[0] < size, forbidden)
        if not any(find_induced(g, g2) is not None for _, _, g2 in smaller):
            minimal.append((size, g6, g))
    for size, g6, g in minimal:
        recheck = _independent_value(g6, task.statistic)
        if recheck != values[g6]:
            raise ConsistencyError(
                f"statistic routes disagree on {g6}: {values[g6]} vs {recheck}")
        for v in range(g.n):
            h = g.delete_vertex(v)
            if not h.is_connected():
                continue
            val = stat(h)
            if val is not None and val >= limit:
                raise ConsistencyError(
                    f"{g6} is not minimal: deleting vertex {v} keeps the statistic at {val}")
    minimal.sort()
    forbidden.sort()
    counts = {}
    for size, _, _ in minimal:
        counts[size] = counts.get(size, 0) + 1
    return MiningResult(
        task=task,
        minimal=tuple(g6 for _, g6, _ in minimal),
        forbidden=tuple(g6 for _, g6, _ in forbidden),
        values=values,
        counts_by_size=counts,
    )
