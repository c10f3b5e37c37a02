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
exactly once, and enumeration walks the tree this makes depth first.  The
parent's cut structure decides this for every child without a search: each
vertex's degree and the components left when it is deleted are found once
per parent, and a vertex of the parent is a non-cut vertex of the child iff
the new vertex's neighbourhood meets each of those components.

Mining looks for the connected graphs whose statistic exceeds the
threshold k (the forbidden graphs) that contain no smaller forbidden graph
as an induced subgraph.  phiA and gammaA never grow when a vertex is
deleted, so the connected graphs at or below k (the members) form a
hereditary family, and the miner grows it level by level: only the members
on n - 1 vertices are augmented, as in the PRUNE hook of nauty's geng.
A child comes in its canonical labelling, with its new vertex's index and
the automorphism generators its labelling found, and hands them to its own
augmentation, in mining and enumeration alike: no parent is labelled twice.
This reaches every member and every minimal forbidden graph on n vertices,
because the canonical deletion of either leaves a member on n - 1
vertices: by heredity for a member, by minimality for a minimal one.  A
forbidden child G is minimal iff each connected G - v is a member.
Checking these is enough: G is connected, so a connected proper induced
subgraph H of G grows, one neighbouring vertex at a time, to a connected
induced subgraph G - v on n - 1 vertices that contains H; H is a member
when G - v is.  The new vertex's deletion is the parent.  gammaA costs
more than a labelling: each child is labelled, the kept ones evaluated,
and of a forbidden one, one deletion per automorphism orbit is labelled
and looked up.  phiA, an invariant, is evaluated first on each child, then
on its deletions up to the first forbidden one: only members and minimal
graphs are labelled.  phiL is defined on regular graphs only, which
deletion does not keep, so every connected graph is evaluated under it and
each forbidden one is searched for every smaller forbidden one.  Each
minimal graph is then rechecked: its value by a second route, and its
minimality by finding each connected deletion among the members (under
phiL, each connected induced subgraph on 2..n - 1 vertices, as deletion
may raise phiL).  That route takes phi from minor gcds and the co-rank
bottom-up from char_ideal_profile, without the unit count or the
evaluation bound.  No labelling outlives its step: at level s, gammaA's
minimality test labels deletions on s - 1 vertices into a dict of that
level, and the recheck labels into a dict of its own.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations, starmap

from .graphs import (Graph, _graph6, _induced, adjacency_matrix, laplacian_matrix, parse_graph6,
                     reach, to_graph6)
from .intlinalg import (ConsistencyError, _integers, _unit_count, delta_sequence,
                        invariant_factors_from_deltas)
from .isomorphism import _label, _orbit, find_induced

# connected graphs up to isomorphism on 1, 2, 3, ... vertices (OEIS A001349)
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571)


def _check_counted(n, what):
    # before any walk: 11 vertices hold 1,006,700,565 graphs; forbidden_total reads the counts
    if n > len(CONNECTED_COUNTS):
        raise ValueError(f"{what} <= {len(CONNECTED_COUNTS)}, got {n}")


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


def _candidates(adj, gens):
    """(child, ties) for the children of the canonically labelled adjacency
    tuple adj, new vertex last, one per orbit of gens, adj's automorphism
    generators, on its neighbourhoods, whose new vertex is a non-cut vertex
    of largest degree; ties is the mask of the child's non-cut vertices of
    that degree, the new vertex's included.

    adj's cut structure is found once: each vertex u's degree and the
    components of adj - u.  In the child of neighbourhood mask, u keeps its
    place, its degree grows by one when u is in mask, and u is a non-cut
    vertex iff mask meets every component of adj - u, which the new vertex
    then joins.
    The new vertex is never a cut vertex: deleting it leaves adj."""
    n = len(adj)
    full = (1 << n) - 1
    cuts = []  # (u's bit, its degree, the components of adj - u)
    for u, a in enumerate(adj):
        rest, parts = full ^ 1 << u, []
        while rest:
            part = reach(adj, rest & -rest, rest)
            parts.append(part)
            rest ^= part
        cuts.append((1 << u, a.bit_count(), parts))
    top = 1 << n
    for mask in _mask_orbits(n, gens):
        degree = mask.bit_count()
        ties = top
        for bit, d, parts in cuts:
            if mask & bit:
                d += 1
            if d >= degree and all(map(mask.__and__, parts)):
                if d > degree:
                    break
                ties |= bit
        else:
            child = tuple([a | top if mask >> u & 1 else a for u, a in enumerate(adj)])
            yield child + (mask,), ties


def _accept(child, ties):
    """(canonical graph6, canonically relabelled Graph, the new vertex's index
    in it, generators of its automorphism group in that labelling) for a
    candidate whose canonical deletion, the first vertex of ties in
    canonical order, is its new vertex, up to automorphism, so each class is
    accepted once; else None."""
    n = len(child) - 1
    order, perms, key = _label(child)
    w = next(u for u in order if ties >> u & 1)
    if w == n or _orbit(perms, 1 << w) >> n & 1:
        place = sorted(range(n + 1), key=order.__getitem__)  # inverse of order
        return (_graph6(n + 1, key), Graph.from_adj(_induced(child, order)), place[n],
                tuple(tuple([place[p[u]] for u in order]) for p in perms))
    return None


def _walk(max_n):
    """The canonical graph6 of every connected graph on at most max_n
    vertices, once each, depth first: only the current path is held."""
    path = [iter([(to_graph6(Graph(1)), Graph(1), 0, ())])]  # K_1 has no generators
    while path:
        for c, g, _, gens in path[-1]:
            yield c
            if g.n < max_n:
                path.append(filter(None, starmap(_accept, _candidates(g.adj, gens))))
                break
        else:
            path.pop()


@lru_cache(maxsize=None)
def _level(n):
    """The canonical graph6 of the connected graphs on n vertices, sorted."""
    if n < 1:
        raise ValueError("need at least one vertex")
    head = chr(63 + n)  # a graph6 string opens with its vertex count
    return tuple(sorted(s for s in _walk(n) if s[0] == head))


def enumerate_connected(n):
    """One canonically labelled representative per isomorphism class of
    connected graphs on n vertices, in sorted graph6 order."""
    (n,) = _integers((n,))
    _check_counted(n, "enumeration supports n")
    return map(parse_graph6, _level(n))


def _stat_phi_adjacency(g):
    return _unit_count(adjacency_matrix(g))


def _stat_corank(g):
    from .graph_ideals import algebraic_corank  # loaded by gammaA alone
    return algebraic_corank(g)


def _stat_phi_laplacian(g):
    if g.regular_degree() is None:
        return None
    return _unit_count(laplacian_matrix(g))


STATISTICS = {
    "phiA": _stat_phi_adjacency,
    "gammaA": _stat_corank,
    "phiL": _stat_phi_laplacian,
}

# statistics that deleting a vertex never raises; phiL needs a regular graph
_HEREDITARY = frozenset({"phiA", "gammaA"})
# statistics growth labels before it evaluates: mine gammaA k=4 n <= 9 took
# 6.6-7.3 s so, 11.6-12.0 s evaluating each candidate first (2-vCPU VM)
_LABEL_FIRST = frozenset({"gammaA"})


class MiningTask(namedtuple("MiningTask", ("max_vertices", "statistic", "k"))):
    __slots__ = ()

    def __new__(cls, max_vertices, statistic, k):
        max_vertices, k = _integers((max_vertices, k))
        if max_vertices < 2:
            raise ValueError("mining needs max_vertices >= 2")
        _check_counted(max_vertices, "mining supports max_vertices")
        if k < 0:
            raise ValueError("threshold k must be nonnegative")
        if statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {statistic!r}; "
                             f"choose from {sorted(STATISTICS)}")
        return super().__new__(cls, max_vertices, statistic, k)

    @classmethod
    def _make(cls, fields):  # _replace builds through it: check there too
        return cls(*fields)


class MiningResult(namedtuple("MiningResult", (
        "task", "minimal", "members", "forbidden_total", "values", "counts_by_size"))):
    """minimal: canonical graph6, sorted by (size, string); members: the
    canonical graph6 of the graphs on 2..N vertices not forbidden;
    forbidden_total: the connected graphs on 2..N vertices not in members;
    values: canonical graph6 -> statistic value, per graph evaluated and
    labelled (under phiA, the members and the minimal graphs);
    counts_by_size: vertex count -> number of minimal graphs."""
    __slots__ = ()

    def forbidden(self):
        """Every forbidden graph, as canonical graph6 sorted by (size,
        string).  A scan evaluated every connected graph, so its values
        hold them; after growth, this enumerates every connected graph on
        2..N vertices."""
        if self.task.statistic not in _HEREDITARY:
            yield from sorted(s for s, val in self.values.items() if val > self.task.k)
            return
        for s in sorted(_walk(self.task.max_vertices))[1:]:  # K_1 sorts first
            if s not in self.members:
                yield s


def _independent_value(g6, statistic):
    # the second route, on the canonically relabelled copy
    g = parse_graph6(g6)
    if statistic == "gammaA":
        from .graph_ideals import char_ideal_profile
        return char_ideal_profile(g).gamma
    if statistic == "phiL" and g.regular_degree() is None:
        return None
    mat = adjacency_matrix(g) if statistic == "phiA" else laplacian_matrix(g)
    return invariant_factors_from_deltas(delta_sequence(mat)).ones


def _deletions(adj, new, gens):
    """One connected deletion, as an adjacency tuple, per orbit of gens' group
    (with no gens, per vertex) but the new vertex's, the parent; lowest index
    first."""
    done = _orbit(gens, 1 << new)
    for u in range(len(adj)):
        if not done >> u & 1:
            done |= _orbit(gens, 1 << u)
            if not _is_cut_vertex(adj, u):
                low = (1 << u) - 1
                yield tuple([a & low | a >> (u + 1) << u for v, a in enumerate(adj) if v != u])


def _canonical(adj, labels):
    # the canonical graph6 of the adjacency tuple adj, labelled once per dict
    s = labels.get(adj)
    if s is None:
        s = labels[adj] = _graph6(len(adj), _label(adj)[2])
    return s


def _grow(max_vertices, limit, statistic, values):
    """Minimal forbidden graphs as (size, graph6, Graph), and the members,
    of a statistic that deleting a vertex never raises."""
    fn, stat_first = STATISTICS[statistic], statistic not in _LABEL_FIRST
    # member -> (its canonically labelled adjacency, its automorphism
    # generators), as its labelling as a child found them; K_1, with phiA
    # and gammaA 0 on it, has no generators
    level = {to_graph6(Graph(1)): ((0,), ())}
    members = set()
    minimal = []
    for size in range(2, max_vertices + 1):
        grown = {}
        labels = {}  # the deletions on size - 1 vertices this level labels
        for s in sorted(level):
            for child, ties in _candidates(*level[s]):
                if stat_first:  # the statistic is an invariant: no labelling needed
                    val = fn(Graph.from_adj(child))
                    if val >= limit and not all(fn(Graph.from_adj(h)) < limit
                                                for h in _deletions(child, size - 1, ())):
                        continue
                if (kept := _accept(child, ties)) is None:
                    continue
                c, g, new, gens = kept
                values[c] = val = val if stat_first else fn(g)
                if val < limit:
                    grown[c] = g.adj, gens
                elif stat_first or all(_canonical(h, labels) in level
                                       for h in _deletions(g.adj, new, gens)):
                    minimal.append((size, c, g))
        members.update(grown)
        level = grown
    return minimal, members


def _scan(max_vertices, limit, fn, values):
    """The same for any statistic: every connected graph is evaluated, and
    each forbidden one is searched for every smaller forbidden one."""
    members = set()
    forbidden = []  # the forbidden Graphs so far
    minimal = []
    # graph6 opens with the vertex count: each smaller forbidden graph comes first
    for g6 in sorted(_walk(max_vertices))[1:]:
        g = parse_graph6(g6)
        val = fn(g)
        if val is not None:
            values[g6] = val
        if val is None or val < limit:
            members.add(g6)
            continue
        if not any(find_induced(g, h) is not None for h in forbidden if h.n < g.n):
            minimal.append((g.n, g6, g))
        forbidden.append(g)
    return minimal, members


def mine(task):
    if not isinstance(task, MiningTask):
        raise TypeError("mine expects a MiningTask")
    fn = STATISTICS[task.statistic]
    limit = task.k + 1
    values = {}
    hereditary = task.statistic in _HEREDITARY
    if hereditary:
        minimal, members = _grow(task.max_vertices, limit, task.statistic, values)
    else:
        minimal, members = _scan(task.max_vertices, limit, fn, values)
    labels = {}
    for size, g6, g in minimal:
        recheck = _independent_value(g6, task.statistic)
        if recheck != values[g6]:
            raise ConsistencyError(
                f"statistic routes disagree on {g6}: {values[g6]} vs {recheck}")
        # deleting a vertex never raises a hereditary statistic, so its
        # deletions stand for every connected proper induced subgraph; K_1
        # is not a member
        for r in [size - 1] if hereditary else range(2, size):
            for vertices in combinations(range(size), r):
                h = Graph.from_adj(_induced(g.adj, vertices))
                if r > 1 and h.is_connected() and _canonical(h.adj, labels) not in members:
                    raise ConsistencyError(f"{g6} is not minimal: its induced subgraph on "
                                           f"vertices {vertices} is forbidden, at {fn(h)}")
    minimal.sort()
    return MiningResult(
        task=task,
        minimal=tuple(g6 for _, g6, _ in minimal),
        members=frozenset(members),
        forbidden_total=sum(CONNECTED_COUNTS[1:task.max_vertices]) - len(members),
        values=values,
        counts_by_size=dict(Counter(size for size, _, _ in minimal)),
    )
