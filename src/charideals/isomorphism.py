"""Canonical labelling, automorphism groups and induced-subgraph search.

A canonical form is the least adjacency encoding over the leaves of a
search tree, after McKay & Piperno, "Practical graph isomorphism II"
(J. Symb. Comput. 2014).  A node holds an ordered partition of the vertices
as bitmasks, refined to the coarsest equitable one: each pass ranks the
vertices of every cell by their neighbour counts in all cells, listed in
cell order, and splits the cell in place.  A node branches by
individualising each vertex of its first non-singleton cell; a leaf is a
discrete partition, read as a vertex order.

Automorphisms prune the tree.  Swaps of twins are automorphisms, and so is
the map between two leaves with equal encodings.  A child is skipped when
an automorphism fixing the node's individualised vertices maps an explored
sibling onto it, and a leaf that matches the first or the best leaf sends
the search back to the branch point the two paths share.  Every leaf left
out has the encoding of one explored, so the least encoding is that of the
whole tree; the automorphisms found generate the automorphism group.
A leaf's encoding is the graph6 body of the graph relabelled by it, so the
canonical graph6 is read off the best leaf, and two graphs are isomorphic
when their best encodings are equal.
Induced-subgraph search is a backtracking embedding, pruned by degree and
twins, after a cut that matches the two degree sequences; the host's
tables are built once per host and reused by every pattern matched in it.
Both read their twins off graphs.twin_classes.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import _body, _graph6, twin_classes


def _refine(adj, cells, splitters):
    """The equitable refinement of an ordered partition (vertex bitmasks).

    A pass sorts the vertices of each cell by their neighbour counts, as
    (cell index, count) pairs over the cells where the count is nonzero,
    and puts the resulting cells in its place in that order.  Passes repeat
    until one splits nothing.  The vertices of any cell have equal counts
    in every cell but the splitters, the cells the last pass made, so a
    cell splits only on its counts in those, and only a cell that splits
    has its signatures taken.  The caller names the first pass's
    splitters: after a vertex of an equitable partition is individualised,
    the new singleton is enough."""
    while splitters:
        out = []
        made = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            parts = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                a = adj[low.bit_length() - 1]
                counts = tuple([(a & s).bit_count() for s in splitters])
                parts[counts] = parts.get(counts, 0) | low
            if len(parts) == 1:
                out.append(cell)
                continue
            # the vertices of a part have one signature: read it off the lowest
            sigs = {}
            for part in parts.values():
                a = adj[(part & -part).bit_length() - 1]
                sigs[tuple([(i, k) for i, c in enumerate(cells)
                            if (k := (a & c).bit_count())])] = part
            pieces = [sigs[s] for s in sorted(sigs)]
            out.extend(pieces)
            made.extend(pieces)
        cells, splitters = out, made
    return cells


def _orbit(perms, mask):
    """The union of the orbits of the vertices in mask under the group the
    permutations (tuples of images) generate."""
    frontier = mask
    while frontier:
        grown = 0
        for p in perms:
            rest = frontier
            while rest:
                low = rest & -rest
                rest ^= low
                grown |= 1 << p[low.bit_length() - 1]
        frontier = grown & ~mask
        mask |= frontier
    return mask


def _automorphism(src, dst):
    # the map src[i] -> dst[i], with the mask of its fixed points
    images = [0] * len(src)
    fixed = 0
    for a, b in zip(src, dst):
        images[a] = b
        if a == b:
            fixed |= 1 << a
    return tuple(images), fixed


def _root_cells(adj):
    """The root of _label's search tree: the equitable refinement of the
    partition of the vertices by degree, lower degrees first."""
    by_degree = {}
    for v, a in enumerate(adj):
        d = a.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    return _refine(adj, cells, cells)


def _label(adj, root=None):
    """(order, generators, key) for the graph with adjacency bitmasks adj: a
    vertex order whose relabelling is the canonical form, permutations
    (tuples of images) generating the automorphism group, and the canonical
    form's graph6 body bits as one integer (_body of that order).  root is
    _root_cells(adj), when the caller has it already.  Every leaf refines
    the root, so the canonical order lists the root's cells in turn, and
    each automorphism maps each root cell onto itself."""
    n = len(adj)
    if n <= 1:
        return tuple(range(n)), [], 0
    full = (1 << n) - 1
    gens = []  # (images, mask of fixed points)
    # swaps of consecutive twins in each class, false then true twins:
    # those fixing the vertices on a path still generate their stabiliser
    for vs in twin_classes(adj, 0) + twin_classes(adj, 1):
        for u, v in zip(vs, vs[1:]):
            images = list(range(n))
            images[u], images[v] = v, u
            gens.append((tuple(images), full ^ (1 << u | 1 << v)))
    first = best = None  # (key, order, path)

    def dfs(cells, splitters, path, fixed):
        # returns the depth to resume at; n when nothing is cut short
        nonlocal first, best
        cells = _refine(adj, cells, splitters)
        for t, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            order = [c.bit_length() - 1 for c in cells]
            key = _body(adj, order)
            if first is None:
                first = best = (key, order, path)
                return n
            for ref in (first, best):
                if key == ref[0]:
                    gens.append(_automorphism(ref[1], order))
                    common = 0
                    while ref[2][common] == path[common]:
                        common += 1
                    return common
            if key < best[0]:
                best = (key, order, path)
            return n
        depth = len(path)
        covered = 0  # orbits of the explored children
        known = -1
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            if len(gens) != known:
                known = len(gens)
                perms = [p for p, fix in gens if not fixed & ~fix]
                covered = _orbit(perms, covered)
            if covered & low:
                continue
            back = dfs(cells[:t] + [low, cell ^ low] + cells[t + 1:], [low],
                       path + (low.bit_length() - 1,), fixed | low)
            if back < depth:
                return back
            covered = _orbit(perms, covered | low)
        return n

    dfs(_root_cells(adj) if root is None else root, [], (), 0)  # the root is equitable
    del dfs  # it refers to itself through its cell: free it without the collector
    return tuple(best[1]), [p for p, _ in gens], best[0]


def canonical_form(g):
    """graph6 of a canonically relabelled copy; equal iff graphs isomorphic."""
    if g.n > 62:
        raise ValueError("graph6 output limited to n <= 62")
    return _graph6(g.n, _label(g.adj)[2])


def is_isomorphic(g, h):
    if g.n != h.n or sorted(g.degrees()) != sorted(h.degrees()):
        return False
    # the canonical keys, not graph6, which stops at 62 vertices
    return _label(g.adj)[2] == _label(h.adj)[2]


@lru_cache(maxsize=512)
def _search_plan(pattern):
    """How find_induced places the pattern: its vertices in search order;
    per step, the earlier steps adjacent and non-adjacent to that vertex
    and its degree; and the pattern's degrees in increasing order.  Each
    step takes the unplaced vertex with the most placed neighbours, then
    the highest degree, then the lowest index."""
    adj, degs = pattern.adj, pattern.degrees()
    order, steps = [], []
    placed = 0
    for _ in range(pattern.n):
        v = max((u for u in range(pattern.n) if not placed >> u & 1),
                key=lambda u: ((adj[u] & placed).bit_count(), degs[u], -u))
        steps.append((tuple(j for j, w in enumerate(order) if adj[v] >> w & 1),
                      tuple(j for j, w in enumerate(order) if not adj[v] >> w & 1), degs[v]))
        order.append(v)
        placed |= 1 << v
    return tuple(order), tuple(steps), tuple(sorted(degs))


@lru_cache(maxsize=256)
def _host_plan(adj):
    """What find_induced reads of a host with adjacency bitmasks adj, for
    any pattern: below[d], the host vertices of degree below d; twins[v],
    the host vertices with v's open or closed neighbourhood; and the host's
    degrees in increasing order."""
    hn = len(adj)
    degs = [a.bit_count() for a in adj]
    below = [0] * (hn + 1)
    for hv, d in enumerate(degs):
        below[d + 1] |= 1 << hv
    for d in range(hn):
        below[d + 1] |= below[d]
    twins = [0] * hn
    for vs in twin_classes(adj, 0) + twin_classes(adj, 1):
        mask = sum(1 << hv for hv in vs)
        for hv in vs:
            twins[hv] |= mask
    return tuple(below), tuple(twins), tuple(sorted(degs))


def _degrees_match(pdegs, hdegs, slack):
    """Whether each pattern degree d (pdegs, increasing) can take its own
    host degree (hdegs, increasing) in d .. d + slack.  The intervals all
    have one length, so they end in the order they start, and the greedy
    pass giving each the least free host degree in it is exact."""
    j, hn = 0, len(hdegs)
    for d in pdegs:
        while j < hn and hdegs[j] < d:
            j += 1
        if j == hn or hdegs[j] > d + slack:
            return False
        j += 1
    return True


def find_induced(host, pattern):
    """An injective map pattern-vertex -> host-vertex preserving adjacency and
    non-adjacency, or None.

    With pn pattern and hn host vertices, a pattern vertex of degree d maps
    to a host vertex of degree d .. d + hn - pn, to keep its neighbours and
    its non-neighbours.  When the sorted degree sequences admit no
    injective such assignment, there is no map and no search runs.
    Otherwise the search backtracks over those candidates; host vertices
    are tried in increasing order at every step, and a host vertex that
    fails at a step takes its host twins with it.  The pattern's search
    plan and the host's degree masks and twin table are cached, the latter
    keyed by the host alone, as classify matches one host against every
    pattern list."""
    pn, hn = pattern.n, host.n
    if pn > hn:
        return None
    if pn == 0:
        return ()
    order, steps, pdegs = _search_plan(pattern)
    hadj = host.adj
    below, twins, hdegs = _host_plan(hadj)
    if not _degrees_match(pdegs, hdegs, hn - pn):
        return None
    # fit[d]: the host vertices a pattern vertex of degree d can map to
    slack = hn - pn + 1
    fit = [below[d + slack] & ~below[d] for d in range(pn)]
    assigned = [0] * pn
    cands = [0] * pn
    cands[0] = fit[steps[0][2]]
    used = 0
    i = 0
    last = pn - 1
    while True:
        cand = cands[i]
        if not cand:
            if not i:
                return None
            i -= 1
            used ^= 1 << assigned[i]
            # swapping twins fixes the earlier images, so they fail alike
            cands[i] &= ~twins[assigned[i]]
            continue
        low = cand & -cand
        cands[i] = cand ^ low
        assigned[i] = low.bit_length() - 1
        if i == last:
            break
        used |= low
        i += 1
        nbrs, nonnbrs, needed = steps[i]
        cand = fit[needed] & ~used
        for j in nbrs:
            cand &= hadj[assigned[j]]
        for j in nonnbrs:
            cand &= ~hadj[assigned[j]]
        cands[i] = cand
    mapping = [0] * pn
    for i, v in enumerate(order):
        mapping[v] = assigned[i]
    return tuple(mapping)
