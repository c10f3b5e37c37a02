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
Induced-subgraph search is a backtracking embedding with degree pruning.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import bits, to_graph6


def _refine(adj, cells):
    """The equitable refinement of an ordered partition (vertex bitmasks).

    A pass sorts the vertices of each cell by their neighbour counts, as
    (cell index, count) pairs over the cells where the count is nonzero,
    and puts the resulting cells in its place in that order.  Passes repeat
    until one splits nothing."""
    while True:
        out = []
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
                sig = tuple([(i, k) for i, c in enumerate(cells) if (k := (a & c).bit_count())])
                parts[sig] = parts.get(sig, 0) | low
            if len(parts) == 1:
                out.append(cell)
            else:
                out.extend([parts[s] for s in sorted(parts)])
        if len(out) == len(cells):
            return cells
        cells = out


def _leaf_key(adj, order):
    # the graph6 body bits of the relabelled graph as one integer; all keys
    # of a graph have the same length, so they order as the encodings do
    n = len(order)
    place = [0] * n
    for i, v in enumerate(order):
        place[v] = 1 << (n - 1 - i)
    key = 0
    for j in range(1, n):
        a = adj[order[j]]
        row = 0
        while a:
            low = a & -a
            a ^= low
            row |= place[low.bit_length() - 1]
        key = key << j | row >> (n - j)
    return key


def _orbit(perms, mask):
    """The union of the orbits of the vertices in mask under the group the
    permutations (tuples of images) generate."""
    frontier = mask
    while frontier:
        grown = 0
        for p in perms:
            for v in bits(frontier):
                grown |= 1 << p[v]
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


def _label(adj):
    """(order, generators) for the graph with adjacency bitmasks adj: a
    vertex order whose relabelling is the canonical form, and permutations
    (tuples of images) generating the automorphism group."""
    n = len(adj)
    if n <= 1:
        return tuple(range(n)), []
    full = (1 << n) - 1
    gens = []  # (images, mask of fixed points)
    # swaps of consecutive twins, false (closed = 0) and true (closed = 1):
    # those fixing the vertices on a path still generate their stabiliser
    for closed in (0, 1):
        last_with = {}
        for v, a in enumerate(adj):
            u = last_with.get(a | closed << v)
            last_with[a | closed << v] = v
            if u is not None:
                images = list(range(n))
                images[u], images[v] = v, u
                gens.append((tuple(images), full ^ (1 << u | 1 << v)))
    first = best = None  # (key, order, path)

    def dfs(cells, path, fixed):
        # returns the depth to resume at; n when nothing is cut short
        nonlocal first, best
        cells = _refine(adj, cells)
        for t, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            order = [c.bit_length() - 1 for c in cells]
            key = _leaf_key(adj, order)
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
            back = dfs(cells[:t] + [low, cell ^ low] + cells[t + 1:],
                       path + (low.bit_length() - 1,), fixed | low)
            if back < depth:
                return back
            covered = _orbit(perms, covered | low)
        return n

    by_degree = {}
    for v, a in enumerate(adj):
        d = a.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    dfs([by_degree[d] for d in sorted(by_degree)], (), 0)
    return tuple(best[1]), [p for p, _ in gens]


def canonical_order(g):
    """A relabelling order realising the canonical form."""
    return _label(g.adj)[0]


def canonical_form(g):
    """graph6 of a canonically relabelled copy; equal iff graphs isomorphic."""
    return to_graph6(g.relabelled(canonical_order(g)))


def is_isomorphic(g, h):
    if g.n != h.n or sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g) == canonical_form(h)


def _pattern_order(p):
    n = p.n
    degs = p.degrees()
    order = []
    placed = 0
    for _ in range(n):
        bestv = -1
        bestkey = None
        for v in range(n):
            if placed >> v & 1:
                continue
            key = ((p.adj[v] & placed).bit_count(), degs[v], -v)
            if bestkey is None or key > bestkey:
                bestkey = key
                bestv = v
        order.append(bestv)
        placed |= 1 << bestv
    return order


@lru_cache(maxsize=512)
def _search_plan(pattern):
    """How find_induced places the pattern: its vertices in search order
    and, per step, the earlier steps adjacent and non-adjacent to that
    vertex and its degree."""
    order = _pattern_order(pattern)
    degs = pattern.degrees()
    steps = []
    for i, v in enumerate(order):
        earlier = [(j, pattern.adj[v] >> order[j] & 1) for j in range(i)]
        steps.append((tuple(j for j, e in earlier if e),
                      tuple(j for j, e in earlier if not e), degs[v]))
    return tuple(order), tuple(steps)


def find_induced(host, pattern):
    """An injective map pattern-vertex -> host-vertex preserving adjacency and
    non-adjacency, or None.  Backtracking with degree pruning; host vertices
    are tried in increasing order at every step."""
    pn, hn = pattern.n, host.n
    if pn > hn:
        return None
    if pn == 0:
        return ()
    order, steps = _search_plan(pattern)
    hadj = host.adj
    # below[d]: host vertices of degree below d.  A pattern vertex of degree
    # d maps to one of degree d .. d + hn - pn, to keep its neighbours and
    # its non-neighbours; fit[d] holds those.
    below = [0] * (hn + 1)
    for hv, a in enumerate(hadj):
        below[a.bit_count() + 1] |= 1 << hv
    for d in range(hn):
        below[d + 1] |= below[d]
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
