"""Canonical labelling and induced-subgraph search.

Canonical forms come from colour refinement plus individualisation: refine
to an equitable partition, branch on the first non-singleton cell (one
representative per twin-equivalent group, since swapping twins is an
automorphism), and take the lexicographically least adjacency encoding over
all discrete leaves.  Sized for the n <= 16 workloads of this project.
"""

from __future__ import annotations

from .graphs import bits, to_graph6


def _equitable(adj, colors):
    n = len(adj)
    while True:
        sigs = []
        for v in range(n):
            counts = {}
            for w in bits(adj[v]):
                c = colors[w]
                counts[c] = counts.get(c, 0) + 1
            sigs.append((colors[v], tuple(sorted(counts.items()))))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(ranks[s] for s in sigs)
        if new == colors:
            return colors
        colors = new


def _pack_upper(adj, order):
    # graph6 body bits for the relabelled graph; comparable as bytes
    out = bytearray()
    chunk = 0
    nfill = 0
    for j in range(1, len(order)):
        aj = adj[order[j]]
        for i in range(j):
            chunk = chunk << 1 | (aj >> order[i] & 1)
            nfill += 1
            if nfill == 6:
                out.append(chunk)
                chunk = 0
                nfill = 0
    if nfill:
        out.append(chunk << (6 - nfill))
    return bytes(out)


def _twins(adj, u, v):
    mask = ~(1 << u | 1 << v)
    return adj[u] & mask == adj[v] & mask


def canonical_order(g):
    """A relabelling order realising the canonical form."""
    n = g.n
    if n <= 1:
        return tuple(range(n))
    adj = g.adj
    best = [None, None]

    def dfs(colors):
        colors = _equitable(adj, colors)
        cells = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            order = sorted(range(n), key=colors.__getitem__)
            enc = _pack_upper(adj, order)
            if best[0] is None or enc < best[0]:
                best[0] = enc
                best[1] = tuple(order)
            return
        reps = []
        for v in target:
            if not any(_twins(adj, v, r) for r in reps):
                reps.append(v)
        for v in reps:
            dfs(tuple((colors[w], 0 if w == v else 1) for w in range(n)))

    dfs((0,) * n)
    return best[1]


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


def find_induced(host, pattern):
    """An injective map pattern-vertex -> host-vertex preserving adjacency and
    non-adjacency, or None.  Backtracking with degree pruning."""
    pn, hn = pattern.n, host.n
    if pn > hn:
        return None
    if pn == 0:
        return ()
    hadj = host.adj
    hdeg = host.degrees()
    pdeg = pattern.degrees()
    order = _pattern_order(pattern)
    # for each step: masks of earlier pattern vertices split by adjacency
    steps = []
    for i, v in enumerate(order):
        nbrs = []
        nonnbrs = []
        for j in range(i):
            w = order[j]
            (nbrs if pattern.has_edge(v, w) else nonnbrs).append(j)
        steps.append((v, nbrs, nonnbrs))
    full = (1 << hn) - 1
    assigned = [0] * pn

    def bt(i, used):
        v, nbrs, nonnbrs = steps[i]
        cand = full & ~used
        for j in nbrs:
            cand &= hadj[assigned[j]]
        for j in nonnbrs:
            cand &= ~hadj[assigned[j]]
        needed = pdeg[v]
        for hv in bits(cand):
            if hdeg[hv] < needed:
                continue
            assigned[i] = hv
            if i + 1 == pn or bt(i + 1, used | 1 << hv):
                return True
        return False

    if not bt(0, 0):
        return None
    mapping = [0] * pn
    for i, (v, _, _) in enumerate(steps):
        mapping[v] = assigned[i]
    return tuple(mapping)
