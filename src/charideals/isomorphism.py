"""Canonical labelling and induced-subgraph search.

Canonical forms come from colour refinement plus individualisation: refine
to an equitable partition, branch on the first non-singleton cell (one
representative per twin-equivalent group, since swapping twins is an
automorphism), and take the lexicographically least adjacency encoding over
all discrete leaves.  Sized for the n <= 16 workloads of this project.
"""

from __future__ import annotations

from functools import lru_cache

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
