"""Independent reference implementations used to freeze expected values.

Deliberately naive: permutation-expansion determinants, exhaustive subset
search, and throwaway polynomial arithmetic on plain lists, sharing no code
with the package paths they check.  The last two sections keep former
package routes as references for what replaced them: every k-minor
position of tI - A walked and deduplicated by submatrix content, for the
unit-pivot engine; the induced-subgraph search before its plan was cached,
which shares the pattern order with its replacement, so the two must
return the same embedding; canonical labelling by refinement on colour
tuples with only twins pruned, whose forms the automorphism-pruned search
must reproduce byte for byte; and enumeration that augments a
representative by every neighbourhood of a new vertex and deduplicates by
canonical form.
"""

from itertools import combinations, permutations
from math import gcd

from charideals.graphs import Graph, bits, parse_graph6, to_graph6
from charideals.intlinalg import det_int
from charideals.isomorphism import _pattern_order


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def perm_det(mat):
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        term = perm_sign(perm)
        for i in range(n):
            term *= mat[i][perm[i]]
            if term == 0:
                break
        total += term
    return total


def poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return out


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return out


def poly_scale(a, c):
    return [x * c for x in a] if c else []


def poly_perm_det(mat):
    """Permutation-expansion determinant of a matrix of coefficient lists."""
    n = len(mat)
    total = []
    for perm in permutations(range(n)):
        term = [perm_sign(perm)]
        for i in range(n):
            term = poly_mul(term, mat[i][perm[i]])
            if not term:
                break
        total = poly_add(total, term)
    return total


def char_matrix_lists(graph):
    """tI - A as coefficient lists, for poly_perm_det."""
    n = graph.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append([0, 1])
            elif graph.has_edge(i, j):
                row.append([-1])
            else:
                row.append([])
        out.append(row)
    return out


def brute_minor_gcd(mat_lists, k):
    rows = len(mat_lists)
    cols = len(mat_lists[0]) if rows else 0
    if k == 0:
        return 1
    g = 0
    for rr in combinations(range(rows), k):
        for cc in combinations(range(cols), k):
            sub = [[mat_lists[i][j] for j in cc] for i in rr]
            g = gcd(g, perm_det(sub))
    return g


def brute_has_induced(host, pattern):
    """Exhaustive subset-and-bijection search for an induced copy."""
    hn, pn = host.n, pattern.n
    if pn > hn:
        return False
    for subset in combinations(range(hn), pn):
        for perm in permutations(subset):
            if all(host.has_edge(perm[i], perm[j]) == pattern.has_edge(i, j)
                   for i in range(pn) for j in range(i + 1, pn)):
                return True
    return False


def brute_automorphisms(graph):
    """Every vertex permutation, as a tuple of images, that keeps the edges."""
    edges = set(graph.edges())
    return {p for p in permutations(range(graph.n))
            if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in edges)}


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(rng, n, p=0.5):
    while True:
        g = random_graph(rng, n, p)
        if g.is_connected():
            return g


# -- the full minor walk over tI - A ------------------------------------------

def _det_poly(cmat, tpos):
    # determinant of (constant matrix) + t at the given positions, as a list
    if not tpos:
        d = det_int([row[:] for row in cmat])
        return [d] if d else []
    i, j = tpos[0]
    rest = tpos[1:]
    res = _det_poly(cmat, rest)
    sub = [[row[c] for c in range(len(row)) if c != j]
           for r, row in enumerate(cmat) if r != i]
    shifted = [(a - (a > i), b - (b > j)) for a, b in rest]
    tail = _det_poly(sub, shifted)
    if tail:
        need = len(tail) + 1
        if len(res) < need:
            res.extend([0] * (need - len(res)))
        if (i + j) & 1:
            for idx, c in enumerate(tail):
                res[idx + 1] -= c
        else:
            for idx, c in enumerate(tail):
                res[idx + 1] += c
    while res and not res[-1]:
        res.pop()
    return res


def _det_from_key(key, k):
    cmat = [[0] * k for _ in range(k)]
    tpos = []
    for j, (ti, colbits) in enumerate(key):
        if ti >= 0:
            tpos.append((ti, j))
        for i in range(k):
            if colbits >> i & 1:
                cmat[i][j] = -1
    tpos.sort()
    return tuple(_det_poly(cmat, tpos))


def _distinct_k_minor_polys(g, k):
    """Each distinct k-minor of tI - A(g) as a coefficient tuple, first-seen order.

    A submatrix is keyed per column by (row index holding t, adjacency bits
    against the chosen rows); tI - A is symmetric, so those column keys
    determine the determinant.
    """
    n = g.n
    adj = g.adj
    rng = range(n)
    dets = {}
    seen = set()
    for rows in combinations(rng, k):
        rowpos = {}
        for i, v in enumerate(rows):
            rowpos[v] = i
        rowsel = []
        for v in rng:
            m = adj[v]
            packed = 0
            for i, r in enumerate(rows):
                packed |= (m >> r & 1) << i
            rowsel.append(packed)
        get = rowpos.get
        for cols in combinations(rng, k):
            key = tuple((get(c, -1), rowsel[c]) for c in cols)
            if key in seen:
                continue
            seen.add(key)
            p = dets.get(key)
            if p is None:
                p = _det_from_key(key, k)
                dets[key] = p
            yield p


# -- induced-subgraph search before its plan was cached -----------------------

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


# -- canonical labelling by plain refinement and twin pruning ----------------

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


# -- enumeration by augmenting every mask and deduplicating ------------------

_LEVELS = {}


def _level(n):
    if n in _LEVELS:
        return _LEVELS[n]
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        out = (canonical_form(Graph(1)),)
    else:
        prev = _level(n - 1)
        found = set()
        for s in prev:
            g = parse_graph6(s)
            base = list(g.edges())
            for mask in range(1, 1 << (n - 1)):
                extra = [(v, n - 1) for v in range(n - 1) if mask >> v & 1]
                found.add(canonical_form(Graph(n, base + extra)))
        out = tuple(sorted(found))
    _LEVELS[n] = out
    return out
