"""Independent reference implementations used to freeze expected values.

Deliberately naive: permutation-expansion determinants, exhaustive subset
search, and throwaway polynomial arithmetic on plain lists, sharing no code
with the package paths they check.  The later sections keep former
package routes as references for what replaced them: every k-minor
position of tI - A walked and deduplicated by submatrix content, for the
unit-pivot engine, with its own copy of the integer Bareiss determinant,
since the package's determinant also takes the engine's minors on packed
entries; the induced-subgraph search before its plan was cached,
which shares the pattern order with its replacement, so the two must
return the same embedding; canonical labelling by refinement on colour
tuples with only twins pruned, whose forms the automorphism-pruned search
must reproduce byte for byte; the refinement that recounted every cell
against every cell in each pass, for the one that counts against the cells
the last pass made; and enumeration that augments a representative by
every neighbourhood of a new vertex and deduplicates by canonical form;
the degree filter that called reach for each vertex of each candidate,
for the one that reads each parent's cut structure; the acceptance that
labelled every candidate, for the one that first reads its root partition;
mining that evaluates every connected graph and searches
each forbidden one for every smaller one, for the growth of the
hereditary family that replaced it; and Buchberger completion of ideals
of Z[t] by S- and gcd-polynomials, for the lattice that replaced it, with
its own copies of the general reduction and interreduction it runs on
unreduced bases; and complete multipartite graphs built from an edge list
and recognised by the cliques among the complement's components, for the
stable-set blow-up of K_m and the false-twin classes that replaced them.
The unit-pivot loop that found each pivot by a generator over the rows
and multiplied every row's factor by the pivot's sign is the reference for
the one that scans rows with `in` and folds the sign into the pivot row.
The Faddeev-LeVerrier characteristic polynomial that once seeded each
characteristic ideal with a monic generator is kept as a determinant of
tI - A fast enough for blow-ups, independent of the minor engine.
The members of the paper's families are generated from its theorems, as
complete multipartite graphs, subgraphs and clique blow-ups, for the
members that mining grows by computing each statistic.
The twin-split presentation that rescaled the whole ZPoly matrix and took
its unit pivots by polynomial row operations, grouping twins pair by
pair, is the reference for the one built from the kept rows and pivoted
on packed integers, and, expanded over permutations, for the minors taken
on those packed integers.  Those copies are also the references for the
package's one-pass reduction, which only takes reduced bases, and for its
reading of the reduced basis off the lattice rows.  The first section
builds test graphs from edge lists: adjacency tests, complements,
components, disjoint unions and joins, none of which the package keeps.
"""

from itertools import combinations, permutations
from math import gcd

from charideals import isomorphism
from charideals.catalog import cycle_graph, lookup, star_graph
from charideals.graphs import (BlowupSpec, Graph, _graph6, _induced, bits, blowup, parse_graph6,
                              reach, to_graph6)
from charideals.isomorphism import _search_plan
from charideals.zpoly import ONE, T, ZERO, ZPoly


def has_edge(g, u, v):
    return bool(g.adj[u] >> v & 1)


def complement(g):
    return Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if not has_edge(g, u, v)])


def components(g):
    """Vertex lists of the connected components, each increasing, in order
    of their least vertex; by depth-first search over vertex pairs."""
    out, seen = [], set()
    for start in range(g.n):
        if start in seen:
            continue
        seen.add(start)
        part, stack = [], [start]
        while stack:
            u = stack.pop()
            part.append(u)
            for v in range(g.n):
                if v not in seen and has_edge(g, u, v):
                    seen.add(v)
                    stack.append(v)
        out.append(sorted(part))
    return out


def disjoint_union(g, h):
    """g, then h on the vertices after g's."""
    return Graph(g.n + h.n, [*g.edges(), *((u + g.n, v + g.n) for u, v in h.edges())])


def join(g, h):
    """The disjoint union with every vertex of g adjacent to every vertex of h."""
    return Graph(g.n + h.n, [*disjoint_union(g, h).edges(),
                             *((u, g.n + v) for u in range(g.n) for v in range(h.n))])


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
        term = 1
        for i in range(n):
            term *= mat[i][perm[i]]
            if term == 0:
                break
        if term:
            total += perm_sign(perm) * term
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
            elif has_edge(graph, i, j):
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
            if g == 1:
                return 1
    return g


def brute_has_induced(host, pattern):
    """Exhaustive subset-and-bijection search for an induced copy."""
    hn, pn = host.n, pattern.n
    if pn > hn:
        return False
    for subset in combinations(range(hn), pn):
        for perm in permutations(subset):
            if all(has_edge(host, perm[i], perm[j]) == has_edge(pattern, i, j)
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


# -- complete multipartite graphs by edge list and by complement --------------

def complete_multipartite_graph(parts):
    parts = tuple(int(p) for p in parts)
    if any(p < 1 for p in parts):
        raise ValueError("part sizes must be positive")
    n = sum(parts)
    edges = []
    start = 0
    blocks = []
    for p in parts:
        blocks.append(range(start, start + p))
        start += p
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            edges.extend((u, v) for u in blocks[a] for v in blocks[b])
    return Graph(n, edges)


def complete_multipartite_parts(g):
    """Part sizes (descending) if g is complete multipartite, else None."""
    comp = complement(g)
    parts = components(comp)
    for part in parts:
        mask = 0
        for v in part:
            mask |= 1 << v
        want = len(part) - 1
        for v in part:
            if (comp.adj[v] & mask).bit_count() != want:
                return None
    return tuple(sorted((len(p) for p in parts), reverse=True))


# -- the members of the paper's families, generated from its theorems --------

def _partitions(n, parts, most):
    """Each non-increasing tuple of `parts` positive integers, none above
    most, summing to n."""
    if parts == 0:
        if n == 0:
            yield ()
        return
    for first in range(min(n - parts + 1, most), 0, -1):
        for rest in _partitions(n - first, parts - 1, first):
            yield (first,) + rest


def _compositions(n, parts):
    """Each tuple of `parts` positive integers summing to n."""
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def _connected_induced(g, least):
    """Each connected induced subgraph of g on `least` or more vertices."""
    for size in range(least, g.n + 1):
        for vs in combinations(range(g.n), size):
            h = g.subgraph(vs)
            if h.is_connected():
                yield h


def paper_families(max_n):
    """name -> the canonical graph6 of the connected graphs on 2..max_n
    vertices that the paper's characterizations name, generated without
    computing any count: C<=1 the complete graphs; C<=2 those and the
    complete multipartite graphs with at most 3 parts; C<=3 the complete
    multipartite graphs with at most 4 parts, the connected induced
    subgraphs of C5 and of the prism, and the clique blow-ups of the
    connected induced subgraphs of C4 and K_(1,3); S<=2 and S<=3 the
    complete multipartite graphs with at most 3 and at most 4 parts.  A
    multipartite graph here has 2 or more parts: one part is edgeless.
    The forms are the package's, as `mine` writes them."""
    def multipartite(most):
        return [complete_multipartite_graph(parts) for n in range(2, max_n + 1)
                for m in range(2, most + 1) for parts in _partitions(n, m, n)]

    bases = [h for base in (cycle_graph(4), star_graph(4)) for h in _connected_induced(base, 1)]
    complete = [complete_multipartite_graph((1,) * n) for n in range(2, max_n + 1)]
    families = {
        "C<=1": complete,
        "C<=2": complete + multipartite(3),
        "C<=3": multipartite(4)
        + [h for g in (cycle_graph(5), lookup("prism")) for h in _connected_induced(g, 2)
           if h.n <= max_n]
        + [blowup(BlowupSpec(h, tuple(-c for c in d))) for h in bases
           for n in range(max(2, h.n), max_n + 1) for d in _compositions(n, h.n)],
        "S<=2": multipartite(3),
        "S<=3": multipartite(4),
    }
    return {name: {isomorphism.canonical_form(g) for g in graphs}
            for name, graphs in families.items()}


# -- the characteristic polynomial by Faddeev-LeVerrier ----------------------

def char_poly(g, k):
    """det(tI - A) over the first k vertices of g, by Faddeev-LeVerrier:
    with M_1 = I, c_(k-i) = -tr(A M_i) / i and M_(i+1) = A M_i + c_(k-i) I.
    The coefficients are integers, so each division is exact."""
    nbrs = [list(bits(g.adj[v] & ((1 << k) - 1))) for v in range(k)]
    coeffs = [0] * k + [1]
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for i in range(1, k + 1):
        m = [[sum(col) for col in zip(*(m[w] for w in nb))] if nb else [0] * k
             for nb in nbrs]
        c = -sum(m[v][v] for v in range(k)) // i
        coeffs[k - i] = c
        for v in range(k):
            m[v][v] += c
    return ZPoly(coeffs)


# -- the full minor walk over tI - A ------------------------------------------

def det_int(mat):
    """Determinant of a square list-of-lists; the argument is consumed."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = mat
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # Bareiss fraction-free elimination
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not mat[k][k]:
            for i in range(k + 1, n):
                if mat[i][k]:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = mat[k][k]
        for i in range(k + 1, n):
            ri, rk = mat[i], mat[k]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - aik * rk[j]) // prev
        prev = pk
    return sign * mat[n - 1][n - 1]


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
    order = _search_plan(pattern)[0]
    # for each step: masks of earlier pattern vertices split by adjacency
    steps = []
    for i, v in enumerate(order):
        nbrs = []
        nonnbrs = []
        for j in range(i):
            w = order[j]
            (nbrs if has_edge(pattern, v, w) else nonnbrs).append(j)
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


def refine(adj, cells):
    """The equitable refinement of an ordered partition (vertex bitmasks),
    as the package took it before it counted against the new cells only:
    every pass ranks each vertex of every cell by its (cell index, count)
    pairs over all cells with a nonzero count, until a pass splits nothing."""
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


# -- Buchberger completion of ideals of Z[t] ----------------------------------

def _bal_div(c, m):
    """Balanced division by m > 0: (q, r) with c = q*m + r, r in (-m/2, m/2]."""
    r = c % m
    if 2 * r > m:
        r -= m
    return (c - r) // m, r


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def reduce(p, basis):
    """Normal form of p modulo a strong Groebner basis.

    Zero exactly when p lies in the ideal the basis generates.  Every
    surviving coefficient is balanced-reduced against every basis leading
    coefficient applicable at its degree.
    """
    p = p if isinstance(p, ZPoly) else ZPoly(p)
    if not basis or not p:
        return p
    info = sorted(((len(g) - 1, g[-1] if g[-1] > 0 else -g[-1], g if g[-1] > 0 else -g)
                   for g in basis if g), key=lambda x: -x[0])
    if not info:
        return p
    work = list(p)
    for d in range(len(work) - 1, -1, -1):
        if not work[d]:
            continue
        changed = True
        while changed and work[d]:
            changed = False
            for dg, cg, g in info:
                if dg > d:
                    continue
                q, _ = _bal_div(work[d], cg)
                if q:
                    s = d - dg
                    for i, b in enumerate(g):
                        work[s + i] -= q * b
                    changed = True
                if not work[d]:
                    break
    return ZPoly(work)


def _canonicalize(polys):
    """The reduced basis from a strong Groebner basis given as coefficient
    sequences; falsy entries (zero, None) are skipped."""
    polys = [ZPoly(p) if p[-1] > 0 else -ZPoly(p) for p in polys if p]
    if any(p == (1,) for p in polys):
        return (ONE,)
    polys.sort(key=lambda p: (len(p), p[-1]))
    kept = []
    for p in polys:
        dp, cp = len(p) - 1, p[-1]
        if not any(len(g) - 1 <= dp and cp % g[-1] == 0 for g in kept):
            kept.append(p)
    while True:
        changed = False
        for i, p in enumerate(kept):
            q = reduce(p, kept[:i] + kept[i + 1:])
            if q != p:
                kept[i] = q if q[-1] > 0 else -q
                changed = True
        if not changed:
            break
    kept.sort(key=lambda p: (len(p), tuple(p)))
    return tuple(kept)


def _pair_candidates(f, g):
    # S-polynomial always; gcd-polynomial only when neither lc divides the other.
    if len(f) < len(g):
        f, g = g, f
    cf, cg = f[-1], g[-1]
    s = len(f) - len(g)
    gs = ZPoly((0,) * s + g)
    if cf % cg == 0:
        yield f - gs * (cf // cg)
    elif cg % cf == 0:
        yield f * (cg // cf) - gs
    else:
        d = gcd(cf, cg)
        l = cf // d * cg
        yield f * (l // cf) - gs * (l // cg)
        _, u, v = _xgcd(cf, cg)
        yield f * u + gs * v


def strong_groebner(gens):
    """Reduced strong Groebner basis of <gens>, each generator added in turn
    and the basis closed under S- and gcd-polynomials of every pair."""
    basis = []
    for p in gens:
        h = reduce(p, basis)
        if not h:
            continue
        work = list(basis)
        pending = [h]
        while pending:
            h = reduce(pending.pop(), work)
            if not h:
                continue
            if h[-1] < 0:
                h = -h
            if h == (1,):
                work = [ONE]
                break
            for g in work:
                pending.extend(_pair_candidates(h, g))
            work.append(h)
        basis = list(_canonicalize(work))
        if basis == [ONE]:
            break
    return tuple(basis)


# -- mining by full enumeration and pairwise induced-subgraph search ---------

def mine_by_scan(max_vertices, value, limit):
    """Minimal forbidden graphs (canonical graph6 sorted by size, then
    string), their number per size, and every forbidden graph in the same
    order, for a statistic given as value(graph6) -> int or None: every
    connected graph on 2..max_vertices vertices is evaluated, and each one
    at or above limit is searched for every smaller one."""
    forbidden = []
    for size in range(2, max_vertices + 1):
        for s in _level(size):
            val = value(s)
            if val is not None and val >= limit:
                forbidden.append((size, s, parse_graph6(s)))
    minimal = [(size, s) for size, s, g in forbidden
               if not any(find_induced(g, h) is not None
                          for hsize, _, h in forbidden if hsize < size)]
    counts = {}
    for size, _ in minimal:
        counts[size] = counts.get(size, 0) + 1
    return [s for _, s in minimal], counts, [s for _, s, _ in forbidden]


# -- the augmentation's degree filter by a reach call per vertex -------------

def _is_cut_by_reach(adj, v):
    rest = ((1 << len(adj)) - 1) ^ 1 << v
    return reach(adj, rest & -rest, rest) != rest


def candidates_by_reach(adj, masks):
    """(child, ties) per neighbourhood mask of a new vertex joined to the
    connected adjacency tuple adj, in masks' order, for each child whose
    new vertex is a non-cut vertex of largest degree: each child is built,
    and each vertex of higher degree than the new one is tested for a cut
    vertex by reach.  ties is the mask of the child's non-cut vertices of
    largest degree, each found by reach."""
    n = len(adj)
    for mask in masks:
        child = tuple([a | (mask >> u & 1) << n for u, a in enumerate(adj)]) + (mask,)
        degree = mask.bit_count()
        if any(a.bit_count() > degree and not _is_cut_by_reach(child, u)
               for u, a in enumerate(child)):
            continue
        noncut = [u for u in range(n + 1) if not _is_cut_by_reach(child, u)]
        top = max(child[u].bit_count() for u in noncut)
        yield child, sum(1 << u for u in noncut if child[u].bit_count() == top)


def accept_by_labelling(child, ties):
    """mining._accept as it was before the root partition: every candidate
    is labelled, and kept when the first vertex of ties in canonical order
    is its new vertex, up to automorphism."""
    n = len(child) - 1
    order, perms, key = isomorphism._label(child)
    w = next(u for u in order if ties >> u & 1)
    if w == n or isomorphism._orbit(perms, 1 << w) >> n & 1:
        place = sorted(range(n + 1), key=order.__getitem__)
        return (_graph6(n + 1, key), Graph.from_adj(_induced(child, order)), place[n],
                tuple(tuple([place[p[u]] for u in order]) for p in perms))
    return None


# -- the twin-split presentation by row operations on ZPoly entries ----------

_UNITS = (ONE, -ONE)


def char_matrix(g):
    """tI - A(g) as a list of rows of ZPoly."""
    entries = (ZERO, -ONE)
    return [[T if i == j else entries[g.adj[i] >> j & 1] for j in range(g.n)]
            for i in range(g.n)]


def _twin_classes_pairwise(g, tau):
    """Classes of false (tau = 0) or true (tau = 1) twins, compared pair by
    pair: u and v are false twins when adj[u] == adj[v] and true twins
    when their closed neighbourhoods are equal.  Each class is increasing,
    and the classes come in order of their first vertex."""
    classes, placed = [], set()
    for u in range(g.n):
        if u not in placed:
            cls = [v for v in range(u, g.n) if g.adj[u] | tau << u == g.adj[v] | tau << v]
            placed.update(cls)
            classes.append(cls)
    return classes


def presentation_by_row_ops(g):
    """(mat, r, split): tI - A(g) is equivalent to I_r (+) mat (+) D, where
    D is diagonal with split[0] factors t and split[1] factors t + 1.

    Each twin class S = {v0, v1, ...} of s twins, with c = t + tau, is split
    off in turn: v0 and v1 stay, and the rest of S goes with its s - 2
    factors c.  Entry (v0, v0) becomes t - (s-1)tau and (v0, v1) becomes
    -tau, row v1 becomes c on its diagonal and zero elsewhere, and column v0
    of each row outside S is multiplied by s; the rows of another class
    change alike, so it stays a class of twins.  Then the unit pivots are
    taken, leaving `mat` as a list of rows of ZPoly.
    """
    n = g.n
    mat = char_matrix(g)
    split = [0, 0]
    dropped = set()
    classes = [(tau, vs) for tau in (0, 1) for vs in _twin_classes_pairwise(g, tau)
               if len(vs) >= 3]
    for tau, (v0, v1, *rest) in classes:
        s = len(rest) + 2
        inside = {v0, v1, *rest}
        for w in range(n):
            if w not in inside and mat[w][v0]:
                mat[w][v0] = mat[w][v0] * s
        mat[v0][v0] = ZPoly((-(s - 1) * tau, 1))
        mat[v0][v1] = ZPoly.const(-tau)
        mat[v1] = [ZERO] * n
        mat[v1][v1] = ZPoly((tau, 1))
        split[tau] += s - 2
        dropped.update(rest)
    keep = [v for v in range(n) if v not in dropped]
    mat = [[mat[i][j] for j in keep] for i in keep]
    r = 0
    while True:
        pivot = next(((i, j) for i, row in enumerate(mat)
                      for j, e in enumerate(row) if e in _UNITS), None)
        if pivot is None:
            return mat, r, tuple(split)
        i, j = pivot
        prow = mat.pop(i)
        u = prow.pop(j)[0]  # its own inverse
        live = [(b, p) for b, p in enumerate(prow) if p]
        for row in mat:
            f = row.pop(j)
            if f:
                f = -f if u < 0 else f
                for b, p in live:
                    row[b] = _sub_mul(row[b], f, p)
        r += 1


def _sub_mul(e, f, p):
    """e - f * p for polynomials e, f, p."""
    out = list(e)
    out += [0] * (len(f) + len(p) - 1 - len(out))
    for a, c in enumerate(f):
        if c:
            for b, d in enumerate(p):
                out[a + b] -= c * d
    return ZPoly(out)


# -- unit pivots found by a generator, the pivot's sign on every factor ------

def unit_pivots(mat):
    """r, the number of pivots taken: while some entry of the list-of-lists
    mat is +-1, the first in row-major order is eliminated in place by a
    Schur update and its row and column are dropped."""
    r = 0
    while True:
        i = next((i for i, row in enumerate(mat) if 1 in row or -1 in row), None)
        if i is None:
            return r
        prow = mat.pop(i)
        j = min(prow.index(u) for u in (1, -1) if u in prow)
        u = prow.pop(j)  # its own inverse
        live = [(b, p) for b, p in enumerate(prow) if p]
        for row in mat:
            f = row.pop(j) * u
            if f:
                for b, p in live:
                    row[b] -= f * p
        r += 1
