"""Characteristic ideals of graphs and the algebraic co-rank.

The k-th characteristic ideal of a graph G on n vertices is the ideal of
Z[t] generated by all k x k minors of tI_n - A(G); the algebraic co-rank is
the largest k for which that ideal is the whole ring.  Evaluating the chain
of ideals at t = 0 recovers the invariant factors of the adjacency matrix,
and at t = r those of the Laplacian when G is r-regular.

Every characteristic ideal here comes from one engine in four steps, on
one presentation.  First twin classes are split off.  The rows of a class
S of s >= 3 false twins (equal open neighbourhoods) differ by t times
e_u - e_v, and those of true twins (equal closed ones) by t + 1 times it,
so unimodular row and column operations inside S turn tI - A into
M' (+) diag(c, ..., c): s - 2 copies of c = t or t + 1, and M' keeps two
vertices of S.  The k-minor ideal is a Fitting ideal, and for a
direct sum I_k(M' (+) D) = sum_j I_j(D) I_(k-j)(M').  D is diagonal, so
I_j(D) is generated by every product t^x (t+1)^y with x + y = j that D
has factors for; a fixed j of them would not do, as <t, t+1> is the unit
ideal.  Second, while some entry of M' is the constant +1 or -1, the
first such entry in row-major order is eliminated (Schur complement) and
its row and column are dropped.  Unit pivots leave the Fitting ideals
unchanged while shifting k by one, so after r pivots I_k(M') =
I_(k-r)(M) for the remaining matrix M, and I_k(tI - A) is the unit ideal
for every k <= r.  Third, the minors of M are taken with
intlinalg.det_int, the one determinant the integer minors use too,
deduplicated first by submatrix content and then up to sign, and
multiplied by the products of split factors.  Fourth, they go into the
lattice that serves every ideal of Z[t] (ztideal): the part of I_k of
degree at most k, in Hermite normal form keyed by degree.  No minor has
degree above k, and closure under t supplies the rows up to degree k.
The form stops as soon as it holds 1, and otherwise gives the reduced
Groebner basis.  The co-rank is found top-down from an upper bound read
off integer Smith forms of the presentation, so most graphs need one
trivial ideal and none needs a nontrivial basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, takewhile
from math import prod

from .graphs import Graph, twin_classes
from .intlinalg import IntMatrix, det_int, invariant_factors_from_deltas, snf_diagonal
from .zpoly import ONE, T, ZERO, ZPoly
from .ztideal import IdealZt, _canonicalize, _lattice, reduce

_UNITS = (ONE, -ONE)


def _char_matrix(g):
    """tI - A(g) as a list of rows of ZPoly."""
    entries = (ZERO, -ONE)
    return [[T if i == j else entries[g.adj[i] >> j & 1] for j in range(g.n)]
            for i in range(g.n)]


def _twin_classes(g):
    """(tau, vertices) for each class of at least three vertices with equal
    open neighbourhoods (false twins, tau = 0) or equal closed ones (true
    twins, tau = 1); a vertex lies in at most one of them."""
    return [(tau, vs) for tau in (0, 1) for vs in twin_classes(g.adj, tau) if len(vs) >= 3]


def _presentation(g):
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
    mat = _char_matrix(g)
    split = [0, 0]
    dropped = set()
    for tau, (v0, v1, *rest) in _twin_classes(g):
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


def _minors(pres, k):
    """Nonzero generators of the k-th characteristic ideal, leading
    coefficient positive, from the presentation `pres`: each product
    t^x (t+1)^y of j split factors times each distinct (k - j - r)-minor of
    the pivoted matrix.  Yields ONE alone when k is at most r.
    """
    mat, r, (of_t, of_t1) = pres
    if k <= r:
        yield ONE
        return
    for j in range(min(k, of_t + of_t1) + 1):
        size = k - j - r
        if size > len(mat):
            continue
        factors = [prod([T] * x + [T + 1] * (j - x), start=ONE)
                   for x in range(max(0, j - of_t1), min(j, of_t) + 1)]
        for m in _distinct_minors(mat, size):
            for f in factors:
                yield f * m if j else m


def _distinct_minors(mat, size):
    """The distinct nonzero size-minors of `mat` up to sign, leading
    coefficient positive; ONE alone when size <= 0.

    Columns of each row set are keyed by the ids of their entries in those
    rows: a zero column is never chosen, and a submatrix already seen is
    skipped.
    """
    if size <= 0:
        yield ONE
        return
    ids = {ZERO: 0}
    cols = [[ids.setdefault(e, len(ids)) for e in col] for col in zip(*mat)]
    seen = set()
    polys = set()
    for rows in combinations(range(len(mat)), size):
        keys = [tuple(col[i] for i in rows) for col in cols]
        live = [c for c, key in enumerate(keys) if any(key)]
        for chosen in combinations(live, size):
            key = tuple(keys[c] for c in chosen)
            if key in seen:
                continue
            seen.add(key)
            p = det_int([[mat[i][c] for c in chosen] for i in rows])
            if not p:
                continue
            if p[-1] < 0:
                p = -p
            if p not in polys:
                polys.add(p)
                yield p


def _basis(pres, k):
    """Reduced strong Groebner basis of the k-th characteristic ideal."""
    return _canonicalize(_lattice(_minors(pres, k), k))


def _check_index(g, k):
    if not 1 <= k <= g.n:
        raise ValueError(f"characteristic ideal index {k} out of range 1..{g.n}")


def characteristic_ideal(g, k):
    """Reduced Groebner basis of the ideal of all k-minors of tI - A(g)."""
    _check_index(g, k)
    return IdealZt(basis=_basis(_presentation(g), k))


_BOUND_POINTS = (0, 1, -1, 2, -2)


def _corank_bound(pres):
    """u >= the co-rank, from the presentation.

    I_k evaluated at t = a is the ideal of Z generated by the k-minors of
    aI - A, which is equivalent to I_r (+) M(a) (+) D(a) for the pivoted
    matrix M and the split factors D, so a trivial I_k needs k - r unit
    invariant factors of M(a) (+) D(a).  The Smith form is taken of the
    whole sum: diag(2) (+) diag(3) has a unit invariant factor though
    neither block has one.  u is r plus the fewest over the points a.
    """
    mat, r, (of_t, of_t1) = pres

    def unit_factors(a):
        diag = [a] * of_t + [a + 1] * of_t1
        rows = [[e(a) for e in row] + [0] * len(diag) for row in mat]
        rows += [[0] * len(mat) + [c if i == j else 0 for j in range(len(diag))]
                 for i, c in enumerate(diag)]
        return snf_diagonal(IntMatrix(rows)).ones

    return r + min(unit_factors(a) for a in _BOUND_POINTS)


def algebraic_corank(g):
    """Largest k with the k-th characteristic ideal trivial (0 if none is).

    Computed top-down: the r unit pivots make I_1 .. I_r trivial, the
    evaluation bound u caps the co-rank, and the ideals form a descending
    chain, so the first trivial one from k = u down to r + 1 is the answer.
    Only the trivial test is run, which stops at the unit ideal; no
    nontrivial ideal is completed to a basis.
    """
    pres = _presentation(g)
    r = pres[1]
    for k in range(_corank_bound(pres), r, -1):
        if _lattice(_minors(pres, k), k)[0] == [1]:
            return k
    return r


@dataclass(frozen=True)
class CharIdealProfile:
    graph: Graph
    ideals: tuple  # 1-st .. n-th characteristic ideal
    gamma: int


def char_ideal_profile(g):
    pres = _presentation(g)
    ideals = tuple(IdealZt(basis=_basis(pres, k)) for k in range(1, g.n + 1))
    gamma = 0
    for ideal in ideals:
        if not ideal.is_trivial():
            break
        gamma += 1
    return CharIdealProfile(g, ideals, gamma)


def _invariants_by_evaluation(g, point):
    # t -> point is a ring map Z[t] -> Z and det commutes with it, so I_k at
    # t = point is generated by the k-minors of point*I - A: its evaluation
    # is their gcd Delta_k.  Past the first Delta_k = 0 every minor vanishes.
    pres = _presentation(g)
    evals = (IdealZt(basis=_basis(pres, k)).evaluate(point) for k in range(1, g.n + 1))
    deltas = [1, *takewhile(bool, evals)]
    return invariant_factors_from_deltas(deltas + [0] * (g.n + 1 - len(deltas)))


def smith_invariants_via_ideals(g):
    """Adjacency invariant factors read off the ideal chain at t = 0."""
    return _invariants_by_evaluation(g, 0)


def critical_invariants_regular(g):
    """Laplacian invariant factors of a regular graph via evaluation at the degree."""
    r = g.regular_degree()
    if r is None:
        raise ValueError(f"graph is not regular: degrees {sorted(set(g.degrees()))}")
    return _invariants_by_evaluation(g, r)


def _elem_sym(values):
    e = [1]
    for x in values:
        e.append(0)
        for a in range(len(e) - 1, 0, -1):
            e[a] += x * e[a - 1]
    return e


def multipartite_closed_form(parts, j):
    """The j-th characteristic ideal of a complete multipartite graph with the
    given part sizes (each at least 2), by closed formula.

    Trivial up to one below the number of parts; generated by
    (m-1)t^(j-m), t^(j-m+1) through the middle range; generated by shifted
    products of (t + part) together with weighted elementary-symmetric
    combinations over part subsets near the top; the characteristic
    polynomial itself at j = n.  Validated against direct minor computation
    in the test suite rather than trusted.
    """
    parts = tuple(int(p) for p in parts)
    m = len(parts)
    n = sum(parts)
    if m < 2:
        raise ValueError("need at least two parts")
    if any(p < 2 for p in parts):
        raise ValueError("all part sizes must be at least 2")
    if not 1 <= j <= n:
        raise ValueError(f"index {j} out of range 1..{n}")
    if j <= m - 1:
        return IdealZt.unit()
    if j <= n - m:
        return IdealZt((ZPoly.monomial(m - 1, j - m), ZPoly.monomial(1, j - m + 1)))
    if j < n:
        k = n - j  # 1 .. m-1
        gens = []
        for subset in combinations(range(m), m - k - 1):
            p = ZPoly.monomial(1, j - m + 1)
            for i in subset:
                p = p * ZPoly((parts[i], 1))
            gens.append(p)
        for subset in combinations(range(m), m - k):
            e = _elem_sym([parts[i] for i in subset])
            coeffs = [0] * (j - k + 1)
            for a in range(len(e)):
                coeffs[j - k - a] += (k - 1 + a) * e[a]
            gens.append(ZPoly(coeffs))
        return IdealZt(gens)
    e = _elem_sym(parts)
    coeffs = [0] * (n + 1)
    for a in range(m + 1):
        coeffs[n - a] = (1 - a) * e[a]
    return IdealZt((ZPoly(coeffs),))


def all_k_minors_in_ideal(g, k, ideal):
    """Do all k-minors of tI - A(g) lie in the given ideal?

    Fast path: when the basis is (m, t - a), membership of p is p(a) = 0
    mod m, and det commutes with evaluation, so the whole check is m
    dividing the gcd of the k-minors of the integer matrix aI - A(g), i.e.
    the product of its first k invariant factors.  Other ideals fall back
    to reducing every generator `_minors` takes from the presentation.
    """
    _check_index(g, k)
    basis = ideal.basis
    if basis == (ONE,):
        return True
    if (len(basis) == 2 and len(basis[0]) == 1
            and len(basis[1]) == 2 and basis[1][1] == 1):
        mod = basis[0][0]
        a = -basis[1][0]
        mat = [[(a if i == j else 0) - (g.adj[i] >> j & 1) for j in range(g.n)]
               for i in range(g.n)]
        return prod(snf_diagonal(IntMatrix(mat)).factors[:k]) % mod == 0
    return not any(reduce(p, basis) for p in _minors(_presentation(g), k))
