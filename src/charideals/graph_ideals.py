"""Characteristic ideals of graphs and the algebraic co-rank.

The k-th characteristic ideal of a graph G on n vertices is the ideal of
Z[t] generated by all k x k minors of tI_n - A(G); the algebraic co-rank is
the largest k for which that ideal is the whole ring.  Evaluating the chain
of ideals at t = 0 recovers the invariant factors of the adjacency matrix,
and at t = r those of the Laplacian when G is r-regular.

Every characteristic ideal here comes from one engine in four steps, on
one presentation.  First the twin classes of graphs.twin_classes are
split off.  The rows of a class S of s >= 3 false twins (equal open
neighbourhoods) differ by t times e_u - e_v, and those of true twins
(equal closed ones) by t + 1 times it, so unimodular row and column
operations inside S turn tI - A into M' (+) diag(c, ..., c): s - 2 copies
of c = t or t + 1, and M' keeps two vertices of S.  The k-minor ideal is
a Fitting ideal, and for a direct sum
I_k(M' (+) D) = sum_j I_j(D) I_(k-j)(M').  D is diagonal, so I_j(D) is
generated by every product t^x (t+1)^y with x + y = j that D has factors
for; a fixed j of them would not do, as <t, t+1> is the unit ideal.  Only
the rows of the kept vertices are built, straight from the adjacency
bitmasks.  Second, while some entry of M' is the constant +1 or -1, the
first such entry in row-major order is eliminated (Schur complement) and
its row and column are dropped, on entries held as the integers p(2^w),
with w wide enough that each, up to sign a minor of M', unpacks uniquely.
Unit pivots leave the Fitting ideals unchanged while shifting k by one,
so after r pivots I_k(M') = I_(k-r)(M) for the remaining matrix M, and
I_k(tI - A) is the unit ideal for every k <= r.  Third, the 1-minors of
M are its packed entries, and the larger minors integer determinants
(intlinalg.det_int) of them; all are deduplicated up to sign by absolute
value, as a packed value has the sign of its leading coefficient, and each
distinct one is unpacked once.  The (k - j - r)-minors are multiplied by
the products of j split factors, for j from k - r down: a product of more
factors is a multiple of one of k - r, beside which the minor is already
1.  One source, _generators, yields them to every caller and k, taking
each size once per call, as far as it is read.  Fourth, they go into the
lattice that serves every ideal of Z[t] (ztideal): the part of I_k of
degree at most D = min(k, max over j of j + (k - j - r)e), in Hermite
normal form keyed by degree, where e is the largest degree of an entry
of M.  No generator has degree above D, and closure under t supplies the
rows up to degree D.  The form stops as soon as it holds 1, and otherwise
gives the reduced Groebner basis.  The co-rank is found top-down from an
upper bound read off integer unit counts of the presentation, so most
graphs need one trivial ideal and none needs a nontrivial basis.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, takewhile
from math import prod

from .graphs import twin_classes
from .intlinalg import _unit_count, det_int, snf_diagonal, unit_pivots
from .zpoly import ONE, T, ZPoly
from .ztideal import IdealZt, _canonicalize, _lattice, reduce


def _presentation(g):
    """(mat, w, r, split): tI - A(g) is equivalent to I_r (+) mat (+) D, where
    D is diagonal with split[0] factors t and split[1] factors t + 1, and
    each entry p of mat is held as the integer p(2^w).

    A twin class S = {v0, v1, ...} is s >= 3 vertices with equal open
    neighbourhoods (tau = 0) or equal closed ones (tau = 1); a vertex lies
    in at most one.  With c = t + tau, v0 and v1 stay, and the rest of S
    goes with its s - 2 factors c.  Only the kept rows are built.  Off the
    diagonal an entry is -1 for an edge, or -s in the column of v0, and row
    v1 is zero; the diagonal is t plus -(s-1)tau at v0, tau at v1 and 0
    elsewhere.  A Schur update is one integer product.  The pivot block has
    determinant +-1, so every entry ever held, and every minor of mat, is
    +- a minor of the kept matrix, whose coefficients are at most L, the
    product of the kept rows' l1 sums (permanent bound; each sum is at
    least 1).  With 2^(w-1) > L the packing is injective, so tests for 0 and
    +-1 and exact divisions carry over to the packed integers, and the unit
    pivots are taken on them by intlinalg.unit_pivots, the loop that also
    starts the integer Smith form: the first +-1 in row-major order each.
    """
    const, mult, silent, split, dropped = [0] * g.n, [1] * g.n, 0, [0, 0], set()
    # graphs.twin_classes is the one grouping by neighbourhood; false twins first
    classes = [(tau, vs) for tau in (0, 1) for vs in twin_classes(g.adj, tau) if len(vs) >= 3]
    for tau, (v0, v1, *rest) in classes:
        s = len(rest) + 2
        const[v0], const[v1], mult[v0] = -(s - 1) * tau, tau, s
        silent |= 1 << v1
        split[tau] += s - 2
        dropped.update(rest)
    keep = [v for v in range(g.n) if v not in dropped]
    mat, bound = [], 1
    for v in keep:
        row = [0 if silent >> v & 1 else -mult[j] * (g.adj[v] >> j & 1) for j in keep]
        bound *= 1 + abs(const[v]) - sum(row)
        mat.append(row)
    w = bound.bit_length() + 1
    for i, v in enumerate(keep):
        mat[i][i] = (1 << w) + const[v]
    r = unit_pivots(mat)  # mat is now what the pivots leave
    return mat, w, r, tuple(split)


def _unpack(x, w):
    """The ZPoly p with p(2^w) = x whose coefficients lie in [-2^(w-1), 2^(w-1));
    a nonzero x has the sign of p's leading coefficient."""
    coeffs, half = [], 1 << w - 1
    while x:
        c = (x + half) % (2 * half) - half
        coeffs.append(c)
        x = (x - c) >> w
    return tuple.__new__(ZPoly, coeffs)  # the last digit taken is nonzero


@lru_cache
def _split_products(of_t, of_t1, j):
    """The products t^x (t+1)^(j-x) that of_t factors t and of_t1 t + 1 allow."""
    return tuple(prod([T] * x + [T + 1] * (j - x), start=ONE)
                 for x in range(max(0, j - of_t1), min(j, of_t) + 1))


def _factor_counts(pres, k):
    """The numbers j of split factors in the generators of I_k, from k - r
    down: a product of more than k - r factors is a multiple of one of
    k - r, whose minor is already ONE, and no minor has more than
    len(mat) rows."""
    mat, _, r, (of_t, of_t1) = pres
    return range(min(k - r, of_t + of_t1), max(0, k - r - len(mat)) - 1, -1)


def _generators(pres):
    """k -> the nonzero generators of the k-th characteristic ideal, leading
    coefficient positive, from the presentation `pres`: each product
    t^x (t+1)^y of j split factors times each distinct (k - j - r)-minor of
    the pivoted matrix, for j in _factor_counts, so the products beside
    the smallest minors come first; ONE alone when k is at most r.
    Each minor size is taken once and lazily, as far as a caller reads it,
    and replayed to later calls."""
    mat, w, r, (of_t, of_t1) = pres
    taken = {}

    def minors(size):
        if size not in taken:
            taken[size] = [], _distinct_minors(mat, w, size)
        done, rest = taken[size]
        yield from done
        for p in rest:
            done.append(p)
            yield p

    def gens(k):
        if k <= r:
            yield ONE
            return
        for j in _factor_counts(pres, k):
            factors = _split_products(of_t, of_t1, j)
            for m in minors(k - j - r):
                for f in factors:
                    yield f * m if j else m
    return gens


def _lattice_degree(pres, k):
    """D, a degree at or above that of every generator of I_k from
    _generators: j split factors have degree j, and a (k - j - r)-minor of
    the pivoted matrix at most k - j - r times its largest entry degree e,
    or k - j, as it is up to sign a (k - j)-minor of the kept matrix."""
    mat, w, r, _ = pres
    # A packed entry x = p(2^w) with p of degree d has |x|.bit_length() // w
    # == d.  Each coefficient of p is at most L < 2^(w-1) in size (see
    # _presentation), so |x| <= (2^(w-1) - 1)(2^(w(d+1)) - 1)/(2^w - 1)
    # < 2^(w(d+1) - 1), while the terms below t^d sum to less than
    # (2^(wd) - 1)/2 in size and the leading one is at least 2^(wd), so
    # |x| > 2^(wd - 1).  Hence wd <= |x|.bit_length() < w(d + 1), and the
    # largest |x| has the largest degree.
    e = max((abs(x) for row in mat for x in row), default=0).bit_length() // w
    return min(k, max((j + (k - j - r) * e for j in _factor_counts(pres, k)), default=0))


def _distinct_minors(mat, w, size):
    """The distinct nonzero size-minors of `mat`, packed at width w, up to
    sign, leading coefficient positive; ONE alone when size <= 0.

    The 1-minors are the entries, in row-major order.  For larger sizes,
    the columns of each row set are cut to those rows, and a zero column is
    never chosen.  A packed value has the sign of its leading coefficient,
    so abs takes each minor up to sign, and it is unpacked once.
    """
    if size <= 0:
        yield ONE
        return
    values = {0}
    if size == 1:
        for row in mat:
            for x in map(abs, row):
                if x not in values:
                    values.add(x)
                    yield _unpack(x, w)
        return
    cols = list(zip(*mat))
    for rows in combinations(range(len(mat)), size):
        cut = [[col[i] for i in rows] for col in cols]
        live = [c for c in cut if any(c)]
        for chosen in combinations(live, size):
            x = abs(det_int([list(col) for col in chosen]))  # transposed: same det
            if x not in values:
                values.add(x)
                yield _unpack(x, w)


def _basis(pres, gens, k):
    """Reduced strong Groebner basis of the k-th characteristic ideal, from
    the generators `_generators(pres)` gives."""
    return _canonicalize(_lattice(gens(k), _lattice_degree(pres, k)))


def _check_index(g, k):
    if not 1 <= k <= g.n:
        raise ValueError(f"characteristic ideal index {k} out of range 1..{g.n}")


def characteristic_ideal(g, k):
    """Reduced Groebner basis of the ideal of all k-minors of tI - A(g)."""
    _check_index(g, k)
    pres = _presentation(g)
    return IdealZt(basis=_basis(pres, _generators(pres), k))


_BOUND_POINTS = (0, 1, -1, 2, -2)


def _corank_bound(pres, phi=None):
    """u >= the co-rank, from the presentation.

    I_k evaluated at t = a is the ideal of Z generated by the k-minors of
    aI - A, which is equivalent to I_r (+) M(a) (+) D(a) for the pivoted
    matrix M and the split factors D, so a trivial I_k needs k - r unit
    invariant factors of M(a) (+) D(a).  They are counted in the whole
    sum: diag(2) (+) diag(3) has a unit invariant factor though neither
    block has one.  u is r plus the fewest over the points a; no
    count is below 0, so the points after the first that has none are
    skipped.  At a = 0 the sum is equivalent to -A up to the r units, so
    when phi, the unit count of A, is given the count there is phi - r.
    """
    mat, w, r, (of_t, of_t1) = pres
    polys = [[_unpack(e, w) for e in row] for row in mat]

    def unit_factors(a):
        if a == 0 and phi is not None:
            return phi - r
        diag = [a] * of_t + [a + 1] * of_t1
        rows = [[p(a) for p in row] + [0] * len(diag) for row in polys]
        rows += [[0] * len(mat) + [c if i == j else 0 for j in range(len(diag))]
                 for i, c in enumerate(diag)]
        return _unit_count(rows)

    least = len(mat) + of_t + of_t1
    for a in _BOUND_POINTS:
        least = min(least, unit_factors(a))
        if not least:
            break
    return r + least


def algebraic_corank(g):
    """Largest k with the k-th characteristic ideal trivial (0 if none is).

    Computed top-down: the r unit pivots make I_1 .. I_r trivial, the
    evaluation bound u caps the co-rank, and the ideals form a descending
    chain, so the first trivial one from k = u down to r + 1 is the answer.
    Only the trivial test is run, which stops at the unit ideal; no
    nontrivial ideal is completed to a basis, and the k share minor sizes.
    """
    return _corank(g)


def _corank(g, phi=None):
    """algebraic_corank(g); a caller that holds phi, the number of unit
    invariant factors of A(g), passes it on to the bound."""
    pres = _presentation(g)
    gens = _generators(pres)
    for k in range(_corank_bound(pres, phi), pres[2], -1):
        if _lattice(gens(k), _lattice_degree(pres, k))[0] == [1]:
            return k
    return pres[2]


class CharIdealProfile:
    __slots__ = ("graph", "ideals", "gamma")

    def __init__(self, graph, ideals, gamma):
        self.graph = graph
        self.ideals = ideals  # 1-st .. n-th characteristic ideal
        self.gamma = gamma


def char_ideal_profile(g):
    pres = _presentation(g)
    gens = _generators(pres)
    ideals = tuple(IdealZt(basis=_basis(pres, gens, k)) for k in range(1, g.n + 1))
    gamma = len(list(takewhile(IdealZt.is_trivial, ideals)))
    return CharIdealProfile(g, ideals, gamma)


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
    to reducing every generator `_generators` takes from the presentation.
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
        return prod(snf_diagonal(mat).factors[:k]) % mod == 0
    return not any(reduce(p, basis) for p in _generators(_presentation(g))(k))
