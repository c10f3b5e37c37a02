"""Exact integer matrices: Smith normal form, minor gcds, invariant factors,
and det_int, the one determinant, also of graph_ideals' packed minors.

A matrix is a sequence of equal-length integer rows.  The Smith form and
the minor gcds read it through one list copy and never consume the caller's
rows; det_int, unit_pivots and _unit_count work in place on a list of lists.

The Smith form is the unit-pivot loop graph_ideals also runs, then one
least-entry pivot loop and a gcd/lcm pass over the recorded pivots; the
minor gcds enumerate minors directly and are the independent route it is
checked against.  Callers that read only how many invariant factors are 1
(mining's phiA and phiL, the co-rank bound's points, the phi command) take
_unit_count: the unit pivots, then the Smith form of what they leave only
when its entries have gcd 1.

Everything runs on Python's arbitrary-precision integers, so coefficient
growth can cost time and memory but never correctness.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm


class ConsistencyError(RuntimeError):
    """An internal invariant failed; indicates a bug upstream, not bad input."""


def _integers(values):
    """The values as a tuple of ints; a ValueError names the first value
    that int() changes, such as 2.5 or "3"."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        bad = next(v for v, i in zip(values, ints) if v != i)
        raise ValueError(f"not an integer: {bad!r}")
    return ints


class InvariantFactors:
    """SNF diagonal d_1 | d_2 | ... padded with trailing zeros."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        f = _integers(factors)
        if any(v < 0 for v in f):
            raise ConsistencyError("negative invariant factor")
        nz = [v for v in f if v]
        if f[:len(nz)] != tuple(nz):
            raise ConsistencyError("zero before a nonzero invariant factor")
        for a, b in zip(nz, nz[1:]):
            if b % a:
                raise ConsistencyError(f"divisibility chain broken: {a} | {b}")
        self.factors = f

    @property
    def rank(self):
        return sum(1 for v in self.factors if v)

    @property
    def ones(self):
        return sum(1 for v in self.factors if v == 1)

    def __iter__(self):
        return iter(self.factors)

    def __eq__(self, other):
        if isinstance(other, InvariantFactors):
            return self.factors == other.factors
        if isinstance(other, (tuple, list)):
            return self.factors == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.factors)


def _rows(m):
    """A list copy of the integer rows of m, and its column count."""
    a = [list(map(int, row)) for row in m]
    for ints, row in zip(a, m):
        if ints != row and ints != list(row):  # a tuple row equals it only as a list
            _integers(row)  # raises, naming the entry int() changed
    cols = len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged rows")
    return a, cols


def det_int(mat):
    """Determinant of a square integer list-of-lists, by Bareiss's exact
    divisions; the argument is consumed."""
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


def unit_pivots(mat):
    """r, the number of pivots taken: while some entry of the list-of-lists
    mat is +-1, the first in row-major order is eliminated in place by a
    Schur update, one integer product per entry, and its row and column are
    dropped.  The matrix was equivalent to I_r (+) what is left."""
    r = 0
    while True:
        for i, prow in enumerate(mat):
            if 1 in prow:
                j = prow.index(1)
                if -1 in prow:
                    j = min(j, prow.index(-1))
                break
            if -1 in prow:
                j = prow.index(-1)
                break
        else:
            return r
        del mat[i]
        if prow.pop(j) == -1:  # the pivot is its own inverse: fold it in once
            prow = [-p for p in prow]
        live = [(b, p) for b, p in enumerate(prow) if p]
        for row in mat:
            f = row.pop(j)
            if f:
                for b, p in live:
                    row[b] -= f * p
        r += 1


def _unit_count(rows):
    """The number of invariant factors 1 of the integer list-of-lists rows,
    which are consumed.  Every invariant factor of what the unit pivots
    leave is a multiple of the gcd of its entries."""
    r = unit_pivots(rows)
    if gcd(*[v for row in rows for v in row]) != 1:
        return r
    return r + snf_diagonal(rows).ones


def snf_diagonal(m):
    """Diagonal of the Smith normal form of the integer rows m, zero-padded
    to min(rows, cols).

    Each unit pivot is an invariant factor 1.  On what is left the nonzero
    entry of least absolute value is the pivot, and its column and its row
    are floor-reduced by it.  When both are clear, |pivot| is recorded and
    its row and column are deleted; otherwise a nonzero remainder is a
    smaller pivot for the next pass.  Least pivots keep coefficient growth
    tame.  A gcd/lcm pass puts the recorded pivots in divisibility order,
    since diag(a, b) and diag(gcd, lcm) have the same Smith form.
    """
    a, cols = _rows(m)
    size = min(len(a), cols)
    ones = unit_pivots(a)
    diag = []
    while True:
        best = 0
        for i, row in enumerate(a):
            for j, v in enumerate(row):
                if v and (not best or abs(v) < best):
                    best, pi, pj = abs(v), i, j
            if best == 1:
                break
        if not best:
            break
        prow = a[pi]
        p = prow[pj]
        for row in a:
            if row[pj] and row is not prow:
                q = row[pj] // p
                row[:] = [x - q * y for x, y in zip(row, prow)]
        col = [row for row in a if row[pj]]
        for j, v in enumerate(prow):
            if v and j != pj:
                q = v // p
                for row in col:
                    row[j] -= q * row[pj]
        if len(col) == 1 and prow.count(0) == len(prow) - 1:
            diag.append(best)
            del a[pi]
            for row in a:
                del row[pj]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    diag = [1] * ones + diag
    diag.extend([0] * (size - len(diag)))
    return InvariantFactors(tuple(diag))


def gcd_of_k_minors(m, k):
    """Delta_k: gcd of the absolute values of all k x k minors of m (0 if all vanish).

    Enumerates minors directly with an early exit once the running gcd hits 1;
    this is the independent oracle the SNF route is checked against.
    """
    a, cols = _rows(m)
    if k < 0 or k > min(len(a), cols):
        raise ValueError(f"minor order {k} out of range for {len(a)}x{cols} matrix")
    if k == 0:
        return 1
    g = 0
    for rows in combinations(a, k):
        for js in combinations(range(cols), k):
            g = gcd(g, det_int([[row[j] for j in js] for row in rows]))
            if g == 1:
                return 1
    return g


def invariant_factors_from_deltas(deltas):
    """Recover d_k = Delta_k / Delta_{k-1} from a minor-gcd sequence."""
    seq = _integers(deltas)
    if not seq or seq[0] != 1:
        raise ConsistencyError("Delta_0 must be 1")
    if any(v < 0 for v in seq):
        raise ConsistencyError("negative minor gcd")
    out = []
    for prev, cur in zip(seq, seq[1:]):
        if prev == 0:
            if cur != 0:
                raise ConsistencyError("nonzero minor gcd after a vanishing one")
            out.append(0)
        else:
            if cur % prev:
                raise ConsistencyError(f"minor gcds violate divisibility: {prev}, {cur}")
            out.append(cur // prev)
    return InvariantFactors(tuple(out))


def delta_sequence(m):
    """The tuple Delta_0 = 1, Delta_1 .. Delta_min(rows, cols) of m by direct
    minor enumeration, zeros once the rank is passed."""
    a, cols = _rows(m)
    return tuple(gcd_of_k_minors(a, k) for k in range(min(len(a), cols) + 1))
