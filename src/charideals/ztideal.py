"""Ideals of Z[t]: strong Groebner bases, reduction, membership, evaluation.

With a single variable the monomial order is forced (by degree), but the
coefficient ring Z is only Euclidean.  A reduced strong Groebner basis
looks like a staircase g_1, ..., g_s with strictly increasing degrees and
positive leading coefficients c_1, c_2 | c_1, ..., each properly dividing
the previous one.

Every basis comes from one lattice.  Let D be the largest degree of the
generators of an ideal I, and L the smallest lattice in Z^(D+1) (the
coefficients of 1, t, ..., t^D) that holds the generators and holds t*r
for each of its elements r of degree below D.  L lies in I, and I is the
Z[t]-span of L.  Let h be the row of degree D of the Hermite normal form
of L (a generator has degree D).  Closure puts t*L into L + Z*t*h, so
I = L + Z*t*h + Z*t^2*h + ..., and a nonzero element of the second part
has degree above D.  Hence L is I cut down to degree D, the leading
coefficients of I in degree d > D are the multiples of the leading
coefficient of h, and the degree-keyed rows of L are a strong Groebner
basis: completion never raises a degree above D.

`_lattice` builds those rows with `_hnf_insert`.  An insert that grows
the lattice queues t*r for every row it created or replaced; the other
rows keep their multiples.  It stops once the degree-0 row is 1, and
once the rank is full it keeps entries modulo the determinant, since the
lattice then contains that multiple of Z^(D+1).  `_canonicalize` turns
the rows into the reduced basis.  Characteristic ideals (graph_ideals)
use the same routine with a monic generator of degree D.

Coefficient division uses the balanced remainder r in (-m/2, m/2], positive
on ties, which pins down a unique canonical basis per ideal.
"""

from __future__ import annotations

from math import gcd, prod

from .zpoly import ONE, ZPoly


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


def _hnf_insert(rows, v, mod):
    """Merge the integer vector v into a lattice basis in Hermite normal form.

    rows[d] is None or a list of length d + 1 with a positive last (leading)
    entry, so the rows are triangular and keyed by degree; v is a list of at
    most len(rows) entries, consumed.  An xgcd on the leading entries folds
    v into the row at its degree and sends the remainder on down.  When mod
    is nonzero the lattice contains mod * Z^len(rows), so entries other than
    the leading ones are reduced mod it.  Returns the degrees of the rows
    it created or replaced, highest first: empty when v was in the lattice.
    """
    changed = []
    if mod:
        v = [c % mod for c in v]
    while True:
        while v and not v[-1]:
            v.pop()
        if not v:
            return changed
        d = len(v) - 1
        row = rows[d]
        c = v[d]
        if row is None:
            rows[d] = v if c > 0 else [-x for x in v]
            changed.append(d)
            return changed
        a = row[d]
        if c % a == 0:
            q = c // a
            v = [x - q * y for x, y in zip(v[:d], row)]
        else:
            g, x, y = _xgcd(a, c)
            if g < 0:
                g, x, y = -g, -x, -y
            a //= g
            c //= g
            new = [x * p + y * q for p, q in zip(row, v)]
            v = [a * q - c * p for p, q in zip(row[:d], v)]
            if mod:
                new[:d] = [e % mod for e in new[:d]]
            rows[d] = new
            changed.append(d)
        if mod:
            v = [e % mod for e in v]


def _lattice(gens, deg):
    """Degree-keyed HNF rows of the smallest lattice in Z^(deg+1) that holds
    the generators (of degree at most deg) and t*r for each of its rows r
    of degree below deg; rows[d] is None where no element has degree d.

    Stops early, with rows[0] == [1], when the lattice holds 1.
    """
    rows = [None] * (deg + 1)
    mod = 0
    for g in gens:
        queue = [list(g)]
        while queue:
            changed = _hnf_insert(rows, queue.pop(), mod)
            if not changed:
                continue
            if rows[0] == [1]:
                return rows
            if None not in rows:
                det = prod(row[-1] for row in rows)
                if det != mod:
                    mod = det
                    for row in rows:
                        row[:-1] = [e % mod for e in row[:-1]]
            queue.extend([0] + rows[d] for d in changed if d < deg)
    return rows


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


class GroebnerBuilder:
    """Incrementally maintained reduced strong Groebner basis.

    Generators may be fed one at a time; `add` reports whether the ideal
    actually grew, and when it did recomputes the basis from the former
    basis and the new generator.
    """

    __slots__ = ("_basis",)

    def __init__(self, gens=()):
        self._basis = ()
        for g in gens:
            self.add(g)

    @property
    def basis(self):
        return self._basis

    @property
    def is_unit(self):
        return self._basis == (ONE,)

    def add(self, p):
        if not reduce(p, self._basis):
            return False
        self._basis = strong_groebner(self._basis + (p,))
        return True


def strong_groebner(gens):
    """Reduced strong Groebner basis of <gens>; () for the zero ideal, (1) for the unit."""
    gens = [g for g in map(ZPoly, gens) if g]
    if not gens:
        return ()
    return _canonicalize(_lattice(gens, max(map(len, gens)) - 1))


class IdealZt:
    """An ideal of Z[t], held as its reduced strong Groebner basis."""

    __slots__ = ("basis",)

    def __init__(self, generators=(), basis=None):
        self.basis = strong_groebner(generators) if basis is None else tuple(basis)

    @classmethod
    def unit(cls):
        return cls(basis=(ONE,))

    @classmethod
    def zero(cls):
        return cls(basis=())

    def is_trivial(self):
        return self.basis == (ONE,)

    def contains(self, p):
        return not reduce(p, self.basis)

    def subset_of(self, other):
        return all(other.contains(g) for g in self.basis)

    def evaluate(self, c):
        """Nonnegative generator of {p(c) : p in the ideal} as an ideal of Z."""
        out = 0
        for g in self.basis:
            out = gcd(out, g(c))
            if out == 1:
                return 1
        return out

    def __eq__(self, other):
        return isinstance(other, IdealZt) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def pretty(self):
        """Angle-bracket rendering of the basis, e.g. ⟨2, t⟩."""
        if not self.basis:
            return "⟨0⟩"
        return "⟨" + ", ".join(g.pretty() for g in self.basis) + "⟩"

    def __repr__(self):
        return f"IdealZt{self.pretty()}"

    def to_json_dict(self):
        """Coefficient arrays low-degree first, integers as decimal strings;
        "generators" repeats the basis."""
        basis = [[str(c) for c in g] for g in self.basis]
        return {"generators": basis, "basis": basis}
