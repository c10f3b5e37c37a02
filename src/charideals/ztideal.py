"""Ideals of Z[t]: strong Groebner bases, reduction, membership, evaluation.

With a single variable the monomial order is forced (by degree), but the
coefficient ring Z is only Euclidean.  A reduced strong Groebner basis
looks like a staircase g_1, ..., g_s with strictly increasing degrees and
positive leading coefficients c_1, c_2 | c_1, ..., each properly dividing
the previous one.

Every basis comes from one lattice.  Let D be any degree at or above the
largest degree of the generators of an ideal I, and L the smallest
lattice in Z^(D+1) (the coefficients of 1, t, ..., t^D) that holds the
generators and holds t*r for each of its elements r of degree below D.
L lies in I, and I is the Z[t]-span of L.  Let h be the row of degree D
of the Hermite normal form of L (a generator times a power of t has
degree D).  Closure puts t*L into L + Z*t*h, so
I = L + Z*t*h + Z*t^2*h + ..., and a nonzero element of the second part
has degree above D.  Hence L is I cut down to degree D, the leading
coefficients of I in degree d > D are the multiples of the leading
coefficient of h, and the degree-keyed rows of L are a strong Groebner
basis: completion never raises a degree above D.

`_lattice` builds those rows with `_hnf_insert`.  An insert that grows
the lattice queues t*r for every row it created or replaced; the other
rows keep their multiples.  It stops once the degree-0 row is 1, and
once the rank is full it keeps entries modulo the determinant, since the
lattice then contains that multiple of Z^(D+1).  Characteristic ideals
(graph_ideals) use the same routine with D = k for the k-minors, which
may lie above their top degree.

The leading coefficients of the rows weakly fall with the degree, as t*r
is in L, so `_canonicalize` reads the reduced basis straight off them:
the rows at the degrees where the leading coefficient drops, each reduced
by the kept rows below it.  `reduce` takes such a reduced basis and walks
a polynomial once from its top degree down.  Coefficient division uses
the balanced remainder r in (-m/2, m/2], positive on ties, which pins
down a unique canonical basis per ideal.
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
    """Normal form of p modulo a reduced strong Groebner basis.

    Zero exactly when p lies in the ideal the basis generates.  One walk
    from the top degree down balanced-reduces the coefficient at each
    degree d by the basis element of highest degree at most d, whose
    leading coefficient is the least one applicable there; that step only
    changes degree d and below.
    """
    work = list(p)
    i = len(basis) - 1
    for d in range(len(work) - 1, -1, -1):
        while i >= 0 and len(basis[i]) > d + 1:
            i -= 1
        if i < 0:
            break
        g = basis[i]
        q, _ = _bal_div(work[d], g[-1])
        if q:
            s = d + 1 - len(g)
            for j, b in enumerate(g):
                work[s + j] -= q * b
    return ZPoly(work)


def _canonicalize(rows):
    """The reduced basis read off the degree-keyed rows of `_lattice`: the
    rows where the leading coefficient drops, each reduced by those below."""
    if rows[0] == [1]:
        return (ONE,)
    basis = []
    for row in rows:
        if row is not None and (not basis or row[-1] != basis[-1][-1]):
            basis.append(reduce(row, basis))
    return tuple(basis)


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
    """An ideal of Z[t], held as its reduced strong Groebner basis; `basis=`
    takes such a basis as it is, and rejects one that is not a staircase."""

    __slots__ = ("basis",)

    def __init__(self, generators=(), basis=None):
        self.basis = strong_groebner(generators) if basis is None else tuple(basis)
        steps = [(len(g), g[-1]) if g else (0, 0) for g in self.basis]
        if any(c <= 0 for _, c in steps) or any(
                d >= e or b % c or b == c for (d, b), (e, c) in zip(steps, steps[1:])):
            raise ValueError("basis must have rising degrees, each leading coefficient "
                             "a positive proper divisor of the one before")

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
