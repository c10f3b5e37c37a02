"""Dense univariate polynomials with arbitrary-precision integer coefficients."""

from __future__ import annotations


class ZPoly(tuple):
    """A polynomial in t over the integers, stored as a coefficient tuple.

    Index = power of t, so ``ZPoly((0, -4, -5, 0, 1))`` is t^4 - 5t^2 - 4t.
    Trailing zeros are stripped on construction; the zero polynomial is the
    empty tuple (and is falsy).  Instances are immutable and hashable, and
    compare equal exactly when their coefficient sequences match.
    """

    __slots__ = ()

    def __new__(cls, coeffs=()):
        coeffs = tuple(coeffs)
        end = len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        if end != len(coeffs):
            coeffs = coeffs[:end]
        return tuple.__new__(cls, coeffs)

    @classmethod
    def const(cls, c):
        return tuple.__new__(cls, (c,)) if c else ZERO

    @classmethod
    def monomial(cls, c, power=1):
        if not c:
            return ZERO
        return tuple.__new__(cls, (0,) * power + (c,))

    def __neg__(self):
        return tuple.__new__(ZPoly, tuple(-c for c in self))

    def __add__(self, other):
        # polynomials and integers only: tuple + ZPoly then concatenates, as
        # for any tuples, and ZPoly + tuple raises TypeError
        if isinstance(other, int):
            other = ZPoly.const(other)
        elif not isinstance(other, ZPoly):
            return NotImplemented
        if len(self) < len(other):
            self, other = other, self
        out = list(self)
        for i, c in enumerate(other):
            out[i] += c
        return ZPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = ZPoly.const(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return ZERO
            return tuple.__new__(ZPoly, tuple(c * other for c in self))
        if not self or not other:
            return ZERO
        out = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            if a:
                for j, b in enumerate(other):
                    out[i + j] += a * b
        return ZPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        out = 0
        for c in reversed(self):
            out = out * x + c
        return out

    def pretty(self):
        """Render like the usual hand-written form, e.g. ``t^2 + t - 1``."""
        if not self:
            return "0"
        parts = []
        for power in range(len(self) - 1, -1, -1):
            c = self[power]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                var = "t" if power == 1 else f"t^{power}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"ZPoly({tuple(self)!r})"


ZERO = tuple.__new__(ZPoly, ())
ONE = tuple.__new__(ZPoly, (1,))
T = tuple.__new__(ZPoly, (0, 1))
