import random

import pytest

from charideals.zpoly import ONE, T, ZERO, ZPoly

import oracles


def P(*coeffs):
    return ZPoly(coeffs)


def test_trailing_zeros_stripped():
    assert ZPoly((1, 2, 0, 0)) == (1, 2)
    assert ZPoly((0, 0)) == ()
    assert not ZPoly(())
    assert ZPoly((0, 1)) == T


def test_arithmetic_matches_oracle():
    rng = random.Random(7)
    for _ in range(300):
        a = [rng.randint(-5, 5) for _ in range(rng.randint(0, 6))]
        b = [rng.randint(-5, 5) for _ in range(rng.randint(0, 6))]
        pa, pb = ZPoly(a), ZPoly(b)
        assert tuple(pa + pb) == tuple(ZPoly(oracles.poly_add(a, b)))
        assert tuple(pa * pb) == tuple(ZPoly(oracles.poly_mul(a, b)))
        assert tuple(pa - pb) == tuple(ZPoly(oracles.poly_add(a, oracles.poly_scale(b, -1))))
        c = rng.randint(-4, 4)
        assert tuple(pa * c) == tuple(ZPoly(oracles.poly_scale(a, c)))


def test_int_mixing():
    assert P(1, 1) + 1 == (2, 1)
    assert 1 + P(1, 1) == (2, 1)
    assert 3 * T == (0, 3)
    assert P(1, 1) - 1 == (0, 1)
    assert 1 - P(1, 1) == (0, -1)


def test_addition_takes_only_polynomials_and_integers():
    # a tuple on the left concatenates, as tuples do, instead of adding
    assert (0, 0) + P(1, 2) == (0, 0, 1, 2)
    assert type((0, 0) + P(1, 2)) is tuple
    for other in ((1,), [1], 1.5, "t"):
        with pytest.raises(TypeError):
            P(1, 2) + other
    for p in (1 + P(1, 2), P(1, 2) + 1, sum([P(1, 2), P(0, 1), T])):
        assert type(p) is ZPoly
    assert 1 + P(1, 2) == P(1, 2) + 1 == (2, 2)
    assert sum([P(1, 2), P(0, 1), T]) == (1, 4)
    assert sum([P(1, 2), P(-1, -2)]) == ZERO


def test_shift_and_monomial():
    assert ZPoly.monomial(3, 2) == (0, 0, 3)
    assert ZPoly.monomial(0, 5) == ()
    assert ZPoly.const(-2) == (-2,)


def test_evaluation_horner():
    p = P(-1, 1, 1)  # t^2 + t - 1
    assert p(0) == -1
    assert p(2) == 5
    assert p(-3) == 5
    assert ZERO(10) == 0


def test_pretty():
    assert P(0, -4, -5, 0, 1).pretty() == "t^4 - 5t^2 - 4t"
    assert P(-1, 1, 1).pretty() == "t^2 + t - 1"
    assert P(1, 1).pretty() == "t + 1"
    assert P(2).pretty() == "2"
    assert ZERO.pretty() == "0"
    assert ONE.pretty() == "1"
    assert P(0, 1).pretty() == "t"
    assert P(0, -1).pretty() == "-t"


def test_hashable_and_orderable_as_tuples():
    s = {P(1, 2), P(1, 2), P(2, 1)}
    assert len(s) == 2
