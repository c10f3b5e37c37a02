import random
from math import gcd

import pytest

from charideals.graph_ideals import _minors, _presentation
from charideals.mining import enumerate_connected
from charideals.zpoly import ONE, ZPoly
from charideals.ztideal import (GroebnerBuilder, IdealZt, _canonicalize, _lattice, reduce,
                                strong_groebner)

import oracles


def P(*coeffs):
    return ZPoly(coeffs)


# the five distinct 3-minors of the diamond's characteristic matrix
DIAMOND_3MINORS = [P(0, -2, 0, 1), P(0, -2, -1), P(0, 1, 1), P(-2, -3, 0, 1), P(-2, -2)]


def test_groebner_diamond_example():
    assert strong_groebner(DIAMOND_3MINORS) == (P(2), P(0, 1))


def test_groebner_zero_ideal():
    assert strong_groebner([]) == ()
    assert strong_groebner([P(), P()]) == ()


def test_groebner_unit_from_paw_minors():
    # -t^2 - t + 1 and t^2 + t sum to 1
    assert strong_groebner([P(1, -1, -1), P(0, 1, 1)]) == (ONE,)


def test_groebner_principal_stays_put():
    assert strong_groebner([P(-1, 1, 1)]) == (P(-1, 1, 1),)


def test_groebner_requeues_t_multiples_of_new_rows():
    # the t-multiples of the generators alone span a lattice that misses
    # t times the rows the two generators combine into
    assert strong_groebner([P(-7, 2, 9, -8), P(8, -1, 6, -1)]) == (
        P(105016), P(-13256, 8), P(33961, 2, 1))


def test_groebner_matches_buchberger_on_random_sets():
    rng = random.Random(53)
    cases = [[], [P(), P()], [P(1, -1, -1), P(0, 1, 1)], [P(-7, 2, 9, -8), P(8, -1, 6, -1)]]
    while len(cases) < 2000:
        top = rng.randint(0, 6)
        gens = [ZPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, top + 1))])
                for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            content = rng.randint(2, 12)
            gens = [g * content for g in gens]
        cases.append(gens)
    for gens in cases:
        assert strong_groebner(gens) == oracles.strong_groebner(gens), gens


def test_groebner_idempotent_and_order_free():
    rng = random.Random(11)
    for _ in range(200):
        gens = [ZPoly([rng.randint(-6, 6) for _ in range(rng.randint(0, 5))])
                for _ in range(rng.randint(0, 5))]
        basis = strong_groebner(gens)
        assert strong_groebner(basis) == basis
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert strong_groebner(shuffled) == basis


def test_reduce_membership():
    basis = (P(2), P(0, 1))
    assert reduce(P(4, 2), basis) == ()
    assert reduce(P(1, 1), basis) == (1,)  # 1 = t+1 - t, then balanced mod 2
    p = P(3, -1, 7)
    assert reduce(p, ()) == tuple(p)


def test_reduce_balanced_convention():
    # remainders sit in (-m/2, m/2], positive on ties
    basis = (P(4),)
    assert reduce(P(6), basis) == (2,)
    assert reduce(P(-2), basis) == (2,)
    assert reduce(P(3), basis) == (-1,)
    basis = (P(3),)
    assert reduce(P(2), basis) == (-1,)
    assert reduce(P(-1), basis) == (-1,)


def test_is_trivial():
    assert IdealZt((P(1, -1, -1), P(0, 1, 1))).is_trivial()
    assert not IdealZt((P(2), P(0, 1))).is_trivial()
    assert not IdealZt.zero().is_trivial()


def test_contains_and_subset():
    i = IdealZt((P(2), P(0, 1)))
    assert i.contains(P(0, -4, 0, -5, 1))  # t^4 - 5t^2 - 4t
    a, b = IdealZt((P(1, 1), P(3))), IdealZt((P(3), P(-2, 1)))
    assert a.subset_of(b) and b.subset_of(a)
    assert not IdealZt.unit().subset_of(i)
    assert i.subset_of(IdealZt.unit())
    assert IdealZt.zero().subset_of(i)


def test_membership_brute_force_low_degree():
    # (t+1) - 1 = t must be an explicit combination of 2 and t: it is t itself
    i = IdealZt((P(2), P(0, 1)))
    residue = reduce(P(1, 1), i.basis)
    diff = P(1, 1) - ZPoly(residue)
    assert i.contains(diff)
    found = False
    for a in range(-3, 4):
        for b in range(-3, 4):
            if ZPoly((2 * a,)) + ZPoly((0, b)) == diff:
                found = True
    assert found


def test_evaluate_ideal():
    assert IdealZt((P(2), P(0, 1))).evaluate(0) == 2
    assert IdealZt.unit().evaluate(12345) == 1
    assert IdealZt((P(1, 1), P(3))).evaluate(3 * 4 - 1) == 3
    assert IdealZt.zero().evaluate(5) == 0


def test_basis_argument_must_be_a_staircase():
    assert IdealZt(basis=(P(2), P(0, 1))).contains(P(0, 1))
    for bad in ((P(0, 1), P(2)), (P(2), P(1, 3)), (P(-2),), (P(3), P(0, 2)), (P(2), P(0, 2)),
                (P(),)):
        with pytest.raises(ValueError):
            IdealZt(basis=bad)


def test_generator_normalisation():
    i = IdealZt((P(0, -1), P(0, 1), P(), P(0, 1)))
    assert i.basis == (P(0, 1),)


def test_canonical_sorting_and_signs():
    i = IdealZt((P(0, 1, 0, -1), P(6), P(-4)))
    for g in i.basis:
        assert g.lead > 0
    degs = [len(g) for g in i.basis]
    assert degs == sorted(degs)


def test_builder_incremental_matches_batch():
    rng = random.Random(23)
    for _ in range(100):
        gens = [ZPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 4))])
                for _ in range(rng.randint(1, 6))]
        builder = GroebnerBuilder()
        for g in gens:
            builder.add(g)
        assert builder.basis == strong_groebner(gens)


def test_builder_unit_early_flag():
    builder = GroebnerBuilder()
    builder.add(P(1, -1, -1))
    assert not builder.is_unit
    builder.add(P(0, 1, 1))
    assert builder.is_unit
    assert builder.add(P(5, 7)) is False  # everything already inside


def _spair_gpair(f, g):
    if len(f) < len(g):
        f, g = g, f
    cf, cg = f[-1], g[-1]
    s = len(f) - len(g)
    shifted = g.shifted(s)
    l = cf // gcd(cf, cg) * cg
    yield f * (l // cf) - shifted * (l // cg)
    # Bezout combination for the coefficient gcd
    a, b, old_a, old_b = 0, 1, 1, 0
    x, y = cf, cg
    while y:
        q = x // y
        x, y = y, x - q * y
        old_a, a = a, old_a - q * a
        old_b, b = b, old_b - q * b
    yield f * old_a + shifted * old_b


def test_buchberger_completeness():
    rng = random.Random(37)
    cases = 0
    while cases < 500:
        gens = [ZPoly([rng.randint(-8, 8) for _ in range(rng.randint(0, 5))])
                for _ in range(rng.randint(1, 5))]
        basis = strong_groebner(gens)
        if len(basis) < 2:
            if basis and reduce(basis[0] * ZPoly((rng.randint(-3, 3), 1)), basis) != ():
                raise AssertionError("principal basis fails to reduce its own multiple")
            cases += 1
            continue
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                for cand in _spair_gpair(basis[i], basis[j]):
                    assert reduce(cand, basis) == ()
        cases += 1


def test_equal_ideals_identical_bases():
    rng = random.Random(41)
    for _ in range(200):
        gens = [ZPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
                for _ in range(rng.randint(1, 4))]
        i = IdealZt(gens)
        mixed = list(gens)
        for _ in range(3):
            a, b = rng.choice(gens), rng.choice(gens)
            mixed.append(a * ZPoly((rng.randint(-2, 2), rng.randint(-2, 2))) + b)
        j = IdealZt(mixed)
        assert i.subset_of(j) and j.subset_of(i)
        assert i.basis == j.basis


def test_evaluation_consistency_generators_vs_basis():
    rng = random.Random(43)
    for _ in range(300):
        gens = [ZPoly([rng.randint(-6, 6) for _ in range(rng.randint(0, 5))])
                for _ in range(rng.randint(1, 5))]
        i = IdealZt(gens)
        c = rng.randint(-10, 10)
        by_gens = 0
        for g in gens:
            by_gens = gcd(by_gens, g(c))
        assert i.evaluate(c) == by_gens


def test_evaluation_divides_members():
    rng = random.Random(47)
    for _ in range(200):
        gens = [ZPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
                for _ in range(rng.randint(1, 3))]
        i = IdealZt(gens)
        p = ZPoly(())
        for g in gens:
            p = p + g * ZPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
        assert i.contains(p)
        c = rng.randint(-8, 8)
        ev = i.evaluate(c)
        if ev:
            assert p(c) % ev == 0
        else:
            assert p(c) == 0


def test_json_round_trip():
    i = IdealZt((P(2), P(0, 1)))
    d = i.to_json_dict()
    assert d["basis"] == [["2"], ["0", "1"]]
    assert d["generators"] == d["basis"]


def test_pretty():
    assert IdealZt((P(2), P(0, 1))).pretty() == "⟨2, t⟩"
    assert IdealZt.zero().pretty() == "⟨0⟩"
    assert IdealZt.unit().pretty() == "⟨1⟩"


def _assert_one_pass_matches_oracle(rows, probes):
    basis = _canonicalize(rows)
    assert basis == oracles._canonicalize(rows), rows
    for p in probes:
        assert reduce(p, basis) == oracles.reduce(p, basis), (p, basis)


def test_one_pass_kernels_match_oracle_on_random_lattices():
    rng, extra = random.Random(59), random.Random(61)
    for i in range(1500):
        gens = [ZPoly([rng.randint(-20, 20) for _ in range(rng.randint(1, 8))])
                for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            content = rng.randint(2, 30)
            gens = [g * content for g in gens]
        gens = [g for g in gens if g]
        if not gens:
            continue
        probes = [ZPoly([rng.randint(-50, 50) for _ in range(rng.randint(0, 10))])
                  for _ in range(3)]
        probes.append(gens[0] * ZPoly((rng.randint(-3, 3), 1)))
        top = max(map(len, gens)) - 1
        rows = _lattice(gens, top)
        _assert_one_pass_matches_oracle(rows, probes)
        # any degree at or above the generators' top one gives the same
        # basis, as the characteristic ideals' degree k does; Buchberger
        # takes about 50 ms a case here, so every 25th case is checked by it
        basis = _canonicalize(_lattice(gens, top + extra.randint(0, 3)))
        assert basis == _canonicalize(rows), gens
        if i % 25 == 0:
            assert basis == oracles.strong_groebner(gens), gens


def test_one_pass_kernels_match_oracle_on_characteristic_ideals_up_to_6():
    shift = ZPoly((3, 1))
    for n in range(1, 7):
        for g in enumerate_connected(n):
            pres = _presentation(g)
            for k in range(1, n + 1):
                minors = list(_minors(pres, k))[:4]
                probes = minors + [m * shift + ONE for m in minors]
                _assert_one_pass_matches_oracle(_lattice(_minors(pres, k), k), probes)
