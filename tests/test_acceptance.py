"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each (run with -s to see them live)."""

import random
import time
from itertools import product
from math import gcd

import pytest

from charideals import (BlowupSpec, IdealZt, ZPoly, adjacency_matrix,
                        algebraic_corank, all_k_minors_in_ideal, blowup,
                        canonical_form, char_ideal_profile, characteristic_ideal,
                        cross_check, delta_sequence,
                        invariant_factors_from_deltas,
                        is_K_leq_regular, laplacian_matrix, lookup, mine,
                        multipartite_closed_form, parse_graph6, snf_diagonal,
                        to_graph6, MiningTask)
from charideals.catalog import (FORBIDDEN_S4, complete_multipartite_graph,
                                cycle_graph, star_graph)
from charideals.ztideal import reduce as zt_reduce

import oracles


def P(*coeffs):
    return ZPoly(coeffs)


def _report(name, t0, detail=""):
    extra = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {name}: PASS ({time.time() - t0:.2f}s){extra}")


def test_criterion_1_diamond_regression():
    t0 = time.time()
    d = lookup("diamond")
    assert characteristic_ideal(d, 1).is_trivial()
    assert characteristic_ideal(d, 2).is_trivial()
    assert characteristic_ideal(d, 3) == IdealZt((P(2), P(0, 1)))
    assert characteristic_ideal(d, 4) == IdealZt((P(0, -4, -5, 0, 1),))
    assert snf_diagonal(adjacency_matrix(d)) == (1, 1, 2, 0)
    assert algebraic_corank(d) == 2
    _report("1 diamond regression", t0)


def test_criterion_2_c5_and_prism_fourth_ideals():
    t0 = time.time()
    c5, pr = cycle_graph(5), lookup("prism")
    assert characteristic_ideal(c5, 3).is_trivial()
    assert characteristic_ideal(pr, 3).is_trivial()
    assert characteristic_ideal(c5, 4) == IdealZt((P(-1, 1, 1),))
    assert characteristic_ideal(pr, 4) == IdealZt((P(5), P(2, 1)))
    _report("2 C5 / prism fourth ideals", t0)


def test_criterion_3_blowup_fourth_ideals_and_containments():
    t0 = time.time()
    bound_c = IdealZt((P(3), P(1, 1)))
    bound_s = IdealZt((P(2), P(1, 1)))
    gc = blowup(BlowupSpec(cycle_graph(4), (-4, -4, -4, -4)))
    gs = blowup(BlowupSpec(star_graph(4), (-4, -4, -4, -4)))
    assert characteristic_ideal(gc, 3).is_trivial()
    assert characteristic_ideal(gs, 3).is_trivial()
    assert characteristic_ideal(gc, 4) == bound_c
    assert characteristic_ideal(gs, 4) == bound_s
    checked = 0
    for r in product((-1, -2, -3, -4), repeat=4):
        if r == (-4, -4, -4, -4):
            continue
        assert all_k_minors_in_ideal(blowup(BlowupSpec(cycle_graph(4), r)), 4, bound_c)
        assert all_k_minors_in_ideal(blowup(BlowupSpec(star_graph(4), r)), 4, bound_s)
        checked += 1
    assert checked == 255
    _report("3 blow-up fourth ideals + 255 containments", t0)


def _partitions(n, minpart=1):
    def rec(rem, maxp):
        if rem == 0:
            yield ()
            return
        for p in range(min(rem, maxp), minpart - 1, -1):
            for rest in rec(rem - p, p):
                yield (p,) + rest
    yield from rec(n, n)


def test_criterion_4_multipartite_snf():
    t0 = time.time()
    checked = 0
    for n in range(2, 11):
        for parts in _partitions(n):
            if len(parts) < 2:
                continue
            k = len(parts)
            g = complete_multipartite_graph(parts)
            want = (1,) * (k - 1) + (k - 1,) + (0,) * (n - k)
            assert snf_diagonal(adjacency_matrix(g)) == want, parts
            checked += 1
    _report("4 multipartite SNF", t0, f"{checked} graphs")


def test_criterion_5_mining_reproduction():
    t0 = time.time()
    res = mine(MiningTask(6, "phiA", 4))
    want43 = sorted(canonical_form(parse_graph6(s)) for s in FORBIDDEN_S4)
    assert sorted(res.minimal) == want43
    assert len(res.minimal) == 43
    assert all(parse_graph6(s).n == 6 for s in res.minimal)

    def canon(*names):
        return sorted(canonical_form(lookup(n)) for n in names)

    assert sorted(mine(MiningTask(5, "phiA", 2)).minimal) == canon("p4", "paw", "k4")
    assert sorted(mine(MiningTask(6, "phiA", 3)).minimal) == canon("p4", "paw", "k5")
    assert sorted(mine(MiningTask(6, "gammaA", 2)).minimal) == canon("p4", "paw", "k5-e")
    _report("5 mining reproduction", t0)


def test_criterion_6_theorem_cross_check_n7():
    t0 = time.time()
    res = cross_check(7)
    assert res.graphs_checked == 996  # 1+1+2+6+21+112+853 isomorphism classes
    assert res.violations == []
    # counts derivable by hand from the characterisations: the S families are
    # the complete multipartite graphs with at most k+1 parts (partition
    # counting), C<=1/K<=1 the complete graphs, K<=2 adds the balanced bi-
    # and tripartite graphs, K<=3 adds the 5-cycle, the prism and balanced
    # 4-partite graphs (the balanced 4-cycle blow-up on <= 7 vertices is C_4
    # itself, already counted)
    assert res.family_counts["S<=1"] == 1
    assert res.family_counts["S<=2"] == 24
    assert res.family_counts["S<=3"] == 31
    assert res.family_counts["C<=1"] == 7
    assert res.family_counts["C<=2"] == 28
    assert res.family_counts["K<=1"] == 7
    assert res.family_counts["K<=2"] == 10
    assert res.family_counts["K<=3"] == 12
    _report("6 cross-check n<=7", t0, f"counts {res.family_counts}")


@pytest.mark.slow
def test_criterion_6_theorem_cross_check_n8():
    # one size up: C<=k and K<=k read the co-rank bound and the Laplacian
    # unit count, so their counts pin both
    t0 = time.time()
    res = cross_check(8)
    assert res.graphs_checked == 12113
    assert res.violations == []
    assert res.family_counts == {"S<=1": 1, "S<=2": 33, "S<=3": 45, "S<=4": 852,
                                 "C<=1": 8, "C<=2": 38, "C<=3": 122,
                                 "K<=1": 8, "K<=2": 12, "K<=3": 16}
    _report("6 cross-check n<=8", t0, f"counts {res.family_counts}")


def test_criterion_7_regular_fourth_invariants():
    t0 = time.time()
    for r in (2, 3, 4):
        g = complete_multipartite_graph((r, r, r, r))
        assert snf_diagonal(laplacian_matrix(g)).factors[3] == 3, r
    for r in (4, 5):
        g = blowup(BlowupSpec(cycle_graph(4), (-r,) * 4))
        assert snf_diagonal(laplacian_matrix(g)).factors[3] == 3, r
    fourth = {}
    for r in (1, 2, 3):
        g = blowup(BlowupSpec(cycle_graph(4), (-r,) * 4))
        lap = snf_diagonal(laplacian_matrix(g))
        assert lap.ones <= 3
        assert is_K_leq_regular(g, 3)[0]
        fourth[r] = lap.factors[3]
    _report("7 regular fourth invariants", t0,
            f"fourth factor of small cycle blow-ups {fourth}")


def test_criterion_8a_snf_vs_minor_gcd_oracle():
    t0 = time.time()
    rng = random.Random(2024)
    cases = 0
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        assert snf_diagonal(m) == invariant_factors_from_deltas(delta_sequence(m))
        cases += 1
    assert cases >= 500
    _report("8a SNF vs minor-gcd oracle", t0, f"{cases} cases")


def test_criterion_8b_ideal_chain():
    t0 = time.time()
    rng = random.Random(2025)
    cases = 0
    while cases < 500:
        g = oracles.random_graph(rng, rng.randint(2, 6))
        profile = char_ideal_profile(g)
        for upper, lower in zip(profile.ideals[1:], profile.ideals):
            assert not any(zt_reduce(p, lower.basis) for p in upper.basis)
            cases += 1
    _report("8b descending ideal chain", t0, f"{cases} cases")


def test_criterion_8c_induced_subgraph_containment():
    t0 = time.time()
    rng = random.Random(2026)
    cases = 0
    while cases < 500:
        g = oracles.random_graph(rng, rng.randint(2, 6))
        keep = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        h = g.subgraph(keep)
        k = rng.randint(1, h.n)
        inner = characteristic_ideal(h, k)
        outer = characteristic_ideal(g, k)
        for gen in inner.basis:
            assert not zt_reduce(gen, outer.basis)
        cases += 1
    _report("8c induced-subgraph ideal containment", t0, f"{cases} cases")


def test_criterion_8d_corank_bounds():
    t0 = time.time()
    rng = random.Random(2027)
    cases = 0
    regular_cases = 0
    pool = [cycle_graph(n) for n in range(3, 9)]
    pool += [lookup(f"k{n}") for n in range(2, 7)]
    pool += [complete_multipartite_graph((r, r)) for r in (2, 3)]
    pool += [lookup("prism"), complete_multipartite_graph((2, 2, 2))]
    while cases < 500:
        if cases % 10 == 0 and pool:
            g = pool[(cases // 10) % len(pool)]
        else:
            g = oracles.random_graph(rng, rng.randint(1, 6))
        gamma = algebraic_corank(g)
        assert gamma <= snf_diagonal(adjacency_matrix(g)).ones
        if g.regular_degree() is not None:
            assert gamma <= snf_diagonal(laplacian_matrix(g)).ones
            regular_cases += 1
        cases += 1
    assert regular_cases >= 50
    _report("8d corank bounds", t0, f"{cases} cases, {regular_cases} regular")


def test_criterion_8e_blowup_preserves_nonzero_invariants():
    t0 = time.time()
    rng = random.Random(2028)
    cases = 0
    while cases < 500:
        g = oracles.random_graph(rng, rng.randint(1, 5))
        d = tuple(rng.randint(1, 3) for _ in range(g.n))
        if sum(d) > 10:
            continue
        big = blowup(BlowupSpec(g, d))
        small_nz = [v for v in snf_diagonal(adjacency_matrix(g)) if v]
        big_nz = [v for v in snf_diagonal(adjacency_matrix(big)) if v]
        assert small_nz == big_nz
        cases += 1
    _report("8e blow-up invariant preservation", t0, f"{cases} cases")


def test_criterion_8f_multipartite_closed_form():
    t0 = time.time()
    rng = random.Random(2029)
    equality_cases = 0
    eval_cases = 0
    for n in range(4, 9):
        for parts in _partitions(n, minpart=2):
            if len(parts) < 2:
                continue
            g = complete_multipartite_graph(parts)
            for j in range(1, n + 1):
                direct = characteristic_ideal(g, j)
                closed = multipartite_closed_form(parts, j)
                assert direct == closed, (parts, j)
                equality_cases += 1
                for _ in range(6):
                    c = rng.randint(-10, 10)
                    assert direct.evaluate(c) == closed.evaluate(c)
                    eval_cases += 1
    assert equality_cases + eval_cases >= 500
    _report("8f multipartite closed form", t0,
            f"{equality_cases} ideal equalities, {eval_cases} evaluation checks")


def test_criterion_8g_groebner_closure():
    t0 = time.time()
    rng = random.Random(2030)
    cases = 0

    def pairs(f, g):
        if len(f) < len(g):
            f, g = g, f
        cf, cg = f[-1], g[-1]
        shifted = ZPoly((0,) * (len(f) - len(g)) + g)
        l = cf // gcd(cf, cg) * cg
        spoly = f * (l // cf) - shifted * (l // cg)
        # the leading terms cancel only when g is shifted up to f's degree
        assert len(spoly) < len(f), (f, g)
        yield spoly
        a, b, oa, ob = 0, 1, 1, 0
        x, y = cf, cg
        while y:
            q = x // y
            x, y = y, x - q * y
            oa, a = a, oa - q * a
            ob, b = b, ob - q * b
        gpoly = f * oa + shifted * ob
        assert len(gpoly) == len(f) and gpoly[-1] == gcd(cf, cg), (f, g)
        yield gpoly

    while cases < 500:
        gens = [ZPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 5))])
                for _ in range(rng.randint(1, 5))]
        basis = IdealZt(gens).basis
        assert oracles.strong_groebner(basis) == basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                for cand in pairs(basis[i], basis[j]):
                    assert zt_reduce(cand, basis) == ()
        cases += 1
    _report("8g Groebner closure", t0, f"{cases} cases")


def test_criterion_8h_graph6_round_trips():
    t0 = time.time()
    rng = random.Random(2031)
    cases = 0
    for _ in range(500):
        g = oracles.random_graph(rng, rng.randint(1, 40), rng.random())
        s = to_graph6(g)
        assert parse_graph6(s) == g
        assert to_graph6(parse_graph6(s)) == s
        cases += 1
    _report("8h graph6 round-trips", t0, f"{cases} cases")
