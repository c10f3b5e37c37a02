import random
from itertools import combinations
from math import prod

import pytest

from charideals import (BlowupSpec, IdealZt, ZPoly, adjacency_matrix,
                        algebraic_corank, all_k_minors_in_ideal, blowup,
                        char_ideal_profile, characteristic_ideal,
                        critical_invariants_regular,
                        laplacian_matrix, lookup,
                        multipartite_closed_form, smith_invariants_via_ideals,
                        snf_diagonal)
from charideals import graph_ideals
from charideals.catalog import (complete_graph, complete_multipartite_graph,
                                cycle_graph, path_graph, prism_graph, star_graph)
from charideals.graph_ideals import _corank_bound, _generators, _presentation, _unpack
from charideals.graphs import Graph
from charideals.intlinalg import det_int
from charideals.mining import enumerate_connected
from charideals.zpoly import ONE, ZERO

import oracles
from oracles import _distinct_k_minor_polys


def P(*coeffs):
    return ZPoly(coeffs)


def test_diamond_worked_example():
    d = lookup("diamond")
    assert characteristic_ideal(d, 1).is_trivial()
    assert characteristic_ideal(d, 2).is_trivial()
    assert characteristic_ideal(d, 3) == IdealZt((P(2), P(0, 1)))
    assert characteristic_ideal(d, 4) == IdealZt((P(0, -4, -5, 0, 1),))
    assert algebraic_corank(d) == 2
    assert smith_invariants_via_ideals(d) == (1, 1, 2, 0)


def test_characteristic_ideal_range_check():
    with pytest.raises(ValueError):
        characteristic_ideal(lookup("diamond"), 0)
    with pytest.raises(ValueError):
        characteristic_ideal(lookup("diamond"), 5)


def test_complete_graph_closed_form():
    for n in range(2, 7):
        g = complete_graph(n)
        for j in range(1, n):
            want = IdealZt((ZPoly((1, 1)),)) if j > 1 else IdealZt.unit()
            power = ONE
            for _ in range(j - 1):
                power = power * P(1, 1)
            assert characteristic_ideal(g, j) == IdealZt((power,))
        # j = n: <(t - n + 1)(t + 1)^(n-1)>
        power = ONE
        for _ in range(n - 1):
            power = power * P(1, 1)
        assert characteristic_ideal(g, n) == IdealZt((power * P(1 - n, 1),))


def test_c5_and_prism():
    c5 = cycle_graph(5)
    prism = prism_graph()
    assert characteristic_ideal(c5, 3).is_trivial()
    assert characteristic_ideal(prism, 3).is_trivial()
    assert characteristic_ideal(c5, 4) == IdealZt((P(-1, 1, 1),))
    assert characteristic_ideal(prism, 4) == IdealZt((P(5), P(2, 1)))


def test_corank_examples():
    assert algebraic_corank(cycle_graph(5)) == 3
    assert algebraic_corank(complete_graph(1)) == 0
    assert algebraic_corank(path_graph(4)) == 3
    # upper half: the full determinant ideal of P4 is principal and non-unit
    assert characteristic_ideal(path_graph(4), 4) == IdealZt((P(1, 0, -3, 0, 1),))
    charpoly = oracles.poly_perm_det(oracles.char_matrix_lists(path_graph(4)))
    assert tuple(charpoly) == (1, 0, -3, 0, 1)


def test_smith_invariants_via_ideals():
    assert smith_invariants_via_ideals(lookup("k1")) == (0,)
    k222 = complete_multipartite_graph((2, 2, 2))
    assert smith_invariants_via_ideals(k222) == (1, 1, 2, 0, 0, 0)


def test_smith_invariants_match_direct_snf():
    rng = random.Random(53)
    for _ in range(60):
        g = oracles.random_graph(rng, rng.randint(1, 6))
        assert smith_invariants_via_ideals(g) == snf_diagonal(adjacency_matrix(g))


def test_critical_invariants_regular():
    assert critical_invariants_regular(complete_graph(4)) == (1, 4, 4, 0)
    c4 = cycle_graph(4)
    a3 = characteristic_ideal(c4, 3)
    want = IdealZt((P(0, 0, 1), P(0, 2)))
    assert a3.subset_of(want) and want.subset_of(a3)
    assert a3.evaluate(2) == 4
    assert critical_invariants_regular(c4) == snf_diagonal(laplacian_matrix(c4))
    with pytest.raises(ValueError) as err:
        critical_invariants_regular(path_graph(3))
    assert "degrees" in str(err.value)


def test_first_laplacian_invariant_is_one_for_regular_graphs_with_edges():
    for g in (cycle_graph(5), complete_graph(4), prism_graph()):
        assert critical_invariants_regular(g).factors[0] == 1


def test_multipartite_closed_form_examples():
    assert multipartite_closed_form((2, 2, 2), 3) == IdealZt((P(2), P(0, 1)))
    assert multipartite_closed_form((3, 3), 3) == IdealZt((P(0, 1),))
    for r in (2, 3):
        assert multipartite_closed_form((r,) * 4, 4) == IdealZt((P(3), P(0, 1)))


def test_multipartite_closed_form_validation():
    with pytest.raises(ValueError):
        multipartite_closed_form((2,), 1)
    with pytest.raises(ValueError):
        multipartite_closed_form((2, 1), 1)
    with pytest.raises(ValueError):
        multipartite_closed_form((2, 2), 0)
    with pytest.raises(ValueError):
        multipartite_closed_form((2, 2), 5)


def _partitions_min2(n):
    def rec(rem, maxp):
        if rem == 0:
            yield ()
            return
        for p in range(min(rem, maxp), 1, -1):
            if rem - p == 1:
                continue
            for rest in rec(rem - p, p):
                yield (p,) + rest
    for parts in rec(n, n - 2):
        if len(parts) >= 2:
            yield parts


def test_multipartite_closed_form_matches_direct_computation():
    for n in range(4, 9):
        for parts in _partitions_min2(n):
            g = complete_multipartite_graph(parts)
            for j in range(1, n + 1):
                direct = characteristic_ideal(g, j)
                closed = multipartite_closed_form(parts, j)
                assert direct == closed, (parts, j)
                assert direct.subset_of(closed) and closed.subset_of(direct)


def test_multipartite_closed_form_on_larger_part_sizes():
    # each part is a class of false twins, so m parts leave a 2m x 2m matrix
    # before pivots however large the parts are
    rng = random.Random(131)
    seeded = [tuple(rng.randint(2, 24 // m) for _ in range(m))
              for m in (rng.randint(2, 5) for _ in range(8))]
    for parts in seeded + [(12, 12), (8, 8, 8), (5, 5, 5, 5, 4)]:
        m = len(parts)
        g = complete_multipartite_graph(parts)
        mat, _, r, _ = _presentation(g)
        assert len(mat) + r == 2 * m, parts
        for j in range(1, g.n + 1):
            assert characteristic_ideal(g, j) == multipartite_closed_form(parts, j), (parts, j)


def test_chain_property():
    rng = random.Random(59)
    for _ in range(40):
        g = oracles.random_graph(rng, rng.randint(1, 6))
        profile = char_ideal_profile(g)
        for a, b in zip(profile.ideals, profile.ideals[1:]):
            assert b.subset_of(a)
        # gamma is the length of the trivial prefix
        trivial = [i.is_trivial() for i in profile.ideals]
        assert profile.gamma == (trivial.index(False) if False in trivial else g.n)


def test_induced_subgraph_ideal_containment():
    rng = random.Random(61)
    for _ in range(40):
        g = oracles.random_graph(rng, rng.randint(2, 6))
        keep = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        h = g.subgraph(keep)
        k = rng.randint(1, h.n)
        inner = characteristic_ideal(h, k)
        outer = characteristic_ideal(g, k)
        for gen in inner.basis:
            assert outer.contains(gen)


def test_corank_bounded_by_phi():
    rng = random.Random(67)
    for _ in range(60):
        g = oracles.random_graph(rng, rng.randint(1, 6))
        gamma = algebraic_corank(g)
        assert gamma <= snf_diagonal(adjacency_matrix(g)).ones
        if g.regular_degree() is not None:
            assert gamma <= snf_diagonal(laplacian_matrix(g)).ones


def test_blowup_containment_observation():
    bound_c = IdealZt((P(3), P(1, 1)))
    bound_s = IdealZt((P(2), P(1, 1)))
    rng = random.Random(71)
    for _ in range(25):
        r = tuple(rng.choice((-1, -2, -3, -4)) for _ in range(4))
        gc = blowup(BlowupSpec(cycle_graph(4), r))
        gs = blowup(BlowupSpec(star_graph(4), r))
        assert all_k_minors_in_ideal(gc, 4, bound_c)
        assert all_k_minors_in_ideal(gs, 4, bound_s)


def test_all_k_minors_fast_path_matches_enumeration():
    rng = random.Random(73)
    ideals = [IdealZt((P(3), P(1, 1))), IdealZt((P(2), P(0, 1))),
              IdealZt((P(4), P(-1, 1))), IdealZt((P(6), P(2, 1)))]
    for _ in range(80):
        g = oracles.random_graph(rng, rng.randint(1, 5))
        k = rng.randint(1, g.n)
        ideal = rng.choice(ideals)
        fast = all_k_minors_in_ideal(g, k, ideal)
        slow = all(ideal.contains(ZPoly(c)) for c in _distinct_k_minor_polys(g, k))
        assert fast == slow


def _oracle_basis(g, k):
    polys = {c if c[-1] > 0 else tuple(-x for x in c)
             for c in _distinct_k_minor_polys(g, k) if c}
    return oracles.strong_groebner(ZPoly(c) for c in polys)


def _assert_engine_matches_oracle(g, ks):
    for k in ks:
        got = characteristic_ideal(g, k)
        assert got.basis == _oracle_basis(g, k), (g, k)
        d = got.to_json_dict()
        assert d["generators"] == d["basis"]


def test_engine_matches_minor_walk_on_connected_graphs_up_to_6():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            _assert_engine_matches_oracle(g, range(1, n + 1))


def test_engine_matches_minor_walk_on_blowups():
    bases = {"p4": path_graph(4), "k13": star_graph(4), "c4": cycle_graph(4),
             "paw": lookup("paw"), "diamond": lookup("diamond"),
             "k4": complete_graph(4)}
    rng = random.Random(89)
    for name in sorted(bases):
        for sign in (-1, 1):
            sizes = tuple(sign * rng.randint(1, 3) for _ in range(4))
            g = blowup(BlowupSpec(bases[name], sizes))
            _assert_engine_matches_oracle(g, range(1, min(5, g.n) + 1))


def test_engine_matches_minor_walk_without_unit_pivots():
    rng = random.Random(97)
    for n in range(1, 9):
        _assert_engine_matches_oracle(Graph(n), range(1, n + 1))
    for n in range(2, 9):
        _assert_engine_matches_oracle(Graph(n, [(0, 1)]), range(1, n + 1))
    for _ in range(25):
        g = oracles.random_graph(rng, rng.randint(2, 7), p=0.25)
        if not g.is_connected():
            _assert_engine_matches_oracle(g, range(1, g.n + 1))


def _mixed_twin_blowup(rng):
    """A seeded blow-up on at most 10 vertices with a clique class and a
    stable class of 3-4 vertices each, so that both split factors occur."""
    while True:
        base = oracles.random_connected_graph(rng, rng.randint(2, 4))
        sizes = [-rng.randint(3, 4), rng.randint(3, 4)]
        sizes += [rng.choice((-1, 1)) * rng.randint(1, 2) for _ in range(base.n - 2)]
        if sum(map(abs, sizes)) <= 10:
            return blowup(BlowupSpec(base, tuple(sizes)))


def test_twin_split_matches_minor_walk_on_mixed_blowups():
    # the ideals take the membership fallback, which reduces every generator
    ideals = [IdealZt((P(0, 1),)), IdealZt((P(1, 1),)), IdealZt((P(0, 1, 1),)),
              IdealZt((P(2), P(0, 0, 1)))]
    rng = random.Random(113)
    for _ in range(10):
        g = _mixed_twin_blowup(rng)
        assert all(_presentation(g)[3]), g
        bases = [_oracle_basis(g, k) for k in range(1, g.n + 1)]
        for k, want in enumerate(bases, 1):
            assert characteristic_ideal(g, k).basis == want, (g, k)
            for ideal in ideals:
                assert all_k_minors_in_ideal(g, k, ideal) == \
                    IdealZt(basis=want).subset_of(ideal), (g, k, ideal)
        trivial = [b == (ONE,) for b in bases]
        assert algebraic_corank(g) == (trivial.index(False) if False in trivial else g.n), g


def test_twin_split_keeps_the_determinant():
    # det(tI - A) = +-det(M) t^of_t (t+1)^of_t1, with the pivots' units dropped
    rng = random.Random(127)
    for _ in range(30):
        g = _mixed_twin_blowup(rng)
        mat, w, _, (of_t, of_t1) = _presentation(g)
        got = _unpack(det_int(mat), w)
        for c in [P(0, 1)] * of_t + [P(1, 1)] * of_t1:
            got = got * c
        want = oracles.char_poly(g, g.n)
        assert got in (want, -want), g


def test_twin_split_of_the_cycle_clique_blowup():
    # four classes of four true twins: each keeps two vertices and splits off
    # two factors t + 1, leaving an 8 x 8 matrix before the unit pivots
    g = blowup(BlowupSpec(cycle_graph(4), (-4, -4, -4, -4)))
    mat, _, r, split = _presentation(g)
    assert split == (0, 8)
    assert len(mat) + r == 8


def test_all_k_minors_rejects_out_of_range_k():
    # <3, t + 1> takes the Smith-form shortcut, <t^2> the minor reduction
    for ideal in (IdealZt((P(3), P(1, 1))), IdealZt((P(0, 0, 1),)), IdealZt.unit()):
        for g in (Graph(1), cycle_graph(4)):
            for k in (0, g.n + 1):
                with pytest.raises(ValueError, match="out of range"):
                    all_k_minors_in_ideal(g, k, ideal)


def test_membership_fallback_matches_minor_walk():
    rng = random.Random(101)
    ideals = [IdealZt((P(0, 1),)), IdealZt((P(1, 1),)), IdealZt((P(-1, 0, 1),)),
              IdealZt((P(2),)), IdealZt((P(0, 0, 1),)), IdealZt.zero()]
    for _ in range(120):
        g = oracles.random_graph(rng, rng.randint(1, 6))
        k = rng.randint(1, g.n)
        ideal = rng.choice(ideals)
        slow = all(ideal.contains(ZPoly(c)) for c in _distinct_k_minor_polys(g, k))
        assert all_k_minors_in_ideal(g, k, ideal) == slow, (g, k, ideal)


def test_unit_pivots_bound_corank():
    rng = random.Random(103)
    graphs = [oracles.random_graph(rng, rng.randint(1, 7)) for _ in range(60)]
    graphs.append(lookup("petersen"))
    for g in graphs:
        r = _presentation(g)[2]
        assert algebraic_corank(g) >= r
        if r:
            assert characteristic_ideal(g, r).is_trivial()


def _bottom_up_corank(g):
    for k in range(1, g.n + 1):
        if _oracle_basis(g, k) != (ONE,):
            return k - 1
    return g.n


def test_corank_top_down_matches_bottom_up_oracle():
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    assert len(graphs) == 143
    rng = random.Random(107)
    for base in (path_graph(4), star_graph(4), cycle_graph(4), lookup("paw"),
                 lookup("diamond"), complete_graph(4)):
        for sign in (-1, 1):
            sizes = tuple(sign * rng.randint(1, 2) for _ in range(4))
            graphs.append(blowup(BlowupSpec(base, sizes)))
    for g in graphs:
        assert algebraic_corank(g) == _bottom_up_corank(g), g


def test_corank_between_bounds_on_larger_graphs():
    # the co-rank lies between the unit pivots and the evaluation bound, is
    # at most the unit invariant factors of aI - A at every point, and the
    # Buchberger completion of the minors agrees: I_gamma trivial, I_gamma+1 not
    rng = random.Random(109)
    for _ in range(40):
        g = oracles.random_connected_graph(rng, rng.randint(8, 9), rng.choice((0.3, 0.5, 0.7)))
        pres = _presentation(g)
        gamma = algebraic_corank(g)
        assert pres[2] <= gamma <= _corank_bound(pres), g
        for a in (0, 1, -1, 2, -2):
            mat = [[(a if i == j else 0) - g.has_edge(i, j) for j in range(g.n)]
                   for i in range(g.n)]
            assert gamma <= snf_diagonal(mat).ones, (g, a)
        gens = _generators(pres)
        assert oracles.strong_groebner(gens(gamma)) == (ONE,), g
        if gamma < g.n:
            assert oracles.strong_groebner(gens(gamma + 1)) != (ONE,), g


_BOUND_POINTS = (0, 1, -1, 2, -2)


def _unit_factors_at(g, a):
    # aI - A is I_r (+) M(a) (+) D(a) evaluated, so this is r plus the count
    # the bound takes of the pivoted presentation at a
    mat = [[(a if i == j else 0) - g.has_edge(i, j) for j in range(g.n)] for i in range(g.n)]
    return snf_diagonal(mat).ones


def _bound_graphs():
    rng = random.Random(113)
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    for base in (path_graph(4), star_graph(4), cycle_graph(4), lookup("paw"),
                 lookup("diamond"), complete_graph(4)):
        for _ in range(4):
            sizes = tuple(rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(4))
            graphs.append(blowup(BlowupSpec(base, sizes)))
    return graphs


def test_corank_bound_is_the_least_unit_count_over_the_points():
    split = 0
    for g in _bound_graphs():
        pres = _presentation(g)
        split += any(pres[3])
        assert _corank_bound(pres) == min(_unit_factors_at(g, a) for a in _BOUND_POINTS), g
    assert split > 20


def test_corank_bound_stops_at_the_first_point_without_units(monkeypatch):
    # no count is below 0: after the first point where M(a) (+) D(a) has no
    # unit invariant factor, no Smith form is taken
    calls = []

    def counted(m):
        calls.append(m)
        return snf_diagonal(m)
    monkeypatch.setattr(graph_ideals, "snf_diagonal", counted)
    p3 = path_graph(3)
    assert _unit_factors_at(p3, 0) == _presentation(p3)[2] == 2
    assert _corank_bound(_presentation(p3)) == 2
    assert len(calls) == 1
    stopped = 0
    for g in _bound_graphs():
        pres = _presentation(g)
        r = pres[2]
        counts = [_unit_factors_at(g, a) for a in _BOUND_POINTS]
        want = counts.index(r) + 1 if r in counts else len(counts)
        calls.clear()
        _corank_bound(pres)
        assert len(calls) == want, g
        stopped += want < len(counts)
    assert stopped > 100


def test_principal_minor_is_the_characteristic_polynomial():
    rng = random.Random(127)
    for _ in range(40):
        g = oracles.random_graph(rng, rng.randint(1, 6))
        k = rng.randint(1, g.n)
        want = oracles.poly_perm_det(oracles.char_matrix_lists(g.subgraph(range(k))))
        assert tuple(oracles.char_poly(g, k)) == tuple(want), (g, k)


def _minor(mat, rows, cols):
    return ZPoly(oracles.poly_perm_det([[mat[i][j] for j in cols] for i in rows]))


def test_minor_stream_matches_generic_poly_matrix():
    rng = random.Random(79)
    for _ in range(40):
        g = oracles.random_graph(rng, rng.randint(1, 5))
        k = rng.randint(1, g.n)
        pm = oracles.char_matrix_lists(g)
        want = set()
        for rows in combinations(range(g.n), k):
            for cols in combinations(range(g.n), k):
                m = _minor(pm, rows, cols)
                if m:
                    want.add(tuple(m) if m.lead > 0 else tuple(-m))
        got = set()
        for c in _distinct_k_minor_polys(g, k):
            if c:
                got.add(c if c[-1] > 0 else tuple(-x for x in c))
        assert got == want


def _packed(rows):
    # (entries p(2^w), w) for a matrix of coefficient lists, with 2^(w-1)
    # past the permanent bound, so every minor unpacks uniquely
    bound = prod(max(1, sum(abs(c) for e in row for c in e)) for row in rows)
    w = bound.bit_length() + 1
    return [[ZPoly(e)(1 << w) for e in row] for row in rows], w


def _packed_det(rows):
    mat, w = _packed(rows)
    return _unpack(det_int(mat), w)


def test_poly_matrix_det_against_oracle():
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[[rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
                 for _ in range(n)] for _ in range(n)]
        assert _packed_det(rows) == ZPoly(oracles.poly_perm_det(rows)), rows


def _random_poly_rows(rng, n):
    return [[[rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
             for _ in range(n)] for _ in range(n)]


def test_poly_det_of_singular_matrix_is_the_zero_polynomial():
    # a zero column leaves Bareiss no pivot: the packed result is the int 0
    rng = random.Random(89)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = _random_poly_rows(rng, n)
        zero_col = rng.randrange(n)
        for row in rows:
            row[zero_col] = []
        mat, w = _packed(rows)
        d = det_int(mat)
        assert type(d) is int and d == 0 and _unpack(d, w) == ZERO, (rows, d)


def test_poly_det_with_row_swaps_against_oracle():
    # a zero leading entry over a nonzero one makes Bareiss swap rows
    rng = random.Random(97)
    for _ in range(40):
        n = rng.randint(4, 6)
        rows = _random_poly_rows(rng, n)
        rows[0][0] = []
        rows[rng.randrange(1, n)][0] = [rng.choice((-1, 1)), rng.randint(-2, 2)]
        assert _packed_det(rows) == ZPoly(oracles.poly_perm_det(rows)), rows


def test_char_matrix_block_form_of_cycle_blowup():
    # the 16-vertex clique blow-up of the 4-cycle has char matrix
    # [[L, -J, 0, -J], [-J, L, -J, 0], [0, -J, L, -J], [-J, 0, -J, L]]
    # with L = (t+1)I_4 - J_4
    g = blowup(BlowupSpec(cycle_graph(4), (-4, -4, -4, -4)))
    pm = oracles.char_matrix(g)
    t_plus_1 = P(1, 1)
    blocks = {(0, 1): -1, (1, 2): -1, (2, 3): -1, (0, 3): -1}
    for bi in range(4):
        for bj in range(4):
            for i in range(4):
                for j in range(4):
                    e = pm[4 * bi + i][4 * bj + j]
                    if bi == bj:
                        # L's diagonal is (t+1)-1 = t, off-diagonal -1
                        want = t_plus_1 - 1 if i == j else P(-1)
                    elif (min(bi, bj), max(bi, bj)) in blocks:
                        want = P(-1)
                    else:
                        want = P()
                    assert e == want


def test_profile_gamma_matches_algebraic_corank():
    for name in ("diamond", "paw", "c5", "p4", "k4"):
        g = lookup(name)
        assert char_ideal_profile(g).gamma == algebraic_corank(g)


def test_paw_char_matrix_and_unit_combination():
    # the printed characteristic matrix of the paw, and the two 3x3 minors
    # whose sum is 1
    paw = lookup("paw")
    pm = oracles.char_matrix(paw)
    t = P(0, 1)
    want = [[t, P(-1), P(), P()],
            [P(-1), t, P(-1), P(-1)],
            [P(), P(-1), t, P(-1)],
            [P(), P(-1), P(-1), t]]
    assert pm == want
    p = _minor(pm, (0, 1, 2), (0, 1, 3))
    q = _minor(pm, (0, 1, 2), (0, 2, 3))
    assert p == P(1, -1, -1)   # -t^2 - t + 1
    assert q == P(0, 1, 1)     # t^2 + t
    assert p + q == ONE
    assert characteristic_ideal(paw, 3).is_trivial()


def test_k5_minus_e_unit_combination():
    pm = oracles.char_matrix(lookup("k5-e"))
    p = _minor(pm, (0, 1, 2), (0, 1, 3))
    q = _minor(pm, (1, 2, 3), (1, 2, 4))
    assert p == P(0, -2, -1)       # -t^2 - 2t
    assert q == P(-1, -2, -1)      # -t^2 - 2t - 1
    assert p - q == ONE
    assert characteristic_ideal(lookup("k5-e"), 3).is_trivial()


def test_char_matrix_block_form_of_star_blowup():
    # [[L, -J, -J, -J], [-J, L, 0, 0], [-J, 0, L, 0], [-J, 0, 0, L]]
    g = blowup(BlowupSpec(star_graph(4), (-4, -4, -4, -4)))
    pm = oracles.char_matrix(g)
    for bi in range(4):
        for bj in range(4):
            for i in range(4):
                for j in range(4):
                    e = pm[4 * bi + i][4 * bj + j]
                    if bi == bj:
                        want = P(0, 1) if i == j else P(-1)
                    elif bi == 0 or bj == 0:
                        want = P(-1)
                    else:
                        want = P()
                    assert e == want


def test_path_corank_law():
    # gamma of the k-vertex path is k - 1: the smaller ideals contain a unit
    # minor and the full determinant ideal is principal and monic of degree k
    for k in range(2, 8):
        assert algebraic_corank(path_graph(k)) == k - 1


def test_family_f_fourth_ideals_all_trivial():
    # each of the 14 obstructions has a trivial fourth characteristic ideal,
    # which is what puts any graph containing one outside the co-rank-3 family
    from charideals.catalog import FAMILY_F
    for name, g in FAMILY_F.items():
        assert characteristic_ideal(g, 4).is_trivial(), name


def test_k2_corollary_third_ideal_table():
    assert characteristic_ideal(complete_graph(3), 3) == IdealZt((P(-2, 1) * P(1, 1) * P(1, 1),))
    for r in (3, 4):
        assert characteristic_ideal(complete_graph(r + 1), 3) == IdealZt((P(1, 1) * P(1, 1),))
    c4, want = characteristic_ideal(cycle_graph(4), 3), IdealZt((P(0, 0, 1), P(0, 2)))
    assert c4.subset_of(want) and want.subset_of(c4)
    for r in (3, 4):
        assert characteristic_ideal(complete_multipartite_graph((r, r)), 3) == \
            IdealZt((P(0, 1),))
    for r in (2, 3):
        assert characteristic_ideal(complete_multipartite_graph((r, r, r)), 3) == \
            IdealZt((P(2), P(0, 1)))
