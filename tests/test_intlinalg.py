import copy
import random
import re
from itertools import permutations

import pytest

from charideals import (BlowupSpec, ConsistencyError, Graph, adjacency_matrix, blowup,
                        delta_sequence, gcd_of_k_minors, graph_ideals,
                        invariant_factors_from_deltas, laplacian_matrix, lookup, snf_diagonal)
from charideals.catalog import complete_graph, complete_multipartite_graph, path_graph
from charideals.intlinalg import InvariantFactors, _unit_count, unit_pivots
from charideals.mining import enumerate_connected

import oracles
from test_graph_ideals import _bound_graphs


def A(name):
    return adjacency_matrix(lookup(name))


def test_snf_examples():
    assert snf_diagonal(A("diamond")) == (1, 1, 2, 0)
    assert snf_diagonal([[0, 0, 0]] * 3) == (0, 0, 0)
    assert snf_diagonal(A("k4")) == (1, 1, 1, 3)
    assert snf_diagonal(A("k5")) == (1, 1, 1, 1, 4)


def test_snf_paw_and_p4():
    assert snf_diagonal(A("paw")) == (1, 1, 1, 1)
    assert snf_diagonal(A("p4")) == (1, 1, 1, 1)


def test_snf_nonsquare_and_rank_deficient():
    assert snf_diagonal([[2, 4, 6]]) == (2,)
    assert snf_diagonal([[1], [2], [3]]) == (1,)
    assert snf_diagonal([[1, 2], [2, 4], [3, 6]]) == (1, 0)


def test_count_unit_factors_examples():
    assert snf_diagonal(A("p2")).ones == 2
    assert snf_diagonal(adjacency_matrix(lookup("k1"))).ones == 0
    assert snf_diagonal(A("paw")).ones == 4


def test_gcd_of_k_minors_examples():
    assert gcd_of_k_minors(A("diamond"), 3) == 2
    assert gcd_of_k_minors(A("diamond"), 0) == 1
    k5 = A("k5")
    assert gcd_of_k_minors(k5, 5) == 4
    assert abs(oracles.perm_det(k5)) == 4
    with pytest.raises(ValueError):
        gcd_of_k_minors(k5, 6)


def test_invariant_factors_from_deltas_examples():
    assert invariant_factors_from_deltas((1, 1, 1, 2)) == (1, 1, 2)
    assert invariant_factors_from_deltas((1, 5)) == (5,)
    k4 = A("k4")
    deltas = tuple(oracles.brute_minor_gcd(k4, k) for k in range(5))
    assert deltas == (1, 1, 1, 1, 3)
    assert invariant_factors_from_deltas(deltas) == (1, 1, 1, 3)


def test_delta_chain_violation_raises():
    with pytest.raises(ConsistencyError):
        invariant_factors_from_deltas((1, 2, 3))
    with pytest.raises(ConsistencyError):
        invariant_factors_from_deltas((1, 0, 2))
    with pytest.raises(ConsistencyError, match="Delta_0 must be 1"):
        invariant_factors_from_deltas((2, 4))
    with pytest.raises(ConsistencyError, match="Delta_0 must be 1"):
        invariant_factors_from_deltas(())
    with pytest.raises(ConsistencyError, match="negative minor gcd"):
        invariant_factors_from_deltas((1, -2))


def test_oracle_equivalence_randomised():
    # snf == invariant factors recovered from minor gcds, on >= 1000 cases
    rng = random.Random(97)
    for _ in range(1000):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)]
        via_deltas = invariant_factors_from_deltas(delta_sequence(m))
        assert snf_diagonal(m) == via_deltas


def test_product_law():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        snf = snf_diagonal(m)
        prod = 1
        for k, d in enumerate(snf.factors, start=1):
            prod *= d
            assert gcd_of_k_minors(m, k) == abs(prod)


def _random_unimodular_ops(rng, rows_lists):
    rows = len(rows_lists)
    cols = len(rows_lists[0])
    for _ in range(rng.randint(1, 12)):
        op = rng.randrange(3)
        if op == 0 and rows > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(rows), 2)
            rows_lists[i], rows_lists[j] = rows_lists[j], rows_lists[i]
        elif op == 0 and cols > 1:
            i, j = rng.sample(range(cols), 2)
            for row in rows_lists:
                row[i], row[j] = row[j], row[i]
        elif op == 1 and rows > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(rows), 2)
            q = rng.randint(-3, 3)
            for t in range(cols):
                rows_lists[i][t] += q * rows_lists[j][t]
        elif op == 1 and cols > 1:
            i, j = rng.sample(range(cols), 2)
            q = rng.randint(-3, 3)
            for row in rows_lists:
                row[i] += q * row[j]
        elif rng.random() < 0.5:
            i = rng.randrange(rows)
            rows_lists[i] = [-v for v in rows_lists[i]]
        else:
            j = rng.randrange(cols)
            for row in rows_lists:
                row[j] = -row[j]
    return rows_lists


def test_invariance_under_elementary_operations():
    rng = random.Random(103)
    for _ in range(300):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        base = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        expected = snf_diagonal(base)
        mutated = _random_unimodular_ops(rng, [row[:] for row in base])
        assert snf_diagonal(mutated) == expected


def test_phi_monotone_under_induced_subgraphs():
    rng = random.Random(107)
    for _ in range(150):
        n = rng.randint(2, 7)
        g = oracles.random_graph(rng, n)
        phi_g = snf_diagonal(adjacency_matrix(g)).ones
        keep = [v for v in range(n) if rng.random() < 0.6]
        if not keep:
            continue
        h = g.subgraph(keep)
        assert snf_diagonal(adjacency_matrix(h)).ones <= phi_g


def test_det_int_against_permanuation_expansion():
    rng = random.Random(109)
    for _ in range(300):
        n = rng.randint(0, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        from charideals.intlinalg import det_int
        assert det_int([r[:] for r in rows]) == oracles.perm_det(rows)


def test_invariant_factor_validation():
    with pytest.raises(ConsistencyError, match=r"^negative invariant factor$"):
        InvariantFactors((1, -2))
    with pytest.raises(ConsistencyError, match=r"^zero before a nonzero invariant factor$"):
        InvariantFactors((1, 0, 2))
    with pytest.raises(ConsistencyError, match=r"^divisibility chain broken: 2 \| 3$"):
        InvariantFactors((2, 3))
    # any sequence of integral values becomes a tuple of ints
    for seq, want in (([1, 2, 0], (1, 2, 0)), (range(1, 3), (1, 2)), ((True, 2.0, 0), (1, 2, 0))):
        f = InvariantFactors(seq).factors
        assert f == want and type(f) is tuple and all(type(v) is int for v in f)


def test_snf_of_path_and_complete_sequences():
    # frozen from the minor-gcd oracle
    for n in range(1, 7):
        m = adjacency_matrix(complete_graph(n))
        assert snf_diagonal(m) == invariant_factors_from_deltas(delta_sequence(m))
        m = adjacency_matrix(path_graph(n))
        assert snf_diagonal(m) == invariant_factors_from_deltas(delta_sequence(m))


def test_invariant_factors_compare_with_other_types():
    f = InvariantFactors((1, 2))
    assert f == (1, 2) and f == [1, 2] and f == InvariantFactors((1, 2))
    assert f != (1, 4) and f != [1]
    assert not f == None  # noqa: E711
    assert f != 3 and f != "12"
    assert f not in [None, 0, (2, 1)]
    assert f in [None, (1, 2)]


# each site that takes integers, given v for one of them
_INTEGER_SITES = {
    "snf_diagonal": lambda v: snf_diagonal([[v, 0], [0, 2]]),
    "delta_sequence": lambda v: delta_sequence([[1, v]]),
    "gcd_of_k_minors": lambda v: gcd_of_k_minors([[2, v]], 1),
    "InvariantFactors": lambda v: InvariantFactors((1, v)),
    "invariant_factors_from_deltas": lambda v: invariant_factors_from_deltas((1, v)),
    "BlowupSpec": lambda v: blowup(BlowupSpec(complete_graph(2), (v, -1))),
    "complete_multipartite_graph": lambda v: complete_multipartite_graph((v, 2)),
    "multipartite_closed_form": lambda v: graph_ideals.multipartite_closed_form((v, 3), 2),
    "multipartite_closed_form j": lambda v: graph_ideals.multipartite_closed_form((2, 2, 2), v),
    "Graph": Graph,
    "Graph edges": lambda v: Graph(4, [(0, v)]),
    "Graph.subgraph": lambda v: Graph(4).subgraph([0, v]),
}


@pytest.mark.parametrize("site", _INTEGER_SITES)
def test_integer_inputs_are_checked_not_truncated(site):
    # int() would truncate 2.5 and parse "3"; both name the value instead,
    # while an integral value of another type still passes as its int
    build = _INTEGER_SITES[site]
    for bad in (2.5, "3", 0.9):
        with pytest.raises(ValueError, match=rf"^not an integer: {re.escape(repr(bad))}$"):
            build(bad)
    assert build(3.0) == build(3)


def _assert_snf_matches_minor_gcds(rows):
    factors = snf_diagonal(rows).factors
    delta = 1
    for k, d in enumerate(factors, start=1):
        delta *= d
        assert oracles.brute_minor_gcd(rows, k) == delta, (rows, factors)


def test_snf_gcd_lcm_pass_on_diagonals():
    # pivots that come out of the loop without dividing each other
    assert snf_diagonal([[4, 0], [0, 6]]) == (2, 12)
    assert snf_diagonal([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == (1, 1, 30)
    assert snf_diagonal([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == (1, 30, 30)
    for diag in ((4, 6), (2, 3, 5), (6, 10, 15), (12, 8, 0, 9)):
        n = len(diag)
        for rp in permutations(range(n)):
            for cp in permutations(range(n)):
                rows = [[diag[i] if cp[j] == rp[i] else 0 for j in range(n)]
                        for i in range(n)]
                _assert_snf_matches_minor_gcds(rows)


def test_snf_of_shifted_adjacency_matches_minor_gcds_up_to_6():
    # aI - A at the points the co-rank bound reads, on every connected graph
    for n in range(1, 7):
        for g in enumerate_connected(n):
            for a in (0, 1, -1, 2, -2):
                _assert_snf_matches_minor_gcds(
                    [[(a if i == j else 0) - (g.adj[i] >> j & 1) for j in range(n)]
                     for i in range(n)])


def _assert_snf_matches_deltas(m):
    assert snf_diagonal(m) == invariant_factors_from_deltas(delta_sequence(m)), m


def test_snf_after_unit_pivots_matches_minor_gcds():
    # few unit entries, so most of the work is the least-entry loop after
    # the unit pivots, on rectangular shapes down to no rows and no columns
    rng = random.Random(211)
    values = (0, 0, 2, -2, 3, -3, 4, -4, 6, -6)
    for _ in range(600):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice((1, -1)) if rng.random() < 0.08 else rng.choice(values)
                 for _ in range(c)] for _ in range(r)]
        _assert_snf_matches_deltas(rows)
    for m in ([], [[]], [[], [], []]):
        assert snf_diagonal(m) == () == invariant_factors_from_deltas(delta_sequence(m))
    assert snf_diagonal([[1, 0, 0], [0, 1, 0]]) == (1, 1)
    assert snf_diagonal([[0, 1], [1, 0], [2, 2]]) == (1, 1)
    assert snf_diagonal([[1, 2], [3, 4], [5, 6]]) == (1, 2)


def test_snf_of_laplacians_matches_minor_gcds_up_to_6():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            _assert_snf_matches_deltas(laplacian_matrix(g))


def test_ragged_rows_are_rejected():
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [[], [0]], ((1, 0), (0,))):
        for call in (snf_diagonal, delta_sequence, lambda m: gcd_of_k_minors(m, 1)):
            with pytest.raises(ValueError, match="ragged rows"):
                call(rows)


def test_callers_rows_are_never_consumed():
    # unit entries make the Smith form pivot rows out of its working copy
    rng = random.Random(223)
    cases = [A("paw"), laplacian_matrix(lookup("house")), [[1, 2], [3, 4], [5, 6]],
             [[0, 1], [1, 0], [2, 2]], [[-1, 0, 2]], [[2], [1]], [[]], []]
    cases += [[[rng.randint(-2, 2) for _ in range(rng.randint(1, 5))]] * rng.randint(1, 5)
              for _ in range(20)]
    cases += [[[rng.choice((0, 1, -1, 2, 3)) for _ in range(c)] for _ in range(r)]
              for r, c in ((3, 3), (4, 2), (2, 5), (5, 5))]
    for rows in cases:
        before = copy.deepcopy(rows)
        for call in (snf_diagonal, delta_sequence,
                     lambda m: gcd_of_k_minors(m, min(len(m), len(m[0]) if m else 0))):
            call(rows)
            assert rows == before, call


def test_matrices_are_any_sequence_of_integer_rows():
    rows = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    for m in (rows, tuple(map(tuple, rows)), [range(0, 2), (True, False)]):
        assert snf_diagonal(m) == invariant_factors_from_deltas(delta_sequence(m))
    assert snf_diagonal(tuple(map(tuple, rows))) == (1, 1, 2)
    assert delta_sequence(rows) == (1, 1, 1, 2)
    assert type(delta_sequence(rows)) is tuple


def _pivot_cases(monkeypatch):
    """The adjacency and Laplacian matrices and aI - A for a in +-1, +-2 of
    every connected graph on at most 7 vertices, the packed matrices the
    presentations of the co-rank bound's graphs pivot, and 2,000 random
    matrices up to 8 x 8 with entries in -3..3."""
    cases = []
    for n in range(1, 8):
        for g in enumerate_connected(n):
            cases += [adjacency_matrix(g), laplacian_matrix(g)]
            cases += [[[(a if i == j else 0) - (g.adj[i] >> j & 1) for j in range(n)]
                       for i in range(n)] for a in (1, -1, 2, -2)]
    packed = []
    monkeypatch.setattr(graph_ideals, "unit_pivots",
                        lambda mat: packed.append([row[:] for row in mat]) or unit_pivots(mat))
    for g in _bound_graphs():
        graph_ideals._presentation(g)
    monkeypatch.undo()
    assert len(packed) == 1020
    rng = random.Random(229)
    for _ in range(2000):
        cols = rng.randint(0, 8)
        cases.append([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rng.randint(0, 8))])
    return cases + packed


def test_unit_pivots_match_the_generator_loop(monkeypatch):
    # the same pivots, so the same count and the same residue row for row
    for m in _pivot_cases(monkeypatch):
        ours, theirs = copy.deepcopy(m), copy.deepcopy(m)
        assert unit_pivots(ours) == oracles.unit_pivots(theirs), m
        assert ours == theirs, m


def test_unit_count_is_the_ones_of_the_smith_form(monkeypatch):
    for m in _pivot_cases(monkeypatch):
        assert _unit_count(copy.deepcopy(m)) == snf_diagonal(m).ones, m
    # no unit entry: only the Smith form of the residue finds the units
    # when the gcd of its entries is 1
    for m, ones in (([[2, 3], [3, 5]], 2), ([[2, 3], [4, 6]], 1), ([[2, 4], [6, 8]], 0),
                    ([[6, 10, 15]], 1), ([[-2, 3, 0]], 1), ([[4, 6]], 0), ([[1, 4]], 1),
                    ([], 0), ([[]], 0), ([[0] * 3 for _ in range(3)], 0)):
        assert _unit_count(copy.deepcopy(m)) == ones == snf_diagonal(m).ones, m
