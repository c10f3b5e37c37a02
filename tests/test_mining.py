from itertools import combinations

import pytest

from charideals import (MiningTask, canonical_form, enumerate_connected, lookup, mine,
                        parse_graph6, to_graph6)
from charideals.catalog import FAMILY_F
from charideals.graphs import Graph
from charideals.isomorphism import _label
from charideals.mining import CONNECTED_COUNTS, _level, _mask_orbits

import oracles


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_connected(2)) == 1
    assert sum(1 for _ in enumerate_connected(4)) == 6
    assert sum(1 for _ in enumerate_connected(6)) == 112
    assert sum(1 for _ in enumerate_connected(7)) == CONNECTED_COUNTS[6] == 853


def test_enumeration_count_n8():
    # the guaranteed upper end of the supported enumeration range
    assert sum(1 for _ in enumerate_connected(8)) == CONNECTED_COUNTS[7] == 11117


def test_enumeration_matches_brute_force_up_to_5():
    for n in range(1, 6):
        brute = set()
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            if g.is_connected():
                brute.add(canonical_form(g))
        ours = [to_graph6(g) for g in enumerate_connected(n)]
        assert sorted(brute) == ours


def test_enumeration_yields_canonical_representatives_sorted():
    out = [to_graph6(g) for g in enumerate_connected(5)]
    assert out == sorted(out)
    assert all(canonical_form(parse_graph6(s)) == s for s in out)


def test_enumeration_all_connected():
    assert all(g.is_connected() for g in enumerate_connected(6))


def test_task_validation():
    with pytest.raises(ValueError):
        MiningTask(1, "phiA", 2)
    with pytest.raises(ValueError):
        MiningTask(5, "phiA", -1)
    with pytest.raises(ValueError):
        MiningTask(5, "phiZ", 2)
    with pytest.raises(TypeError):
        mine("not a task")


def _canon(*names):
    return sorted(canonical_form(lookup(n)) for n in names)


def test_mine_smith_k2():
    result = mine(MiningTask(5, "phiA", 2))
    assert sorted(result.minimal) == _canon("p4", "paw", "k4")


def test_mine_smith_k3():
    result = mine(MiningTask(6, "phiA", 3))
    assert sorted(result.minimal) == _canon("p4", "paw", "k5")


def test_mine_corank_k2():
    result = mine(MiningTask(6, "gammaA", 2))
    assert sorted(result.minimal) == _canon("p4", "paw", "k5-e")


def test_mine_determinism():
    a = mine(MiningTask(5, "phiA", 2))
    b = mine(MiningTask(5, "phiA", 2))
    assert a.minimal == b.minimal and a.forbidden == b.forbidden
    assert a.values == b.values


def test_mine_result_invariants():
    from charideals import find_induced
    result = mine(MiningTask(6, "phiA", 3))
    graphs = [parse_graph6(s) for s in result.minimal]
    for i, g in enumerate(graphs):
        assert result.values[result.minimal[i]] >= 4
        for j, h in enumerate(graphs):
            if i != j and h.n < g.n:
                assert find_induced(g, h) is None


def test_mine_corank_k3_contains_family_f_members():
    # every obstruction with at most 7 vertices must be mined at m = 7
    result = mine(MiningTask(7, "gammaA", 3))
    mined = set(result.minimal)
    for name, g in FAMILY_F.items():
        if g.n <= 7:
            assert canonical_form(g) in mined, name
    assert all(parse_graph6(s).n >= 5 for s in result.minimal)


def test_mine_phi_l_regular_statistic():
    # K_1 aside, the complete graphs are exactly the regular graphs with
    # phi_L <= 1, so mining at k = 1 must name no complete graph minimal
    result = mine(MiningTask(5, "phiL", 1))
    mined = [parse_graph6(s) for s in result.minimal]
    assert mined
    for g in mined:
        assert g.regular_degree() is not None
        comp = g.complement()
        assert comp.edge_count > 0  # not complete


def test_levels_match_former_enumeration():
    for n in range(1, 8):
        assert _level(n) == oracles._level(n), n


def test_mask_orbits_one_subset_per_orbit():
    # the subsets a parent is augmented by: one per orbit of its group
    for n in range(1, 6):
        for s in oracles._level(n):
            g = parse_graph6(s)
            brute = oracles.brute_automorphisms(g)
            reps = list(_mask_orbits(n, _label(g.adj)[1]))
            orbits = {frozenset(sum(1 << p[v] for v in range(n) if x >> v & 1) for p in brute)
                      for x in range(1, 1 << n)}
            assert sorted(min(o) for o in orbits) == sorted(reps), s


@pytest.mark.slow
def test_enumeration_count_n9():
    assert sum(1 for _ in enumerate_connected(9)) == 261080


@pytest.mark.slow
def test_mine_corank_k3_to_8_gives_family_f():
    result = mine(MiningTask(8, "gammaA", 3))
    assert sorted(result.minimal) == sorted(canonical_form(g) for g in FAMILY_F.values())
    assert result.counts_by_size == {5: 8, 6: 4, 7: 1, 8: 1}
