import random

from charideals import (FAMILY_F, FORBIDDEN_S4, Graph, canonical_form, find_induced,
                        is_isomorphic, parse_graph6)
from charideals.catalog import (complete_graph, complete_minus_edge, cycle_graph,
                                path_graph, paw_graph, star_graph)
from charideals.classify import _PATTERNS
from charideals.isomorphism import _label, _orbit

import oracles


def _shuffled(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    return g.relabelled(order)


def _rook(a):
    # K_a x K_a: vertices (i, j), adjacent when they share exactly one coordinate
    cells = [(i, j) for i in range(a) for j in range(a)]
    return Graph(a * a, [(x, y) for x in range(len(cells)) for y in range(x + 1, len(cells))
                         if (cells[x][0] == cells[y][0]) != (cells[x][1] == cells[y][1])])


def _generated(perms, n):
    group = {tuple(range(n))}
    stack = list(group)
    while stack:
        g = stack.pop()
        for p in perms:
            h = tuple(p[x] for x in g)
            if h not in group:
                group.add(h)
                stack.append(h)
    return group


def test_canonical_invariance_under_relabelling():
    assert canonical_form(Graph(3, [(0, 1), (1, 2)])) == canonical_form(Graph(3, [(1, 0), (0, 2)]))
    assert canonical_form(complete_graph(3)) != canonical_form(path_graph(3))


def test_canonical_on_100_random_relabellings():
    rng = random.Random(19)
    for g in (paw_graph(), cycle_graph(6), star_graph(5), parse_graph6("Edo_"),
              complete_minus_edge(5)):
        want = canonical_form(g)
        for _ in range(100):
            order = list(range(g.n))
            rng.shuffle(order)
            assert canonical_form(g.relabelled(order)) == want


def test_canonical_separates_non_isomorphic():
    rng = random.Random(29)
    seen = {}
    for _ in range(300):
        g = oracles.random_graph(rng, rng.randint(1, 6))
        c = canonical_form(g)
        if c in seen:
            assert oracles.brute_has_induced(g, seen[c]) and g.n == seen[c].n
        seen[c] = g


def test_canonical_is_stable_on_its_output():
    rng = random.Random(31)
    for _ in range(100):
        g = oracles.random_graph(rng, rng.randint(1, 7))
        c = canonical_form(g)
        assert canonical_form(parse_graph6(c)) == c


def test_canonical_heavy_symmetry():
    # big automorphism groups must not blow the search up or break invariance,
    # and the pruned search must give the former search's forms
    from charideals import BlowupSpec, blowup, lookup
    from charideals.catalog import complete_multipartite_graph
    k16 = complete_graph(16)
    assert canonical_form(k16) == canonical_form(k16.relabelled(list(reversed(range(16)))))
    big = blowup(BlowupSpec(cycle_graph(4), (-4, -4, -4, -4)))
    order = list(range(16))
    random.Random(5).shuffle(order)
    assert canonical_form(big) == canonical_form(big.relabelled(order))
    rng = random.Random(47)
    for g in (k16, big, lookup("petersen"), _rook(4), complete_multipartite_graph([3, 3])):
        want = oracles.canonical_form(g)
        assert canonical_form(g) == want
        assert canonical_form(_shuffled(g, rng)) == want


def test_forbidden_list_has_43_distinct_canonical_forms():
    forms = {canonical_form(parse_graph6(s)) for s in FORBIDDEN_S4}
    assert len(forms) == 43


def test_has_induced_examples():
    assert find_induced(paw_graph(), path_graph(3)) is not None
    assert find_induced(complete_graph(4), paw_graph()) is None
    assert find_induced(complete_minus_edge(5), cycle_graph(4)) is None


def test_find_induced_witness_is_an_embedding():
    host = parse_graph6("Edo_")
    pat = path_graph(4)
    emb = find_induced(host, pat)
    assert emb is not None
    assert len(set(emb)) == pat.n
    for i in range(pat.n):
        for j in range(i + 1, pat.n):
            assert host.has_edge(emb[i], emb[j]) == pat.has_edge(i, j)


def test_has_induced_matches_exhaustive_search():
    rng = random.Random(37)
    for _ in range(300):
        host = oracles.random_graph(rng, rng.randint(1, 8))
        pat = oracles.random_graph(rng, rng.randint(1, 4))
        found = find_induced(host, pat) is not None
        assert found == oracles.brute_has_induced(host, pat)


def test_is_isomorphic():
    assert is_isomorphic(cycle_graph(4), Graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)]))
    assert not is_isomorphic(cycle_graph(4), path_graph(4))
    assert not is_isomorphic(cycle_graph(4), cycle_graph(5))


def test_find_induced_returns_what_the_former_search_returned():
    # same pattern order and host vertices in increasing order, so the
    # embeddings the certificates print must not change
    patterns = (list(_PATTERNS.values()) + [parse_graph6(s) for s in FORBIDDEN_S4]
                + [FAMILY_F[name] for name in sorted(FAMILY_F)])
    rng = random.Random(131)
    hosts = [oracles.random_connected_graph(rng, rng.randint(5, 9), rng.choice((0.3, 0.5, 0.7)))
             for _ in range(40)]
    hosts += [p for p in patterns if p.n >= 5]
    relabelled = []
    for g in hosts:
        order = list(range(g.n))
        rng.shuffle(order)
        relabelled.append(g.relabelled(order))
    hits = misses = 0
    for host in hosts + relabelled:
        for pattern in patterns:
            got = find_induced(host, pattern)
            assert got == oracles.find_induced(host, pattern), (host, pattern)
            hits += got is not None
            misses += got is None
    assert hits > 500 and misses > 500


def test_canonical_form_matches_former_search_on_all_connected_graphs_to_7():
    rng = random.Random(41)
    graphs = [parse_graph6(s) for n in range(1, 8) for s in oracles._level(n)]
    assert len(graphs) == 996
    for g in graphs + [_shuffled(g, rng) for g in graphs]:
        assert canonical_form(g) == oracles.canonical_form(g), g


def test_canonical_form_matches_former_search_on_random_graphs_8_to_12():
    rng = random.Random(43)
    graphs = []
    for n in range(8, 13):
        graphs += [Graph(n), complete_graph(n), Graph(n, [(0, 1)]).complement()]
        graphs += [oracles.random_graph(rng, n, p) for p in (0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
                   for _ in range(4)]
        graphs.append(cycle_graph(n // 2).disjoint_union(path_graph(n - n // 2)))
    assert any(not g.is_connected() for g in graphs if g.edge_count)
    for g in graphs:
        assert canonical_form(g) == oracles.canonical_form(g), g


def test_rook_5x5_form_is_invariant_and_stable():
    # |Aut| = 28800 and no twins: the former search took seconds here
    rng = random.Random(53)
    g = _rook(5)
    want = canonical_form(g)
    for _ in range(10):
        assert canonical_form(_shuffled(g, rng)) == want
    assert canonical_form(parse_graph6(want)) == want


def test_automorphisms_found_generate_the_whole_group():
    rng = random.Random(59)
    graphs = [parse_graph6(s) for n in range(1, 7) for s in oracles._level(n)]
    graphs += [oracles.random_graph(rng, rng.randint(1, 6), rng.random()) for _ in range(150)]
    for g in graphs:
        perms = _label(g.adj)[1]
        brute = oracles.brute_automorphisms(g)
        assert _generated(perms, g.n) == brute, g
        for v in range(g.n):
            assert _orbit(perms, 1 << v) == sum({1 << p[v] for p in brute}), (g, v)
