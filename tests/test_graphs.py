import random

import pytest

from charideals import (BlowupSpec, Graph, Graph6Error, adjacency_matrix, blowup,
                        is_isomorphic, laplacian_matrix, parse_edge_list,
                        parse_graph6, to_graph6)
from charideals.catalog import (complete_graph, complete_multipartite_graph,
                                cycle_graph, path_graph, star_graph)
from charideals.graphs import _induced, format_edge_list, true_twin_quotient, twin_classes
from charideals.intlinalg import unit_pivots
from charideals.mining import _is_cut_vertex

import oracles


def test_parse_diamond():
    g = parse_graph6("C^")
    assert g.n == 4
    assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_parse_k1():
    g = parse_graph6("@")
    assert g.n == 1 and g.adj == (0,)


def test_parse_edo():
    g = parse_graph6("Edo_")
    assert g.n == 6
    assert sorted(g.edges()) == [(0, 1), (0, 3), (0, 4), (1, 4), (2, 3), (2, 5)]


def test_graph6_round_trip_random():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 30)
        g = oracles.random_graph(rng, n, rng.random())
        assert parse_graph6(to_graph6(g)) == g
    for g in (Graph(0), Graph(62), complete_graph(62)):
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_body_lists_the_pairs_column_by_column():
    # the bits after the size byte, 6 per byte from the highest, are the
    # pairs (0,1), (0,2), (1,2), (0,3), ... and then zero padding; read off
    # the adjacency bitmasks directly, independently of the encoder
    rng = random.Random(67)
    graphs = [oracles.random_graph(rng, rng.randint(0, 62), rng.random()) for _ in range(298)]
    graphs += [complete_graph(62), Graph(0)]
    for g in graphs:
        s = to_graph6(g)
        assert ord(s[0]) == g.n + 63
        body = "".join(format(ord(c) - 63, "06b") for c in s[1:])
        pairs = "".join(str(g.adj[j] >> i & 1) for j in range(g.n) for i in range(j))
        assert len(body) == -(-len(pairs) // 6) * 6, g
        assert body == pairs.ljust(len(body), "0"), g


def test_graph6_header_tolerated():
    assert parse_graph6(">>graph6<<C^") == parse_graph6("C^")


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("C^^")
    assert err.value.offset == 2  # first byte past the expected adjacency bytes
    with pytest.raises(Graph6Error) as err:
        parse_graph6("C")
    with pytest.raises(Graph6Error) as err:
        parse_graph6("C" + chr(20))
    assert err.value.offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6("~??")  # multi-byte size
    with pytest.raises(Graph6Error) as err:
        parse_graph6("B" + chr(63 + 0b000100))  # padding bit set after the 3 used bits
    assert err.value.offset == 1
    with pytest.raises(Graph6Error, match="nonzero padding bit") as err:
        parse_graph6("D?" + chr(63 + 0b000001))  # 10 bits used of 12, in 2 bytes
    assert err.value.offset == 2
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("Ã^")


def test_to_graph6_rejects_large():
    with pytest.raises(ValueError):
        to_graph6(Graph(63))


def test_adjacency_matrix_diamond():
    a = adjacency_matrix(parse_graph6("C^"))
    assert a == [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]


def test_adjacency_and_laplacian_k1_k3():
    k1 = complete_graph(1)
    assert adjacency_matrix(k1) == [[0]]
    assert laplacian_matrix(k1) == [[0]]
    lap = laplacian_matrix(complete_graph(3))
    assert all(sum(row) == 0 for row in lap)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 16, 62])
def test_matrix_rows_are_the_entries_in_fresh_lists(n):
    # rows are consumed in place, as the unit count does: a second call
    # builds them again, whatever the caller did to the first
    rng = random.Random(n)
    for p in (0.2, 0.5, 0.8):
        g = oracles.random_graph(rng, n, p)
        adj = [[int(oracles.has_edge(g, i, j)) for j in range(n)] for i in range(n)]
        lap = [[g.degree(i) if i == j else -adj[i][j] for j in range(n)] for i in range(n)]
        for build, want in ((adjacency_matrix, adj), (laplacian_matrix, lap)):
            rows = build(g)
            assert rows == want
            unit_pivots(rows)
            for row in rows:
                row[:] = [5] * len(row)
            assert build(g) == want


def test_induced_subgraph_examples():
    diamond = parse_graph6("C^")
    p3 = diamond.subgraph([0, 2, 1])
    assert is_isomorphic(p3, path_graph(3))
    assert diamond.subgraph(range(4)) == diamond
    k5 = complete_graph(5)
    assert k5.subgraph([0, 2, 3, 4]) == complete_graph(4)
    with pytest.raises(ValueError):
        k5.subgraph([0, 9])


def test_induced_subgraph_matches_pairwise_definition():
    rng = random.Random(223)
    for _ in range(300):
        n = rng.randint(0, 20)
        g = oracles.random_graph(rng, n, rng.random())
        vs = rng.sample(range(n), rng.randint(0, n))
        h = g.subgraph(vs)
        assert h.n == len(vs)
        assert all(h.adj[i] >> j & 1 == g.adj[v] >> w & 1
                   for i, v in enumerate(vs) for j, w in enumerate(vs) if i != j), (g, vs)
        if n:
            with pytest.raises(ValueError, match="out of range"):
                g.subgraph(vs + [rng.choice((n, n + 3, -1))])
            with pytest.raises(ValueError, match="repeated"):
                g.subgraph(vs + [vs[-1]] if vs else [0, 0])
    # the shared relabelling loop alone, on whole permutations and ordered
    # subsets, across the 8-bit boundaries up to graph6's largest n
    for n in (0, 1, 2, 7, 8, 9, 16, 62):
        g = oracles.random_graph(rng, n, rng.random())
        for vs in (rng.sample(range(n), n), rng.sample(range(n), rng.randint(0, n))):
            adj = _induced(g.adj, vs)
            assert len(adj) == len(vs) and all(row >> len(vs) == 0 for row in adj), (g, vs)
            assert all(adj[i] >> j & 1 == g.adj[v] >> w & 1
                       for i, v in enumerate(vs) for j, w in enumerate(vs)), (g, vs)


def test_edges_match_pairwise_definition():
    rng = random.Random(227)
    for _ in range(300):
        n = rng.randint(0, 20)
        g = oracles.random_graph(rng, n, rng.random())
        assert list(g.edges()) == [(u, v) for u in range(n) for v in range(u + 1, n)
                                   if g.adj[u] >> v & 1], g


def test_edge_list_round_trip():
    g = cycle_graph(5)
    assert parse_edge_list(format_edge_list(g)) == g
    assert parse_edge_list("0 1\n1 2").n == 3
    assert parse_edge_list("n 4\n0 1").n == 4
    with pytest.raises(ValueError):
        parse_edge_list("0 1 2")


def _components_by_union_find(n, edges):
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        parent[root(u)] = root(v)
    groups = {}
    for v in range(n):
        groups.setdefault(root(v), []).append(v)
    return sorted(groups.values())


def test_connectivity_and_components():
    assert cycle_graph(4).is_connected()
    g = Graph(4, [(0, 1), (2, 3)])
    assert not g.is_connected()
    assert oracles.components(g) == [[0, 1], [2, 3]]
    assert Graph(1).is_connected()
    # every labelled graph on at most 5 vertices, then seeded random ones on
    # 0..10 vertices, many of them disconnected
    cases = []
    for n in range(6):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        cases.extend((n, [p for b, p in enumerate(pairs) if m >> b & 1])
                     for m in range(1 << len(pairs)))
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(0, 10)
        p = rng.choice((0.1, 0.2, 0.35, 0.6))
        cases.append((n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p]))
    disconnected = set()  # vertex counts of the disconnected inputs
    for n, edges in cases:
        g = Graph(n, edges)
        want = _components_by_union_find(n, edges)
        assert oracles.components(g) == want
        assert g.is_connected() == (len(want) <= 1)
        if len(want) > 1:
            disconnected.add(n)
        for v in range(n):
            rest = [(a - (a > v), b - (b > v)) for a, b in edges if v not in (a, b)]
            split = len(_components_by_union_find(n - 1, rest)) > 1
            assert _is_cut_vertex(g.adj, v) == split
    assert disconnected == set(range(2, 11))


def test_regular_degree():
    assert cycle_graph(5).regular_degree() == 2
    assert complete_graph(4).regular_degree() == 3
    assert path_graph(3).regular_degree() is None
    assert Graph(1).regular_degree() == 0


def test_blowup_identity_and_size():
    g = cycle_graph(4)
    assert blowup(BlowupSpec(g, (1, 1, 1, 1))) == g
    big = blowup(BlowupSpec(g, (-4, -4, -4, -4)))
    assert big.n == 16
    assert big.regular_degree() == 11


def test_blowup_matches_its_definition():
    # classes are consecutive in underlying order; two vertices are adjacent
    # iff they share a class of negative multiplicity, or lie in the classes
    # of adjacent underlying vertices
    rng = random.Random(229)
    for _ in range(300):
        n = rng.randint(0, 8)
        g = oracles.random_graph(rng, n, rng.random())
        d = [rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(n)]
        owner = [u for u in range(n) for _ in range(abs(d[u]))]
        got = blowup(BlowupSpec(g, d))
        assert got.n == len(owner)
        assert all(got.adj[i] >> j & 1 == (owner[i] == owner[j] and d[owner[i]] < 0
                                           or g.adj[owner[i]] >> owner[j] & 1)
                   for i in range(got.n) for j in range(got.n) if i != j), (g, d)


def test_blowup_spec_validation():
    g = cycle_graph(4)
    with pytest.raises(ValueError, match=r"^one multiplicity per underlying vertex required$"):
        BlowupSpec(g, (1, 1, 1))
    with pytest.raises(ValueError, match=r"^zero blow-up multiplicity$"):
        BlowupSpec(g, (1, 0, 1, 1))
    # any sequence of integral values becomes a tuple of ints
    for seq in ([1, -2, 3, 4], range(1, 5), (True, -2.0, 3, 4)):
        d = BlowupSpec(g, seq).d
        assert d == tuple(int(v) for v in seq) and type(d) is tuple
        assert all(type(v) is int for v in d)
    spec = BlowupSpec(underlying=g, d=(-1, 2, 1, 1))
    assert spec.underlying is g and blowup(spec).n == 5


def test_blowup_star_figure():
    # apex first: stable pair, then a stable singleton and two clique pairs
    got = blowup(BlowupSpec(star_graph(4), (2, 1, -2, -2)))
    drawn = Graph(7, [(0, 4), (0, 2), (1, 2), (1, 5), (1, 6), (2, 3),
                      (4, 5), (0, 5), (0, 3), (1, 3), (1, 4), (0, 6)])
    assert got.n == 7
    # apex class is a 2-element stable set adjacent to all other vertices
    assert not got.adj[0] >> 1 & 1
    assert all(got.adj[0] >> v & got.adj[1] >> v & 1 for v in range(2, 7))
    assert is_isomorphic(got, drawn)


def test_blowup_clique_classes():
    g = blowup(BlowupSpec(path_graph(2), (-2, 3)))
    # one clique pair fully joined to a stable triple
    assert g.n == 5
    assert g.adj[0] >> 1 & 1
    assert not g.adj[2] >> 3 & 1
    assert all(g.adj[u] >> v & 1 for u in (0, 1) for v in (2, 3, 4))


def test_twin_classes():
    km = complete_multipartite_graph((2, 2))
    assert sorted(map(len, twin_classes(km.adj, 1))) == [1, 1, 1, 1]
    k3 = complete_graph(3)
    assert sorted(map(len, twin_classes(k3.adj, 1))) == [3]
    assert twin_classes(complete_multipartite_graph((2, 3)).adj, 0) == [[0, 1], [2, 3, 4]]
    # a stable pair, a clique pair and a single vertex along a path: vertex 4
    # is a false twin of the pair, and the classes come by first vertex
    both = blowup(BlowupSpec(path_graph(3), (2, -2, 1)))
    assert twin_classes(both.adj, 0) == [[0, 1, 4], [2], [3]]
    assert twin_classes(both.adj, 1) == [[0], [1], [2, 3], [4]]
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5])
        for closed in (0, 1):
            classes = twin_classes(g.adj, closed)
            assert sorted(v for c in classes for v in c) == list(range(n))
            assert [c[0] for c in classes] == sorted(c[0] for c in classes)
            assert all(c == sorted(c) for c in classes)
            for c in classes:
                assert len({g.adj[v] | closed << v for v in c}) == 1
            assert len({g.adj[c[0]] | closed << c[0] for c in classes}) == len(classes)


def test_true_twin_quotient():
    big = blowup(BlowupSpec(cycle_graph(4), (-3, -1, -2, -1)))
    q, sizes = true_twin_quotient(big)
    assert is_isomorphic(q, cycle_graph(4))
    assert sorted(sizes) == [1, 1, 2, 3]
    # classes by first vertex of the shuffled labelling: (0, 4), (1), (2, 3, 5), (6, 7)
    order = list(range(8))
    random.Random(5).shuffle(order)
    shuffled = blowup(BlowupSpec(cycle_graph(4), (-3, -1, -2, -2))).relabelled(order)
    assert true_twin_quotient(shuffled) == (Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
                                            (2, 1, 3, 2))
