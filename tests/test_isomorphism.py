import gc
import random

import pytest

from charideals import (FAMILY_F, FORBIDDEN_S4, BlowupSpec, Graph, MiningTask, blowup,
                        canonical_form, enumerate_connected, find_induced, is_isomorphic,
                        isomorphism, mine, parse_graph6)
from charideals.catalog import (complete_graph, complete_minus_edge, cycle_graph,
                                path_graph, paw_graph, star_graph)
from charideals.classify import _PATTERNS
from charideals.graphs import _graph6, to_graph6
from charideals.isomorphism import _degrees_match, _host_plan, _label, _orbit

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


def _paley(q):
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, [(i, j) for i in range(q) for j in range(i + 1, q) if j - i in squares])


def _cube(d):
    return Graph(1 << d, [(x, x | 1 << b) for x in range(1 << d) for b in range(d)
                          if not x >> b & 1])


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
            assert host.adj[emb[i]] >> emb[j] & 1 == pat.adj[i] >> j & 1


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
    # beyond graph6's 62 vertices; two C35 have the degrees of C70
    c70 = cycle_graph(70)
    assert is_isomorphic(c70, _shuffled(c70, random.Random(70)))
    two_c35 = Graph(70, [(b + i, b + (i + 1) % 35) for b in (0, 35) for i in range(35)])
    assert not is_isomorphic(c70, two_c35)


def test_find_induced_returns_what_the_former_search_returned():
    # same pattern order and host vertices in increasing order, so the
    # embeddings the certificates print must not change; twins of a host
    # vertex that failed at a step are skipped there
    patterns = (list(_PATTERNS.values()) + [parse_graph6(s) for s in FORBIDDEN_S4]
                + [FAMILY_F[name] for name in sorted(FAMILY_F)])
    rng = random.Random(131)
    hosts = [oracles.random_connected_graph(rng, rng.randint(5, 9), rng.choice((0.3, 0.5, 0.7)))
             for _ in range(40)]
    hosts += [p for p in patterns if p.n >= 5]
    relabelled = [_shuffled(g, rng) for g in hosts]
    # twin-rich hosts: clique and stable blow-ups, classes of 2-4 vertices
    for base in map(parse_graph6, oracles._level(4)):
        for _ in range(3):
            d = [rng.choice((2, 3, 4)) * rng.choice((1, -1)) for _ in range(4)]
            relabelled.append(_shuffled(blowup(BlowupSpec(base, d)), rng))
    hits = misses = 0
    for host in hosts + relabelled:
        for pattern in patterns:
            got = find_induced(host, pattern)
            assert got == oracles.find_induced(host, pattern), (host, pattern)
            hits += got is not None
            misses += got is None
    assert hits > 500 and misses > 500


def test_find_induced_matches_the_oracle_on_all_connected_hosts_5_to_7():
    # pn = hn and pn = hn - 1 are where the degree cut decides most pairs.
    # Host by host first, so each plan is reused across the patterns, then
    # the classify patterns one by one over far more hosts than the plan
    # cache holds, so every plan is evicted and built again before it is read
    patterns = (list(_PATTERNS.values()) + [parse_graph6(s) for s in FORBIDDEN_S4]
                + [FAMILY_F[name] for name in sorted(FAMILY_F)])
    rng = random.Random(137)
    hosts = [parse_graph6(s) for n in range(5, 8) for s in oracles._level(n)]
    hosts += [_shuffled(g, rng) for g in hosts[::3]]
    assert len(set(hosts)) > 2 * _host_plan.cache_info().maxsize
    want = {}
    for host in hosts:
        for pattern in patterns:
            got = want[host, pattern] = find_induced(host, pattern)
            assert got == oracles.find_induced(host, pattern), (host, pattern)
    assert sum(e is not None for e in want.values()) > 10000
    assert sum(e is None and p.n == h.n for (h, p), e in want.items()) > 5000
    before = _host_plan.cache_info()
    for pattern in _PATTERNS.values():
        for host in hosts:
            assert find_induced(host, pattern) == want[host, pattern], (host, pattern)
    rebuilt = _host_plan.cache_info().misses - before.misses
    assert rebuilt >= len(_PATTERNS) * len(hosts) // 2


def test_host_twin_table_is_the_open_and_closed_twins():
    # twins[v] is every u with N(u) = N(v) or N[u] = N[v], v included, on
    # every connected graph with n <= 6 and shuffled blow-ups with classes
    # of up to 5 vertices
    rng = random.Random(151)
    hosts = [parse_graph6(s) for n in range(1, 7) for s in oracles._level(n)]
    bases = [parse_graph6(s) for n in (3, 4) for s in oracles._level(n)]
    for _ in range(30):
        base = rng.choice(bases)
        d = [rng.randint(1, 5) * rng.choice((1, -1)) for _ in range(base.n)]
        hosts.append(_shuffled(blowup(BlowupSpec(base, d)), rng))
    big = 0
    for g in hosts:
        adj, twins = g.adj, _host_plan(g.adj)[1]
        for v in range(g.n):
            want = sum(1 << u for u in range(g.n)
                       if adj[u] == adj[v] or adj[u] | 1 << u == adj[v] | 1 << v)
            assert twins[v] == want, (g, v)
            big += want.bit_count() >= 4
    assert len(hosts) == 173 and big > 100


def _assignable(pdegs, hdegs, slack):
    # an injective map of the pattern degrees to host degrees within
    # d .. d + slack, by trying every choice
    def place(i, free):
        return i == len(pdegs) or any(
            pdegs[i] <= hdegs[j] <= pdegs[i] + slack and place(i + 1, free - {j})
            for j in free)
    return place(0, frozenset(range(len(hdegs))))


def test_degree_cut_is_exactly_the_injective_assignment():
    rng = random.Random(139)
    cuts = 0
    for _ in range(3000):
        hn = rng.randint(1, 7)
        pn = rng.randint(1, hn)
        hdegs = tuple(sorted(rng.randint(0, hn - 1) for _ in range(hn)))
        pdegs = tuple(sorted(rng.randint(0, pn - 1) for _ in range(pn)))
        want = _assignable(pdegs, hdegs, hn - pn)
        assert _degrees_match(pdegs, hdegs, hn - pn) == want, (pdegs, hdegs)
        cuts += not want
    assert 500 < cuts < 2500


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
        graphs += [Graph(n), complete_graph(n), oracles.complement(Graph(n, [(0, 1)]))]
        graphs += [oracles.random_graph(rng, n, p) for p in (0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
                   for _ in range(4)]
        graphs.append(oracles.disjoint_union(cycle_graph(n // 2), path_graph(n - n // 2)))
    assert any(not g.is_connected() for g in graphs if any(g.adj))
    for g in graphs:
        assert canonical_form(g) == oracles.canonical_form(g), g


def test_graph6_is_read_off_the_best_leaf_key():
    # the search's best leaf key, padded and cut into 6-bit chunks, is the
    # graph6 of the graph relabelled by its order; that order lists the
    # degrees nondecreasing, as the search starts from the degree partition
    rng = random.Random(61)
    graphs = [Graph(0)]
    for n in range(1, 8):
        for s in oracles._level(n):
            g = parse_graph6(s)
            graphs += [_shuffled(g, rng), _shuffled(g, rng)]
    assert len(graphs) == 1 + 2 * 996
    graphs += [oracles.random_graph(rng, rng.randint(8, 40), rng.random()) for _ in range(2000)]
    for g in graphs:
        order, _, key = _label(g.adj)
        h = g.relabelled(order)
        assert _graph6(g.n, key) == canonical_form(g) == to_graph6(h), g
        assert list(h.degrees()) == sorted(h.degrees()), g
    with pytest.raises(ValueError, match=r"^graph6 output limited to n <= 62$"):
        canonical_form(cycle_graph(63))


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


def test_refinement_against_the_new_cells_is_the_former_refinement(monkeypatch):
    # each refinement the search asks for equals the former one, which
    # recounted every cell in every pass, so the search runs as it did
    rng = random.Random(67)
    graphs = [_shuffled(g, rng) for n in range(1, 9) for g in enumerate_connected(n)]
    assert len(graphs) == 12113
    graphs += [oracles.random_graph(rng, rng.randint(9, 30), rng.random()) for _ in range(300)]
    graphs += [_shuffled(g, rng) for g in (cycle_graph(12), _paley(13), _paley(17), _paley(29),
                                            _rook(4), _rook(5), _cube(4), _cube(5))]
    real = isomorphism._refine
    calls = []

    def both(adj, cells, splitters):
        got = real(adj, cells, splitters)
        assert got == oracles.refine(adj, cells), (adj, cells, splitters)
        calls.append(splitters)
        return got

    monkeypatch.setattr(isomorphism, "_refine", both)
    for g in graphs:
        _label(g.adj)
    # the searches below the root refine against one new singleton
    assert len(calls) > 2 * len(graphs)
    assert sum(len(s) == 1 and not s[0] & (s[0] - 1) for s in calls) > len(graphs)


def test_labelling_and_mining_leave_no_reference_cycles():
    # a cycle would wait for the cyclic collector; under DEBUG_SAVEALL the
    # collector keeps what it finds in gc.garbage
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for g in graphs:
            _label(g.adj)
        mine(MiningTask(6, "phiA", 4))
        gc.collect()
        found = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert found == 0
