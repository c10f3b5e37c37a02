from itertools import product

import pytest

from charideals import is_isomorphic, parse_graph6
from charideals.catalog import (FAMILY_F, FORBIDDEN_S4,
                                UnknownGraphError, complete_graph,
                                complete_minus_edge, complete_multipartite_graph,
                                cycle_graph, lookup, names, path_graph, resolve,
                                star_graph)
from charideals.graphs import Graph

import oracles
from oracles import complement, disjoint_union, join


def test_dynamic_names():
    assert lookup("p4") == path_graph(4)
    assert lookup("C5") == cycle_graph(5)
    assert lookup("k6") == complete_graph(6)
    assert lookup("k5-e") == complete_minus_edge(5)
    assert lookup("s4") == star_graph(4)
    assert lookup("k2,2,2") == complete_multipartite_graph((2, 2, 2))


def test_complete_minus_edge_has_every_pair_but_one():
    for n in range(2, 9):
        g = complete_minus_edge(n)
        assert g.n == n
        assert [[g.adj[i] >> j & 1 for j in range(n)] for i in range(n)] == [
            [int(i != j and {i, j} != {0, 1}) for j in range(n)] for i in range(n)]
    with pytest.raises(ValueError, match="at least 2"):
        complete_minus_edge(1)


def test_parametric_names_past_graph6_fail_before_the_build():
    assert lookup("k62").n == lookup("k31,31").n == 62
    for name, count in (("k63", 63), ("k40,40", 80)):
        with pytest.raises(ValueError) as err:
            lookup(name)
        assert str(err.value) == (f"catalog graph {name!r} has {count} vertices; "
                                  "graph6 allows at most 62")


def test_fixed_names():
    # each fixed graph pinned by its graph6, with its labelling
    fixed = {"diamond": "C^", "paw": "Cj", "house": "Dlo", "prism": "E{Sw",
             "k3xk2": "E{Sw", "petersen": "IheA@GUAo"}
    assert [name for name in names() if name in fixed] == sorted(fixed)
    for name, g6 in fixed.items():
        assert lookup(name) == parse_graph6(g6), name
    assert lookup("dart") == FAMILY_F["dart"]


def test_unknown_name_suggests():
    with pytest.raises(UnknownGraphError) as err:
        lookup("diamnod")
    assert "diamond" in err.value.suggestions


def test_diamond_is_c_caret():
    assert is_isomorphic(lookup("diamond"), parse_graph6("C^"))
    assert lookup("diamond") == parse_graph6("C^") == complete_minus_edge(4)


def test_house_inside_prism():
    from charideals import find_induced
    assert find_induced(lookup("prism"), lookup("house")) is not None
    assert find_induced(lookup("prism"), path_graph(4)) is not None


def test_family_f_inventory():
    assert len(FAMILY_F) == 14
    sizes = sorted(g.n for g in FAMILY_F.values())
    assert sizes == [5] * 8 + [6] * 4 + [7, 8]
    assert is_isomorphic(FAMILY_F["p5"], path_graph(5))


# Join-form alternative names for the members that are joins (used as a
# cross-check on the edge lists of FAMILY_F).
FAMILY_F_JOINS = {
    "dart": lambda: join(complete_graph(1), disjoint_union(path_graph(3), complete_graph(1))),
    "3-fan": lambda: join(path_graph(4), complete_graph(1)),
    "s6+e": lambda: join(complete_graph(1), disjoint_union(complete_graph(2), Graph(3))),
    "co-diamond-k2": lambda: join(Graph(2), disjoint_union(complete_graph(2), Graph(2))),
    "k33+e": lambda: join(Graph(3), disjoint_union(complete_graph(2), Graph(1))),
    "co-p3-cop3": lambda: join(path_graph(3), disjoint_union(complete_graph(2), Graph(1))),
    "k1,1,1,2,2": lambda: join(complete_graph(3), cycle_graph(4)),
    "k1,1,1,1,4": lambda: join(complete_graph(4), Graph(4)),
}


def test_family_f_join_forms():
    assert set(FAMILY_F_JOINS) <= set(FAMILY_F)
    for name, build in FAMILY_F_JOINS.items():
        assert is_isomorphic(FAMILY_F[name], build()), name


def test_family_f_complements():
    # the two complement-named members really are complements
    diamond_k2 = disjoint_union(lookup("diamond"), complete_graph(2))
    assert is_isomorphic(FAMILY_F["co-diamond-k2"], complement(diamond_k2))
    p3_cop3 = disjoint_union(path_graph(3), complement(path_graph(3)))
    assert is_isomorphic(FAMILY_F["co-p3-cop3"], complement(p3_cop3))
    assert is_isomorphic(FAMILY_F["co-4-pan"], complement(FAMILY_F["4-pan"]))


def test_forbidden_s4_strings():
    assert len(FORBIDDEN_S4) == 43
    assert len(set(FORBIDDEN_S4)) == 43
    for s in FORBIDDEN_S4:
        g = parse_graph6(s)
        assert g.n == 6
        assert g.is_connected()


def test_collections():
    assert resolve("family-f") == [FAMILY_F[name] for name in sorted(FAMILY_F)]
    assert resolve(" Forbidden-S4 ") == [parse_graph6(s) for s in FORBIDDEN_S4]


def test_names_listing():
    listed = names()
    assert "diamond" in listed and "prism" in listed and "forbidden-s4" in listed


def test_every_listed_name_resolves():
    collections = {"family-f": [FAMILY_F[name] for name in sorted(FAMILY_F)],
                   "forbidden-s4": [parse_graph6(s) for s in FORBIDDEN_S4]}
    listed = names()
    assert set(collections) <= set(listed)
    for name in listed:
        concrete = name.replace("<n>", "5").replace("<a>,<b>,...", "2,3")
        expected = collections[name] if name in collections else [lookup(concrete)]
        assert resolve(concrete) == expected and all(g.n > 0 for g in expected), name


def test_classify_screens_with_the_catalog_pairs():
    from charideals.catalog import _COLLECTIONS
    from charideals.classify import _C_FORBIDDEN, _S4_FORBIDDEN
    assert _C_FORBIDDEN[3] is _COLLECTIONS["family-f"]
    assert _S4_FORBIDDEN is _COLLECTIONS["forbidden-s4"]


def test_lookup_suggests_only_names_it_resolves():
    # the collections are emitted by resolve(), not lookup()
    with pytest.raises(UnknownGraphError) as err:
        lookup("family-f")
    assert "family-f" not in err.value.suggestions
    for suggestion in err.value.suggestions:
        lookup(suggestion)


def test_complete_multipartite_graph_matches_the_edge_list_builder():
    tuples = [parts for m in range(6) for parts in product(range(1, 5), repeat=m)]
    assert len(tuples) == 1365
    for parts in tuples:
        assert complete_multipartite_graph(parts) == oracles.complete_multipartite_graph(parts)
    for bad in ((2, 0), (3, -1)):
        with pytest.raises(ValueError, match="part sizes must be positive"):
            complete_multipartite_graph(bad)
