import hashlib
import importlib
import pickle
import random
import re
from functools import cache, partial
from itertools import combinations, starmap

import pytest

from charideals import (BlowupSpec, ConsistencyError, MiningResult, MiningTask, adjacency_matrix,
                        canonical_form, cross_check, enumerate_connected, lookup, mine,
                        parse_graph6, to_graph6)
from charideals import graph_ideals, isomorphism, mining
from charideals.catalog import FAMILY_F, FORBIDDEN_S4
from charideals.classify import _structural_c, _structural_s, is_C_leq
from charideals.graphs import Graph, _induced, twin_classes
from charideals.intlinalg import _unit_count
from charideals.isomorphism import _label
from charideals.mining import (CONNECTED_COUNTS, STATISTICS, _accept, _candidates, _level,
                               _mask_orbits, _walk)

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


_SIZE_CHECKS = [
    (enumerate_connected, 2.5, r"^not an integer: 2\.5$"),
    (enumerate_connected, "3", r"^not an integer: '3'$"),
    (enumerate_connected, 11, r"^enumeration supports n <= 10, got 11$"),
    (partial(MiningTask, statistic="phiA", k=4), 11,
     r"^mining supports max_vertices <= 10, got 11$"),
    (cross_check, 11, r"^crosscheck supports max_n <= 10, got 11$")]


@pytest.mark.parametrize("build,n,message", _SIZE_CHECKS,
                         ids=[f"{n}-{message}" for _, n, message in _SIZE_CHECKS])
def test_enumeration_checks_n_before_it_walks(monkeypatch, build, n, message):
    # 2.5 and "3" once failed late with a TypeError, and 11 started sorting
    # about 10**9 graph6 strings; mining and crosscheck share the size check
    def refuse(max_n):
        raise AssertionError("walked")
    monkeypatch.setattr(mining, "_walk", refuse)
    monkeypatch.setattr(importlib.import_module("charideals.classify"), "_walk", refuse)
    with pytest.raises(ValueError, match=message):
        build(n)


def test_task_validation():
    with pytest.raises(ValueError, match=r"^mining needs max_vertices >= 2$"):
        MiningTask(1, "phiA", 2)
    with pytest.raises(ValueError, match=r"^mining supports max_vertices <= 10, got 11$"):
        MiningTask(11, "phiA", 2)
    with pytest.raises(ValueError, match=r"^threshold k must be nonnegative$"):
        MiningTask(5, "phiA", -1)
    with pytest.raises(ValueError, match=r"^unknown statistic 'phiZ'; "
                                         r"choose from \['gammaA', 'phiA', 'phiL'\]$"):
        MiningTask(5, "phiZ", 2)
    with pytest.raises(TypeError):
        mine("not a task")
    task = MiningTask(max_vertices=5, statistic="phiA", k=0)
    assert (task.max_vertices, task.statistic, task.k) == (5, "phiA", 0)


@pytest.mark.parametrize("args,bad", [((5, "phiA", 1.5), "1.5"), ((5.5, "phiA", 2), "5.5"),
                                      ((5, "phiA", "2"), "'2'")])
def test_task_rejects_a_non_integer(args, bad):
    # a threshold of 1.5 once mined as k = 2 and reported 1.5, and 5.5
    # vertices failed deep inside mine() with a TypeError
    with pytest.raises(ValueError, match=rf"^not an integer: {bad}$"):
        MiningTask(*args)


@pytest.mark.parametrize("record,fields,changes", [
    (MiningTask(5, "phiA", 2), ("max_vertices", "statistic", "k"),
     [{"k": -1}, {"k": 1.5}, {"max_vertices": 1}, {"max_vertices": 11},
      {"statistic": "phiZ"}]),
    (BlowupSpec(Graph(2, [(0, 1)]), (2, -1)), ("underlying", "d"),
     [{"d": (0, 1)}, {"d": (1,)}, {"d": (1.5, 1)}, {"underlying": Graph(3)}])],
    ids=["MiningTask", "BlowupSpec"])
def test_task_and_blowup_spec_are_checked_named_tuples(record, fields, changes):
    # one field list sets the attributes, the constructor's order, equality,
    # pickling and repr; _replace checks as the constructor does, and no
    # attribute can be set after the check
    cls = type(record)
    assert cls._fields == fields
    assert cls(*record) == record and hash(cls(*record)) == hash(record)
    for change in changes:
        with pytest.raises(ValueError) as built:
            cls(**dict(record._asdict(), **change))
        with pytest.raises(ValueError, match=f"^{re.escape(str(built.value))}$"):
            record._replace(**change)
    for name in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, fields[-1]))
    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(record).startswith(f"{cls.__name__}({fields[0]}=")
    assert all(f"{name}=" in repr(record) for name in fields)


def test_task_keeps_integral_values_as_ints():
    task = MiningTask(5.0, "phiA", 2.0)
    assert (task.max_vertices, task.k) == (5, 2)
    assert type(task.max_vertices) is int and type(task.k) is int


def test_connected_counts_bound_the_task():
    # OEIS A001349; forbidden_total needs the count of every level mined
    assert CONNECTED_COUNTS[8:] == (261080, 11716571)
    assert MiningTask(len(CONNECTED_COUNTS), "phiA", 4).max_vertices == 10
    with pytest.raises(ValueError, match="max_vertices <= 10"):
        MiningTask(len(CONNECTED_COUNTS) + 1, "phiA", 4)


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


def test_mine_corank_recheck_catches_a_low_bound(monkeypatch):
    # a co-rank bound one too low makes the top-down route undercount; the
    # bottom-up recheck of each minimal graph never reads that bound
    bound = graph_ideals._corank_bound
    monkeypatch.setattr(graph_ideals, "_corank_bound", lambda pres: bound(pres) - 1)
    with pytest.raises(ConsistencyError):
        mine(MiningTask(6, "gammaA", 2))


def test_mine_determinism():
    # every field, the task included, compares by value
    assert mine(MiningTask(5, "phiA", 2)) == mine(MiningTask(5, "phiA", 2))


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
        assert any(oracles.complement(g).adj)  # not complete


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


def test_candidates_match_the_filter_by_reach():
    # every connected graph on up to 7 vertices as a parent, with the
    # generators its acceptance as a child carries, then seeded connected
    # graphs on up to 12 vertices with no generators: the same children, in
    # the same order, with the ties reach finds
    parents = 0
    stack = [((0,), ())]  # K_1 has no generators
    while stack:
        adj, gens = stack.pop()
        want = list(oracles.candidates_by_reach(adj, _mask_orbits(len(adj), gens)))
        assert list(_candidates(adj, gens)) == want, adj
        parents += 1
        if len(adj) < 7:
            stack += [(g.adj, kept) for _, g, _, kept in filter(None, starmap(_accept, want))]
    assert parents == sum(CONNECTED_COUNTS[:7])
    rng = random.Random(4301)
    for n in range(2, 13):
        for p in (0.2, 0.4, 0.7):
            adj = oracles.random_connected_graph(rng, n, p).adj
            assert list(_candidates(adj, ())) == list(
                oracles.candidates_by_reach(adj, range(1, 1 << n))), adj


def _accepted_as_by_labelling(adj, gens):
    # the children _accept keeps of the parent adj, each candidate checked
    # against labelling it
    for child, ties in _candidates(adj, gens):
        kept = _accept(child, ties)
        assert kept == oracles.accept_by_labelling(child, ties), child
        if kept is not None:
            yield kept


def test_acceptance_matches_labelling_every_candidate():
    # every connected graph on up to 6 vertices as a parent, with the
    # generators its acceptance as a child carries, then 40 seeded connected
    # parents on 7..10 vertices with no generators: the root partition drops
    # no child that labelling keeps, and keeps each it keeps as labelling did
    parents = 0
    stack = [((0,), ())]  # K_1 has no generators
    while stack:
        adj, gens = stack.pop()
        kept = list(_accepted_as_by_labelling(adj, gens))
        parents += 1
        if len(adj) < 6:
            stack += [(g.adj, gens) for _, g, _, gens in kept]
    assert parents == sum(CONNECTED_COUNTS[:6])
    rng = random.Random(4801)
    for n in range(7, 11):
        for p in (0.2, 0.35, 0.5, 0.65, 0.8) * 2:
            adj = oracles.random_connected_graph(rng, n, p).adj
            assert list(_accepted_as_by_labelling(adj, ()))


@pytest.mark.slow
def test_enumeration_count_n9():
    assert sum(1 for _ in enumerate_connected(9)) == CONNECTED_COUNTS[8] == 261080


def test_mine_corank_k3_to_8_gives_family_f():
    result = mine(MiningTask(8, "gammaA", 3))
    assert sorted(result.minimal) == sorted(canonical_form(g) for g in FAMILY_F.values())
    assert result.counts_by_size == {5: 8, 6: 4, 7: 1, 8: 1}


def test_mine_corank_k3_to_10_gives_family_f_and_agrees_with_classifier():
    result = mine(MiningTask(10, "gammaA", 3))
    assert sorted(result.minimal) == sorted(canonical_form(g) for g in FAMILY_F.values())
    assert len(result.values) > 500
    for g6, gamma in result.values.items():
        assert is_C_leq(parse_graph6(g6), 3)[0] == (gamma <= 3), g6


# each family's characterization: (statistic, k) of the family <= k
_PAPER_FAMILIES = {"C<=1": ("gammaA", 1), "C<=2": ("gammaA", 2), "C<=3": ("gammaA", 3),
                   "S<=2": ("phiA", 2), "S<=3": ("phiA", 3)}


def test_mined_members_are_the_paper_families():
    # each theorem as a set identity on 2..10 vertices: the members mine
    # grows are exactly the graphs the theorem names, and classify's
    # structural recogniser names every one of them
    families = oracles.paper_families(10)
    assert [len(families[name]) for name in _PAPER_FAMILIES] == [9, 63, 263, 56, 83]
    for name, (statistic, k) in _PAPER_FAMILIES.items():
        assert families[name] == mine(MiningTask(10, statistic, k)).members, name
        recognise = _structural_c if name[0] == "C" else _structural_s
        for s in families[name]:
            assert recognise(parse_graph6(s), k) is not None, (name, s)


def _members_digest(result):
    text = repr((result.minimal, sorted(result.members), result.forbidden_total,
                 sorted(result.counts_by_size.items())))
    return hashlib.sha256(text.encode()).hexdigest()


def test_mined_members_are_pinned_at_9():
    # one size past the benchmark's run, as growth gave them when it
    # labelled every child before evaluating it
    result = mine(MiningTask(9, "phiA", 4))
    assert _members_digest(result) == (
        "adefad42a3c77646b35b87e957a7a83080c83e4fa41c19972077d7d22ad3d328")


@pytest.mark.slow
def test_mine_smith_k4_to_10_gives_forbidden_s4():
    result = mine(MiningTask(10, "phiA", 4))
    assert sorted(result.minimal) == sorted(canonical_form(parse_graph6(s))
                                            for s in FORBIDDEN_S4)
    assert result.counts_by_size == {6: 43}
    # the members too, as growth gave them when it labelled every child
    assert _members_digest(result) == (
        "5719b2d16327fbb752d99b249def6b931ff4a05de9e3e67730c977407b69fead")


@cache
def _value(statistic, g6):
    return STATISTICS[statistic](parse_graph6(g6))


@pytest.mark.parametrize("statistic,k", [("phiA", k) for k in range(1, 6)]
                         + [("gammaA", k) for k in range(1, 5)])
def test_growth_matches_full_scan(statistic, k):
    # growing the members against evaluating every graph and searching each
    # forbidden one for every smaller one
    result = mine(MiningTask(7, statistic, k))
    minimal, counts, forbidden = oracles.mine_by_scan(7, partial(_value, statistic), k + 1)
    assert result.minimal == tuple(minimal)
    assert result.counts_by_size == counts
    assert result.forbidden_total == len(forbidden)
    assert list(result.forbidden()) == forbidden


def _phi_deleting_each_false_twin(adj):
    # (phiA of adj, phiA of adj - u) for each vertex u that has a false twin
    phi = _unit_count(adjacency_matrix(Graph.from_adj(adj)))
    for u in [u for vs in twin_classes(adj, 0) if len(vs) > 1 for u in vs]:
        rest = [v for v in range(len(adj)) if v != u]
        yield phi, _unit_count(adjacency_matrix(Graph.from_adj(_induced(adj, rest))))


def test_a_false_twin_leaves_phi_unchanged():
    # what phiA growth reads: a child whose new vertex is a false twin of a
    # parent vertex takes the parent's value, and a forbidden child with
    # false twins is not minimal.  Every connected graph on up to 7
    # vertices, then seeded connected graphs on 9..14 vertices with false
    # twins added
    pairs = [pair for s in _walk(7) for pair in _phi_deleting_each_false_twin(
        parse_graph6(s).adj)]
    rng = random.Random(4803)
    for n in range(9, 15):
        for p in (0.3, 0.5, 0.7):
            adj = oracles.random_connected_graph(rng, n - 2, p).adj
            for _ in range(2):  # the second may copy the first's twin
                v, m = rng.randrange(len(adj)), len(adj)
                adj = tuple([a | (a >> v & 1) << m for a in adj]) + (adj[v],)
            pairs += _phi_deleting_each_false_twin(adj)
    assert len(pairs) == 1195
    assert all(a == b for a, b in pairs)


@pytest.mark.parametrize("statistic,k", [("phiL", 1), ("phiL", 2), ("phiA", 4)])
def test_listing_every_forbidden_graph_walks_once(monkeypatch, statistic, k):
    # phiL's scan evaluates every graph, so forbidden() reads its values
    # and needs no second walk; growth walks only when they are listed
    walks = []
    walk = mining._walk
    monkeypatch.setattr(mining, "_walk", lambda max_n: walks.append(max_n) or walk(max_n))
    result = mine(MiningTask(7, statistic, k))
    forbidden = list(result.forbidden())
    assert walks == [7]
    assert forbidden == oracles.mine_by_scan(7, partial(_value, statistic), k + 1)[2]
    assert k in result.values.values()  # a graph at k, which is not forbidden
    if (statistic, k) != ("phiL", 2):  # at n <= 7 each forbidden phiL-2 graph is minimal
        assert len(forbidden) > len(result.minimal)


def test_mining_result_is_a_named_tuple():
    # one field list sets the attributes and the constructor order
    result = mine(MiningTask(5, "phiA", 4))
    assert MiningResult._fields == ("task", "minimal", "members", "forbidden_total", "values",
                                    "counts_by_size")
    assert tuple(result) == (result.task, result.minimal, result.members,
                             result.forbidden_total, result.values, result.counts_by_size)
    assert MiningResult(*result) == result
    assert not hasattr(result, "__dict__")
    with pytest.raises(TypeError):
        hash(result)  # it holds the values dict


def test_growth_runs_no_induced_search(monkeypatch):
    def refuse(host, pattern):
        raise AssertionError("find_induced called")
    monkeypatch.setattr(mining, "find_induced", refuse)
    monkeypatch.setattr(isomorphism, "find_induced", refuse)
    assert len(mine(MiningTask(7, "phiA", 4)).minimal) == 43
    assert len(mine(MiningTask(7, "gammaA", 3)).minimal) == 13


def _count_labelling(monkeypatch):
    """Every adjacency mining labels, and per lookup of a level's or the
    recheck's labels whether it labelled one."""
    labelled, lookups = [], []
    monkeypatch.setattr(mining, "_label",
                        lambda adj, *root: labelled.append(adj) or _label(adj, *root))
    canonical = mining._canonical

    def looked_up(adj, labels):
        before = len(labelled)
        s = canonical(adj, labels)
        lookups.append(len(labelled) > before)
        return s

    monkeypatch.setattr(mining, "_canonical", looked_up)
    return labelled, lookups


def test_minimality_labels_one_deletion_per_orbit(monkeypatch):
    # gammaA labels each child before it evaluates it, and then one
    # connected deletion per automorphism orbit of a forbidden child, none
    # for the orbit of its new vertex; one per vertex took 998 lookups here.
    # Of the 796 lookups, 458 label: the rest read a deletion labelled
    # earlier in the same level
    labelled, lookups = _count_labelling(monkeypatch)
    minimal, _ = mining._grow(7, 5, "gammaA", {})
    assert len(minimal) == 79
    assert len(lookups) == 796
    assert sum(lookups) == 458


def test_growth_labels_each_child_once(monkeypatch):
    # a member's automorphism generators come down from its labelling as a
    # child; labelling each parent again as well took 518 here.  phiA is
    # evaluated first: only member candidates and minimal ones, 43 graphs,
    # are labelled, and the minimality test looks nothing up.  Of those
    # candidates, the root partition drops 73 unlabelled (418 before it)
    labelled, lookups = _count_labelling(monkeypatch)
    minimal, _ = mining._grow(7, 5, "phiA", {})
    assert len(minimal) == 43
    assert lookups == []
    assert len(labelled) - sum(lookups) == 345
    # gammaA labels every candidate the root partition keeps (154 before it)
    labelled.clear()
    minimal, _ = mining._grow(7, 4, "gammaA", {})
    assert len(minimal) == 13
    assert len(labelled) - sum(lookups) == 129


def test_phi_growth_labels_no_forbidden_child_but_a_minimal_one(monkeypatch):
    # a forbidden child with a forbidden connected deletion is dropped
    # before it is labelled; a minimal one is labelled once per parent that
    # makes it, and its canonical deletion keeps one
    accepted = []
    accept = mining._accept
    monkeypatch.setattr(mining, "_accept",
                        lambda child, ties: accepted.append(child) or accept(child, ties))
    result = mine(MiningTask(8, "phiA", 4))
    fn = STATISTICS["phiA"]
    forbidden = [Graph.from_adj(child) for child in accepted if fn(Graph.from_adj(child)) > 4]
    assert (len(accepted) - len(forbidden), len(forbidden)) == (1051, 53)
    for g in forbidden:
        for v in range(g.n):
            h = g.subgraph([u for u in range(g.n) if u != v])
            assert not h.is_connected() or fn(h) <= 4
    assert {canonical_form(g) for g in forbidden} == set(result.minimal)


def test_phi_values_hold_the_members_and_the_minimal_graphs():
    # growth evaluates phiA on children it never labels, and keeps only the
    # values of the graphs it labels
    result = mine(MiningTask(7, "phiA", 4))
    assert result.values.keys() == result.members | set(result.minimal)
    assert len(result.values) == 301 + 43
    for g6, val in result.values.items():
        assert val == STATISTICS["phiA"](parse_graph6(g6)), g6
        assert (val > 4) == (g6 in result.minimal)


def test_labellings_per_run_are_pinned(monkeypatch):
    # no labelling outlives its step, so a second call labels as many
    # again.  phiA growth labels 345 children and looks nothing up; the
    # recheck's 214 lookups label its 90 distinct deletions, 9 of them
    # children growth labelled too
    labelled, lookups = _count_labelling(monkeypatch)
    for _ in range(2):
        labelled.clear()
        lookups.clear()
        mine(MiningTask(7, "phiA", 4))
        assert (len(labelled), len(set(labelled))) == (345 + 90, 426)
        assert (len(lookups), sum(lookups)) == (214, 90)
    # gammaA: growth labels 338 (146 lookups, 115 label), the recheck 27
    labelled.clear()
    lookups.clear()
    mine(MiningTask(8, "gammaA", 3))
    assert (len(labelled), len(set(labelled))) == (365, 313)
    assert (len(lookups), sum(lookups)) == (212, 142)
    # phiL scans one depth-first walk, labelling each parent once as a
    # child; the recheck looks up each connected induced subgraph of its 6
    # minimal graphs, 329 lookups of 90 adjacencies
    labelled.clear()
    lookups.clear()
    mine(MiningTask(7, "phiL", 2))
    assert len(labelled) == 996 + 90
    assert (len(lookups), sum(lookups)) == (329, 90)


@pytest.mark.parametrize("args,mutant", [
    ((7, "phiL", 1), ("find_induced", lambda host, pattern: None)),
    ((7, "phiA", 4), ("_deletions", lambda adj, new, gens: iter(()))),
    ((6, "gammaA", 2), ("_deletions", lambda adj, new, gens: iter(()))),
], ids=["phiL-scan-misses", "phiA-no-deletions", "gammaA-no-deletions"])
def test_recheck_finds_a_graph_that_is_not_minimal(monkeypatch, args, mutant):
    # a minimality test that passes every forbidden graph: the recheck
    # finds a subgraph outside the members.  At phiA k <= 3 and n <= 7,
    # every forbidden child that is not minimal has false twins, which
    # decide it before any deletion is read, so phiA takes k = 4 here.
    # phiL is not hereditary, so
    # its recheck reads every connected induced subgraph, not only the
    # deletions
    monkeypatch.setattr(mining, *mutant)
    with pytest.raises(ConsistencyError, match="is not minimal"):
        mine(MiningTask(*args))


@pytest.mark.parametrize("args,with_values,digest", [
    ((8, "phiA", 4), False, "be842c75332c0bb8805e3ef11959e22622d58f2ed7cedb4f325284544aa979ba"),
    ((8, "gammaA", 3), False, "324c34d6185c72cce8f2c703e5f36ddec7a941de5a11afcc2af212a5f3d61582"),
    ((7, "phiL", 2), False, "75f0e4aadb260c505e9df63c8caf0d93ba80df20e0cbbeab157e716013a23fb0"),
    ((7, "phiL", 1), True, "6dd3d108526c1bb9e06d824760b47f0d9086b43a8f779783f0f1264f7a3863a8"),
    ((7, "gammaA", 4), True, "f82f2cb637662ca50b1eceae93a3b7a921ec9160bda8366367ec705d2ec03961"),
], ids=["phiA-k4-n8", "gammaA-k3-n8", "phiL-k2-n7", "phiL-k1-n7", "gammaA-k4-n7"])
def test_mined_output_is_pinned(args, with_values, digest):
    # the minimal graphs' canonical graph6, the forbidden count and the
    # counts by size, as they came when each canonical graph6 was encoded
    # by to_graph6 from a relabelled copy, and for the last two the sorted
    # values, as they came when a run-wide memo served the minimality
    # tests; phiL takes the scan route
    result = mine(MiningTask(*args))
    parts = (result.minimal, result.forbidden_total, sorted(result.counts_by_size.items()))
    text = repr(parts + (sorted(result.values.items()),) if with_values else parts)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _children_of(s):
    # the accepted children of the canonical graph6 s, with the generators
    # a fresh labelling finds
    adj = parse_graph6(s).adj
    return filter(None, starmap(_accept, _candidates(adj, _label(adj)[1])))


def test_carried_generators_give_the_orbits_of_a_fresh_labelling():
    # the generators a child carries generate the group a fresh labelling
    # of its canonical graph finds
    checked = 0
    for n in range(1, 6):
        for s in _level(n):
            for c, g, _, gens in _children_of(s):
                assert list(_mask_orbits(g.n, gens)) == list(
                    _mask_orbits(g.n, _label(g.adj)[1])), c
                checked += 1
    assert checked == sum(CONNECTED_COUNTS[1:6])  # every class on 2..6 vertices


def test_children_come_in_their_canonical_labelling():
    # new is the new vertex's canonical index, and each carried generator
    # is an automorphism of the canonical graph
    checked = 0
    for n in range(1, 6):
        for s in _level(n):
            for c, g, new, gens in _children_of(s):
                assert c == to_graph6(g) == canonical_form(g)
                assert canonical_form(g.subgraph([u for u in range(g.n) if u != new])) == s, c
                assert type(gens) is tuple and all(type(p) is tuple for p in gens)
                for p in gens:
                    assert sorted(p) == list(range(g.n))
                    assert [sum(1 << p[v] for v in range(g.n) if a >> v & 1)
                            for a in g.adj] == [g.adj[p[u]] for u in range(g.n)], c
                checked += 1
    assert checked == sum(CONNECTED_COUNTS[1:6])  # every class on 2..6 vertices


def test_levels_are_built_without_labelling_a_parent(monkeypatch):
    # each child hands its generators to its own children; labelling every
    # parent again as well took 1,467 here, and labelling each child the
    # root partition drops as well took 1,324.  The 995 classes on 2..7
    # vertices take one each, and one child the orbit test drops one more
    labelled, _ = _count_labelling(monkeypatch)
    _level.cache_clear()
    level = _level(7)
    assert level == oracles._level(7)
    assert len(labelled) == 996
    assert type(level) is tuple and all(type(s) is str for s in level)


def test_growth_evaluates_only_children_of_members(monkeypatch):
    calls = []
    fn = STATISTICS["gammaA"]

    def counted(g):
        calls.append(to_graph6(g))
        return fn(g)

    monkeypatch.setitem(STATISTICS, "gammaA", counted)
    result = mine(MiningTask(7, "gammaA", 3))
    parents = [canonical_form(Graph(1))] + [s for s in result.members if parse_graph6(s).n < 7]
    children = sorted(c for s in parents
                      for c, *_ in _children_of(s))
    assert sorted(calls) == children == sorted(result.values)
    assert len(children) < sum(CONNECTED_COUNTS[1:7])
