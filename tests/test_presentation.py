"""The twin-split presentation on packed integers, and what reads it.

`_presentation` builds only the kept rows and takes its unit pivots on the
integers p(2^w); `oracles.presentation_by_row_ops` is the former route on
ZPoly entries, and the two must give the same (mat, r, split) once the
packed matrix is unpacked.  The minors, integer determinants of packed
entries, must be the ones a permutation expansion takes of the oracle's
ZPoly matrix.  The profile shares each minor size across its ideals, and
a digest pins the ideal engine's output.
"""

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from charideals import (BlowupSpec, algebraic_corank, blowup, char_ideal_profile,
                        characteristic_ideal)
from charideals import graph_ideals
from charideals.catalog import complete_multipartite_graph
from charideals.graph_ideals import _presentation, _unpack
from charideals.graphs import to_graph6
from charideals.mining import enumerate_connected
from charideals.zpoly import ZPoly

import oracles

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assert_matches_row_ops(graphs):
    for g in graphs:
        mat, w, r, split = _presentation(g)
        got = [[_unpack(e, w) for e in row] for row in mat], r, split
        assert got == oracles.presentation_by_row_ops(g), to_graph6(g)


def _chain_graphs(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    return [item[2] for item in inputs.ideal_chain_items(seed)]


def _mixed_blowup(rng, largest):
    # classes of either kind, some up to `largest` vertices, labels shuffled
    base = oracles.random_connected_graph(rng, rng.randint(2, 5))
    sizes = tuple(rng.choice((-1, 1)) * rng.randint(1, rng.choice((3, 6, largest)))
                  for _ in range(base.n))
    g = blowup(BlowupSpec(base, sizes))
    order = list(range(g.n))
    rng.shuffle(order)
    return g.relabelled(order)


def test_presentation_matches_row_ops_on_small_connected_graphs():
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    assert len(graphs) == 996
    _assert_matches_row_ops(graphs)


def test_presentation_matches_row_ops_on_mixed_blowups():
    rng = random.Random(211)
    graphs = [_mixed_blowup(rng, 30) for _ in range(60)]
    assert max(g.n for g in graphs) >= 60
    assert any(all(_presentation(g)[3]) for g in graphs)
    _assert_matches_row_ops(graphs)


def test_presentation_matches_row_ops_on_dense_graphs():
    rng = random.Random(223)
    _assert_matches_row_ops(oracles.random_graph(rng, rng.randint(9, 16), p)
                            for p in (0.5, 0.7, 0.9) for _ in range(12))


def test_presentation_matches_row_ops_on_ideal_chain_inputs(monkeypatch):
    _assert_matches_row_ops(_chain_graphs(monkeypatch, 1))


@pytest.mark.slow
def test_presentation_matches_row_ops_on_all_eight_vertex_graphs():
    graphs = list(enumerate_connected(8))
    assert len(graphs) == 11117
    _assert_matches_row_ops(graphs)


def test_unpack_inverts_packing_up_to_the_width():
    rng = random.Random(227)
    for w in (2, 3, 8, 33, 70):
        top = (1 << w - 1) - 1
        polys = [ZPoly(), ZPoly((1,)), ZPoly((-1,)), ZPoly((top,)), ZPoly((-top,)),
                 ZPoly((0, 0, -1)), ZPoly((top, -top, top)), ZPoly((-top, 0, top, -top))]
        for _ in range(200):
            coeffs = [rng.choice((0, 1, -1, top, -top, rng.randint(-top, top)))
                      for _ in range(rng.randint(1, 7))]
            coeffs[-1] = rng.choice((1, -1)) * rng.randint(1, top)
            polys.append(ZPoly(coeffs))
        for p in polys:
            x = p(1 << w)
            q = _unpack(x, w)
            assert q == p and type(q) is ZPoly, (w, p)
            assert not q or q[-1], (w, q)
            assert (x == 0) == (not p), (w, p)
            assert (x in (1, -1)) == (p in (ZPoly((1,)), ZPoly((-1,)))), (w, p)
            assert not x or (x > 0) == (p[-1] > 0), (w, p)


def _minors_by_expansion(mat, size):
    # the nonzero size-minors of a ZPoly matrix up to sign, leading
    # coefficient positive, each by permutation expansion
    out = set()
    for rows in combinations(range(len(mat)), size):
        for cols in combinations(range(len(mat)), size):
            m = ZPoly(oracles.poly_perm_det([[mat[i][j] for j in cols] for i in rows]))
            if m:
                out.add(m if m[-1] > 0 else -m)
    return out


def test_packed_minors_match_expansion_of_row_ops_matrix():
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    assert len(graphs) == 143
    rng = random.Random(233)
    graphs += [_mixed_blowup(rng, 30) for _ in range(40)]
    for g in graphs:
        mat, w, _, _ = _presentation(g)
        want = oracles.presentation_by_row_ops(g)[0]
        for size in range(1, len(mat) + 1):
            got = list(graph_ideals._distinct_minors(mat, w, size))
            assert all(type(m) is ZPoly for m in got), to_graph6(g)
            assert len(got) == len(set(got)), (to_graph6(g), size)
            assert set(got) == _minors_by_expansion(want, size), (to_graph6(g), size)


def test_generators_lie_within_the_lattice_degree_and_k_minus_r_factors(monkeypatch):
    # gens(k) takes products of j split factors from j = k - r down (one of
    # more factors is a multiple of one of k - r, whose minor is ONE), and
    # the lattice may stop at _lattice_degree only if no generator lies
    # above it; a bound one lower fails somewhere in each set
    counts = []
    take = graph_ideals._split_products

    def counted(of_t, of_t1, j):
        counts.append(j)
        return take(of_t, of_t1, j)
    monkeypatch.setattr(graph_ideals, "_split_products", counted)
    rng = random.Random(211)  # the mixed blow-ups of the row-operation check
    small = [g for n in range(1, 8) for g in enumerate_connected(n)]
    for graphs, pairs in ((small, 6781), ([_mixed_blowup(rng, 30) for _ in range(60)], 1651)):
        checked = tight = below_k = split = 0
        for g in graphs:
            pres = _presentation(g)
            mat, _, r, (of_t, of_t1) = pres
            split += of_t + of_t1 > 0
            gens = graph_ideals._generators(pres)
            for k in range(1, g.n + 1):
                counts.clear()
                deg = graph_ideals._lattice_degree(pres, k)
                top = max(len(p) - 1 for p in gens(k))
                assert top <= deg <= k, (to_graph6(g), k)
                if k > r:
                    assert counts == list(range(min(k - r, of_t + of_t1),
                                                max(0, k - r - len(mat)) - 1, -1))
                checked += 1
                tight += top == deg
                below_k += deg < k
        assert checked == pairs
        assert tight and below_k and split, (checked, tight, below_k, split)


def _count_minor_sizes(monkeypatch):
    calls = []
    take = graph_ideals._distinct_minors

    def counted(mat, w, size):
        calls.append(size)
        return take(mat, w, size)
    monkeypatch.setattr(graph_ideals, "_distinct_minors", counted)
    return calls


def test_each_call_takes_each_minor_size_once(monkeypatch):
    rng = random.Random(229)
    graphs = [complete_multipartite_graph((5, 5, 5, 5, 4))]
    graphs += [_mixed_blowup(rng, 4) for _ in range(8)]
    graphs += [oracles.random_graph(rng, rng.randint(4, 8)) for _ in range(12)]
    calls = _count_minor_sizes(monkeypatch)
    for g in graphs:
        want = [characteristic_ideal(g, k) for k in range(1, g.n + 1)]
        for run in (char_ideal_profile, algebraic_corank):
            calls.clear()
            run(g)
            assert len(calls) == len(set(calls)), (to_graph6(g), run.__name__, calls)
        calls.clear()
        assert char_ideal_profile(g).ideals == tuple(want), to_graph6(g)
    # the counter does see repeats: separate calls share nothing
    calls.clear()
    characteristic_ideal(graphs[0], 10)
    characteristic_ideal(graphs[0], 11)
    assert len(calls) > len(set(calls))


def engine_lines(chain_graphs):
    """One JSON line per graph: the profile (bases and gamma) of every
    connected graph on at most 6 vertices, then the co-rank of each graph
    given."""
    lines = []
    for g in (g for n in range(1, 7) for g in enumerate_connected(n)):
        profile = char_ideal_profile(g)
        lines.append(json.dumps({"graph": to_graph6(g), "gamma": profile.gamma,
                                 "bases": [[list(p) for p in i.basis] for i in profile.ideals]}))
    lines += [json.dumps({"graph": to_graph6(g), "corank": algebraic_corank(g)})
              for g in chain_graphs]
    return lines


# sha256 of engine_lines(ideal-chain inputs of seed 1) joined by newlines
ENGINE_SHA256 = "bafb110d48825e51769ba9ba639b5c651bfe9ccec1ca454f2d6488d0bdecfe22"


def test_ideal_engine_output_is_byte_identical(monkeypatch):
    lines = engine_lines(_chain_graphs(monkeypatch, 1))
    assert len(lines) == 143 + 41
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ENGINE_SHA256, (
        "the characteristic ideals or co-ranks changed; print engine_lines() "
        "here and at the last commit that passed this test, and diff the two")
