"""Seeded inputs for the three workloads.

Every generator takes the seed given to the benchmark and returns plain
data: graphs (as charideals Graph objects or graph6 lines) plus the answer
each item must produce.  Slots are fixed per workload and the seed only
fills them, so every seed gives the same mix of sizes and kinds of work.
"""

import random

from charideals.graphs import BlowupSpec, Graph, blowup, to_graph6
from charideals.zpoly import ZPoly
from charideals.ztideal import IdealZt

# 4-vertex bases as edge lists
BASES = {
    "c4": [(0, 1), (1, 2), (2, 3), (3, 0)],
    "k13": [(0, 1), (0, 2), (0, 3)],
    "p4": [(0, 1), (1, 2), (2, 3)],
    "paw": [(0, 1), (1, 2), (1, 3), (2, 3)],
    "diamond": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
    "k4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
}
PETERSEN = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6),
                      (2, 7), (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])
PETERSEN_CORANK = 5
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def _ideal(*polys):
    return IdealZt(tuple(ZPoly(p) for p in polys))


# (base, sign) -> (first nontrivial k, that ideal) for blow-ups whose classes
# all have at least two vertices; sign -1 blows up into cliques, +1 into
# stable sets.  Grouped by k, which sets the cost of one item.
FIRST_NONTRIVIAL = {
    2: {("k4", -1): _ideal((1, 1))},
    3: {("c4", 1): _ideal((0, 1)), ("k13", 1): _ideal((0, 1)),
        ("diamond", 1): _ideal((2,), (0, 1))},
    4: {("c4", -1): _ideal((3,), (1, 1)), ("k13", -1): _ideal((2,), (1, 1)),
        ("paw", -1): _ideal((1, 1)), ("diamond", -1): _ideal((1, 1)),
        ("k4", 1): _ideal((3,), (0, 1))},
    5: {("p4", -1): _ideal((1, 1)), ("p4", 1): _ideal((0, 1)),
        ("paw", 1): _ideal((0, 1))},
}
# I_4(C5)
GOLDEN = _ideal((-1, 1, 1))

# ideal-chain: seeded blow-up slots as (vertices, k, bases), where None
# allows every base of that k, and the membership slots.  Sorted by latency
# the median falls inside the (12, 3) block and the 75th percentile inside
# the (14, 3) block.  That block keeps to the star: on 14 vertices two
# classes get a fourth vertex, and with C4 or the diamond which two it is
# moves an item's time by up to 2x.
CHAIN_SLOTS = ([(12, 4, None)] * 3 + [(14, 3, [("k13", 1)])] * 6 + [(12, 3, None)] * 12
               + [(n, 2, None) for n in (10, 11, 13, 14)])
SHORTCUT_CHECKS = 6
REDUCTION_SLOTS = [(9, 4), (9, 4), (10, 3), (11, 3)]
GOLDEN_CHECKS = 3


def _parts(rng, n, m=4, least=2):
    """A random composition of n into m parts of at least `least`."""
    cuts = sorted(rng.sample(range(1, n - m * least + m), m - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n - m * least + m])]
    return [s + least - 1 for s in sizes]


def _shuffled(rng, g):
    order = list(range(g.n))
    rng.shuffle(order)
    return g.relabelled(order)


def make_blowup(base, sign, sizes):
    return blowup(BlowupSpec(Graph(4, BASES[base]), tuple(sign * s for s in sizes)))


def _name(base, sign):
    return base + ("+" if sign > 0 else "-")


def _induced(rng, g, size):
    return _shuffled(rng, g.subgraph(sorted(rng.sample(range(g.n), size))))


def ideal_chain_items(seed):
    """The items of one ideal-chain round, in a seeded order.

    Each item is (kind, label, graph, k, argument, expected):
    kind "ideal" computes characteristic_ideal(graph, k) and expects the
    ideal `expected`; "corank" computes algebraic_corank(graph) and expects
    the integer; "member" runs all_k_minors_in_ideal(graph, k, argument),
    which is True by construction because graph is an induced subgraph of
    one whose k-th ideal is `argument`.
    """
    rng = random.Random(f"ideal-chain:{seed}")
    items = [
        ("ideal", "c4-blowup-16", make_blowup("c4", -1, [4] * 4), 4, None,
         FIRST_NONTRIVIAL[4][("c4", -1)]),
        ("ideal", "k13-blowup-16", make_blowup("k13", -1, [4] * 4), 4, None,
         FIRST_NONTRIVIAL[4][("k13", -1)]),
        ("corank", "petersen", PETERSEN, None, None, PETERSEN_CORANK),
    ]
    for n, k, bases in CHAIN_SLOTS:
        base, sign = rng.choice(bases or sorted(FIRST_NONTRIVIAL[k]))
        ideal = FIRST_NONTRIVIAL[k][(base, sign)]
        # near-equal classes: unequal ones spread the cost of a slot widely
        sizes = [n // 4 + (i < n % 4) for i in range(4)]
        rng.shuffle(sizes)
        g = _shuffled(rng, make_blowup(base, sign, sizes))
        items.append(("ideal", f"{_name(base, sign)}{sizes}", g, k, None, ideal))
    # SNF shortcut: the ideal is <m, t - a>
    shortcut = [(k, b, s) for k in (3, 4) for (b, s), i in FIRST_NONTRIVIAL[k].items()
                if len(i.basis) == 2]
    for _ in range(SHORTCUT_CHECKS):
        k, base, sign = rng.choice(shortcut)
        host = make_blowup(base, sign, [4] * 4)
        size = rng.randint(6, 15)
        items.append(("member", f"{_name(base, sign)}-sub{size}",
                      _induced(rng, host, size), k, FIRST_NONTRIVIAL[k][(base, sign)], True))
    # reduction of every distinct minor: principal ideals
    for size, k in REDUCTION_SLOTS:
        base, sign = rng.choice(sorted(bs for bs, i in FIRST_NONTRIVIAL[k].items()
                                       if len(i.basis) == 1))
        host = make_blowup(base, sign, _parts(rng, 14))
        items.append(("member", f"{_name(base, sign)}-sub{size}",
                      _induced(rng, host, size), k, FIRST_NONTRIVIAL[k][(base, sign)], True))
    for _ in range(GOLDEN_CHECKS):
        items.append(("member", "c5", _shuffled(rng, C5), 4, GOLDEN, True))
    rng.shuffle(items)
    return items


# classify-stream: one round of a stream's slots.  Random graphs stop at 8
# vertices and only one slot has 8: classify on a random 8-vertex graph
# costs anywhere from 0.01 to 0.3 s, so a stream's cost would follow how
# many costly ones it drew, and its slowest stream sets the tail latency.
# The other 8- and 9-vertex graphs are regular graphs and blow-ups.
RANDOM_SLOTS = ([(5, p) for p in (0.3, 0.5, 0.7)] + [(6, p) for p in (0.3, 0.5, 0.7)] * 2
                + [(7, p) for p in (0.3, 0.5, 0.7)] * 3 + [(8, 0.5)])
REGULAR_SLOTS = [6, 6, 7, 7, 8]
BLOWUP_SLOTS = [("c4", 5), ("c4", 7), ("c4", 9), ("k13", 6), ("k13", 8), ("k13", 9),
                ("p4", 6), ("paw", 7)]
# one relabelled copy of an earlier graph per entry and round, about a fifth
# of the stream; drawing the originals by size keeps a stream's cost steady
COPY_SIZES = (5, 6, 7, 7, 8, 9)
# slot sets per stream: the cost of a stream varies less the more graphs it
# has, and a stream's slowest graph decides the tail latency
STREAM_ROUNDS = 3


def _random_connected(rng, n, p):
    while True:
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        if g.is_connected():
            return g


def _circulant(rng, n):
    while True:
        jumps = {j for j in range(1, n // 2 + 1) if rng.random() < 0.5}
        g = Graph(n, {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})
        if jumps and g.is_connected():
            return g


def classify_stream(seed, index):
    """Stream `index`: graph6 lines of random, regular and blow-up graphs in
    a seeded order with relabelled copies of some placed after their
    originals, and the (copy, original) line index pairs."""
    rng = random.Random(f"classify-stream:{seed}:{index}")
    graphs = []
    for _ in range(STREAM_ROUNDS):
        graphs += [_random_connected(rng, n, p) for n, p in RANDOM_SLOTS]
        graphs += [_circulant(rng, n) for n in REGULAR_SLOTS]
        for base, n in BLOWUP_SLOTS:
            graphs.append(make_blowup(base, -1, _parts(rng, n, least=1)))
    graphs = [_shuffled(rng, g) for g in graphs]
    rng.shuffle(graphs)
    entries = list(enumerate(graphs))  # (id of the original, graph)
    for size in COPY_SIZES * STREAM_ROUNDS:
        orig = rng.choice([i for i, g in enumerate(graphs) if g.n == size])
        at = next(pos for pos, (i, _) in enumerate(entries) if i == orig)
        entries.insert(rng.randrange(at + 1, len(entries) + 1), (orig, _shuffled(rng, graphs[orig])))
    first, copies = {}, []
    for i, (orig, _) in enumerate(entries):
        if orig in first:
            copies.append((i, first[orig]))
        else:
            first[orig] = i
    return [to_graph6(g) for _, g in entries], copies
