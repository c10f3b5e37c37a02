"""Named-graph catalog: parametric families, small named graphs, the
14-graph obstruction family for three trivial characteristic ideals, and
the 43 minimal forbidden graphs for the four-unit-invariant Smith family.
"""

from __future__ import annotations

import re

from .graphs import BlowupSpec, Graph, blowup, parse_graph6
from .intlinalg import _integers


class UnknownGraphError(KeyError):
    def __init__(self, name, pool):
        # difflib loads only on this error path, to keep it out of start-up
        from difflib import get_close_matches
        self.suggestions = get_close_matches(_key(name), pool, n=3)
        hint = f"; close matches: {', '.join(self.suggestions)}" if self.suggestions else ""
        super().__init__(f"unknown catalog graph {name!r}{hint}")


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_minus_edge(n):
    if n < 2:
        raise ValueError("K_n - e needs at least 2 vertices")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != (0, 1)])


def star_graph(n):
    """Star with n vertices: apex 0 plus n-1 leaves."""
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_multipartite_graph(parts):
    """K(p1, ..., pm): the blow-up of K_m by stable sets of the part sizes."""
    parts = _integers(parts)
    if any(p < 1 for p in parts):  # a negative size would blow up to a clique
        raise ValueError("part sizes must be positive")
    return blowup(BlowupSpec(complete_graph(len(parts)), parts))


# The 14 minimal obstructions to having at most three trivial characteristic
# ideals, with the edge lists of their standard drawings.
FAMILY_F = {
    "fork": Graph(5, [(0, 3), (0, 4), (1, 4), (2, 4)]),
    "4-pan": Graph(5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]),
    "bull": Graph(5, [(0, 3), (0, 4), (1, 3), (2, 4), (3, 4)]),
    "dart": Graph(5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4)]),
    "p5": Graph(5, [(0, 2), (0, 4), (1, 3), (1, 4)]),
    "co-4-pan": Graph(5, [(0, 2), (0, 4), (1, 3), (1, 4), (2, 4)]),
    "3-fan": Graph(5, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4)]),
    "kite": Graph(5, [(0, 2), (0, 3), (0, 4), (1, 4), (2, 3), (2, 4)]),
    "s6+e": Graph(6, [(0, 4), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]),
    "co-diamond-k2": Graph(6, [(0, 3), (0, 4), (0, 5), (1, 4), (1, 5),
                               (2, 4), (2, 5), (3, 4), (3, 5)]),
    "k33+e": Graph(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                       (2, 3), (2, 4), (2, 5), (3, 5)]),
    "co-p3-cop3": Graph(6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3),
                            (1, 4), (1, 5), (2, 4), (2, 5), (3, 5), (4, 5)]),
    "k1,1,1,2,2": complete_multipartite_graph((2, 2, 1, 1, 1)),
    "k1,1,1,1,4": complete_multipartite_graph((4, 1, 1, 1, 1)),
}

# Caption strings of the figure listing the minimal forbidden graphs for the
# family with at most four unit invariant factors of the adjacency matrix.
FORBIDDEN_S4 = (
    "Edo_", "Eto_", "Elo_", "E|o_", "Elw_", "E|w_", "Epoo",
    "Exwo", "ExGG", "ExGg", "E~_G", "E~cG", "E~sG", "E~{G",
    "Ep_G", "EpgG", "EpOG", "ExOG", "ExoG", "ExwG", "EpWG",
    "ExWG", "EpSG", "EpsG", "Ep{G", "E|OW", "E~oW", "E~sW",
    "E|qW", "E|SW", "E~TW", "EzSW", "ErOW", "EzOW", "EzPW",
    "EroW", "EvoW", "EvsW", "Ezow", "Ez{w", "E~~w", "E~YW",
    "E~}W",
)

_FIXED = {
    "diamond": complete_minus_edge(4),
    "paw": Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)]),
    "house": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]),
    # the triangular prism: two triangles joined by a perfect matching
    "prism": Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    "petersen": Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7),
                           (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]),
}
_FIXED["k3xk2"] = _FIXED["prism"]

# the names lookup resolves to one fixed graph
_NAMED = {**_FIXED, **FAMILY_F}

# name shown by `names`, pattern and builder of each parametric family;
# the builder takes the pattern's comma-separated numbers
_PARAMETRIC = (
    ("p<n>", r"p(\d+)", path_graph),
    ("c<n>", r"c(\d+)", cycle_graph),
    ("k<n>", r"k(\d+)", complete_graph),
    ("k<n>-e", r"k(\d+)-e", complete_minus_edge),
    ("s<n>", r"s(\d+)", star_graph),
    ("k<a>,<b>,...", r"k(\d+(?:,\d+)+)", lambda *parts: complete_multipartite_graph(parts)),
)

# each collection as (name, graph) pairs in emit order; classify screens
# with these same tuples
_COLLECTIONS = {
    "family-f": tuple((name, FAMILY_F[name]) for name in sorted(FAMILY_F)),
    "forbidden-s4": tuple((s, parse_graph6(s)) for s in FORBIDDEN_S4),
}


def _key(name):  # the one normalisation of catalog names
    return name.strip().lower()


def names():
    dynamic = [name for name, _, _ in _PARAMETRIC]
    return sorted(_FIXED) + sorted(FAMILY_F) + dynamic + sorted(_COLLECTIONS)


def _graph(name):
    """The graph a fixed, Family F or parametric name denotes, or None."""
    key = _key(name)
    if key in _NAMED:
        return _NAMED[key]
    for _, pattern, build in _PARAMETRIC:
        m = re.fullmatch(pattern, key)
        if m:
            sizes = [int(x) for x in m.group(1).split(",")]
            # before the build: k<n> alone would list n(n - 1)/2 edges
            if sum(sizes) > 62:
                raise ValueError(f"catalog graph {name!r} has {sum(sizes)} vertices; "
                                 "graph6 allows at most 62")
            return build(*sizes)
    return None


def lookup(name):
    g = _graph(name)
    if g is None:
        raise UnknownGraphError(name, _NAMED)  # only names lookup resolves
    return g


def resolve(name):
    """The graphs `catalog emit` writes: a collection's, in order, or the
    one graph lookup gives; an unknown name gets close matches from both."""
    if (key := _key(name)) in _COLLECTIONS:
        return [g for _, g in _COLLECTIONS[key]]
    g = _graph(name)
    if g is None:
        raise UnknownGraphError(name, [*_NAMED, *_COLLECTIONS])
    return [g]
