"""Simple undirected graphs on vertex sets {0..n-1}, adjacency as row bitsets.

Includes the graph6 codec (single-byte sizes, n <= 62), whose one body
encoder `_body` also gives labelling its leaf keys, the edge-list text
format, blow-ups, induced subgraphs (`_induced`, the one relabelling loop),
reachability within a vertex mask (`reach`, behind connectivity and cut
vertices), and twin classes of equal open or equal closed neighbourhoods
(`twin_classes`): the one grouping by neighbourhood, for the twin split,
labelling and induced search.  Graphs are immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, combinations

from .intlinalg import _integers


def bits(mask):
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reach(adj, seen, within):
    """The vertices of the mask `within` reachable from the mask `seen`
    (a subset of `within`) along edges inside `within`, as a mask."""
    frontier = seen
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def _induced(adj, vertices):
    """The adjacency tuple of the subgraph that the distinct vertices induce
    in the graph with adjacency bitmasks adj, vertices[i] becoming i."""
    place = [0] * len(adj)  # vertex -> its bit in the subgraph
    for i, v in enumerate(vertices):
        place[v] = 1 << i
    chosen = sum(1 << v for v in vertices)
    rows = []
    for v in vertices:
        a, row = adj[v] & chosen, 0
        while a:
            low = a & -a
            a ^= low
            row |= place[low.bit_length() - 1]
        rows.append(row)
    return tuple(rows)


class Graph:
    __slots__ = ("n", "adj")

    def __init__(self, n, edges=()):
        (n,) = _integers((n,))
        if n < 0:
            raise ValueError("negative vertex count")
        adj = [0] * n
        for u, v in edges:
            if type(u) is not int or type(v) is not int:  # _integers keeps an int as it is
                u, v = _integers((u, v))
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def from_adj(cls, adj_masks):
        g = object.__new__(cls)
        g.n = len(adj_masks)
        g.adj = tuple(adj_masks)
        return g

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"Graph({self.n}, {sorted(self.edges())!r})"

    def edges(self):
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def degree(self, v):
        return self.adj[v].bit_count()

    def degrees(self):
        return tuple(a.bit_count() for a in self.adj)

    def is_connected(self):
        full = (1 << self.n) - 1
        return self.n <= 1 or reach(self.adj, 1, full) == full

    def regular_degree(self):
        """Common degree if the graph is regular, else None."""
        degs = set(self.degrees())
        if len(degs) == 1:
            return degs.pop()
        return None

    def subgraph(self, vertices):
        """Induced subgraph, relabelled 0..len-1 preserving the given order."""
        vs = _integers(vertices)
        for v in vs:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range")
        if len(set(vs)) != len(vs):
            raise ValueError("repeated vertex in induced set")
        return Graph.from_adj(_induced(self.adj, vs))

    def relabelled(self, order):
        if len(order) != self.n:
            raise ValueError("relabelling must list every vertex")
        return self.subgraph(order)


# the 0/1 entries of each byte, lowest bit first, joined from its two
# halves: adjacency rows join these 8-column chunks, each copied, since
# rows are consumed in place
_NIBBLE_ROWS = [[b >> j & 1 for j in range(4)] for b in range(16)]
_BYTE_ROWS = tuple(low + high for high in _NIBBLE_ROWS for low in _NIBBLE_ROWS)


def adjacency_matrix(g):
    """The 0/1 adjacency matrix as a list of rows, each a fresh list."""
    n = g.n
    if n <= 8:
        return [_BYTE_ROWS[a][:n] for a in g.adj]
    chunks = range(0, n, 8)
    return [[x for s in chunks for x in _BYTE_ROWS[a >> s & 255]][:n] for a in g.adj]


def laplacian_matrix(g):
    rows = []
    for i, row in enumerate(adjacency_matrix(g)):
        row = [-x for x in row]
        row[i] = g.degree(i)
        rows.append(row)
    return rows


# -- graph6 codec ------------------------------------------------------------

class Graph6Error(ValueError):
    """Malformed graph6 input; `offset` is the byte position of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


_G6_HEADER = ">>graph6<<"


def parse_graph6(text):
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII character in graph6 string", exc.start) from None
    data = data.strip()
    if data.startswith(_G6_HEADER.encode()):
        data = data[len(_G6_HEADER):]
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    for i, b in enumerate(data):
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b!r} outside graph6 range 63..126", i)
    if data[0] == 126:
        raise Graph6Error("multi-byte vertex counts (n > 62) not supported", 0)
    n = data[0] - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - 1 != nbytes:
        raise Graph6Error(
            f"expected {nbytes} adjacency bytes for n={n}, got {len(data) - 1}",
            min(len(data), 1 + nbytes),
        )
    body = 0
    for b in data[1:]:
        body = body << 6 | b - 63
    pad = 6 * nbytes - nbits  # all in the last byte
    if body & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bit", nbytes)
    body >>= pad
    adj = [0] * n
    for j in range(n - 1, 0, -1):  # the last column holds the lowest bits
        col = body & ((1 << j) - 1)
        body >>= j
        while col:
            low = col & -col
            col ^= low
            i = j - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph.from_adj(adj)


def _body(adj, order):
    """The graph6 body bits, as one integer, of the graph with adjacency
    bitmasks adj relabelled by order (order[i] becomes vertex i); bodies on
    one vertex count have one length, so they order as the encodings do."""
    n = len(order)
    place = [0] * n
    for i, v in enumerate(order):
        place[v] = 1 << (n - 1 - i)
    key = 0
    for j in range(1, n):
        a = adj[order[j]]
        row = 0
        while a:
            low = a & -a
            a ^= low
            row |= place[low.bit_length() - 1]
        key = key << j | row >> (n - j)
    return key


def _graph6(n, body):
    """graph6 of the graph on n vertices whose body bits are `body`: a byte
    n + 63, then the n(n - 1)/2 bits of the upper triangle, column by
    column, (0,1),(0,2),(1,2),(0,3),... from the highest bit down,
    zero-padded to whole 6-bit chunks, each chunk + 63."""
    chunks = (n * (n - 1) // 2 + 5) // 6
    body <<= 6 * chunks - n * (n - 1) // 2
    return bytes([n + 63] + [(body >> s & 63) + 63
                             for s in range(6 * chunks - 6, -1, -6)]).decode("ascii")


def to_graph6(g):
    if g.n > 62:
        raise ValueError("graph6 output limited to n <= 62")
    return _graph6(g.n, _body(g.adj, range(g.n)))


# -- edge-list text ----------------------------------------------------------

def parse_edge_list(text):
    """One "u v" pair per line; an optional leading "n <count>" line fixes n."""
    n = None
    edges = []
    for raw in text.splitlines():
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n" and len(parts) == 2:
            n = int(parts[1])
            continue
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        n = 1 + max((max(e) for e in edges), default=-1)
    try:
        return Graph(n, edges)
    except OverflowError:  # n too large to index a list
        raise ValueError(f"vertex count {n} is too large") from None


def format_edge_list(g):
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines)


# -- blow-ups and twins ------------------------------------------------------

class BlowupSpec(namedtuple("BlowupSpec", ("underlying", "d"))):
    """Replace each vertex u by a clique of size -d[u] (d[u] < 0) or a stable
    set of size d[u] (d[u] > 0), joining classes completely along edges."""
    __slots__ = ()

    def __new__(cls, underlying, d):
        d = _integers(d)
        if len(d) != underlying.n:
            raise ValueError("one multiplicity per underlying vertex required")
        if any(v == 0 for v in d):
            raise ValueError("zero blow-up multiplicity")
        return super().__new__(cls, underlying, d)

    @classmethod
    def _make(cls, fields):  # _replace builds through it: check there too
        return cls(*fields)


def blowup(spec):
    """Vertex classes are laid out consecutively in underlying-vertex order."""
    starts = list(accumulate(map(abs, spec.d), initial=0))
    classes = [range(a, b) for a, b in zip(starts, starts[1:])]
    edges = [e for d, c in zip(spec.d, classes) if d < 0 for e in combinations(c, 2)]
    edges += [(i, j) for u, v in spec.underlying.edges() for i in classes[u] for j in classes[v]]
    return Graph(starts[-1], edges)


def twin_classes(adj, closed):
    """Maximal classes of vertices with equal open (closed = 0) or equal
    closed (closed = 1) neighbourhoods in the graph with adjacency bitmasks
    adj: false or true twins.  Each class is in increasing order, and the
    classes come in order of their first vertex."""
    groups = {}
    for v, a in enumerate(adj):
        groups.setdefault(a | closed << v, []).append(v)
    return list(groups.values())


def true_twin_quotient(g):
    """Collapse only true-twin classes; returns (quotient, class sizes).

    Every class is a clique and the quotient's blow-up by cliques of the
    returned sizes is isomorphic to g.  Used to recognise clique blow-ups
    of small underlying graphs.
    """
    classes = twin_classes(g.adj, 1)
    return g.subgraph([cls[0] for cls in classes]), tuple(map(len, classes))
