"""Finite simple graphs on vertices 1..n with bitmask adjacency rows.

Row i of ``adj`` is an integer whose bit (v-1) is set when vertex i+1 is
adjacent to vertex v. All algorithms here are exact and deterministic; the
expensive ones (clique edge partitions, induced stars) take an optional
budget measured in search states. The clique-partition search keeps its
uncovered edges in the same form: residual rows, a copy of ``adj`` from which
each chosen clique's mask is cleared at its own vertices.
"""

from __future__ import annotations

from math import inf
from typing import Iterable, Optional

from .complexes import _check_cells
from .errors import BadParameters, Budget, UnknownVertex


class Graph:
    """Simple graph on {1, .., order}, order**2 <= 2**MAX_BITS; edges are unordered pairs."""

    __slots__ = ("order", "adj")

    def __init__(self, order: int, edges: Iterable[tuple] = ()):
        _check_count(order, "graph order")
        _check_cells(order * order, "the adjacency table of a graph of this order")
        self.order = order
        adj = [0] * order
        for edge in edges:
            try:
                a, b = edge
            except (TypeError, ValueError):
                raise BadParameters("an edge is a pair of vertices") from None
            _check_int(a, "vertex")
            _check_int(b, "vertex")
            if not 1 <= a <= order or not 1 <= b <= order:
                raise UnknownVertex(f"an edge leaves the vertex range 1..{order}")
            if a == b:
                raise BadParameters(f"loop at vertex {a}")
            adj[a - 1] |= 1 << (b - 1)
            adj[b - 1] |= 1 << (a - 1)
        self.adj = tuple(adj)

    @classmethod
    def from_adj(cls, adj: tuple) -> "Graph":
        g = cls.__new__(cls)
        g.order = len(adj)
        g.adj = tuple(adj)
        return g

    def edges(self) -> tuple:
        out = []
        for i in range(self.order):
            row = self.adj[i] >> i + 1 << i + 1  # neighbors above i+1
            while row:
                low = row & -row
                out.append((i + 1, low.bit_length()))
                row ^= low
        return tuple(out)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def degree(self, v: int) -> int:
        _check_int(v, "vertex")
        if not 1 <= v <= self.order:
            raise UnknownVertex(f"a vertex leaves the range 1..{self.order}")
        return self.adj[v - 1].bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={list(self.edges())})"


def _bits(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _eccentricity(adj: tuple, start: int):
    """Breadth-first layers from vertex ``start`` (0-based) to the farthest
    vertex it reaches; inf when some vertex is never reached."""
    seen = frontier = 1 << start
    layers = 0
    while True:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        if not frontier:
            return layers if seen == (1 << len(adj)) - 1 else inf
        layers += 1
        seen |= frontier


def is_connected(g: Graph) -> bool:
    """Connectivity; the empty graph and one-vertex graph count as connected."""
    _check_graph(g)
    return g.order <= 1 or _eccentricity(g.adj, 0) != inf


def diameter(g: Graph):
    """Largest pairwise distance; inf when disconnected, 0 when order <= 1."""
    _check_graph(g)
    best = 0
    for start in range(g.order):
        ecc = _eccentricity(g.adj, start)
        if ecc == inf:
            return inf
        best = max(best, ecc)
    return best


def complement(g: Graph) -> Graph:
    _check_graph(g)
    full = (1 << g.order) - 1
    adj = tuple((full ^ g.adj[i]) & ~(1 << i) for i in range(g.order))
    return Graph.from_adj(adj)


def is_chordal_graph(g: Graph) -> Optional[tuple]:
    """Perfect elimination ordering when the graph is chordal, else None.

    Repeatedly removes any vertex whose remaining neighborhood is a clique;
    a graph is chordal exactly when this greedy process empties it.
    """
    _check_graph(g)
    alive = (1 << g.order) - 1
    order = []
    for _ in range(g.order):
        found = False
        rest = alive
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length()
            nb = g.adj[v - 1] & alive
            if _is_clique(g, nb):
                order.append(v)
                alive ^= low
                found = True
                break
        if not found:
            return None
    return tuple(order)


def _is_clique(g: Graph, mask: int) -> bool:
    m = mask
    while m:
        low = m & -m
        m ^= low
        if mask & ~(g.adj[low.bit_length() - 1] | low) :
            return False
    return True


def triangles(g: Graph) -> tuple:
    """All 3-cliques as sorted vertex triples."""
    _check_graph(g)
    out = []
    for a in range(1, g.order + 1):
        above_a = g.adj[a - 1] >> a << a
        rest = above_a
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length()
            common = above_a & g.adj[b - 1] >> b << b
            while common:
                cl = common & -common
                common ^= cl
                out.append((a, b, cl.bit_length()))
    return tuple(out)


def _check_int(value, what: str) -> None:
    """Refuse anything but a plain int (a bool is not a count)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadParameters(f"{what} must be an integer")


def _check_graph(g) -> None:
    """Refuse anything but a Graph, once at the entry of a graph routine."""
    if not isinstance(g, Graph):
        raise BadParameters(f"expected a Graph, got {type(g).__name__}")


def _check_count(value, what: str) -> None:
    _check_int(value, what)
    if value < 0:
        raise BadParameters(f"{what} must be nonnegative")


def has_induced_star(g: Graph, leaves: int, budget: int | None = None) -> bool:
    """Whether some vertex has an independent set of the given size in its
    neighborhood (an induced complete bipartite star with that many leaves).

    Branch and reduce on a candidate mask: skip its lowest vertex, or take it
    and drop its neighbours. Each node is first bounded by a greedy clique
    cover of the mask (the lowest vertex left, grown by the lowest common
    neighbour left, removed, repeated): an independent set meets a clique at
    most once, so a mask covered by fewer cliques than the leaves still wanted
    holds none, and the node is pruned without spending a step. In a line
    graph of a pure d-complex each neighbourhood is covered by its d ridge
    cliques, so the bound usually settles a vertex at its root. The search
    reads only the graph.
    """
    _check_graph(g)
    _check_count(leaves, "leaf count")
    adj = g.adj
    b = Budget(budget)

    def has_independent(mask: int, want: int) -> bool:
        if want == 0:
            return True
        rest = mask
        for _ in range(want):
            if not rest:
                return False
            low = rest & -rest
            rest ^= low
            common = rest & adj[low.bit_length() - 1]
            while common:
                low = common & -common
                rest ^= low
                common &= adj[low.bit_length() - 1]
        b.spend()
        low = mask & -mask
        v = low.bit_length()
        # branch: either skip v, or take v and drop its neighbors
        if has_independent(mask ^ low, want):
            return True
        return has_independent(mask & ~adj[v - 1] & ~low, want - 1)

    try:
        return any(has_independent(adj[v - 1], leaves) for v in range(1, g.order + 1))
    finally:
        del has_independent  # break the closure's cycle through its own cell


def clique_edge_partition(g: Graph, max_per_vertex: int,
                          budget: int | None = None) -> Optional[tuple]:
    """Partition the edges into cliques so that each vertex lies in at most
    ``max_per_vertex`` of them; None when impossible.

    Exact backtracking over residual adjacency rows: bit (v-1) of ``rest[u-1]``
    is set while the edge {u, v} is uncovered. The smallest uncovered edge
    (a, b) has a the lowest vertex with a nonzero row and b the lowest bit of
    that row. The cliques through it draw from the common residual neighbours
    of a and b still under the cap, in ascending order; v extends a clique
    mask when ``mask & ~rest[v-1] == 0``. They are tried largest first, equal
    sizes in depth-first order. Covering a clique clears its mask from the
    rows of its vertices. Each of those vertices v is then bounded before a
    step is spent: a later clique through v holds at most one vertex of an
    independent set of the residual graph, so a greedy such set drawn from
    ``rest[v-1]`` (the lowest vertex u left, then drop u and ``rest[u-1]``,
    repeated) that is larger than the cliques v has left prunes the branch.
    The bound cuts only branches that cannot succeed, so the partition found
    is the one the unbounded order finds first.
    """
    _check_graph(g)
    _check_count(max_per_vertex, "per-vertex clique cap")
    cap = max_per_vertex
    rest = list(g.adj)
    b = Budget(budget)
    counts = [0] * (g.order + 1)
    chosen: list = []

    def grow(mask: int, pool: list, out: list) -> None:
        out.append(mask)
        for pos, v in enumerate(pool):
            if not mask & ~rest[v - 1]:
                grow(mask | 1 << (v - 1), pool[pos + 1:], out)

    def solve(lo: int) -> bool:
        # rows below lo are empty, and covering only clears bits
        for a in range(lo, g.order + 1):
            row = rest[a - 1]
            if row:
                break
        else:
            return True
        b.spend()
        bv = (row & -row).bit_length()
        # the bound keeps every vertex with residual edges under the cap, so
        # the filter below matters only at cap 0
        cands = [v for v in _bits(row & rest[bv - 1]) if counts[v] < cap]
        cliques: list = []
        grow((1 << (a - 1)) | (1 << (bv - 1)), cands, cliques)
        # larger cliques first: fewer pieces tends to satisfy the cap sooner
        cliques.sort(key=int.bit_count, reverse=True)
        for mask in cliques:
            vs = _bits(mask)
            for v in vs:
                counts[v] += 1
                rest[v - 1] &= ~mask
            for v in vs:
                room = cap - counts[v]
                nb = rest[v - 1]
                while nb and room >= 0:
                    room -= 1
                    low = nb & -nb
                    nb &= ~(low | rest[low.bit_length() - 1])
                if room < 0:
                    break
            else:
                if solve(a):
                    chosen.append(vs)
                    return True
            for v in vs:
                counts[v] -= 1
                rest[v - 1] |= mask ^ 1 << (v - 1)
        return False

    try:
        found = solve(1)
    finally:
        del grow, solve  # break the closures' cycles through their own cells
    if found:
        chosen.reverse()
        return tuple(chosen)
    return None


def line_graph_of_graph(g: Graph) -> Graph:
    """Graph on the edges of g, in sorted edge order, joined when they share
    an endpoint."""
    _check_graph(g)
    es = g.edges()
    k = len(es)
    out = []
    for i in range(k):
        for j in range(i + 1, k):
            if set(es[i]) & set(es[j]):
                out.append((i + 1, j + 1))
    return Graph(k, out)


def cycle_graph(n: int) -> Graph:
    _check_int(n, "vertex count")
    if n < 3:
        raise BadParameters("cycle graphs start at 3 vertices")
    return Graph(n, ((i, i % n + 1) for i in range(1, n + 1)))


def complete_graph(n: int) -> Graph:
    _check_int(n, "vertex count")
    return Graph(n, ((a, b) for b in range(2, n + 1) for a in range(1, b)))


def path_graph(n: int) -> Graph:
    _check_int(n, "vertex count")
    if n < 1:
        raise BadParameters("path graphs need at least one vertex")
    return Graph(n, ((i, i + 1) for i in range(1, n)))
