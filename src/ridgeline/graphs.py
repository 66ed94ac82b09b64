"""Finite simple graphs on vertices 1..n with bitmask adjacency rows.

Row i of ``adj`` is an integer whose bit (v-1) is set when vertex i+1 is
adjacent to vertex v. All algorithms here are exact and deterministic; the
expensive ones (isomorphism, clique edge partitions, induced stars) take an
optional budget measured in search states.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from math import inf
from typing import Iterable, Optional

from .errors import BadParameters, Budget, UnknownVertex


class Graph:
    """Simple graph on {1, .., order}; edges are unordered pairs."""

    __slots__ = ("order", "adj")

    def __init__(self, order: int, edges: Iterable[tuple] = ()):
        if order < 0:
            raise BadParameters("graph order must be nonnegative")
        self.order = order
        adj = [0] * order
        for a, b in edges:
            if not 1 <= a <= order or not 1 <= b <= order:
                raise UnknownVertex(f"edge ({a},{b}) leaves the vertex range 1..{order}")
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
        self._check(v)
        return self.adj[v - 1].bit_count()

    def neighbors(self, v: int) -> tuple:
        self._check(v)
        return _bits(self.adj[v - 1])

    def has_edge(self, a: int, b: int) -> bool:
        self._check(a)
        self._check(b)
        return bool(self.adj[a - 1] >> (b - 1) & 1)

    def _check(self, v: int) -> None:
        if not 1 <= v <= self.order:
            raise UnknownVertex(f"vertex {v} leaves the range 1..{self.order}")

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


def is_connected(g: Graph) -> bool:
    """Connectivity; the empty graph and one-vertex graph count as connected."""
    if g.order <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= g.adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.order) - 1


def distance(g: Graph, a: int, b: int):
    """Number of edges on a shortest path; math.inf when none exists."""
    g._check(a)
    g._check(b)
    if a == b:
        return 0
    seen = 1 << (a - 1)
    frontier = seen
    steps = 0
    target = 1 << (b - 1)
    while frontier:
        steps += 1
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= g.adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        if frontier & target:
            return steps
        seen |= frontier
    return inf


def diameter(g: Graph):
    """Largest pairwise distance; inf when disconnected, 0 when order <= 1."""
    if g.order <= 1:
        return 0
    if not is_connected(g):
        return inf
    best = 0
    for a in range(1, g.order + 1):
        seen = 1 << (a - 1)
        frontier = seen
        steps = 0
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= g.adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
            if frontier:
                steps += 1
                seen |= frontier
        best = max(best, steps)
    return best


def complement(g: Graph) -> Graph:
    full = (1 << g.order) - 1
    adj = tuple((full ^ g.adj[i]) & ~(1 << i) for i in range(g.order))
    return Graph.from_adj(adj)


def is_chordal_graph(g: Graph) -> Optional[tuple]:
    """Perfect elimination ordering when the graph is chordal, else None.

    Repeatedly removes any vertex whose remaining neighborhood is a clique;
    a graph is chordal exactly when this greedy process empties it.
    """
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


def triangle_count(g: Graph) -> int:
    return len(triangles(g))


def has_induced_star(g: Graph, leaves: int, budget: int | None = None) -> bool:
    """Whether some vertex has an independent set of the given size in its
    neighborhood (an induced complete bipartite star with that many leaves)."""
    if leaves < 0:
        raise BadParameters("leaf count must be nonnegative")
    if leaves == 0:
        return g.order > 0
    b = Budget(budget)

    def has_independent(mask: int, want: int) -> bool:
        if want == 0:
            return True
        if mask.bit_count() < want:
            return False
        b.spend()
        low = mask & -mask
        v = low.bit_length()
        # branch: either skip v, or take v and drop its neighbors
        if has_independent(mask ^ low, want):
            return True
        return has_independent(mask & ~g.adj[v - 1] & ~low, want - 1)

    try:
        return any(has_independent(g.adj[v - 1], leaves) for v in range(1, g.order + 1))
    finally:
        del has_independent  # break the closure's cycle through its own cell


def clique_edge_partition(g: Graph, max_per_vertex: int,
                          budget: int | None = None) -> Optional[tuple]:
    """Partition the edges into cliques so that each vertex lies in at most
    ``max_per_vertex`` of them; None when impossible.

    Exact backtracking: pick the smallest uncovered edge, try every clique
    through it whose edges are all uncovered, recurse. Vertices that hit the
    per-vertex cap while uncovered edges remain at them prune the branch.
    """
    if max_per_vertex < 0:
        raise BadParameters("per-vertex clique cap must be nonnegative")
    edges = list(g.edges())
    if not edges:
        return ()
    index = {e: k for k, e in enumerate(edges)}
    m = len(edges)
    b = Budget(budget)
    counts = [0] * (g.order + 1)
    chosen: list = []

    def cliques_through(a: int, bept: int, covered: int):
        """Maximal-first enumeration of cliques on edge (a, b) whose edges are
        all uncovered; yields vertex masks."""
        base = (1 << (a - 1)) | (1 << (bept - 1))
        cand_mask = g.adj[a - 1] & g.adj[bept - 1]
        cands = []
        rest = cand_mask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length()
            e1 = (min(a, v), max(a, v))
            e2 = (min(bept, v), max(bept, v))
            if covered >> index[e1] & 1 or covered >> index[e2] & 1:
                continue
            if counts[v] >= max_per_vertex:
                continue
            cands.append(v)
        out = []

        def grow(mask: int, pool: list):
            out.append(mask)
            for pos, v in enumerate(pool):
                ok = True
                mv = mask
                while mv:
                    low = mv & -mv
                    mv ^= low
                    u = low.bit_length()
                    if u == v:
                        continue
                    if not g.adj[u - 1] >> (v - 1) & 1:
                        ok = False
                        break
                    e = (min(u, v), max(u, v))
                    if covered >> index[e] & 1:
                        ok = False
                        break
                if ok:
                    grow(mask | 1 << (v - 1), pool[pos + 1:])

        try:
            grow(base, cands)
        finally:
            del grow  # break the closure's cycle through its own cell
        # larger cliques first: fewer pieces tends to satisfy the cap sooner
        out.sort(key=lambda msk: -msk.bit_count())
        seen = set()
        uniq = [msk for msk in out if not (msk in seen or seen.add(msk))]
        return uniq

    def clique_edges(mask: int) -> tuple:
        vs = _bits(mask)
        return tuple((u, v) for u, v in combinations(vs, 2))

    def solve(covered: int) -> bool:
        if covered == (1 << m) - 1:
            return True
        b.spend()
        first = None
        for k in range(m):
            if not covered >> k & 1:
                first = edges[k]
                break
        a, bv = first
        if counts[a] >= max_per_vertex or counts[bv] >= max_per_vertex:
            return False
        for mask in cliques_through(a, bv, covered):
            es = clique_edges(mask)
            new_cov = covered
            for e in es:
                new_cov |= 1 << index[e]
            vs = _bits(mask)
            for v in vs:
                counts[v] += 1
            stuck = False
            for v in vs:
                if counts[v] == max_per_vertex:
                    row = g.adj[v - 1]
                    while row:
                        low = row & -row
                        row ^= low
                        u = low.bit_length()
                        e = (min(u, v), max(u, v))
                        if not new_cov >> index[e] & 1:
                            stuck = True
                            break
                    if stuck:
                        break
            if not stuck and solve(new_cov):
                chosen.append(vs)
                for v in vs:
                    counts[v] -= 1
                return True
            for v in vs:
                counts[v] -= 1
        return False

    try:
        found = solve(0)
    finally:
        del solve  # break the closure's cycle through its own cell
    if found:
        chosen.reverse()
        return tuple(chosen)
    return None


def line_graph_of_graph(g: Graph) -> Graph:
    """Graph on the edges of g, in sorted edge order, joined when they share
    an endpoint."""
    es = g.edges()
    k = len(es)
    out = []
    for i in range(k):
        for j in range(i + 1, k):
            if set(es[i]) & set(es[j]):
                out.append((i + 1, j + 1))
    return Graph(k, out)


ISO_ORDER_CAP = 12


def are_isomorphic(g: Graph, h: Graph, budget: int | None = None) -> bool:
    """Graph isomorphism by backtracking with degree-profile pruning.

    Refuses graphs beyond 12 vertices (this package only compares small
    search artifacts).
    """
    if g.order != h.order:
        return False
    if max(g.order, h.order) > ISO_ORDER_CAP:
        from .errors import BudgetExceeded

        raise BudgetExceeded(f"isomorphism test capped at order {ISO_ORDER_CAP}")
    if g.edge_count() != h.edge_count():
        return False
    n = g.order

    def profile(gr: Graph, v: int) -> tuple:
        degs = sorted(gr.adj[u - 1].bit_count() for u in _bits(gr.adj[v - 1]))
        return (gr.adj[v - 1].bit_count(), tuple(degs))

    pg = [profile(g, v) for v in range(1, n + 1)]
    ph = [profile(h, v) for v in range(1, n + 1)]
    if sorted(pg) != sorted(ph):
        return False
    b = Budget(budget)
    image = [0] * (n + 1)
    used = 0

    def place(v: int, used_mask: int) -> bool:
        if v > n:
            return True
        for w in range(1, n + 1):
            if used_mask >> (w - 1) & 1 or pg[v - 1] != ph[w - 1]:
                continue
            ok = True
            for u in range(1, v):
                if g.adj[v - 1] >> (u - 1) & 1 != h.adj[w - 1] >> (image[u] - 1) & 1:
                    ok = False
                    break
            if not ok:
                continue
            b.spend()
            image[v] = w
            if place(v + 1, used_mask | 1 << (w - 1)):
                return True
            image[v] = 0
        return False

    try:
        return place(1, used)
    finally:
        del place  # break the closure's cycle through its own cell


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise BadParameters("cycle graphs start at 3 vertices")
    return Graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(1, n + 1), 2)))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise BadParameters("path graphs need at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(1, n)])
