"""Line graphs of pure complexes: construction, edge counts, triangle
classification, second-syzygy predictions, complete-graph characterization,
generated families, and a bounded realizability search.

The line graph of a pure complex with facets of size d has one vertex per
facet (numbered 1..r in canonical facet order) and an edge exactly when two
facets meet in d-1 vertices.

Everything here works on one bitmask form. Facet i is the mask m_i whose bit
p stands for the p-th smallest support vertex (the rule of
``complexes._masks_of``), and ``_ridge_adjacency`` sets bit j of row i exactly
when popcount(m_i & m_j) == d - 1. The line graph is built from those rows,
triangles are read off them, and the triple intersection of a triangle is
popcount(m_i & m_j & m_k). The realizability search builds its candidate
facets as such masks over the vertices 1..n it has used, and checks each by
the same popcount rule against the facets chosen before it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .complexes import SimplicialComplex, _masks_of, facet_size, from_facets, is_pure
from .errors import (
    BadParameters,
    Budget,
    DimensionTooSmall,
    EmptyInput,
    NotPure,
    RidgelineError,
)
from .graphs import Graph, _bits, _check_graph, _check_int


class TriangleType(Enum):
    """How a triangle of facets meets: every 3-clique of the line graph has
    a triple intersection of size d-1 (RidgeShared) or d-2 (SimplexType)."""

    RidgeShared = "ridge_shared"
    SimplexType = "simplex_type"


class NtInterpretation(Enum):
    """Rival readings of which simplex-type triangles the correction term of
    the second-syzygy formula counts."""

    AllSimplexType = "all"
    MaxDisjointSimplexType = "max_disjoint"
    IsolatedSimplexType = "isolated"


@dataclass(frozen=True)
class LabeledLineGraph:
    """A line graph remembering which facet each vertex stands for."""

    graph: Graph
    facet_of: tuple  # facet_of[i-1] is the facet behind vertex i


def _require_pure(cx: SimplicialComplex) -> int:
    if cx.is_empty:
        raise EmptyInput("line graph needs at least one facet")
    if not is_pure(cx):
        raise NotPure("line graphs are defined for pure complexes")
    return len(cx.facets[0])


def _ridge_adjacency(cx: SimplicialComplex) -> tuple:
    """(d, masks, rows) of a pure complex, any facet size d >= 1.

    masks[i] is facet i as a bitmask over the support positions (bit p for
    the p-th smallest support vertex); bit j of rows[i] is set exactly when
    popcount(masks[i] & masks[j]) == d - 1, for i != j. At d = 1 every two
    facets are adjacent. Raises like ``facet_size`` on empty or non-pure
    input.
    """
    d = facet_size(cx)
    masks = _masks_of(cx.facets, cx.support)
    r = len(masks)
    rows = [0] * r
    ridge = d - 1
    for i in range(r):
        mi = masks[i]
        for j in range(i + 1, r):
            if (mi & masks[j]).bit_count() == ridge:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return d, masks, tuple(rows)


def _is_complete(rows: tuple) -> bool:
    """Whether ridge adjacency rows say every two facets meet in a ridge."""
    return all(row.bit_count() == len(rows) - 1 for row in rows)


def line_graph(cx: SimplicialComplex) -> LabeledLineGraph:
    """Line graph of a pure complex of facet size at least 2."""
    d = _require_pure(cx)
    if d < 2:
        raise DimensionTooSmall("line graph needs facets of size at least 2")
    return LabeledLineGraph(Graph.from_adj(_ridge_adjacency(cx)[2]), cx.facets)


def ridge_counts(cx: SimplicialComplex) -> tuple:
    """s_i = number of later facets meeting facet i in all but one vertex.

    Counted pair by pair on the facet masks, apart from the adjacency rows,
    so that ``edge_count_formula`` compares two routes.
    """
    d = _require_pure(cx)
    masks = _masks_of(cx.facets, cx.support)
    return tuple(
        sum(1 for mj in masks[i + 1:] if (mi & mj).bit_count() == d - 1)
        for i, mi in enumerate(masks)
    )


def edge_count_formula(cx: SimplicialComplex) -> int:
    """Edge count of the line graph as the sum of the ridge counts.

    Cross-checked against the constructed graph (and its degree sum) whenever
    the line graph itself is defined.
    """
    total = sum(ridge_counts(cx))
    if facet_size(cx) >= 2:
        g = line_graph(cx).graph
        if g.edge_count() != total:
            raise RidgelineError("ridge-count formula disagrees with the line graph")
        if sum(g.degree(v) for v in range(1, g.order + 1)) != 2 * total:
            raise RidgelineError("degree sum disagrees with twice the ridge counts")
    return total


def classify_triangles(cx: SimplicialComplex) -> tuple:
    """Each 3-clique of the line graph with its triple-intersection type.

    Triangles (i, j, k), i < j < k, come in lexicographic order: j runs over
    the later neighbours of i and k over the common neighbours of i and j
    after j. Facet size 1, where the line graph constructor refuses to run, still
    classifies.
    """
    _require_pure(cx)
    d, masks, rows = _ridge_adjacency(cx)
    out = []
    for i, mi in enumerate(masks, start=1):
        later_i = rows[i - 1] >> i << i
        for j in _bits(later_i):
            mij = mi & masks[j - 1]
            for k in _bits(later_i >> j << j & rows[j - 1]):
                common = (mij & masks[k - 1]).bit_count()
                if common == d - 1:
                    kind = TriangleType.RidgeShared
                elif common == d - 2:
                    kind = TriangleType.SimplexType
                else:  # unreachable: pairwise ridge intersections force d-1 or d-2
                    raise RidgelineError(
                        f"triangle {(i, j, k)} has triple intersection of size {common}"
                    )
                out.append(((i, j, k), kind))
    return tuple(out)


def count_Nt(cx: SimplicialComplex, interp: NtInterpretation,
             budget: int | None = None) -> int:
    """Size of the correction term under one reading of "disjoint triangles".

    AllSimplexType counts every simplex-type triangle. MaxDisjoint takes the
    largest family of pairwise vertex-disjoint simplex-type triangles (exact
    branch and bound). Isolated keeps only simplex-type triangles sharing no
    vertex with any other triangle of the line graph.
    """
    try:
        interp = NtInterpretation(interp)
    except ValueError:
        raise BadParameters(f"unknown Nt interpretation {interp!r}") from None
    return _nt_count(classify_triangles(cx), interp, budget)


def _nt_count(classified: tuple, interp: NtInterpretation, budget: int | None) -> int:
    """``count_Nt`` on a census from ``classify_triangles``; the search of
    MaxDisjoint gets a fresh budget on every call."""
    simplex = [t for t, kind in classified if kind is TriangleType.SimplexType]
    if interp is NtInterpretation.AllSimplexType:
        return len(simplex)
    if interp is NtInterpretation.IsolatedSimplexType:
        # isolated: each of its vertices lies in this triangle only
        triangles_at = Counter(v for t, _ in classified for v in t)
        return sum(1 for t in simplex if all(triangles_at[v] == 1 for v in t))
    masks = [(1 << i) | (1 << j) | (1 << k) for i, j, k in simplex]
    return _max_disjoint(masks, 0, 0, 0, 0, Budget(budget).spend)


def _max_disjoint(masks: list, idx: int, used: int, size: int, best: int, spend) -> int:
    """Largest count of pairwise disjoint masks: ``size`` taken so far from
    ``masks[:idx]`` (their union is ``used``), against the ``best`` found
    before. Branch and bound, take before skip, one step per inner node."""
    if size + (len(masks) - idx) <= best:
        return best
    if idx == len(masks):
        return size
    spend()
    if not masks[idx] & used:
        best = _max_disjoint(masks, idx + 1, used | masks[idx], size + 1, best, spend)
    return _max_disjoint(masks, idx + 1, used, size, best, spend)


def predicted_beta2(cx: SimplicialComplex, interp: NtInterpretation,
                    budget: int | None = None) -> int:
    """Edge count of the line graph minus the chosen correction term."""
    return edge_count_formula(cx) - count_Nt(cx, interp, budget)


CONE = "Cone"
SIMPLEX_SUBSETS = "SimplexSubsets"
NEITHER = "Neither"


def characterize_complete(cx: SimplicialComplex) -> str:
    """Which complete-line-graph family a pure complex belongs to.

    Cone: all facets share a common (d-1)-set and differ in one extra vertex.
    SimplexSubsets: all facets are d-subsets of one (d+1)-set. A single facet
    is reported as Cone. When the line graph is complete on at least four
    vertices, one of the two shapes must apply; a Neither answer there is an
    internal contradiction and raises.
    """
    _require_pure(cx)
    return _complete_shape(*_ridge_adjacency(cx))


def _complete_shape(d: int, masks: tuple, rows: tuple) -> str:
    """``characterize_complete`` on the output of ``_ridge_adjacency``."""
    r = len(masks)
    if r == 1:
        return CONE
    common = union = masks[0]
    for m in masks:
        common &= m
        union |= m
    if common.bit_count() == d - 1:
        return CONE
    if union.bit_count() <= d + 1:
        return SIMPLEX_SUBSETS
    if r >= 4 and d >= 2 and _is_complete(rows):
        raise RidgelineError("complete line graph on four or more facets fits neither shape")
    return NEITHER


def make_cone(r: int, d: int) -> SimplicialComplex:
    """r facets through the common (d-1)-set {1..d-1}; line graph K_r."""
    _check_int(r, "r")
    _check_int(d, "d")
    if r < 1 or d < 2:
        raise BadParameters("cone family needs r >= 1 and d >= 2")
    base = tuple(range(1, d))
    return from_facets([base + (d - 1 + i,) for i in range(1, r + 1)])


def make_simplex_subsets(d: int, count: int) -> SimplicialComplex:
    """First ``count`` d-subsets of {1..d+1} in order; line graph K_count."""
    _check_int(d, "d")
    _check_int(count, "count")
    if d < 2 or not 1 <= count <= d + 1:
        raise BadParameters("simplex-subset family needs d >= 2, 1 <= count <= d+1")
    subsets = list(combinations(range(1, d + 2), d))
    return from_facets(subsets[:count])


def make_triangle_join(d: int, case: str) -> SimplicialComplex:
    """The two three-facet families whose line graph is a triangle.

    Case "a" is the cone (three facets through a common (d-1)-set), case "b"
    the three d-subsets of a (d+1)-set.
    """
    if case == "a":
        return make_cone(3, d)
    if case == "b":
        return make_simplex_subsets(d, 3)
    raise BadParameters("case must be 'a' or 'b'")


def make_cycle_complex(r: int, d: int) -> SimplicialComplex:
    """Cyclic-window family on r >= 4 facets.

    For d < r-1 the facets are the r consecutive d-windows of a cycle on
    vertices 1..r. For d >= r-1 they are the r windows of size r-1 padded by
    one fresh common set of size d-r+1 (the two branches coincide at
    d = r-1). The padded branch makes every pairwise intersection have size
    d-1, so its line graph is complete rather than a cycle; the harness
    reports this instead of papering over it.
    """
    _check_int(r, "r")
    _check_int(d, "d")
    if r < 4 or d < 2:
        raise BadParameters("cycle family needs r >= 4 and d >= 2")
    if d < r - 1:
        window = d
        pad: tuple = ()
    else:
        window = r - 1
        pad = tuple(range(r + 1, r + 1 + (d - r + 1)))
    facets = []
    for i in range(r):
        win = tuple(sorted((i + k) % r + 1 for k in range(window)))
        facets.append(win + pad)
    return from_facets(facets)


def realizability_search(g: Graph, d: int, max_vertices: int,
                         budget: int | None = None):
    """Search for a pure complex with facet size d whose line graph is g.

    One facet per graph vertex, assigned in vertex order: facet 1 is fixed to
    {1..d} and every later facet draws from already-used vertices plus the
    smallest block of fresh ones, which enumerates all complexes up to
    relabeling. Returns g as a ``LabeledLineGraph`` whose ``facet_of[i-1]``
    is the facet found for vertex i, so facets i and j meet in a ridge
    exactly when ij is an edge of g, or None once the bounded space is
    exhausted. d*r vertices are always enough, so
    ``max_vertices >= d * g.order`` makes the search complete. Each
    candidate spends one step; it fits when it repeats no facet and its ridge
    row against the facets before it equals that part of g's adjacency row.
    """
    _check_graph(g)
    _check_int(d, "d")
    _check_int(max_vertices, "max_vertices")
    if d < 2:
        raise DimensionTooSmall("realizability needs facet size at least 2")
    if max_vertices < d:
        raise BadParameters("max_vertices cannot be below the facet size")
    r = g.order
    if r == 0:
        raise EmptyInput("the empty graph is not a line graph here")
    spend = Budget(budget).spend
    chosen = [(1 << d) - 1]

    def extend(high: int) -> bool:
        # vertices 1..high are in use, bits 0..high-1 of the chosen masks
        i = len(chosen)
        if i == r:
            return True
        target = g.adj[i] & ((1 << i) - 1)
        used = [1 << p for p in range(high)]
        for t in range(min(d, max_vertices - high) + 1):
            fresh = ((1 << t) - 1) << high
            for old in combinations(used, d - t):
                spend()
                cand = sum(old) | fresh
                row = 0
                for j, mj in enumerate(chosen):
                    common = (cand & mj).bit_count()
                    if common == d:  # facets must be distinct
                        row = -1
                        break
                    if common == d - 1:
                        row |= 1 << j
                if row == target:
                    chosen.append(cand)
                    if extend(high + t):
                        return True
                    chosen.pop()
        return False

    try:
        realized = extend(d)
    finally:
        del extend  # break the closure's cycle through its own cell
    if not realized:
        return None
    # the facets in search order: from_facets would sort them and so break
    # the vertex-to-facet map
    facets = tuple(_bits(m) for m in chosen)
    ambient = tuple(range(1, max(chosen).bit_length() + 1))
    if Graph.from_adj(_ridge_adjacency(SimplicialComplex(ambient, facets))[2]) != g:
        raise RidgelineError("realizability witness failed its own check")
    return LabeledLineGraph(g, facets)
