"""Exact Betti numbers for squarefree monomial ideals via reduced homology.

The central computation is a subset scan: the graded Betti number of S/I in
homological index i and multidegree W equals the rank of reduced homology in
dimension |W|-i-1 of the restriction to W of the complex whose non-faces are
the sets containing a generator of I. Only a W that is the union of the
generators inside it (an element of the lcm lattice) can contribute; any
other W has a cone point, so one scan serves the whole table and single
degrees and skips such W before any rank is taken. Ranks come from
boundary-matrix ranks, over GF(2) through the bit-row elimination in
``kernels`` and over the rationals through exact fraction-free integer
elimination.

The subset walks themselves (face indicators, grouping faces by
cardinality, the vertex cap) come from ``complexes``; the two fields differ
only in the elimination step.

A window's homology depends only on the restriction of the ideal to it, and
restrictions repeat across the windows of one ideal and across the ideals of
a corpus. The scan therefore keeps one bounded memo per field, keyed by the
generators inside the window relabelled onto the window's positions in
order; there is no cache of whole tables.

On top of the table sit regularity, linear resolutions, linear quotients,
the dual criterion for Cohen-Macaulayness and the chordal-complement test for
edge ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import gcd

from . import kernels
from .complexes import (
    SimplicialComplex,
    _check_ambient_cap,
    _compressed,
    _faces_by_cardinality,
    _masks_of,
    alexander_dual,
    as_face,
    dimension,
    facet_indicator,
    minimal_nonfaces,
    nonface_indicator,
    single_swap_order,
)
from .errors import (
    BadParameters,
    DegenerateDual,
    EmptyInput,
    RidgelineError,
)
from .graphs import Graph, _check_graph, _check_int, complement, is_chordal_graph


class FieldChoice(Enum):
    """Coefficient field for homology ranks: GF(2) or the rationals."""

    GF2 = "gf2"
    Rational = "rational"


def _field(field) -> FieldChoice:
    if isinstance(field, FieldChoice):
        return field
    if isinstance(field, str):
        low = field.lower()
        if low in ("gf2", "f2", "2"):
            return FieldChoice.GF2
        if low in ("rational", "rat", "q", "qq", "0"):
            return FieldChoice.Rational
    raise BadParameters(f"unknown field {field!r}")


@dataclass(frozen=True)
class MonomialIdeal:
    """Squarefree monomial ideal given by the supports of its minimal
    generators (an antichain) inside an ambient variable set."""

    ambient: tuple
    generators: tuple


def monomial_ideal(generators, ambient=None) -> MonomialIdeal:
    gens = sorted(as_face(g) for g in generators)
    support = set()
    for g in gens:
        if not g:
            raise EmptyInput("an empty support means the unit ideal; not representable here")
        support.update(g)
    for x in range(len(gens)):
        for y in range(len(gens)):
            if x != y and set(gens[x]) <= set(gens[y]):
                raise BadParameters(f"generators {gens[x]} and {gens[y]} are not an antichain")
    if ambient is None:
        amb = tuple(sorted(support))
    else:
        amb = as_face(ambient)
        if not support <= set(amb):
            raise BadParameters("generators use variables outside the ambient set")
    return MonomialIdeal(amb, tuple(gens))


def facet_ideal(cx: SimplicialComplex) -> MonomialIdeal:
    """Ideal generated by the facet supports."""
    if any(len(f) == 0 for f in cx.facets):
        raise EmptyInput("the empty facet generates the unit ideal")
    return MonomialIdeal(cx.ambient, tuple(sorted(cx.facets)))


def stanley_reisner_ideal(cx: SimplicialComplex) -> MonomialIdeal:
    """Ideal generated by the minimal non-faces."""
    gens = minimal_nonfaces(cx)
    if any(len(g) == 0 for g in gens):
        raise EmptyInput("a complex with no faces has the unit Stanley-Reisner ideal")
    return MonomialIdeal(cx.ambient, tuple(sorted(gens)))


def edge_ideal(g: Graph) -> MonomialIdeal:
    """Degree-two ideal of the edges of a graph."""
    _check_graph(g)
    return MonomialIdeal(tuple(range(1, g.order + 1)), tuple(sorted(g.edges())))


def _int_rank(rows, ncols: int) -> int:
    """Rank of an integer matrix, by fraction-free elimination with row-gcd
    normalization to keep entries small."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        piv = None
        for i in range(rank, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        pv = pr[col]
        for i in range(rank + 1, nrows):
            ri = rows[i]
            v = ri[col]
            if v:
                for c in range(col, ncols):
                    ri[c] = ri[c] * pv - pr[c] * v
                g = 0
                for x in ri:
                    g = gcd(g, x)
                if g > 1:
                    for c in range(ncols):
                        ri[c] //= g
        rank += 1
        col += 1
    return rank


def _rational_ranks(face: bytearray, n: int):
    """Same contract as the GF(2) kernels, but over the rationals: f-vector
    and boundary ranks (vertices map to the empty face with sign +1)."""
    by_card, colidx, fvec = _faces_by_cardinality(face, n)
    ranks = [0] * (n + 2)
    for p in range(1, n + 1):
        if not by_card[p]:
            continue
        ncols = len(by_card[p - 1])
        rows = []
        for m in by_card[p]:
            row = [0] * ncols
            sign = 1
            mm = m
            while mm:
                low = mm & -mm
                mm ^= low
                row[colidx[m ^ low]] = sign
                sign = -sign
            rows.append(row)
        ranks[p] = _int_rank(rows, ncols)
    return fvec, ranks


def _homology_from_ranks(fvec, ranks, top: int):
    """Reduced homology ranks in dimensions -1..top from kernel output."""
    out = []
    for p in range(-1, top + 1):
        h = fvec[p + 1] - ranks[p + 1] - ranks[p + 2]
        if h < 0:
            raise RidgelineError("negative homology rank: kernel inconsistency")
        out.append(h)
    euler_faces = sum((-1) ** p * fvec[p + 1] for p in range(-1, top + 1))
    euler_hom = sum((-1) ** p * out[p + 1] for p in range(-1, top + 1))
    if euler_faces != euler_hom:
        raise RidgelineError("Euler characteristic mismatch: kernel inconsistency")
    return out


def reduced_homology_ranks(cx: SimplicialComplex, field=FieldChoice.GF2) -> list:
    """Ranks of reduced homology in dimensions -1 .. dim, as a list.

    Entry 0 is dimension -1 (nonzero only for the complex whose single face
    is empty), entry k is dimension k-1. Faces are enumerated over the
    support, which is capped.
    """
    field = _field(field)
    verts = cx.support
    n = len(verts)
    _check_ambient_cap(n, "reduced_homology_ranks")
    masks = _masks_of(cx.facets, verts)
    if field is FieldChoice.GF2:
        fvec, ranks = kernels.ranks_of_facet_complex(masks, n)
    else:
        fvec, ranks = _rational_ranks(facet_indicator(masks, n), n)
    return _homology_from_ranks(fvec, ranks, dimension(cx))


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of S/I: entries map (i, j) with homological
    index i >= 1 to a positive rank; beta_{0,0} = 1 is implicit."""

    entries: tuple  # sorted tuple of ((i, j), rank)
    field: FieldChoice

    def as_dict(self) -> dict:
        return dict(self.entries)


_WINDOW_MEMO_CAP = 1 << 15  # windows per field; bounds the memo's memory
_window_memos = {choice: {} for choice in FieldChoice}


def _hochster_scan(ideal: MonomialIdeal, field: FieldChoice, size=None):
    """Reduced homology of the restriction to each window W of the generator
    support, as ``(|W|, hom)`` with ``hom[p]`` the rank in dimension p - 1.

    Only windows of ``size`` vertices are scanned when it is given. A window
    that is not the union of the generators inside it is skipped: a vertex of
    W in none of them is a cone point, so the restriction is acyclic
    (Gasharov-Peeva-Welker, the lcm lattice).

    ``hom`` depends only on the restriction of the ideal to W: the window
    and the generators inside it. It is memoized per field, keyed by those
    generators moved onto W's bit positions in order (``_compressed``), as a
    sorted tuple of one small int per generator. The move is an
    order-preserving relabelling of W onto 0..|W|-1, which preserves
    homology over any field, and the moved masks are exactly what the
    non-face indicator of W is built from, so equal keys mean equal ``hom``.
    |W| is implied: the cover test makes the moved masks cover all |W|
    positions. A ``hom`` enters the memo only after its ranks are checked,
    and the memo is emptied when it reaches ``_WINDOW_MEMO_CAP`` entries.
    """
    _check_ambient_cap(len(ideal.ambient), "Hochster scan")
    supp = sorted(set().union(*map(set, ideal.generators))) if ideal.generators else []
    s = len(supp)
    gen_masks = _masks_of(ideal.generators, supp)
    if size is None:
        windows = range(1, 1 << s)
    else:
        windows = map(sum, combinations([1 << b for b in range(s)], size))
    memo = _window_memos[field]
    for w_mask in windows:
        cover = 0
        inside = []
        for gm in gen_masks:
            if not gm & ~w_mask:
                cover |= gm
                inside.append(gm)
        if cover != w_mask:
            continue
        j = w_mask.bit_count()
        key = tuple(sorted(_compressed(inside, w_mask)))
        hom = memo.get(key)
        if hom is None:
            if field is FieldChoice.GF2:
                fvec, ranks = kernels.ranks_of_nonface_complex(gen_masks, w_mask)
            else:
                fvec, ranks = _rational_ranks(*nonface_indicator(gen_masks, w_mask))
            hom = tuple(fvec[p] - ranks[p] - ranks[p + 1] for p in range(j + 1))
            if min(hom) < 0:
                raise RidgelineError("negative homology rank: kernel inconsistency")
            if len(memo) >= _WINDOW_MEMO_CAP:
                memo.clear()
            memo[key] = hom
        yield j, hom


def betti_table(ideal: MonomialIdeal, field=FieldChoice.GF2) -> BettiTable:
    """Full graded Betti table of S/I by scanning vertex subsets.

    Only windows that are the union of the generators they contain (the
    lcm lattice) can carry homology, so only those are sent to a rank
    routine; the implicit beta_{0,0} = 1 is not stored. The first syzygies
    are checked against the generator count on every table.
    """
    field = _field(field)
    entries: dict = {}
    for j, hom in _hochster_scan(ideal, field):
        for i in range(1, j + 1):
            if hom[j - i]:
                entries[(i, j)] = entries.get((i, j), 0) + hom[j - i]
    gen_total = sum(rank for (i, _), rank in entries.items() if i == 1)
    if gen_total != len(ideal.generators):
        raise RidgelineError("first syzygies disagree with the generator count")
    return BettiTable(tuple(sorted(entries.items())), field)


def beta(ideal: MonomialIdeal, i: int, j: int, field=FieldChoice.GF2) -> int:
    """One graded Betti number of S/I (so (0,0) gives 1)."""
    _check_int(i, "i")
    _check_int(j, "j")
    if i == 0:
        return 1 if j == 0 else 0
    return betti_table(ideal, field).as_dict().get((i, j), 0)


def beta_in_degree(ideal: MonomialIdeal, i: int, j: int, field=FieldChoice.GF2) -> int:
    """One graded Betti number by scanning only the degree-j vertex subsets.

    Same value as beta(ideal, i, j, field) but without filling the whole
    table; the large field-agreement sweeps call this.
    """
    _check_int(i, "i")
    _check_int(j, "j")
    field = _field(field)
    if i == 0:
        return 1 if j == 0 else 0
    if i < 0 or j < i:
        return 0
    return sum(hom[j - i] for _, hom in _hochster_scan(ideal, field, j))


def regularity(ideal: MonomialIdeal, field=FieldChoice.GF2) -> int:
    """max(j - i) over the nonzero entries of the table of S/I."""
    table = betti_table(ideal, field)
    return max((j - i for (i, j), _ in table.entries), default=0)


def has_linear_resolution(ideal: MonomialIdeal, field=FieldChoice.GF2) -> bool:
    """All generators in one degree d and every table entry on j - i = d - 1."""
    if not ideal.generators:
        return True
    degrees = {len(g) for g in ideal.generators}
    if len(degrees) != 1:
        return False
    d = degrees.pop()
    table = betti_table(ideal, field)
    return all(j - i == d - 1 for (i, j), _ in table.entries)


def has_linear_quotients(ideal: MonomialIdeal, budget: int | None = None):
    """Ordering of the generators with variable-generated colon ideals.

    For squarefree generators, the colon condition asks for each j < i some
    k < i whose support exceeds generator i by the single variable l, with l
    also dividing generator j away from i. That is the single-swap order
    condition on the complemented supports, so the shared search runs there.
    Returns the ordered generators, or None.
    """
    gens = ideal.generators
    if not gens:
        return ()
    universe = set(ideal.ambient)
    comps = [universe - set(g) for g in gens]
    order = single_swap_order(comps, budget)
    if order is None:
        return None
    return tuple(gens[i] for i in order)


def is_cohen_macaulay(cx: SimplicialComplex, field=FieldChoice.GF2) -> bool:
    """Dual criterion: the Stanley-Reisner ideal of the dual complex has a
    linear resolution exactly when the complex is Cohen-Macaulay."""
    dual = alexander_dual(cx)
    if dual.is_empty:
        raise DegenerateDual("the full simplex has a void dual; nothing to test")
    return has_linear_resolution(stanley_reisner_ideal(dual), field)


def froberg_check(g: Graph, field=FieldChoice.GF2) -> dict:
    """Both sides of the chordal-complement criterion for edge ideals."""
    lin = has_linear_resolution(edge_ideal(g), field)
    chordal = is_chordal_graph(complement(g)) is not None
    return {
        "linear_resolution": lin,
        "complement_chordal": chordal,
        "agree": lin == chordal,
    }
