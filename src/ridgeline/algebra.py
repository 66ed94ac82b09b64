"""Exact Betti numbers for squarefree monomial ideals via reduced homology.

The central computation is a subset scan: the graded Betti number of S/I in
homological index i and multidegree W equals the rank of reduced homology in
dimension |W|-i-1 of the restriction to W of the complex whose non-faces are
the sets containing a generator of I. Only a W that is a union of
generators (an element of the lcm lattice) can contribute, as any other W
has a cone point; so one scan, which walks that lattice alone, serves the
whole table and single degrees. Ranks come from boundary-matrix ranks, over
GF(2) in ``kernels`` and over the rationals here, by one elimination: each
boundary row, indexed by the bitmasks of the faces it meets, is reduced
against a basis keyed by leading column, the highest such mask, and the
rank is the size of the basis. The fields differ only in the row
arithmetic, XOR on bit rows for GF(2) and exact integer combination of
sparse rows for the rationals.

The subset walks themselves (face indicators, grouping faces by
cardinality) and the size bound come from ``complexes``.

A window's homology depends only on the restriction of the ideal to it, and
restrictions repeat across the windows of one ideal and across the ideals of
a corpus. The scan therefore keeps one bounded memo per field, keyed by the
generators inside the window relabelled onto the window's positions in
order; there is no cache of whole tables. A window that misses the memo is
first strongly collapsed: a vertex whose link is a cone is dropped, which
keeps the homotopy type and so the homology over any field (Barmak-Minian,
strong homotopy types). A window that collapses to a point needs no rank;
any other is answered by ranking its core, and only the window's answer is
stored.

Beside the table sit linear resolutions, linear quotients, the dual
criterion for Cohen-Macaulayness and the chordal-complement test for edge
ideals. A linear resolution is decided by the same scan without a table:
it stops at the first window with homology off the linear strand.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

from . import complexes, kernels
from .complexes import (
    SimplicialComplex,
    _check_built,
    _check_complex,
    _compressed,
    _face_list,
    _faces_by_cardinality,
    _masks_of,
    _maximal,
    as_face,
    complement_complex,
    dimension,
    facet_indicator,
    minimal_nonfaces,
    nonface_indicator,
    single_swap_order,
)
from .errors import (
    BadParameters,
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
    if field == "gf2":
        return FieldChoice.GF2
    if field in ("rational", "rat"):
        return FieldChoice.Rational
    raise BadParameters("field must be 'gf2', 'rational' or 'rat'")


@dataclass(frozen=True)
class MonomialIdeal:
    """Squarefree monomial ideal given by the supports of its minimal
    generators (an antichain) inside an ambient variable set."""

    ambient: tuple
    generators: tuple


def _check_ideal(ideal) -> None:
    """Refuse anything but a MonomialIdeal, once at the entry of an ideal routine."""
    if not isinstance(ideal, MonomialIdeal):
        raise BadParameters(f"expected a MonomialIdeal, got {type(ideal).__name__}")


def monomial_ideal(generators, ambient=None) -> MonomialIdeal:
    gens = sorted(_face_list(generators))
    support = set()
    for g in gens:
        if not g:
            raise EmptyInput("an empty support means the unit ideal; not representable here")
        support.update(g)
    if len(_maximal(gens)) != len(gens):
        raise BadParameters("generators are not an antichain")
    if ambient is None:
        amb = tuple(sorted(support))
    else:
        amb = as_face(ambient)
        if not support <= set(amb):
            raise BadParameters("generators use variables outside the ambient set")
    return MonomialIdeal(amb, tuple(gens))


def facet_ideal(cx: SimplicialComplex) -> MonomialIdeal:
    """Ideal generated by the facet supports."""
    _check_complex(cx)
    if any(len(f) == 0 for f in cx.facets):
        raise EmptyInput("the empty facet generates the unit ideal")
    return MonomialIdeal(cx.ambient, tuple(sorted(cx.facets)))


def stanley_reisner_ideal(cx: SimplicialComplex) -> MonomialIdeal:
    """Ideal generated by the minimal non-faces."""
    _check_complex(cx)
    gens = minimal_nonfaces(cx)
    if any(len(g) == 0 for g in gens):
        raise EmptyInput("a complex with no faces has the unit Stanley-Reisner ideal")
    return MonomialIdeal(cx.ambient, tuple(sorted(gens)))


def edge_ideal(g: Graph) -> MonomialIdeal:
    """Degree-two ideal of the edges of a graph."""
    _check_graph(g)
    return MonomialIdeal(tuple(range(1, g.order + 1)), tuple(sorted(g.edges())))


def _rational_ranks(face: bytearray, n: int):
    """Same contract and elimination as the GF(2) kernel, over the rationals.

    A boundary row is a sparse ``{face mask: coefficient}`` dict (vertices map
    to the empty face, mask 0, with sign +1). It is reduced against the basis
    row at its leading column, its highest face mask, by
    ``row * b[lead] - b * row[lead]``, with the row's gcd divided out after
    each step, until it is zero or takes a free lead.
    """
    by_card, fvec = _faces_by_cardinality(face, n)
    ranks = [0] * (n + 2)
    for p in range(1, n + 1):
        basis = {}
        for m in by_card[p]:
            row = {}
            sign = 1
            mm = m
            while mm:
                low = mm & -mm
                mm ^= low
                row[m ^ low] = sign
                sign = -sign
            while row:
                lead = max(row)
                b = basis.get(lead)
                if b is None:
                    basis[lead] = row
                    break
                x, y = b[lead], row[lead]
                row = {c: v for c in row.keys() | b.keys()
                       if (v := row.get(c, 0) * x - b.get(c, 0) * y)}
                g = gcd(*row.values())
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
        ranks[p] = len(basis)
    return fvec, ranks


def _homology_from_ranks(fvec, ranks, top: int):
    """Reduced homology ranks in dimensions -1..top from kernel output.

    A negative rank is refused. There is no Euler check: summed over p with
    sign (-1)^p, the rank terms telescope, and the face sum minus the
    homology sum is -ranks[0] + (-1)^top * ranks[top + 2]. No kernel writes
    ranks[0], and no face lives in layer top + 2, so both are zero and the
    sums agree whatever ranks a kernel returns.
    """
    out = []
    for p in range(-1, top + 1):
        h = fvec[p + 1] - ranks[p + 1] - ranks[p + 2]
        if h < 0:
            raise RidgelineError("negative homology rank: kernel inconsistency")
        out.append(h)
    return out


def reduced_homology_ranks(cx: SimplicialComplex, field=FieldChoice.GF2) -> list:
    """Ranks of reduced homology in dimensions -1 .. dim, as a list.

    Entry 0 is dimension -1 (nonzero only for the complex whose single face
    is empty), entry k is dimension k-1. Faces are enumerated over the
    support, which is refused past MAX_BITS vertices.
    """
    _check_complex(cx)
    field = _field(field)
    verts = cx.support
    n = len(verts)
    _check_built(1 << n, "faces in the indicator of reduced_homology_ranks")
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


def _strong_core(key: tuple, j: int):
    """Strong collapse of the window complex of ``key`` to its core.

    ``key`` is a window's memo key: sorted generator masks covering bits
    0..j-1. The link of bit b is the set of ``g ^ b`` over the generators g
    through b; as the key covers every bit, no link starts empty. An empty
    link after a drop makes b a cone point, and the answer is None: the
    complex is contractible. While some vertex u has
    ``link(u) <= link(v)`` for a vertex v != u, v is dropped with the
    generators through v. Every face σ with v in σ and u not in σ then has
    σ ∪ u a face (a generator g inside σ ∪ u would put the generator
    (g - u) ∪ v inside σ), so the link of v in the complex is a cone with
    apex u and dropping v is a strong collapse (Barmak-Minian), which keeps
    the homotopy type. For an edge ideal this is the fold N(u) ⊆ N(v).

    Returns ``(core_key, c)``: the core's generators moved onto its c
    vertices in order, which is itself a memo key of a c-vertex window.
    """
    links = {}
    for b in range(j):
        bit = 1 << b
        links[bit] = {g ^ bit for g in key if g & bit}
    gens = key
    alive = (1 << j) - 1
    while True:
        for v, lv in links.items():
            for u, lu in links.items():
                if lu <= lv and u != v:
                    break
            else:
                continue
            break
        else:
            return tuple(_compressed(gens, alive)), len(links)
        del links[v]
        alive ^= v
        for g in gens:
            if g & v:
                rest = g ^ v
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    link = links[bit]
                    link.discard(g ^ bit)
                    if not link:
                        return None
        gens = [g for g in gens if not g & v]


def _hochster_scan(ideal: MonomialIdeal, field: FieldChoice, size=None):
    """Reduced homology of the restriction to each window W of the generator
    support, as ``(|W|, hom)`` with ``hom[p]`` the rank in dimension p - 1.

    The windows are the lcm lattice (Gasharov-Peeva-Welker): the unions of
    generators, grown from the empty window one generator at a time, and
    only those of ``size`` vertices when it is given. Any other W has a cone
    point, a vertex in no generator inside W, and is never visited.

    ``hom`` depends only on the restriction of the ideal to W: the window
    and the generators inside it. It is memoized per field, keyed by those
    generators moved onto W's bit positions in order (``_compressed``), as a
    sorted tuple of one small int per generator. The move is an
    order-preserving relabelling of W onto 0..|W|-1, which preserves
    homology over any field, and W's non-face indicator is built from their
    complements in W alone, so equal keys mean equal ``hom``.
    |W| is implied: W is the union of the generators inside it, so the moved
    masks cover all |W| positions.

    A window that misses the memo is strongly collapsed to its core
    (``_strong_core``), which keeps homology over any field. A cone settles
    to all zeros without a rank. Any other core is ranked directly, and the
    window's ``hom`` is the core's, padded with zeros to length |W| + 1. A
    ``hom`` enters the memo, under the window's key alone, only after its
    ranks are checked, and the memo is emptied when it reaches
    ``_WINDOW_MEMO_CAP`` entries. ``_check_built`` refuses the lattice as
    soon as it passes 2**MAX_BITS windows, within the generator step that
    passes it, and a core past MAX_BITS vertices, before its indicator is
    built.
    """
    supp = sorted(set().union(*ideal.generators))
    gen_masks = sorted(_masks_of(ideal.generators, supp))
    top = len(supp) if size is None else size
    half = 1 << complexes.MAX_BITS - 1
    windows = {0}
    for g in gen_masks:
        # a step at most doubles the set, so one that stays within the bound
        # needs no check; any other adds its windows one at a time, each
        # checked, so a refused lattice is never built past the bound
        if len(windows) <= half:
            windows |= {u for w in windows if (u := w | g).bit_count() <= top}
            continue
        grown = set()
        for w in windows:
            if (u := w | g) not in windows and u.bit_count() <= top:
                grown.add(u)
                _check_built(len(windows) + len(grown), "windows in the lcm lattice")
        windows |= grown
    windows.discard(0)
    if size is not None:
        windows = [w for w in windows if w.bit_count() == size]
    memo = _window_memos[field]
    for w_mask in windows:
        inside = [gm for gm in gen_masks if not gm & ~w_mask]
        j = w_mask.bit_count()
        # compression keeps the order of subsets of W, so the key is sorted
        key = tuple(_compressed(inside, w_mask))
        hom = memo.get(key)
        if hom is None:
            core = _strong_core(key, j)
            if core is None:
                hom = (0,) * (j + 1)
            else:
                core_key, c = core
                _check_built(1 << c, "faces in the indicator of a window's core")
                if field is FieldChoice.GF2:
                    fvec, ranks = kernels.ranks_of_nonface_complex(core_key, (1 << c) - 1)
                else:
                    fvec, ranks = _rational_ranks(*nonface_indicator(core_key, (1 << c) - 1))
                hom = tuple(_homology_from_ranks(fvec, ranks, c - 1)) + (0,) * (j - c)
            if len(memo) >= _WINDOW_MEMO_CAP:
                memo.clear()
            memo[key] = hom
        yield j, hom


def betti_table(ideal: MonomialIdeal, field=FieldChoice.GF2) -> BettiTable:
    """Full graded Betti table of S/I by scanning the lcm lattice.

    Only unions of generators can carry homology, so the scan walks those
    windows alone; the implicit beta_{0,0} = 1 is not stored. The first
    syzygies are checked against the generator count on every table.
    """
    _check_ideal(ideal)
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


def beta_in_degree(ideal: MonomialIdeal, i: int, j: int, field=FieldChoice.GF2) -> int:
    """One graded Betti number of S/I (so (0, 0) gives 1), by scanning only
    the unions of generators with j vertices.

    For i >= 1 it is the (i, j) entry of ``betti_table(ideal, field)``, got
    without filling the whole table.
    """
    _check_ideal(ideal)
    _check_int(i, "i")
    _check_int(j, "j")
    field = _field(field)
    if i == 0:
        return 1 if j == 0 else 0
    if i < 0 or j < i:
        return 0
    return sum(hom[j - i] for _, hom in _hochster_scan(ideal, field, j))


def has_linear_resolution(ideal: MonomialIdeal, field=FieldChoice.GF2) -> bool:
    """All generators in one degree d and every table entry on j - i = d - 1.

    One pass over the lcm lattice, with no table: a window of j vertices
    puts ``hom[j - i]`` in entry (i, j), so it is off the strand exactly
    when ``hom`` is nonzero away from index d - 1, and the first such window
    answers False. A scan that runs to the end answers True, after the
    first syzygies (``hom[d - 1]`` over the windows of d vertices) are
    checked against the generator count, as ``betti_table`` checks them.
    """
    _check_ideal(ideal)
    field = _field(field)
    if not ideal.generators:
        return True
    degrees = {len(g) for g in ideal.generators}
    if len(degrees) != 1:
        return False
    d = degrees.pop()
    firsts = 0
    for j, hom in _hochster_scan(ideal, field):
        if any(hom[:d - 1]) or any(hom[d:]):
            return False
        if j == d:
            firsts += hom[d - 1]
    if firsts != len(ideal.generators):
        raise RidgelineError("first syzygies disagree with the generator count")
    return True


def has_linear_quotients(ideal: MonomialIdeal, budget: int | None = None):
    """Ordering of the generators with variable-generated colon ideals.

    For squarefree generators, the colon condition asks for each j < i some
    k < i whose support exceeds generator i by the single variable l, with l
    also dividing generator j away from i. That is the single-swap order
    condition on the complemented supports, so the shared search runs there.
    Returns the ordered generators, or None.
    """
    _check_ideal(ideal)
    gens = ideal.generators
    universe = set(ideal.ambient)
    comps = [universe - set(g) for g in gens]
    order = single_swap_order(comps, budget)
    if order is None:
        return None
    return tuple(gens[i] for i in order)


def is_cohen_macaulay(cx: SimplicialComplex, field=FieldChoice.GF2) -> bool:
    """Dual criterion (Eagon-Reiner): Cohen-Macaulay exactly when the
    Stanley-Reisner ideal of the Alexander dual has a linear resolution.
    That ideal is generated by the complements of the facets, so it is the
    facet ideal of the complement complex, which refuses the empty complex
    and a facet equal to the ambient set."""
    field = _field(field)
    return has_linear_resolution(facet_ideal(complement_complex(cx)), field)


def froberg_check(g: Graph, field=FieldChoice.GF2) -> dict:
    """Both sides of the chordal-complement criterion for edge ideals."""
    field = _field(field)
    lin = has_linear_resolution(edge_ideal(g), field)
    chordal = is_chordal_graph(complement(g)) is not None
    return {
        "linear_resolution": lin,
        "complement_chordal": chordal,
        "agree": lin == chordal,
    }
