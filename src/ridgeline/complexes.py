"""Simplicial complexes presented by their facets.

Vertices are positive integers. A complex stores an explicit ambient vertex
set (needed for complements and duals) plus the canonical sorted tuple of
facets. Faces of the complex are exactly the subsets of facets; an ambient
vertex that lies in no facet is therefore a non-face (this is the convention
under which Stanley-Reisner ideals of restricted complexes behave).

The empty complex (no facets) and the complex whose single facet is the empty
set are not constructible through ``from_facets`` but are legal results of
minors and duals, and all operations here accept them.

Every walk over the 2**n subsets of a vertex set goes through this module:
``facet_indicator``, the one builder, marks the faces of a facet family,
``nonface_indicator`` reads the sets avoiding every generator inside a
window off it by Alexander duality, and ``_faces_by_cardinality`` groups the
marked faces, each keyed by its own mask, for the rank routines of both
coefficient fields. Derived complexes take no such walk: ``minimal_nonfaces``
builds minimal transversals, which the Alexander dual and the independence
complex read. ``MAX_BITS`` is the one size bound: ``_check_cells`` refuses
what a caller asks for, ``_check_built`` a routine's own structure (as
``BudgetExceeded``). ``_compressed`` moves masks onto the bits of a window,
for the non-face indicator and for the Betti scan's memo key.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional

from .errors import (
    BadParameters,
    Budget,
    BudgetExceeded,
    DegenerateComplement,
    EmptyInput,
    NotPure,
    OutOfAmbient,
    OverlappingAmbients,
)

Face = tuple  # strictly increasing tuple of positive integers

MAX_BITS = 20  # 2**20 face indicators or family cells is the most a builder will allocate


def as_face(vertices: Iterable[int]) -> Face:
    """Normalize an iterable of vertices into a sorted face tuple.

    Every vertex is checked before duplicates are dropped, so a bool or a
    float equal to a good vertex, as in [1, True] or [1, 1.0], is refused.
    """
    try:
        face = list(vertices)
    except TypeError:  # not iterable
        face = vertices
    else:
        if all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in face):
            return tuple(sorted(set(face)))
    try:
        shown = repr(face)
    except ValueError:  # an int past the digits str() allows
        shown = "given"
    raise BadParameters(f"vertices {shown} are not all positive integers")


def _face_list(faces) -> list:
    """``as_face`` of each face of a face list, which must be iterable."""
    try:
        faces = iter(faces)
    except TypeError:
        raise BadParameters("expected a family of vertex sets") from None
    return [as_face(f) for f in faces]


def _maximal(faces: Iterable[Face]) -> tuple:
    """Drop duplicate faces and faces contained in another face."""
    uniq = sorted(set(faces), key=len)
    sets = [set(f) for f in uniq]
    sizes = [len(f) for f in uniq]
    keep = []
    for pos, f in enumerate(uniq):
        fs = sets[pos]
        # only a strictly larger face can contain f
        if not any(fs <= g for g in sets[bisect_right(sizes, sizes[pos]):]):
            keep.append(f)
    return tuple(sorted(keep))


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex over an explicit ambient set, stored by its facets."""

    ambient: tuple
    facets: tuple

    @property
    def is_empty(self) -> bool:
        return len(self.facets) == 0

    @property
    def support(self) -> tuple:
        """Vertices that actually appear in some facet."""
        seen = set()
        for f in self.facets:
            seen.update(f)
        return tuple(sorted(seen))

    @property
    def facet_count(self) -> int:
        return len(self.facets)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, f)) + "}" for f in self.facets)
        return f"SimplicialComplex(ambient={set(self.ambient) or '{}'}, facets=[{inner}])"


def from_facets(faces: Iterable[Iterable[int]], ambient: Iterable[int] | None = None) -> SimplicialComplex:
    """Build a complex from generating faces.

    Duplicate and non-maximal faces are dropped. The ambient defaults to the
    union of the faces; if given, it must contain every face.
    """
    face_list = _face_list(faces)
    if not face_list:
        raise EmptyInput("a complex needs at least one face")
    if any(len(f) == 0 for f in face_list):
        raise EmptyInput("faces must be nonempty")
    facets = _maximal(face_list)
    support = set()
    for f in facets:
        support.update(f)
    if ambient is None:
        amb = tuple(sorted(support))
    else:
        amb = as_face(ambient)
        if not support <= set(amb):
            raise OutOfAmbient("some vertices lie outside the ambient set")
    return SimplicialComplex(amb, facets)


def dimension(cx: SimplicialComplex) -> int:
    """max |F| - 1 over facets; -1 for the empty complex."""
    _check_complex(cx)
    if cx.is_empty:
        return -1
    return max(len(f) for f in cx.facets) - 1


def is_pure(cx: SimplicialComplex) -> bool:
    """Whether all facets share one cardinality (vacuously true when empty)."""
    _check_complex(cx)
    sizes = {len(f) for f in cx.facets}
    return len(sizes) <= 1


def facet_size(cx: SimplicialComplex) -> int:
    """Common facet cardinality of a pure complex."""
    _check_complex(cx)
    if cx.is_empty:
        raise EmptyInput("empty complex has no facet size")
    if not is_pure(cx):
        raise NotPure("facet size is defined for pure complexes only")
    return len(cx.facets[0])


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes on disjoint ambient sets."""
    _check_complex(a)
    _check_complex(b)
    if a.is_empty or b.is_empty:
        raise EmptyInput("join needs two nonempty complexes")
    overlap = set(a.ambient) & set(b.ambient)
    if overlap:
        raise OverlappingAmbients("ambient sets share vertices")
    facets = tuple(sorted(tuple(sorted(f + g)) for f in a.facets for g in b.facets))
    ambient = tuple(sorted(a.ambient + b.ambient))
    return SimplicialComplex(ambient, facets)


def complement_complex(cx: SimplicialComplex) -> SimplicialComplex:
    """Complex whose facets are the ambient-complements of the facets."""
    _check_complex(cx)
    if cx.is_empty:
        raise EmptyInput("empty complex has no complement complex")
    amb = set(cx.ambient)
    facets = []
    for f in cx.facets:
        comp = tuple(sorted(amb - set(f)))
        if not comp:
            raise DegenerateComplement("a facet equals the ambient set; complement degenerate")
        facets.append(comp)
    # complements of an antichain form an antichain, so no re-maximalization
    return SimplicialComplex(cx.ambient, tuple(sorted(facets)))


def _check_complex(cx) -> None:
    """Refuse anything but a SimplicialComplex, once at the entry of a search."""
    if not isinstance(cx, SimplicialComplex):
        raise BadParameters(f"expected a SimplicialComplex, got {type(cx).__name__}")


def _check_built(cells: int, what: str) -> None:
    """Refuse a routine's own structure past 2**MAX_BITS cells, as a budget overrun."""
    if cells > 1 << MAX_BITS:
        raise BudgetExceeded(f"more than 2**{MAX_BITS} {what}")


def _check_cells(cells: int, what: str) -> None:
    """Refuse, before it is built, a family or table of more than 2**MAX_BITS cells."""
    if cells > 1 << MAX_BITS:
        raise BadParameters(f"{what} would hold more than 2**{MAX_BITS} cells")


def minimal_nonfaces(cx: SimplicialComplex) -> tuple:
    """Inclusion-minimal subsets of the ambient that are not faces.

    A non-face meets every facet's complement, so these are the minimal
    transversals of the complements (Berge, Hypergraphs, 1989), built one
    complement e at a time from {empty set}: each t missing e gives t + v
    per v in e, dropped if it holds a t meeting e (no two t + v nest). The
    empty complex has the empty set as its minimal non-face.
    """
    _check_complex(cx)
    amb = cx.ambient
    full = (1 << len(amb)) - 1
    family = [0]
    for m in _masks_of(cx.facets, amb):
        e = full ^ m
        hit = [t for t in family if t & e]
        bits = [1 << i for i in range(len(amb)) if e >> i & 1]
        family = hit + [t | v for t in family if not t & e for v in bits
                        if not any(h & (t | v) == h for h in hit)]
        _check_built(len(family), "minimal transversals in minimal_nonfaces")
    return tuple(sorted((_face_of(t, amb) for t in family), key=lambda f: (len(f), f)))


def alexander_dual(cx: SimplicialComplex) -> SimplicialComplex:
    """Complex whose faces are the ambient-complements of non-faces.

    Its facets are the complements of the minimal non-faces. When the input
    is the full simplex on its ambient there are no non-faces and the result
    is the empty complex (flagged via ``is_empty``).
    """
    _check_complex(cx)
    if cx.is_empty:
        raise EmptyInput("empty complex has no dual here; it would be the full simplex")
    amb = set(cx.ambient)
    facets = tuple(sorted(tuple(sorted(amb - set(w))) for w in minimal_nonfaces(cx)))
    return SimplicialComplex(cx.ambient, facets)


def _split(masks, bit: int) -> tuple:
    """``(through, kept, bit)``: the facet masks containing ``bit`` and those
    avoiding it."""
    through = []
    kept = []
    for m in masks:
        if m & bit:
            through.append(m)
        else:
            kept.append(m)
    return through, kept, bit


def _splits(masks):
    """Yield ``_split(masks, bit)`` for each bit of the union of the masks,
    in ascending order."""
    rest = 0
    for m in masks:
        rest |= m
    while rest:
        bit = rest & -rest
        rest ^= bit
        yield _split(masks, bit)


def _simplicial_bit(through, kept, bit: int) -> bool:
    """Whether every two facet masks of ``through`` (those containing
    ``bit``) have a mask of ``kept`` (those avoiding it) inside their union
    without ``bit``. Only a facet avoiding ``bit`` can lie there, so the third
    facet is sought among those.
    """
    for pos, m1 in enumerate(through):
        for m2 in through[pos + 1:]:
            allowed = (m1 | m2) ^ bit
            for m3 in kept:
                if m3 & allowed == m3:
                    break
            else:
                return False
    return True


# families of at most this many facets are chordal (the lemma in
# is_chordal_complex's docstring), so the chase never visits one
_CHORDAL_BASE = 3


def is_chordal_complex(cx: SimplicialComplex, budget: int | None = None) -> bool:
    """Whether every minor of the complex has a simplicial vertex.

    A minor is the frozenset of its facet bitmasks, bit i standing for the
    i-th smallest support vertex of the input; the facets must form an
    antichain. Each state splits its masks once per support bit, in
    ascending order (``_splits``), into ``through`` (the masks containing the
    bit) and ``kept`` (those avoiding it). That one split serves the
    simplicial test (``_simplicial_bit``, which stops at the first simplicial
    bit), the deletion (``kept``) and the contraction (``kept`` plus each
    ``through`` mask without the bit that lies inside no kept mask; the masks
    form an antichain, so two stripped faces never nest and a kept facet
    never lies inside a stripped face). At each bit the deletion is tried
    first, and the contraction is built only when the deletion is good.
    Ambient vertices outside the support touch no facet and are dropped by
    any minor anyway.

    Families of at most three facets are chordal base cases, by this lemma:
    every antichain of at most three sets is chordal, whatever the set sizes.
    If some vertex lies in exactly one set, no two sets pass through it and
    it is simplicial. Otherwise every vertex lies in at least two sets; two
    or three distinct sets cannot all share every vertex, so some vertex v
    lies in exactly two sets A and B. The third set C avoids v, and each of
    its vertices lies in A or B, so C lies inside (A | B) minus v and v is
    simplicial. Every minor of such a family again has at most three sets,
    so every minor has a simplicial vertex. The 4-cycle 12, 23, 34, 14 has
    none, so the bound of three is tight.

    The memo is keyed by the frozenset, which determines the canonical facet
    tuple and back. A parent skips a base-case child and looks every other
    child up in the memo before it recurses, so each recursion visits a new
    state of four or more facets and spends one budget step.
    """
    _check_complex(cx)
    spend = Budget(budget).spend
    memo: dict = {}

    def good(masks: frozenset) -> bool:
        # a new state of four or more facets: split up to the first
        # simplicial bit, and let the children resume the splits after it
        spend()
        pending = _splits(masks)
        tested = []
        for split in pending:
            tested.append(split)
            if _simplicial_bit(*split):
                break
        else:
            memo[masks] = False
            return False
        ok = True
        for through, kept, bit in chain(tested, pending):
            if len(kept) > _CHORDAL_BASE:
                child = frozenset(kept)
                hit = memo.get(child)
                if not (good(child) if hit is None else hit):
                    ok = False
                    break
            contracted = kept.copy()
            for m in through:
                face = m ^ bit
                for g in kept:
                    if face & g == face:
                        break
                else:
                    contracted.append(face)
            if len(contracted) > _CHORDAL_BASE:
                child = frozenset(contracted)
                hit = memo.get(child)
                if not (good(child) if hit is None else hit):
                    ok = False
                    break
        memo[masks] = ok
        return ok

    root = frozenset(_masks_of(cx.facets, cx.support))
    try:
        return len(root) <= _CHORDAL_BASE or good(root)
    finally:
        del good  # break the closure's cycle through its own cell, and the memo with it


def single_swap_order(sets, budget: int | None = None) -> Optional[tuple]:
    """Order incomparable sets so each one is reachable by single swaps.

    Finds an ordering S_1, .., S_r such that for every j < i some v in
    S_i minus S_j satisfies S_i minus S_k = {v} for an earlier S_k; returns
    the ordering as a tuple of indices into the input, or None. This is the
    facet condition of a shelling, and applied to complemented supports it is
    also the colon condition for linear quotients of a squarefree ideal.

    Each set becomes a bitmask over the union of the sets (``_masks_of``) and
    a prefix is the bitmask of the indices placed so far. Let ``singles`` be
    the OR of the one-bit differences m_i & ~m_k over placed k. It lies inside
    m_i, so it meets m_i & ~m_j exactly when it is not inside m_j: index i
    extends a prefix exactly when no placed set holds every vertex of
    ``singles``. With ``holders[v]`` the bitmask of the sets holding vertex v,
    the prefix carries ``need[i]``, the AND of ``holders[v]`` over the singles
    of i so far (all sets while there are none), and i is accepted exactly
    when ``need[i] & used == 0``. Placing k ANDs ``holders[v]`` into
    ``need[i]`` for each i with m_i & ~m_k == v, a list built once per call.
    ``need[i]`` always holds i itself, so the same AND rejects placed indices.

    Backtracking tries indices in input order and memoizes dead prefixes
    (whether an order can be completed depends only on the prefix as a set),
    so the witness is deterministic; each prefix the memo misses spends one
    budget step.
    """
    try:
        sets = list(sets)
        union = set().union(*sets)
    except TypeError:  # not an iterable of iterables of hashable vertices
        raise BadParameters("expected a family of vertex sets") from None
    masks = _masks_of(sets, tuple(union))
    r = len(masks)
    full = (1 << r) - 1
    holders = [0] * len(union)
    for k, m in enumerate(masks):
        while m:
            low = m & -m
            holders[low.bit_length() - 1] |= 1 << k
            m ^= low
    swaps = [[(i, holders[d.bit_length() - 1]) for i, mi in enumerate(masks)
              if (d := mi & ~mk).bit_count() == 1] for mk in masks]
    spend = Budget(budget).spend
    dead: set = set()
    order: list = []

    def extend(used: int, need: list) -> bool:
        if used == full:
            return True
        if used in dead:
            return False
        spend()
        for i in range(r):
            if need[i] & used:
                continue
            order.append(i)
            after = need.copy()
            for j, h in swaps[i]:
                after[j] &= h
            if extend(used | 1 << i, after):
                return True
            order.pop()
        dead.add(used)
        return False

    try:
        found = extend(0, [full] * r)
    finally:
        del extend  # break the closure's cycle through its own cell
    return tuple(order) if found else None


def is_shellable(cx: SimplicialComplex, budget: int | None = None) -> Optional[tuple]:
    """Search for a shelling order of the facets; None when there is none.

    An order works when each facet F_i, measured against every earlier F_j,
    has a vertex v in F_i minus F_j such that F_i minus F_k = {v} for some
    earlier F_k. The same pairwise condition defines shellability of pure
    and non-pure complexes alike (Bjorner-Wachs), so both are searched.
    """
    _check_complex(cx)
    if cx.is_empty:
        raise EmptyInput("empty complex has nothing to shell")
    order = single_swap_order(cx.facets, budget)
    if order is None:
        return None
    return tuple(cx.facets[i] for i in order)


def independence_complex(cx: SimplicialComplex) -> SimplicialComplex:
    """Complex, over the same ambient, of the vertex sets that contain no
    facet of ``cx``: the facets are read as circuits, so they are its
    minimal non-faces.

    A set contains no facet exactly when its complement lies in no facet's
    complement, so this is the Alexander dual of the complex generated by
    the facets' complements. A facet equal to the ambient has the empty
    complement and gives the boundary of the simplex; the empty complex
    gives the full simplex.
    """
    _check_complex(cx)
    amb = cx.ambient
    if cx.is_empty:
        return SimplicialComplex(amb, (amb,))
    comps = tuple(sorted(tuple(v for v in amb if v not in f) for f in cx.facets))
    return alexander_dual(SimplicialComplex(amb, comps))


def _masks_of(faces: Iterable[Iterable[int]], ambient: tuple) -> list:
    """One bitmask per face: bit i stands for ambient[i], the i-th vertex of
    ``ambient`` (any ordered vertex tuple), so sparse labels still give small
    masks."""
    bit = {v: 1 << i for i, v in enumerate(ambient)}
    out = []
    for face in faces:
        m = 0
        for v in face:
            m |= bit[v]
        out.append(m)
    return out


def _face_of(mask: int, ambient: tuple) -> Face:
    return tuple(ambient[i] for i in range(len(ambient)) if mask >> i & 1)


def facet_indicator(facet_masks, n: int) -> bytearray:
    """Indicator over the 2**n bitmasks of the faces of the complex
    generated by the facet masks."""
    if not 0 <= n <= MAX_BITS:
        raise ValueError(f"bit count {n} outside 0..{MAX_BITS}")
    total = 1 << n
    face = bytearray(total)
    for fm in facet_masks:
        if fm >> n:
            raise ValueError(f"facet mask {fm:#x} does not fit in {n} bits")
        sub = fm
        while True:
            face[sub] = 1
            if sub == 0:
                break
            sub = (sub - 1) & fm
    return face


def _byte_compressions() -> bytes:
    """Entry ``w << 8 | m`` for bytes ``m`` inside ``w``: m moved onto w's
    set bits in order."""
    table = bytearray(1 << 16)
    for w in range(256):
        bits = [1 << b for b in range(8) if w >> b & 1]
        sub = [0] * (1 << len(bits))
        for c in range(1, len(sub)):
            low = c & -c
            sub[c] = sub[c ^ low] | bits[low.bit_length() - 1]
            table[w << 8 | sub[c]] = c
    return bytes(table)


_BYTE_COMPRESSIONS = _byte_compressions()


def _compressed(masks, w_mask: int) -> list:
    """Each mask, a subset of ``w_mask``, moved onto w_mask's bits in order:
    bit k of a result stands for the k-th lowest set bit of ``w_mask``. The
    move is a table lookup per byte."""
    table = _BYTE_COMPRESSIONS
    if w_mask < 256:
        base = w_mask << 8
        return [table[base | m] for m in masks]
    out = []
    for m in masks:
        c = 0
        shift = 0
        w = w_mask
        while w:
            c |= table[(w & 255) << 8 | m & 255] << shift
            shift += (w & 255).bit_count()
            w >>= 8
            m >>= 8
        out.append(c)
    return out


_NEGATE = b"\x01\x00" + bytes(254)  # translate table swapping the bytes 0 and 1


def nonface_indicator(gen_masks, w_mask: int):
    """Indicator of the restriction to W of the complex whose non-faces are
    the sets containing some generator mask, as ``(face, n)``.

    Faces are the subsets of ``w_mask`` containing no generator; generators
    not contained in ``w_mask`` cannot occur inside such a subset and are
    ignored. Masks are compressed onto the n bits of ``w_mask``.
    S contains g exactly when W - S lies inside W - g (Alexander duality),
    so this is the ``facet_indicator`` of the generators' complements in W
    read at W - S: reversed, then negated.
    """
    if w_mask < 0:
        raise ValueError(f"window mask {w_mask} is negative")
    n = w_mask.bit_count()
    full = (1 << n) - 1
    comps = [full ^ cg for cg in _compressed([gm for gm in gen_masks if not gm & ~w_mask], w_mask)]
    return facet_indicator(comps, n)[::-1].translate(_NEGATE), n


def _faces_by_cardinality(face: bytearray, n: int):
    """``(by_card, fvec)`` of a face indicator over 2**n bitmasks.

    ``by_card[p]`` lists the faces of cardinality p in increasing mask order
    and ``fvec[p]`` counts them, with a trailing zero at p = n + 1. A face's
    mask is its own column in the boundary rows of both rank routines.
    """
    by_card = [[] for _ in range(n + 1)]
    for m in range(1 << n):
        if face[m]:
            by_card[m.bit_count()].append(m)
    fvec = [len(layer) for layer in by_card] + [0]
    return by_card, fvec
