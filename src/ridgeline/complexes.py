"""Simplicial complexes presented by their facets, and clutters.

Vertices are positive integers. A complex stores an explicit ambient vertex
set (needed for complements and duals) plus the canonical sorted tuple of
facets. Faces of the complex are exactly the subsets of facets; an ambient
vertex that lies in no facet is therefore a non-face (this is the convention
under which Stanley-Reisner ideals of restricted complexes behave).

The empty complex (no facets) and the complex whose single facet is the empty
set are not constructible through ``from_facets`` but are legal results of
minors and duals, and all operations here accept them.

Every walk over the 2**n subsets of a vertex set goes through this module:
``facet_indicator`` marks the faces of a facet family, ``nonface_indicator``
marks the sets avoiding every generator inside a window, and
``_faces_by_cardinality`` groups the marked faces for the rank routines of
both coefficient fields. ``_check_ambient_cap`` refuses such a walk over more
than ``AMBIENT_CAP`` vertices. ``_compressed`` moves masks onto the bits of a
window, for the non-face indicator and for the Betti scan's memo key.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, combinations
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
    UnknownVertex,
)

Face = tuple  # strictly increasing tuple of positive integers

AMBIENT_CAP = 16  # subset scans refuse larger vertex sets
MAX_BITS = 20  # 2**20 face indicators is the most a builder will allocate


def as_face(vertices: Iterable[int]) -> Face:
    """Normalize an iterable of vertices into a sorted face tuple."""
    try:
        face = tuple(sorted(set(vertices)))
    except TypeError:  # unhashable vertices, or ones that do not compare
        raise BadParameters(f"vertices {vertices!r} are not all positive integers") from None
    for v in face:
        if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
            raise BadParameters(f"vertex {v!r} is not a positive integer")
    return face


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
    face_list = [as_face(f) for f in faces]
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
            extra = sorted(support - set(amb))
            raise OutOfAmbient(f"vertices {extra} lie outside the ambient set")
    return SimplicialComplex(amb, facets)


def dimension(cx: SimplicialComplex) -> int:
    """max |F| - 1 over facets; -1 for the empty complex."""
    if cx.is_empty:
        return -1
    return max(len(f) for f in cx.facets) - 1


def is_pure(cx: SimplicialComplex) -> bool:
    """Whether all facets share one cardinality (vacuously true when empty)."""
    sizes = {len(f) for f in cx.facets}
    return len(sizes) <= 1


def facet_size(cx: SimplicialComplex) -> int:
    """Common facet cardinality of a pure complex."""
    if cx.is_empty:
        raise EmptyInput("empty complex has no facet size")
    if not is_pure(cx):
        raise NotPure("facet size is defined for pure complexes only")
    return len(cx.facets[0])


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes on disjoint ambient sets."""
    if a.is_empty or b.is_empty:
        raise EmptyInput("join needs two nonempty complexes")
    overlap = set(a.ambient) & set(b.ambient)
    if overlap:
        raise OverlappingAmbients(f"ambient sets share vertices {sorted(overlap)}")
    facets = tuple(sorted(tuple(sorted(f + g)) for f in a.facets for g in b.facets))
    ambient = tuple(sorted(a.ambient + b.ambient))
    return SimplicialComplex(ambient, facets)


def complement_complex(cx: SimplicialComplex) -> SimplicialComplex:
    """Complex whose facets are the ambient-complements of the facets."""
    if cx.is_empty:
        raise EmptyInput("empty complex has no complement complex")
    amb = set(cx.ambient)
    facets = []
    for f in cx.facets:
        comp = tuple(sorted(amb - set(f)))
        if not comp:
            raise DegenerateComplement(f"facet {f} equals the ambient set")
        facets.append(comp)
    # complements of an antichain form an antichain, so no re-maximalization
    return SimplicialComplex(cx.ambient, tuple(sorted(facets)))


def _check_complex(cx) -> None:
    """Refuse anything but a SimplicialComplex, once at the entry of a search."""
    if not isinstance(cx, SimplicialComplex):
        raise BadParameters(f"expected a SimplicialComplex, got {type(cx).__name__}")


def _check_ambient_cap(n: int, what: str) -> None:
    """Refuse a subset scan over more than AMBIENT_CAP vertices."""
    if n > AMBIENT_CAP:
        raise BudgetExceeded(f"{what}: a subset scan over {n} vertices exceeds the cap of {AMBIENT_CAP}")


def minimal_nonfaces(cx: SimplicialComplex) -> tuple:
    """Inclusion-minimal subsets of the ambient that are not faces.

    A set S qualifies exactly when S is not a face while every S minus one
    vertex is. The empty complex has the empty set as its minimal non-face.
    """
    amb = cx.ambient
    n = len(amb)
    _check_ambient_cap(n, "minimal_nonfaces")
    face = facet_indicator(_masks_of(cx.facets, amb), n)
    out = []
    for m in range(1 << n):
        if face[m]:
            continue
        sub = m
        while sub:
            low = sub & -sub
            if not face[m ^ low]:
                break
            sub ^= low
        else:
            out.append(_face_of(m, amb))
    return tuple(sorted(out, key=lambda f: (len(f), f)))


def alexander_dual(cx: SimplicialComplex) -> SimplicialComplex:
    """Complex whose faces are the ambient-complements of non-faces.

    Its facets are the complements of the minimal non-faces. When the input
    is the full simplex on its ambient there are no non-faces and the result
    is the empty complex (flagged via ``is_empty``).
    """
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


def is_simplicial_vertex(cx: SimplicialComplex, v: int) -> bool:
    """Whether every two distinct facets through v have a third facet inside
    their union with v removed. A vertex in at most one facet qualifies
    vacuously, so free vertices are always simplicial.
    """
    if v not in cx.ambient:
        raise UnknownVertex(f"vertex {v} is not in the ambient set")
    return _simplicial_bit(*_split(_masks_of(cx.facets, cx.ambient), 1 << cx.ambient.index(v)))


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

    Empty and single-facet families count as chordal base cases. The memo is
    keyed by the frozenset, which determines the canonical facet tuple and
    back. A parent skips a base-case child and looks every other child up in
    the memo before it recurses, so each recursion visits a new state and
    spends one budget step.
    """
    _check_complex(cx)
    spend = Budget(budget).spend
    memo: dict = {}

    def good(masks: frozenset) -> bool:
        # a new state of two or more facets: split up to the first simplicial
        # bit, and let the children resume the splits after it
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
            if len(kept) > 1:
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
            if len(contracted) > 1:
                child = frozenset(contracted)
                hit = memo.get(child)
                if not (good(child) if hit is None else hit):
                    ok = False
                    break
        memo[masks] = ok
        return ok

    root = frozenset(_masks_of(cx.facets, cx.support))
    try:
        return len(root) <= 1 or good(root)
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
    a prefix is the bitmask of the indices placed so far. Index i extends a
    prefix when ``singles``, the OR of the one-bit differences m_i & ~m_k
    over placed k, meets m_i & ~m_j for every placed j. Backtracking tries
    indices in input order and memoizes dead prefixes (whether an order can
    be completed depends only on the prefix as a set), so the witness is
    deterministic; each prefix the memo misses spends one budget step.
    """
    try:
        sets = list(sets)
        union = set().union(*sets)
    except TypeError:  # not an iterable of iterables of hashable vertices
        raise BadParameters(f"expected a family of vertex sets, got {sets!r}") from None
    masks = _masks_of(sets, tuple(union))
    r = len(masks)
    full = (1 << r) - 1
    spend = Budget(budget).spend
    dead: set = set()
    order: list = []

    def extend(used: int) -> bool:
        if used == full:
            return True
        if used in dead:
            return False
        spend()
        for i in range(r):
            if used >> i & 1:
                continue
            mi = masks[i]
            singles = 0
            for k in order:
                diff = mi & ~masks[k]
                if diff.bit_count() == 1:
                    singles |= diff
            # singles lies inside m_i, so singles & ~m_j is singles & m_i & ~m_j
            if not all(singles & ~masks[j] for j in order):
                continue
            order.append(i)
            if extend(used | 1 << i):
                return True
            order.pop()
        dead.add(used)
        return False

    try:
        found = extend(0)
    finally:
        del extend  # break the closure's cycle through its own cell
    return tuple(order) if found else None


def is_shellable(cx: SimplicialComplex, budget: int | None = None, *,
                 allow_nonpure: bool = False) -> Optional[tuple]:
    """Search for a shelling order of the facets; None when there is none.

    An order works when each facet F_i, measured against every earlier F_j,
    has a vertex v in F_i minus F_j such that F_i minus F_k = {v} for some
    earlier F_k. Non-pure input is rejected unless ``allow_nonpure`` is set
    (the same pairwise condition is the general one).
    """
    _check_complex(cx)
    if cx.is_empty:
        raise EmptyInput("empty complex has nothing to shell")
    if not allow_nonpure and not is_pure(cx):
        raise NotPure("shelling search is restricted to pure complexes by default")
    order = single_swap_order(cx.facets, budget)
    if order is None:
        return None
    return tuple(cx.facets[i] for i in order)


@dataclass(frozen=True)
class Clutter:
    """An antichain of circuits over an explicit ambient set."""

    ambient: tuple
    circuits: tuple


def clutter(circuits: Iterable[Iterable[int]], ambient: Iterable[int] | None = None) -> Clutter:
    """Build a clutter; the circuits must already form an antichain."""
    circ = tuple(sorted(as_face(c) for c in circuits))
    for a, b in combinations(circ, 2):
        if set(a) <= set(b) or set(b) <= set(a):
            raise BadParameters(f"circuits {a} and {b} violate the antichain condition")
    support = set()
    for c in circ:
        support.update(c)
    if ambient is None:
        amb = tuple(sorted(support))
    else:
        amb = as_face(ambient)
        if not support <= set(amb):
            raise OutOfAmbient("circuit vertices lie outside the ambient set")
    return Clutter(amb, circ)


def clutter_of_complex(cx: SimplicialComplex) -> Clutter:
    """The facets of a complex viewed as circuits."""
    return Clutter(cx.ambient, cx.facets)


def independence_complex(cl: Clutter) -> SimplicialComplex:
    """Complex of vertex sets containing no circuit."""
    amb = cl.ambient
    n = len(amb)
    _check_ambient_cap(n, "independence_complex")
    independent, _ = nonface_indicator(_masks_of(cl.circuits, amb), (1 << n) - 1)
    facets = []
    for m in range(1 << n):
        if not independent[m]:
            continue
        if all(not independent[m | (1 << i)] for i in range(n) if not m >> i & 1):
            facets.append(_face_of(m, amb))
    return SimplicialComplex(amb, tuple(sorted(facets)))


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


def nonface_indicator(gen_masks, w_mask: int):
    """Indicator of the restriction to W of the complex whose non-faces are
    the sets containing some generator mask, as ``(face, n)``.

    Faces are the subsets of ``w_mask`` containing no generator; generators
    not contained in ``w_mask`` cannot occur inside such a subset and are
    ignored. Masks are compressed onto the n bits of ``w_mask``.
    """
    if w_mask < 0:
        raise ValueError(f"window mask {w_mask} is negative")
    n = w_mask.bit_count()
    if n > MAX_BITS:
        raise ValueError(f"window of {n} bits outside 0..{MAX_BITS}")
    total = 1 << n
    face = bytearray(b"\x01") * total
    for cg in _compressed([gm for gm in gen_masks if not gm & ~w_mask], w_mask):
        sup = (total - 1) ^ cg
        sub = sup
        while True:
            face[cg | sub] = 0
            if sub == 0:
                break
            sub = (sub - 1) & sup
    return face, n


def _faces_by_cardinality(face: bytearray, n: int):
    """``(by_card, colidx, fvec)`` of a face indicator over 2**n bitmasks.

    ``by_card[p]`` lists the faces of cardinality p in increasing mask order,
    ``colidx[m]`` is the position of face m in its list, and ``fvec[p]``
    counts the faces of cardinality p, with a trailing zero at p = n + 1.
    """
    by_card = [[] for _ in range(n + 1)]
    for m in range(1 << n):
        if face[m]:
            by_card[m.bit_count()].append(m)
    colidx = {}
    for layer in by_card:
        for k, m in enumerate(layer):
            colidx[m] = k
    fvec = [len(layer) for layer in by_card] + [0]
    return by_card, colidx, fvec
