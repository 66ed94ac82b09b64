"""Pure-Python GF(2) boundary-rank kernel.

Reference implementation of the two entry points the compiled extension also
provides. Both take bitmask input (ambient vertices mapped to bits 0..n-1)
and return ``(fvec, ranks)`` where ``fvec[p]`` counts the faces of
cardinality p (the empty face included at p = 0) and ``ranks[p]`` is the
GF(2) rank of the boundary map from cardinality-p faces to cardinality-(p-1)
faces. The p = 1 map sends vertices to the empty face, so downstream
homology is automatically reduced. Both lists have length n + 2.

The face-indicator builders are shared with the rational rank routine in
``algebra``, so the two coefficient fields differ only in the rank step.
"""

from __future__ import annotations

MAX_BITS = 20  # 2**20 face indicators is the most this kernel will allocate


def _ranks_from_faces(face: bytearray, n: int):
    total = 1 << n
    by_card = [[] for _ in range(n + 1)]
    for m in range(total):
        if face[m]:
            by_card[m.bit_count()].append(m)
    fvec = [0] * (n + 2)
    colidx = {}
    for p in range(n + 1):
        fvec[p] = len(by_card[p])
        for k, m in enumerate(by_card[p]):
            colidx[m] = k
    ranks = [0] * (n + 2)
    for p in range(1, n + 1):
        if not by_card[p]:
            continue
        basis = {}
        rk = 0
        for m in by_card[p]:
            row = 0
            mm = m
            while mm:
                low = mm & -mm
                mm ^= low
                row |= 1 << colidx[m ^ low]
            while row:
                lead = row.bit_length() - 1
                b = basis.get(lead)
                if b is None:
                    basis[lead] = row
                    rk += 1
                    break
                row ^= b
        ranks[p] = rk
    return fvec, ranks


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


def nonface_indicator(gen_masks, w_mask: int):
    """Indicator of the restriction to W of the complex whose non-faces are
    the sets containing some generator mask, as ``(face, n)``.

    Faces are the subsets of ``w_mask`` containing no generator; generators
    not contained in ``w_mask`` cannot occur inside such a subset and are
    ignored. Masks are compressed onto the n bits of ``w_mask``.
    """
    n = w_mask.bit_count()
    if n > MAX_BITS:
        raise ValueError(f"window of {n} bits outside 0..{MAX_BITS}")
    amb2c = {}
    rest = w_mask
    c = 0
    while rest:
        low = rest & -rest
        rest ^= low
        amb2c[low] = c
        c += 1
    total = 1 << n
    face = bytearray(b"\x01") * total
    for gm in gen_masks:
        if gm & ~w_mask:
            continue
        cg = 0
        g = gm
        while g:
            low = g & -g
            g ^= low
            cg |= 1 << amb2c[low]
        sup = (total - 1) ^ cg
        sub = sup
        while True:
            face[cg | sub] = 0
            if sub == 0:
                break
            sub = (sub - 1) & sup
    return face, n


def ranks_of_facet_complex(facet_masks, n: int):
    """f-vector and boundary ranks of the complex generated by facet masks."""
    return _ranks_from_faces(facet_indicator(facet_masks, n), n)


def ranks_of_nonface_complex(gen_masks, w_mask: int):
    """f-vector and boundary ranks of the restriction to W of the complex
    whose non-faces are the sets containing some generator mask."""
    return _ranks_from_faces(*nonface_indicator(gen_masks, w_mask))
