"""GF(2) boundary-rank kernel.

Both entry points take bitmask input (ambient vertices mapped to bits
0..n-1) and return ``(fvec, ranks)`` where ``fvec[p]`` counts the faces of
cardinality p (the empty face included at p = 0) and ``ranks[p]`` is the
GF(2) rank of the boundary map from cardinality-p faces to cardinality-(p-1)
faces. The p = 1 map sends vertices to the empty face, so downstream
homology is automatically reduced. Both lists have length n + 2.

The face-indicator builders and the grouping of faces by cardinality live in
``complexes`` and are shared with the rational rank routine in ``algebra``,
so the two coefficient fields differ only in the elimination step.

This pure-Python module is the only GF(2) kernel. It keeps the name
``kernels`` and its two entry points because the benchmark's per-layer spans
(``perfbench/spans.py``) hook them by those names. ``ridgeline.COMPILED``
stays public as the constant False, because the benchmark records it in every
bench file and earlier bench files hold runs of a compiled kernel.
"""

from __future__ import annotations

from .complexes import _faces_by_cardinality, facet_indicator, nonface_indicator

COMPILED = False


def _ranks_from_faces(face: bytearray, n: int):
    by_card, colidx, fvec = _faces_by_cardinality(face, n)
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


def ranks_of_facet_complex(facet_masks, n: int):
    """f-vector and boundary ranks of the complex generated by facet masks."""
    return _ranks_from_faces(facet_indicator(facet_masks, n), n)


def ranks_of_nonface_complex(gen_masks, w_mask: int):
    """f-vector and boundary ranks of the restriction to W of the complex
    whose non-faces are the sets containing some generator mask."""
    return _ranks_from_faces(*nonface_indicator(gen_masks, w_mask))
