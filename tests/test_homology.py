"""Homology ranks: the GF(2) kernel contract, both fields against the oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeline as rl
from ridgeline import kernels
from ridgeline.algebra import _rational_ranks
from ridgeline.complexes import facet_indicator, nonface_indicator
from oracles import (
    antichains,
    clear_window_memos,
    faces_of,
    oracle_beta,
    oracle_homology,
    oracle_independence_complex,
)

SPHERES = {
    1: [(1, 2), (1, 3), (2, 3)],
    2: [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)],
    3: [f for f in __import__("itertools").combinations(range(1, 6), 4)],
}


def test_simplex_boundary_spheres_both_fields():
    for k, facets in SPHERES.items():
        cx = rl.from_facets(facets)
        for field in ("gf2", "rational"):
            hom = rl.reduced_homology_ranks(cx, field)
            expected = [0] * (k + 2)
            expected[k + 1] = 1  # dimension k-1 carries rank 1
            assert hom == expected, (k, field)
            assert hom == oracle_homology(facets, "gf2" if field == "gf2" else "rat")


def test_full_simplex_contractible():
    cx = rl.from_facets([[1, 2, 3, 4]])
    assert rl.reduced_homology_ranks(cx) == [0, 0, 0, 0, 0]


def test_two_points():
    cx = rl.from_facets([[1], [2]])
    assert rl.reduced_homology_ranks(cx) == [0, 1]


# minimal 6-vertex triangulation of the real projective plane: torsion
# makes GF(2) and rational answers differ in dimension 1 and 2
RP2 = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
       (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def test_torus_like_projective_plane_field_dependence():
    cx = rl.from_facets(RP2)
    assert rl.reduced_homology_ranks(cx, "gf2") == [0, 0, 1, 1]
    assert rl.reduced_homology_ranks(cx, "rational") == [0, 0, 0, 0]
    assert oracle_homology(RP2, "gf2") == [0, 0, 1, 1]
    assert oracle_homology(RP2, "rat") == [0, 0, 0, 0]


def test_window_memo_keeps_the_fields_apart():
    # by Hochster, beta_{i,6} of the Stanley-Reisner ideal reads the
    # homology of the whole projective plane, so beta_{3,6} and beta_{4,6}
    # are 1 over GF(2) and 0 over the rationals; a memo shared by the two
    # fields would hand the second field the first one's answer
    I = rl.stanley_reisner_ideal(rl.from_facets(RP2))
    expected = {}
    for field, of in (("gf2", "gf2"), ("rational", "rat")):
        expected[field] = [oracle_beta(I.generators, I.ambient, i, 6, of) for i in range(1, 7)]
    assert expected == {"gf2": [0, 0, 1, 1, 0, 0], "rational": [0] * 6}
    for order in (("gf2", "rational"), ("rational", "gf2")):
        clear_window_memos()
        for field in order:
            table = rl.betti_table(I, field).as_dict()
            assert [table.get((i, 6), 0) for i in range(1, 7)] == expected[field], order
            assert [rl.beta_in_degree(I, i, 6, field)
                    for i in range(1, 7)] == expected[field], order


def _masks(facets, n):
    return [sum(1 << (v - 1) for v in f) for f in facets]


def test_kernel_contract_facet_complex():
    masks = _masks(SPHERES[2], 4)
    fvec, ranks = kernels.ranks_of_facet_complex(masks, 4)
    assert len(fvec) == 6 and len(ranks) == 6
    assert fvec[:5] == [1, 4, 6, 4, 0] and fvec[5] == 0
    assert ranks[1] == 1  # augmentation: any vertex maps onto the empty face
    assert ranks[2] == 3  # edge boundary: vertices minus components


@given(st.integers(3, 8), st.integers(1, 4), st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_property_homology_matches_oracle(n, d, r, seed):
    from math import comb

    d = min(d, n)
    r = min(r, comb(n, d))
    cx = rl.random_pure_complex(n, d, r, seed)
    assert rl.reduced_homology_ranks(cx, "gf2") == oracle_homology(cx.facets, "gf2")
    assert rl.reduced_homology_ranks(cx, "rational") == oracle_homology(cx.facets, "rat")


def test_support_cap_raises():
    with pytest.raises(rl.BudgetExceeded):
        rl.reduced_homology_ranks(rl.from_facets([list(range(1, 18))]))


def _homology(fvec, ranks):
    """Reduced homology ranks in dimensions -1..dim from a rank routine's
    output, in the oracle's shape ([] for the complex with no faces)."""
    sizes = [p for p, count in enumerate(fvec) if count]
    return [fvec[p] - ranks[p] - ranks[p + 1] for p in range(max(sizes, default=-1) + 1)]


def test_both_fields_match_oracle_exhaustive_n5():
    # every complex on five vertices, read once as a facet family and once
    # as the generators of the non-face route on the whole vertex set (whose
    # faces are its independence complex); ranks are invariant under
    # relabelling, so the oracle runs once per isomorphism class
    from itertools import permutations

    relabel = [[sum(1 << p[b] for b in range(5) if m >> b & 1) for m in range(32)]
               for p in permutations(range(5))]
    expected = {}
    for family in antichains(range(1, 6)):
        masks = _masks(family, 5)
        key = min(tuple(sorted(tab[m] for m in masks)) for tab in relabel)
        if key not in expected:
            expected[key] = (
                oracle_homology(family, "gf2"), oracle_homology(family, "rat"),
                oracle_homology(oracle_independence_complex(family, range(1, 6)), "gf2"),
                oracle_homology(oracle_independence_complex(family, range(1, 6)), "rat"))
        got = (
            _homology(*kernels.ranks_of_facet_complex(masks, 5)),
            _homology(*_rational_ranks(facet_indicator(masks, 5), 5)),
            _homology(*kernels.ranks_of_nonface_complex(masks, 31)),
            _homology(*_rational_ranks(*nonface_indicator(masks, 31))))
        assert got == expected[key], family
    assert len(expected) == 210  # antichains on five points up to relabelling


def _vertices(mask):
    return tuple(b + 1 for b in range(mask.bit_length()) if mask >> b & 1)


def _face_counts(facets, width):
    counts = [0] * (width + 2)
    for f in faces_of(facets):
        counts[len(f)] += 1
    return counts


def test_kernel_contract_extremes():
    # no vertex bits: the empty facet, or an empty window, leaves only the
    # empty face; no facet at all leaves no face
    assert kernels.ranks_of_facet_complex([0], 0) == ([1, 0], [0, 0])
    assert kernels.ranks_of_nonface_complex([], 0) == ([1, 0], [0, 0])
    assert kernels.ranks_of_facet_complex([], 0) == ([0, 0], [0, 0])
    # the widest facet route allocates 2**20 indicator bytes
    assert kernels.ranks_of_facet_complex([0b111 << 17], 20) == (
        [1, 3, 3, 1] + [0] * 18, [0, 1, 2, 1] + [0] * 18)


@pytest.mark.parametrize("entry, args", [
    ("ranks_of_facet_complex", ([1], 21)),
    ("ranks_of_nonface_complex", ([], (1 << 21) - 1)),
    ("ranks_of_facet_complex", ([1 << 5], 5)),
    ("ranks_of_facet_complex", ([-1], 5)),
    ("ranks_of_facet_complex", ([1], -1)),
    ("ranks_of_nonface_complex", ([], -3)),
])
def test_kernel_contract_rejects(entry, args):
    with pytest.raises(ValueError):
        getattr(kernels, entry)(*args)


@given(st.integers(0, 6), st.lists(st.integers(0, 63), max_size=5), st.integers(0, 63))
@settings(max_examples=120, deadline=None)
def test_property_kernel_contract_matches_oracle(n, masks, w_mask):
    facet_masks = [m & ((1 << n) - 1) for m in masks]
    facets = [_vertices(m) for m in facet_masks]
    fvec, ranks = kernels.ranks_of_facet_complex(facet_masks, n)
    assert fvec == _face_counts(facets, n) and len(ranks) == n + 2
    assert _homology(fvec, ranks) == oracle_homology(facets, "gf2")
    # the non-face route ignores generators that leave the window
    facets = oracle_independence_complex([_vertices(m) for m in masks], _vertices(w_mask))
    fvec, ranks = kernels.ranks_of_nonface_complex(masks, w_mask)
    assert fvec == _face_counts(facets, w_mask.bit_count()) and len(ranks) == len(fvec)
    assert _homology(fvec, ranks) == oracle_homology(facets, "gf2")
