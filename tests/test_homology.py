"""Homology ranks: the GF(2) kernel contract, both fields against the oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeline as rl
from ridgeline import algebra, kernels
from ridgeline.algebra import _rational_ranks
from ridgeline.complexes import facet_indicator, nonface_indicator
from oracles import (
    antichains,
    clear_window_memos,
    faces_of,
    oracle_beta,
    oracle_homology,
    oracle_independence_complex,
    oracle_nonface_indicator,
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


def test_support_cap_raises(monkeypatch):
    """A support past MAX_BITS vertices is refused as an exhausted budget
    before its 2**n face indicator is built."""
    from ridgeline import complexes

    with pytest.raises(rl.BudgetExceeded, match=r"more than 2\*\*20 faces"):
        rl.reduced_homology_ranks(rl.from_facets([list(range(1, 22))]))
    monkeypatch.setattr(complexes, "MAX_BITS", 6)
    for field in ("gf2", "rational"):
        assert rl.reduced_homology_ranks(rl.from_facets([range(1, 7)]), field) == [0] * 7
        with pytest.raises(rl.BudgetExceeded, match=r"more than 2\*\*6 faces"):
            rl.reduced_homology_ranks(rl.from_facets([range(1, 8)]), field)


def test_lattice_past_the_bound_is_refused_before_it_is_built(monkeypatch):
    """The lcm lattice of k disjoint edges has 2**k windows, and one more
    edge doubles it. Under a bound of 2**12 windows, 13 edges are refused
    with the usual message while the lattice is grown, not after a step
    has built all 2**13: the scan's peak allocation stays below twice that
    of one set of 2**12 windows (a scan that built the doubled set peaked
    at four times it)."""
    import tracemalloc

    from ridgeline import complexes

    monkeypatch.setattr(complexes, "MAX_BITS", 12)
    ideal = rl.facet_ideal(rl.from_facets([[2 * i + 1, 2 * i + 2] for i in range(13)]))
    tracemalloc.start()
    try:
        with pytest.raises(rl.BudgetExceeded, match=r"^more than 2\*\*12 windows in the lcm lattice$"):
            rl.betti_table(ideal)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        windows = set(range(1 << 25, (1 << 25) + (1 << 12)))
        one_set = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(windows) == 1 << 12
    assert peak < 2 * one_set, (peak, one_set)
    # the lattice of 12 edges, exactly 2**12 windows, is built; it is the
    # core of its 24-vertex window that is then refused
    twelve = rl.facet_ideal(rl.from_facets([[2 * i + 1, 2 * i + 2] for i in range(12)]))
    with pytest.raises(rl.BudgetExceeded, match=r"2\*\*12 faces in the indicator of a window's core"):
        rl.betti_table(twelve)


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
    # the rational routine keeps the same contract at the same extremes
    assert _rational_ranks(facet_indicator([0], 0), 0) == ([1, 0], [0, 0])
    assert _rational_ranks(*nonface_indicator([], 0)) == ([1, 0], [0, 0])
    assert _rational_ranks(facet_indicator([], 0), 0) == ([0, 0], [0, 0])
    assert _rational_ranks(facet_indicator([], 3), 3) == ([0] * 5, [0] * 5)
    assert _rational_ranks(facet_indicator([0b111 << 17], 20), 20) == (
        [1, 3, 3, 1] + [0] * 18, [0, 1, 2, 1] + [0] * 18)


def test_rational_ranks_match_oracle_past_the_property_range():
    """Seeded complexes on 9 to 11 vertices, past the n <= 8 of the property
    test, through both rational routes; the join of the projective plane
    with a circle keeps its 2-torsion on nine vertices, so the fields differ."""
    import random

    rng = random.Random(26)
    for k in range(6):
        n = rng.randint(9, 11)
        d, r = rng.randint(4, 6), rng.randint(6, 12)
        cx = rl.random_pure_complex(n, d, r, rng.randrange(10 ** 6))
        assert rl.reduced_homology_ranks(cx, "rational") == oracle_homology(cx.facets, "rat")
        if k < 2:  # an independence complex on ten vertices is already slow for the oracle
            masks = _masks(cx.facets, n)
            facets = oracle_independence_complex(cx.facets, range(1, n + 1))
            got = _homology(*_rational_ranks(*nonface_indicator(masks, (1 << n) - 1)))
            assert got == oracle_homology(facets, "rat")
    joined = rl.join(rl.from_facets(RP2), rl.from_facets([(7, 8), (7, 9), (8, 9)]))
    assert rl.reduced_homology_ranks(joined, "rational") == oracle_homology(joined.facets, "rat")
    assert rl.reduced_homology_ranks(joined, "rational") != rl.reduced_homology_ranks(joined)


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
    assert nonface_indicator(masks, w_mask) == oracle_nonface_indicator(masks, w_mask)
    facets = oracle_independence_complex([_vertices(m) for m in masks], _vertices(w_mask))
    fvec, ranks = kernels.ranks_of_nonface_complex(masks, w_mask)
    assert fvec == _face_counts(facets, w_mask.bit_count()) and len(ranks) == len(fvec)
    assert _homology(fvec, ranks) == oracle_homology(facets, "gf2")


def _direct_hom(key, j, field):
    """``hom`` of a j-vertex window from its own ranks, with no collapse."""
    if field == "gf2":
        fvec, ranks = kernels.ranks_of_nonface_complex(key, (1 << j) - 1)
    else:
        fvec, ranks = _rational_ranks(*nonface_indicator(key, (1 << j) - 1))
    return tuple(fvec[p] - ranks[p] - ranks[p + 1] for p in range(j + 1))


def _scanned_hom(key, j, field):
    """``hom`` of the one j-vertex window of the ideal with generators
    ``key``, from the scan: a memo miss goes through the window's core."""
    ideal = rl.monomial_ideal([_vertices(m) for m in key], range(1, j + 1))
    ((size, hom),) = algebra._hochster_scan(ideal, algebra._field(field), j)
    assert size == j
    return hom


def test_core_route_matches_direct_route_exhaustive_n5():
    # every antichain covering 1..j for j <= 5 is the key of a j-vertex
    # window; one memo serves the whole sweep, so cores are looked up as
    # windows of their own, some already ranked and some not
    keys = []
    for j in range(1, 6):
        for family in antichains(range(1, j + 1)):
            if set().union(*map(set, family)) == set(range(1, j + 1)):
                keys.append((tuple(sorted(_masks(family, j))), j))
    assert len(keys) == 7020
    assert sum(algebra._strong_core(key, j) is None for key, j in keys) == 672
    for field in ("gf2", "rational"):
        clear_window_memos()
        for key, j in keys:
            assert _scanned_hom(key, j, field) == _direct_hom(key, j, field), (key, field)


@st.composite
def _covering_keys(draw):
    """(key, j, perm): a window key on 6..8 vertices, its generators an
    antichain covering every vertex, and a permutation of the vertices."""
    j = draw(st.integers(6, 8))
    masks = draw(st.lists(st.integers(1, (1 << j) - 1), min_size=1, max_size=10))
    gens = {m for m in masks if not any(o != m and o & m == o for o in masks)}
    cover = 0
    for m in gens:
        cover |= m
    gens |= {1 << b for b in range(j) if not cover >> b & 1}
    return tuple(sorted(gens)), j, draw(st.permutations(range(j)))


@given(_covering_keys(), st.sampled_from(["gf2", "rational"]))
@settings(max_examples=120, deadline=None)
def test_property_core_route_matches_direct_route_and_relabelling(case, field):
    key, j, perm = case
    moved = tuple(sorted(sum(1 << perm[b] for b in range(j) if m >> b & 1) for m in key))
    clear_window_memos()
    hom = _scanned_hom(key, j, field)
    assert hom == _direct_hom(key, j, field)
    clear_window_memos()
    assert _scanned_hom(moved, j, field) == hom
    # a strong core is unique up to isomorphism (Barmak-Minian), so the
    # collapse leaves as many vertices whatever the labels
    core, moved_core = algebra._strong_core(key, j), algebra._strong_core(moved, j)
    assert (core is None) == (moved_core is None)
    assert core is None or core[1] == moved_core[1]
