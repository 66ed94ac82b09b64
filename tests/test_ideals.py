"""Monomial ideals, Betti tables, resolutions, quotients, CM, Froberg."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeline as rl
from ridgeline import algebra
from oracles import (
    all_labeled_graphs,
    assert_step_for_step,
    clear_window_memos,
    oracle_beta,
    oracle_beta2_closed_form,
    oracle_is_cm_reisner,
    oracle_linear_quotients,
    oracle_single_swap_order,
)


def test_monomial_ideal_construction():
    I = rl.monomial_ideal([[2, 1], [3]])
    assert I.generators == ((1, 2), (3,))
    assert I.ambient == (1, 2, 3)
    with pytest.raises(rl.BadParameters):
        rl.monomial_ideal([[1], [1, 2]])  # not an antichain
    with pytest.raises(rl.BadParameters):
        rl.monomial_ideal([[1, 2]], ambient=[1])
    with pytest.raises(rl.EmptyInput):
        rl.monomial_ideal([[]])


def test_ideal_routes_agree():
    cx = rl.from_facets([[1, 2], [2, 3]])
    assert rl.facet_ideal(cx).generators == ((1, 2), (2, 3))
    g = rl.Graph(3, [(1, 2), (2, 3)])
    assert rl.edge_ideal(g) == rl.facet_ideal(
        rl.from_facets(g.edges(), ambient=range(1, 4)))


def test_betti_degrees_must_be_integers():
    I = rl.monomial_ideal([[1, 2], [2, 3]])
    for query in (rl.beta, rl.beta_in_degree):
        for i, j in ((1.5, 3), (True, 3), (1.0, 3), (1, 3.0)):
            with pytest.raises(rl.BadParameters, match="must be an integer"):
                query(I, i, j)


def test_koszul_table():
    I = rl.monomial_ideal([[1], [2], [3]])
    table = rl.betti_table(I).as_dict()
    assert table == {(1, 1): 3, (2, 2): 3, (3, 3): 1}
    assert rl.beta(I, 0, 0) == 1 and rl.beta(I, 0, 1) == 0
    assert rl.regularity(I) == 0
    assert rl.has_linear_resolution(I)


def test_small_frozen_tables():
    # path: resolution 0 <- S/I <- S <- S(-2)^2 <- S(-3)
    path = rl.monomial_ideal([[1, 2], [2, 3]])
    assert rl.betti_table(path).as_dict() == {(1, 2): 2, (2, 3): 1}
    # triangle edge ideal
    tri = rl.monomial_ideal([[1, 2], [1, 3], [2, 3]])
    assert rl.betti_table(tri).as_dict() == {(1, 2): 3, (2, 3): 2}
    # two disjoint edges: Taylor complex is minimal, a (2,4) entry appears
    two = rl.monomial_ideal([[1, 2], [3, 4]])
    assert rl.betti_table(two).as_dict() == {(1, 2): 2, (2, 4): 1}
    assert rl.regularity(two) == 2
    assert not rl.has_linear_resolution(two)
    # zero ideal
    zero = rl.monomial_ideal([], ambient=[1, 2, 3])
    assert rl.betti_table(zero).as_dict() == {}
    assert rl.beta(zero, 1, 1) == 0 and rl.beta(zero, 0, 0) == 1
    assert rl.has_linear_resolution(zero)


def test_tables_match_oracle_both_fields():
    cases = [
        [[1, 2], [2, 3], [3, 4], [1, 4]],
        [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]],
        [[1, 2, 3], [2, 3, 4], [3, 4, 5]],
        [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]],
        [[1, 2], [3, 4], [5, 6]],
    ]
    for gens in cases:
        I = rl.monomial_ideal(gens)
        for field, of in (("gf2", "gf2"), ("rational", "rat")):
            table = rl.betti_table(I, field).as_dict()
            top = max(i for i, _ in table) if table else 0
            for i in range(1, top + 2):
                for j in range(0, len(I.ambient) + 1):
                    assert rl.beta(I, i, j, field) == oracle_beta(
                        gens, I.ambient, i, j, of), (gens, field, i, j)


def test_beta_in_degree_matches_beta():
    gens = [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]
    I = rl.monomial_ideal(gens)
    for field in ("gf2", "rational"):
        for i in range(0, 5):
            for j in range(0, 6):
                assert rl.beta_in_degree(I, i, j, field) == rl.beta(I, i, j, field)


def _assert_every_entry_matches_oracle(I):
    """Every (i, j), through the table and through the single-degree scan,
    against the naive oracle in both fields."""
    gens, ambient = I.generators, I.ambient
    for field, of in (("gf2", "gf2"), ("rational", "rat")):
        for i in range(0, len(ambient) + 2):
            for j in range(0, len(ambient) + 2):
                expected = oracle_beta(gens, ambient, i, j, of)
                assert rl.beta(I, i, j, field) == expected, (gens, ambient, field, i, j)
                assert rl.beta_in_degree(I, i, j, field) == expected, (gens, ambient, field, i, j)


def test_pruned_scan_mixed_degrees_and_free_variables():
    # windows that are not unions of the generators inside them are skipped:
    # mixed generator degrees and variables in no generator make such windows
    cases = [
        ([[1, 2]], [1, 2, 3]),
        ([[1, 2], [3]], [1, 2, 3, 4]),
        ([[1], [2, 3], [3, 4, 5]], None),
        ([[1, 2], [2, 3, 4], [4, 5]], [1, 2, 3, 4, 5, 6]),
        ([[1, 2, 3], [3, 4], [1, 4]], None),
    ]
    for gens, ambient in cases:
        _assert_every_entry_matches_oracle(rl.monomial_ideal(gens, ambient))


def test_pruned_scan_stanley_reisner_of_nonpure_complexes():
    import random

    rng = random.Random(11)
    for _ in range(6):
        n = rng.randint(3, 5)
        faces = [rng.sample(range(1, n + 1), rng.randint(1, n - 1))
                 for _ in range(rng.randint(1, 4))]
        cx = rl.from_facets(faces, ambient=range(1, n + 1))
        I = rl.stanley_reisner_ideal(cx)
        _assert_every_entry_matches_oracle(I)


@st.composite
def _relabelled_ideals(draw):
    """An antichain ideal on {1..n}, and the same ideal with its vertices
    permuted and its generators in another order."""
    n = draw(st.integers(1, 6))
    subsets = st.frozensets(st.integers(1, n), min_size=1, max_size=n)
    drawn = draw(st.lists(subsets, max_size=6, unique=True))
    gens = [g for g in drawn if not any(h < g for h in drawn)]
    perm = dict(zip(range(1, n + 1), draw(st.permutations(range(1, n + 1)))))
    moved = [tuple(sorted(perm[v] for v in g)) for g in draw(st.permutations(gens))]
    original = rl.monomial_ideal(gens, ambient=range(1, n + 1))
    return original, rl.MonomialIdeal(original.ambient, tuple(moved))


@given(_relabelled_ideals())
@settings(max_examples=60, deadline=None)
def test_property_table_invariant_under_relabelling(pair):
    original, moved = pair
    for field in ("gf2", "rational"):
        # cold before each call, so the second table is not read off the
        # first one's memo entries
        clear_window_memos()
        expected = rl.betti_table(original, field).entries
        clear_window_memos()
        assert rl.betti_table(moved, field).entries == expected


def _closed_form_agrees(cx):
    d = len(cx.facets[0])
    expected = oracle_beta2_closed_form(cx.facets, cx.ambient)
    I = rl.facet_ideal(cx)
    return all(rl.beta_in_degree(I, 2, d + 1, field) == expected
               for field in ("gf2", "rational"))


def test_beta2_closed_form_exhaustive():
    from itertools import combinations

    pool = list(combinations(range(1, 6), 3))
    for r in range(1, 5):
        for family in combinations(pool, r):
            cx = rl.from_facets(family)
            assert _closed_form_agrees(cx), family


@given(st.integers(2, 7), st.integers(1, 4), st.integers(1, 8), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_property_beta2_closed_form(n, d, r, seed):
    from math import comb

    d = min(d, n)
    r = min(r, comb(n, d))
    assert _closed_form_agrees(rl.random_pure_complex(n, d, r, seed))


def test_linear_resolution_examples():
    # complement of C4 is chordal (two disjoint edges), so its edge ideal
    # has a linear resolution; C5 is self-complementary and does not
    assert rl.has_linear_resolution(rl.edge_ideal(rl.cycle_graph(4)))
    assert not rl.has_linear_resolution(rl.edge_ideal(rl.cycle_graph(5)))


def test_linear_quotients_matches_oracle():
    cases = [
        [[1, 2], [2, 3]],
        [[1, 2], [3, 4]],
        [[1, 2], [1, 3], [2, 3]],
        [[1, 2], [2, 3], [3, 4], [1, 4]],
        [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]],
        [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]],
        [[3, 5], [4, 5], [1, 2, 3, 4]],
    ]
    for gens in cases:
        I = rl.monomial_ideal(gens)
        mine = rl.has_linear_quotients(I)
        other = oracle_linear_quotients(gens)
        assert (mine is None) == (other is None), gens
        if mine is not None:
            # the returned order itself must satisfy the colon condition
            chk = oracle_linear_quotients(mine)
            assert chk is not None
    assert rl.has_linear_quotients(rl.monomial_ideal([], ambient=[1])) == ()


def _oracle_quotients(ideal, budget):
    universe = set(ideal.ambient)
    comps = [universe - set(g) for g in ideal.generators]
    order, steps = oracle_single_swap_order(comps, budget)
    return (None if order is None else tuple(ideal.generators[i] for i in order)), steps


def test_linear_quotient_search_matches_set_oracle_step_for_step():
    # Stanley-Reisner ideals of the shelling test's complexes, under a budget
    # that the larger generator sets exhaust
    outcomes = set()
    for seed in range(120):
        I = rl.stanley_reisner_ideal(rl.random_pure_complex(7, 3, 2 + seed % 7, seed))
        steps = assert_step_for_step(lambda budget: rl.has_linear_quotients(I, budget),
                                     lambda budget: _oracle_quotients(I, budget), 1000)
        outcomes.add("exhausted" if steps is None else rl.has_linear_quotients(I) is None)
    assert outcomes == {"exhausted", True, False}


def test_quotients_imply_linear_resolution_when_equigenerated():
    from itertools import combinations

    pool = list(combinations(range(1, 6), 2))
    import random

    rng = random.Random(3)
    for _ in range(150):
        gens = rng.sample(pool, rng.randint(1, 6))
        I = rl.monomial_ideal(gens)
        if rl.has_linear_quotients(I) is not None:
            assert rl.has_linear_resolution(I), gens


def test_cohen_macaulay_examples():
    assert rl.is_cohen_macaulay(rl.from_facets([[1, 2], [1, 3], [2, 3]]))
    assert not rl.is_cohen_macaulay(rl.from_facets([[1, 2], [3, 4]]))
    with pytest.raises(rl.DegenerateDual):
        rl.is_cohen_macaulay(rl.from_facets([[1, 2, 3]]))


def test_cohen_macaulay_matches_reisner_exhaustive():
    from itertools import combinations

    # every pure complex on <= 5 vertices with d in {2,3}, up to 4 facets
    for d in (2, 3):
        pool = list(combinations(range(1, 6), d))
        for r in range(1, 5):
            for family in combinations(pool, r):
                cx = rl.from_facets(family)
                try:
                    mine = rl.is_cohen_macaulay(cx)
                except rl.DegenerateDual:
                    continue
                assert mine == oracle_is_cm_reisner(family), family


def test_froberg_check_examples():
    assert rl.froberg_check(rl.cycle_graph(4))["agree"]
    assert rl.froberg_check(rl.cycle_graph(5))["agree"]
    res = rl.froberg_check(rl.cycle_graph(5))
    assert not res["linear_resolution"] and not res["complement_chordal"]


def test_shellable_implies_quotients_report():
    # a shelling exists exactly when the dual's Stanley-Reisner ideal has
    # linear quotients (a shellable chain, and a non-shellable closed strip)
    for facets, shellable in (([(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (5, 6, 7)], True),
                              ([(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (1, 5, 6)], False)):
        cx = rl.from_facets(facets)
        I = rl.stanley_reisner_ideal(rl.alexander_dual(cx))
        assert (rl.is_shellable(cx) is not None) == shellable
        assert (rl.has_linear_quotients(I) is not None) == shellable
        if shellable:
            assert rl.has_linear_resolution(I)


@given(st.integers(3, 6), st.integers(1, 3), st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_property_first_syzygies_count_generators(n, d, r, seed):
    from math import comb

    d = min(d, n)
    r = min(r, comb(n, d))
    cx = rl.random_pure_complex(n, d, r, seed)
    I = rl.facet_ideal(cx)
    table = rl.betti_table(I).as_dict()
    assert sum(v for (i, _), v in table.items() if i == 1) == len(I.generators)


@given(st.integers(3, 6), st.integers(2, 3), st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_property_gf2_table_matches_rational_on_linear_strand(n, d, r, seed):
    # the second-syzygy degree the package predicts must be field-free
    from math import comb

    d = min(d, n)
    r = min(r, comb(n, d))
    cx = rl.random_pure_complex(n, d, r, seed)
    I = rl.facet_ideal(cx)
    assert rl.beta_in_degree(I, 2, d + 1, "gf2") == rl.beta_in_degree(I, 2, d + 1, "rational")


def _memo_corpus():
    """Every facet ideal of a family of d-subsets of {1..5}, any d, and every
    edge ideal of a labelled graph on at most 5 vertices."""
    from math import comb

    ideals = [rl.facet_ideal(cx) for d in range(1, 6)
              for cx in rl.enumerate_pure_complexes(5, d, comb(5, d))]
    ideals += [rl.edge_ideal(rl.Graph(n, es)) for n in range(1, 6)
               for _, es in all_labeled_graphs(n)]
    return ideals


def _betti_answers(I, field):
    """The whole table and every single-degree value of one ideal."""
    top = len(I.ambient)
    return (rl.betti_table(I, field).entries,
            tuple(rl.beta_in_degree(I, i, j, field)
                  for j in range(1, top + 1) for i in range(1, j + 1)))


def test_window_memo_matches_cold_route_exhaustive_n5():
    ideals = _memo_corpus()
    for field, of in (("gf2", "gf2"), ("rational", "rat")):
        clear_window_memos()
        warm = [_betti_answers(I, field) for I in ideals]  # one memo for the corpus
        for k, (I, answers) in enumerate(zip(ideals, warm)):
            clear_window_memos()
            assert _betti_answers(I, field) == answers, (I, field)
            if k % 97 == 0:
                table = dict(answers[0])
                for j in range(1, len(I.ambient) + 1):
                    for i in range(1, j + 1):
                        assert table.get((i, j), 0) == oracle_beta(
                            I.generators, I.ambient, i, j, of), (I, field, i, j)


class _SizeWatch(dict):
    """A memo that records the most entries it ever held."""

    def __init__(self):
        super().__init__()
        self.most = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.most = max(self.most, len(self))


def test_window_memo_cap_bounds_its_size(monkeypatch):
    ideals = _memo_corpus()[::7]
    clear_window_memos()
    expected = {field: [_betti_answers(I, field) for I in ideals]
                for field in ("gf2", "rational")}
    watched = {choice: _SizeWatch() for choice in rl.FieldChoice}
    monkeypatch.setattr(algebra, "_WINDOW_MEMO_CAP", 8)
    monkeypatch.setattr(algebra, "_window_memos", watched)
    for field, answers in expected.items():
        assert [_betti_answers(I, field) for I in ideals] == answers
    assert [memo.most for memo in watched.values()] == [8, 8]


def test_window_memo_key_of_a_16_vertex_window_is_small():
    import sys

    # the edge ideal of the 16-cycle: one window of all 16 vertices, whose
    # restriction is the independence complex of C16, a 4-sphere up to
    # homotopy (Kozlov), so beta_{11,16} = 1
    I = rl.edge_ideal(rl.cycle_graph(16))
    clear_window_memos()
    assert rl.beta_in_degree(I, 11, 16, "gf2") == 1
    (key,) = algebra._window_memos[rl.FieldChoice.GF2]
    assert len(key) == 16
    assert sys.getsizeof(key) + sum(map(sys.getsizeof, key)) < 1024
