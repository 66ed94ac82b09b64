"""Monomial ideals, Betti tables, resolutions, quotients, CM, Froberg."""

from collections import Counter
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeline as rl
from ridgeline import algebra
from oracles import (
    all_labeled_graphs,
    antichains,
    assert_step_for_step,
    clear_window_memos,
    oracle_beta,
    oracle_beta2_closed_form,
    oracle_betti_lcm,
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
    with pytest.raises(rl.BadParameters, match="expected a family of vertex sets"):
        rl.monomial_ideal(5)


def test_ideal_routes_agree():
    cx = rl.from_facets([[1, 2], [2, 3]])
    assert rl.facet_ideal(cx).generators == ((1, 2), (2, 3))
    g = rl.Graph(3, [(1, 2), (2, 3)])
    assert rl.edge_ideal(g) == rl.facet_ideal(
        rl.from_facets(g.edges(), ambient=range(1, 4)))


def test_betti_degrees_must_be_integers():
    I = rl.monomial_ideal([[1, 2], [2, 3]])
    for i, j in ((1.5, 3), (True, 3), (1.0, 3), (1, 3.0)):
        with pytest.raises(rl.BadParameters, match="must be an integer"):
            rl.beta_in_degree(I, i, j)


def test_field_spellings():
    I = rl.monomial_ideal([[1, 2], [2, 3]])
    for field, choice in ((rl.FieldChoice.GF2, rl.FieldChoice.GF2), ("gf2", rl.FieldChoice.GF2),
                          (rl.FieldChoice.Rational, rl.FieldChoice.Rational),
                          ("rational", rl.FieldChoice.Rational), ("rat", rl.FieldChoice.Rational)):
        assert rl.betti_table(I, field).field is choice
    for field in ("f2", "2", "q", "qq", "0", "GF2", "Rational", 2, 0, None, 10 ** 5000):
        with pytest.raises(rl.BadParameters, match="field must be"):
            rl.betti_table(I, field)


def test_koszul_table():
    I = rl.monomial_ideal([[1], [2], [3]])
    table = rl.betti_table(I).as_dict()
    assert table == {(1, 1): 3, (2, 2): 3, (3, 3): 1}
    assert rl.beta_in_degree(I, 0, 0) == 1 and rl.beta_in_degree(I, 0, 1) == 0
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
    assert not rl.has_linear_resolution(two)
    # zero ideal
    zero = rl.monomial_ideal([], ambient=[1, 2, 3])
    assert rl.betti_table(zero).as_dict() == {}
    assert rl.beta_in_degree(zero, 1, 1) == 0 and rl.beta_in_degree(zero, 0, 0) == 1
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
                    assert table.get((i, j), 0) == oracle_beta(
                        gens, I.ambient, i, j, of), (gens, field, i, j)


def _table_with_unit(I, field) -> dict:
    """``betti_table(I, field)`` as a dict, with its implicit (0, 0) entry."""
    return {(0, 0): 1, **rl.betti_table(I, field).as_dict()}


def test_beta_in_degree_matches_betti_table():
    gens = [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]
    I = rl.monomial_ideal(gens)
    for field in ("gf2", "rational"):
        table = _table_with_unit(I, field)
        for i in range(0, 5):
            for j in range(0, 6):
                assert rl.beta_in_degree(I, i, j, field) == table.get((i, j), 0)


def _assert_every_entry_matches_oracle(I):
    """Every (i, j), through the table and through the single-degree scan,
    against the naive oracle in both fields."""
    gens, ambient = I.generators, I.ambient
    for field, of in (("gf2", "gf2"), ("rational", "rat")):
        table = _table_with_unit(I, field)
        for i in range(0, len(ambient) + 2):
            for j in range(0, len(ambient) + 2):
                expected = oracle_beta(gens, ambient, i, j, of)
                assert table.get((i, j), 0) == expected, (gens, ambient, field, i, j)
                assert rl.beta_in_degree(I, i, j, field) == expected, (gens, ambient, field, i, j)


def test_pruned_scan_mixed_degrees_and_free_variables():
    # windows that are not unions of the generators inside them are never
    # visited: mixed generator degrees and variables in no generator make
    # such windows
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


def _cover_rule_sizes(gens) -> Counter:
    """Sizes of the windows the scan once kept: every nonempty subset W of
    the generator support that the generators inside W cover."""
    support = sorted(set().union(*map(set, gens)))
    sizes = Counter()
    for k in range(1, len(support) + 1):
        for W in combinations(support, k):
            inside = [set(g) for g in gens if set(g) <= set(W)]
            if set().union(*inside) == set(W):
                sizes[k] += 1
    return sizes


def test_scan_visits_exactly_the_lcm_lattice(monkeypatch):
    scan, gf2 = algebra._hochster_scan, rl.FieldChoice.GF2
    # every memo key the scan builds, a window's or a core's, covers all the
    # bits of its window, so no link in _strong_core starts empty
    keys = []
    compressed = algebra._compressed

    def spy(masks, window):
        key = tuple(compressed(masks, window))
        keys.append((key, window.bit_count()))
        return key

    monkeypatch.setattr(algebra, "_compressed", spy)
    clear_window_memos()  # so the cores are built too
    for family in antichains(range(1, 6)):
        if () in family:  # the unit ideal
            continue
        I = rl.monomial_ideal(family)
        want = _cover_rule_sizes(family)
        assert Counter(j for j, _ in scan(I, gf2)) == want, family
        for j in range(0, 7):
            assert sum(1 for _ in scan(I, gf2, j)) == want[j], (family, j)
    assert keys
    for key, j in keys:
        assert reduce(or_, key, 0) == (1 << j) - 1, (key, j)


def test_tables_match_lcm_lattice_oracle_exhaustive_n4():
    for family in antichains(range(1, 5)):
        if family and () not in family:
            I = rl.monomial_ideal(family)
            for field, of in (("gf2", "gf2"), ("rational", "rat")):
                assert rl.betti_table(I, field).as_dict() == oracle_betti_lcm(family, of), (
                    family, field)


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


@given(_relabelled_ideals())
@settings(max_examples=60, deadline=None)
def test_property_tables_match_lcm_lattice_oracle(pair):
    I = pair[0]
    for field, of in (("gf2", "gf2"), ("rational", "rat")):
        assert rl.betti_table(I, field).as_dict() == oracle_betti_lcm(I.generators, of)


def _closed_form_agrees(cx):
    d = len(cx.facets[0])
    expected = oracle_beta2_closed_form(cx.facets, cx.ambient)
    I = rl.facet_ideal(cx)
    return all(rl.beta_in_degree(I, 2, d + 1, field) == expected
               for field in ("gf2", "rational"))


def test_beta2_closed_form_exhaustive():
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


def test_beta2_closed_form_past_sixteen_vertices():
    # the scan is bounded by what it builds, so supports of 20 and 24
    # vertices answer, and betti2 runs every draw as a trial
    for n, d, r in ((20, 4, 60), (24, 3, 60)):
        for seed in range(3):
            assert _closed_form_agrees(rl.random_pure_complex(n, d, r, seed)), (n, d, r, seed)
    rep = rl.verify("betti2", ("random", 20, 4, 60, 5), stable_time=True)
    assert (rep.trials, rep.skips) == (5, ())


def test_linear_resolution_examples():
    # complement of C4 is chordal (two disjoint edges), so its edge ideal
    # has a linear resolution; C5 is self-complementary and does not
    assert rl.has_linear_resolution(rl.edge_ideal(rl.cycle_graph(4)))
    assert not rl.has_linear_resolution(rl.edge_ideal(rl.cycle_graph(5)))


def _on_strand(I, field) -> bool:
    """The whole-table reading of a linear resolution, for one-degree ideals."""
    d = len(I.generators[0])
    return all(j - i == d - 1 for (i, j), _ in rl.betti_table(I, field).entries)


def test_early_exit_matches_whole_table_exhaustive(d3_corpus):
    # every edge ideal on five vertices and every facet ideal of (6, 3, <= 5)
    edge_ideals = [rl.edge_ideal(rl.Graph(5, cx.facets))
                   for cx in rl.enumerate_pure_complexes(5, 2, 10)]
    ideals = edge_ideals + [rl.facet_ideal(cx) for cx in d3_corpus]
    assert len(ideals) == 1023 + 21699
    for field in ("gf2", "rational"):
        answers = Counter()
        for I in ideals:
            linear = rl.has_linear_resolution(I, field)
            assert linear == _on_strand(I, field), (I, field)
            answers[linear] += 1
        assert answers[True] and answers[False]


def test_early_exit_sees_the_field_of_the_projective_plane():
    # the Stanley-Reisner ideal of RP^2_6 is generated in degree 3; its one
    # window of all six vertices carries beta_{3,6} = beta_{4,6} = 1 over
    # GF(2), off the strand, and nothing over the rationals
    from test_homology import RP2

    I = rl.stanley_reisner_ideal(rl.from_facets(RP2))
    for field, linear in (("gf2", False), ("rational", True)):
        clear_window_memos()
        assert rl.has_linear_resolution(I, field) is linear
        assert _on_strand(I, field) is linear


def test_early_exit_ranks_fewer_windows_than_the_table(monkeypatch):
    # the complement of C6 holds the induced square 1-4-2-5, so by Froberg
    # the edge ideal of C6 is not linear
    calls = []
    rank = algebra._rational_ranks

    def counted(*args):
        calls.append(args)
        return rank(*args)

    monkeypatch.setattr(algebra, "_rational_ranks", counted)
    I = rl.edge_ideal(rl.cycle_graph(6))
    clear_window_memos()
    assert rl.has_linear_resolution(I, "rational") is False
    early = len(calls)
    clear_window_memos()
    calls.clear()
    assert not _on_strand(I, "rational")
    assert 0 < early < len(calls)


def test_early_exit_checks_first_syzygies_on_a_full_scan(monkeypatch):
    # dropping one generator window leaves every window on the strand, so
    # the scan runs to the end and the generator count must catch it
    scan = algebra._hochster_scan

    def dropping(ideal, field, size=None):
        windows = scan(ideal, field, size)
        dropped = False
        for j, hom in windows:
            if j == 2 and not dropped:
                dropped = True
                continue
            yield j, hom

    I = rl.edge_ideal(rl.path_graph(4))
    assert rl.has_linear_resolution(I)
    monkeypatch.setattr(algebra, "_hochster_scan", dropping)
    for field in ("gf2", "rational"):
        with pytest.raises(rl.RidgelineError, match="first syzygies disagree"):
            rl.has_linear_resolution(I, field)


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
    with pytest.raises(rl.DegenerateComplement):
        rl.is_cohen_macaulay(rl.from_facets([[1, 2, 3]]))


def test_cohen_macaulay_matches_reisner_exhaustive():
    # every pure complex on <= 5 vertices with d in {2,3}, up to 4 facets
    for d in (2, 3):
        pool = list(combinations(range(1, 6), d))
        for r in range(1, 5):
            for family in combinations(pool, r):
                cx = rl.from_facets(family)
                try:
                    mine = rl.is_cohen_macaulay(cx)
                except rl.DegenerateComplement:
                    continue
                assert mine == oracle_is_cm_reisner(family), family


def test_cohen_macaulay_ideal_is_the_dual_stanley_reisner_ideal_exhaustive(monkeypatch):
    """The ideal is_cohen_macaulay tests, built from the facet complements,
    equals the Stanley-Reisner ideal of the Alexander dual on every family
    of at most four d-subsets of {1..n}, n <= 6, over its support and over
    {1..n}; the full simplex raises as that route does, and the empty
    complex raises EmptyInput on both."""
    seen = []
    monkeypatch.setattr(algebra, "has_linear_resolution", lambda ideal, field: seen.append(ideal))

    def old_route(cx):
        dual = rl.alexander_dual(cx)
        if dual.is_empty:
            raise rl.DegenerateComplement("a facet equals the ambient set; complement degenerate")
        return rl.stanley_reisner_ideal(dual)

    def outcome(route, cx):
        try:
            return route(cx)
        except rl.RidgelineError as exc:
            return type(exc), str(exc)

    checked = 0
    for n in range(1, 7):
        for d in range(1, n + 1):
            for base in rl.enumerate_pure_complexes(n, d, 4):
                for amb in (base.ambient, tuple(range(1, n + 1))):
                    cx = rl.SimplicialComplex(amb, base.facets)
                    if outcome(rl.is_cohen_macaulay, cx) is None:  # the ideal was tested
                        assert seen.pop() == old_route(cx), cx
                        checked += 1
                    else:
                        assert outcome(rl.is_cohen_macaulay, cx) == outcome(old_route, cx), cx
    assert checked > 20000 and not seen
    empty = rl.SimplicialComplex((1, 2), ())
    assert outcome(rl.is_cohen_macaulay, empty)[0] is outcome(old_route, empty)[0] is rl.EmptyInput


def test_froberg_check_examples():
    assert rl.froberg_check(rl.cycle_graph(4))["agree"]
    assert rl.froberg_check(rl.cycle_graph(5))["agree"]
    res = rl.froberg_check(rl.cycle_graph(5))
    assert not res["linear_resolution"] and not res["complement_chordal"]


def test_corollary_chain_counts_on_exhaustive_5_3_5():
    # the statement as the harness encodes it: every conjunct holds on 195 of
    # the 465 gated complexes, and the other 270 fail one conjunct only,
    # sr_linear_resolution. That conjunct cannot hold there, because a
    # linear resolution needs generators of one degree, and these
    # Stanley-Reisner ideals are generated in degrees 2 and 3 (240 of them)
    # or 2 and 4 (30)
    report = rl.verify("corollary-chain", ("exhaustive", 5, 3, 5))
    assert (report.instances, report.trials) == (637, 465)
    assert (report.confirmations, len(report.counterexamples)) == (195, 270)
    failed = Counter(tuple(k for k, v in c["diagnostic"].items() if v is False)
                     for c in report.counterexamples)
    assert failed == {("sr_linear_resolution",): 270}
    degrees = Counter(tuple(c["diagnostic"]["sr_generator_degrees"])
                      for c in report.counterexamples)
    assert degrees == {(2, 3): 240, (2, 4): 30}


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


def test_window_memo_holds_only_the_window_key(monkeypatch):
    # the edge ideal of C5 with the pendant edge 1-6: N(6) lies in N(2) and
    # in N(5), so the 6-vertex window collapses to the core {1, 3, 4, 6}
    # with edges {3, 4} and {1, 6}, a square, and beta_{4,6} = 1; the core
    # is ranked, and only the window's answer is stored
    from ridgeline import kernels

    I = rl.edge_ideal(rl.Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6)]))
    window_key, core_key = (3, 6, 12, 17, 24, 33), (6, 9)
    assert algebra._strong_core(window_key, 6) == (core_key, 4)
    calls = []

    def counted(rank):
        def wrapper(*args):
            calls.append(args)
            return rank(*args)
        return wrapper

    monkeypatch.setattr(kernels, "ranks_of_nonface_complex", counted(kernels.ranks_of_nonface_complex))
    monkeypatch.setattr(algebra, "_rational_ranks", counted(algebra._rational_ranks))
    for field in rl.FieldChoice:
        memo = algebra._window_memos[field]
        for _ in (1, 2):
            clear_window_memos()
            assert not memo
            assert rl.beta_in_degree(I, 4, 6, field) == 1
            assert set(memo) == {window_key}
            assert memo[window_key] == (0, 0, 1, 0, 0, 0, 0)
            assert len(calls) == 1
            assert rl.beta_in_degree(I, 4, 6, field) == 1 and len(calls) == 1
            calls.clear()


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
