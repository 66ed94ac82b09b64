"""Complex construction, duals, minors, chordality, shellability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeline as rl
from oracles import (
    OracleBudgetExceeded,
    antichains,
    assert_step_for_step,
    contraction,
    deletion,
    oracle_independence_complex,
    oracle_is_shellable,
    oracle_is_simplicial,
    oracle_minimal_nonfaces,
    oracle_minor_chase,
    oracle_single_swap_order,
)
from ridgeline.errors import Budget

CHAIN5 = [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (5, 6, 7)]
GAMMA = [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (1, 5, 6)]


def test_from_facets_basics():
    cx = rl.from_facets([[2, 1], [2, 3]])
    assert cx.facets == ((1, 2), (2, 3))
    assert cx.ambient == (1, 2, 3)
    assert rl.dimension(cx) == 1
    assert rl.is_pure(cx)
    assert rl.facet_size(cx) == 2


def test_from_facets_maximalizes():
    cx = rl.from_facets([[1, 2], [1], [1, 2, 3]])
    assert cx.facets == ((1, 2, 3),)
    # mixed sizes with duplicates: equal-size faces never absorb each other
    cx = rl.from_facets([[3, 4], [1, 2], [4, 3], [2, 1], [5], [1, 2, 5], [2, 5], [6], [6]])
    assert cx.facets == ((1, 2, 5), (3, 4), (6,))
    cx = rl.from_facets([[1, 2, 3], [3, 2, 1], [2, 3, 4], [1, 4], [4, 5], [1, 2, 3, 4]])
    assert cx.facets == ((1, 2, 3, 4), (4, 5))


def test_from_facets_errors():
    with pytest.raises(rl.EmptyInput):
        rl.from_facets([])
    with pytest.raises(rl.EmptyInput):
        rl.from_facets([[]])
    with pytest.raises(rl.OutOfAmbient):
        rl.from_facets([[1, 4]], ambient=[1, 2, 3])


def test_nonpure_and_dimension():
    cx = rl.from_facets([[1, 2, 3], [4, 5]])
    assert not rl.is_pure(cx)
    assert rl.dimension(cx) == 2
    with pytest.raises(rl.NotPure):
        rl.facet_size(cx)


def test_join_disjoint_ambients():
    a = rl.from_facets([[1], [2]])
    b = rl.from_facets([[3, 4]])
    j = rl.join(a, b)
    assert j.facets == ((1, 3, 4), (2, 3, 4))
    with pytest.raises(rl.OverlappingAmbients):
        rl.join(a, a)


def test_complement_complex():
    cx = rl.from_facets([[1, 2], [2, 3]], ambient=[1, 2, 3, 4])
    comp = rl.complement_complex(cx)
    assert comp.facets == ((1, 4), (3, 4))
    assert rl.complement_complex(comp) == cx
    with pytest.raises(rl.DegenerateComplement):
        rl.complement_complex(rl.from_facets([[1, 2, 3]]))


def test_minimal_nonfaces_against_oracle():
    for facets in (CHAIN5, GAMMA, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)],
                   [(1, 2), (3, 4)], [(1,)], [(1, 2, 3)]):
        cx = rl.from_facets(facets)
        assert sorted(rl.minimal_nonfaces(cx)) == oracle_minimal_nonfaces(facets, cx.ambient)


def test_subset_scans_match_oracles_exhaustive():
    # every antichain over every ambient of at most five vertices: facets
    # that miss ambient vertices, the empty complex and the empty facet too
    for n in range(6):
        amb = tuple(range(1, n + 1))
        for family in antichains(amb):
            cx = rl.SimplicialComplex(amb, family)
            assert sorted(rl.minimal_nonfaces(cx)) == oracle_minimal_nonfaces(family, amb), family
            ind = rl.independence_complex(rl.Clutter(amb, family))
            assert ind.ambient == amb
            assert list(ind.facets) == oracle_independence_complex(family, amb), family


def test_subset_scans_refuse_above_the_cap():
    big = tuple(range(1, 18))
    with pytest.raises(rl.BudgetExceeded):
        rl.minimal_nonfaces(rl.SimplicialComplex(big, ((1, 2),)))
    with pytest.raises(rl.BudgetExceeded):
        rl.independence_complex(rl.Clutter(big, ((1, 2),)))
    ideal = rl.monomial_ideal([(1, 2)], ambient=big)
    with pytest.raises(rl.BudgetExceeded):
        rl.betti_table(ideal)
    with pytest.raises(rl.BudgetExceeded):
        rl.beta_in_degree(ideal, 1, 2)
    # sixteen vertices are still scanned
    assert rl.minimal_nonfaces(rl.SimplicialComplex(big[:16], ((1, 2),)))[0] == (3,)
    assert rl.beta_in_degree(rl.monomial_ideal([(1, 2)], ambient=big[:16]), 1, 2) == 1


def test_alexander_dual_known():
    # dual of the boundary of the triangle is the complex whose single face
    # is empty; its SR ideal is generated by all three variables
    cx = rl.from_facets([[1, 2], [1, 3], [2, 3]])
    dual = rl.alexander_dual(cx)
    assert dual.facets == ((),)
    ideal = rl.stanley_reisner_ideal(dual)
    assert ideal.generators == ((1,), (2,), (3,))
    # full simplex dualizes to the void complex
    assert rl.alexander_dual(rl.from_facets([[1, 2, 3]])).is_empty


def test_alexander_dual_involution():
    for facets in (CHAIN5, GAMMA, [(1, 2), (2, 3), (3, 4)]):
        cx = rl.from_facets(facets)
        assert rl.alexander_dual(rl.alexander_dual(cx)) == cx


def test_dual_sr_ideal_is_complement_facet_ideal():
    for facets in (CHAIN5, GAMMA, [(1, 2), (2, 3)], [(1, 2, 3), (1, 2, 4)]):
        cx = rl.from_facets(facets)
        try:
            comp = rl.complement_complex(cx)
        except rl.DegenerateComplement:
            continue
        assert rl.stanley_reisner_ideal(rl.alexander_dual(cx)) == rl.facet_ideal(comp)


def test_deletion_contraction():
    cx = rl.from_facets(GAMMA)
    dele = deletion(cx, 1)
    assert (2, 3, 4) in dele.facets and all(1 not in f for f in dele.facets)
    cont = contraction(cx, 3)
    assert (1, 2) in cont.facets and all(3 not in f for f in cont.facets)
    with pytest.raises(rl.UnknownVertex):
        deletion(cx, 9)


def test_simplicial_and_free_vertices():
    cx = rl.from_facets(CHAIN5)
    # free vertices (in exactly one facet) are simplicial
    assert rl.is_simplicial_vertex(cx, 1) and rl.is_simplicial_vertex(cx, 7)
    assert not rl.is_simplicial_vertex(cx, 3)
    # the counterexample complex has no simplicial vertex at all
    gamma = rl.from_facets(GAMMA)
    assert not any(rl.is_simplicial_vertex(gamma, v) for v in gamma.support)


def test_chordal_complex_examples():
    assert rl.is_chordal_complex(rl.from_facets(CHAIN5))
    assert not rl.is_chordal_complex(rl.from_facets(GAMMA))
    assert rl.is_chordal_complex(rl.from_facets([[1, 2, 3]]))
    # every vertex of the simplex boundary is simplicial: the facet opposite
    # v sits inside the union-minus-v of any two facets through v
    assert rl.is_chordal_complex(
        rl.from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]))


def _chase_and_steps(cx, budget=None):
    """(verdict, Budget.spend calls), the verdict "exceeded" on BudgetExceeded."""
    steps = 0
    spend = Budget.spend

    def counting(self, amount=1):
        nonlocal steps
        steps += 1
        return spend(self, amount)

    Budget.spend = counting
    try:
        return rl.is_chordal_complex(cx, budget), steps
    except rl.BudgetExceeded:
        return "exceeded", steps
    finally:
        Budget.spend = spend


def _oracle_chase(facets, limit=None):
    try:
        return oracle_minor_chase(facets, limit)
    except OracleBudgetExceeded as exc:
        return "exceeded", exc.args[0]


def _assert_chase_matches_oracle(cx):
    verdict, steps = _oracle_chase(cx.facets)
    assert _chase_and_steps(cx) == (verdict, steps), cx
    for limit in {lim for lim in (1, steps // 2, steps - 1, steps) if lim >= 1}:
        assert _chase_and_steps(cx, limit) == _oracle_chase(cx.facets, limit), (limit, cx)
    for v in cx.ambient:
        assert rl.is_simplicial_vertex(cx, v) == oracle_is_simplicial(cx.facets, v), (v, cx)


def test_minor_chase_matches_oracle_exhaustive():
    for cx in rl.enumerate_pure_complexes(5, 3, 5):
        _assert_chase_matches_oracle(cx)


@pytest.mark.parametrize("n, d, r", [(6, 3, 5), (6, 3, 7), (7, 3, 6)])
def test_minor_chase_matches_oracle_on_searches_ladder(n, d, r):
    """Seeded random complexes of the benchmark's searches rows and their
    complement complexes, step for step at four budgets each."""
    verdicts = set()
    for seed in range(30):
        cx = rl.random_pure_complex(n, d, r, seed)
        for target in (cx, rl.complement_complex(cx)):
            _assert_chase_matches_oracle(target)
            verdicts.add(rl.is_chordal_complex(target))
    assert verdicts == {True, False}


@given(st.lists(st.sets(st.integers(1, 7), min_size=1, max_size=5), min_size=1, max_size=7),
       st.integers(0, 2))
@settings(max_examples=120, deadline=None)
def test_minor_chase_matches_oracle_nonpure(family, extra):
    support = set().union(*family)
    cx = rl.from_facets(family, ambient=support | set(range(8, 8 + extra)))
    _assert_chase_matches_oracle(cx)


def test_vertex_tests_reject_unknown_vertices():
    cx = rl.from_facets([[1, 2], [2, 3]], ambient=[1, 2, 3, 4])
    assert rl.is_simplicial_vertex(cx, 4)
    with pytest.raises(rl.UnknownVertex):
        rl.is_simplicial_vertex(cx, 5)


def test_shellable_matches_textbook_oracle_exhaustive():
    from itertools import combinations

    pool3 = list(combinations(range(1, 6), 3))
    for r in (1, 2, 3):
        for family in combinations(pool3, r):
            cx = rl.from_facets(family)
            mine = rl.is_shellable(cx)
            other = oracle_is_shellable(family)
            assert (mine is None) == (other is None), family
            if mine is not None:
                assert oracle_is_shellable(mine) is not None


def test_shellable_examples():
    assert rl.is_shellable(rl.from_facets(CHAIN5)) is not None
    assert rl.is_shellable(rl.from_facets(GAMMA)) is None
    # any set family of single vertices shells in any order
    assert rl.is_shellable(rl.from_facets([[1], [4], [2]])) is not None
    with pytest.raises(rl.NotPure):
        rl.is_shellable(rl.from_facets([[1, 2], [3, 4, 5]]))
    # disconnected with a positive-dimensional facet: no order attaches the
    # second piece along codimension one, pure or not
    assert rl.is_shellable(rl.from_facets([[1, 2], [3, 4, 5]]),
                           allow_nonpure=True) is None
    # nonpure but shellable: the edge hangs off the triangle along a vertex
    order = rl.is_shellable(rl.from_facets([[1, 2, 3], [3, 4]]), allow_nonpure=True)
    assert order is not None
    from oracles import _shelling_order_ok

    assert _shelling_order_ok(order)
    # only the dimension-descending order works for this one
    assert order[0] == (1, 2, 3)


def _oracle_shelling(cx, budget):
    order, steps = oracle_single_swap_order(cx.facets, budget)
    return (None if order is None else tuple(cx.facets[i] for i in order)), steps


def test_shelling_search_matches_set_oracle_step_for_step():
    verdicts = set()
    for seed in range(400):
        cx = rl.random_pure_complex(7, 3, 2 + seed % 7, seed)
        assert_step_for_step(lambda budget: rl.is_shellable(cx, budget),
                             lambda budget: _oracle_shelling(cx, budget))
        verdicts.add(rl.is_shellable(cx) is None)
    assert verdicts == {True, False}


def test_single_swap_order_validates():
    sets = [{1, 2}, {2, 3}, {3, 4}]
    order = rl.single_swap_order(sets)
    assert order is not None
    assert rl.single_swap_order([{1, 2}, {3, 4}]) is None


def test_independence_complex_and_clutter():
    cl = rl.clutter([[1, 2], [2, 3]])
    ind = rl.independence_complex(cl)
    assert ind.facets == ((1, 3), (2,))
    cx = rl.from_facets([[1, 2], [2, 3]])
    assert rl.clutter_of_complex(cx).circuits == cx.facets


@given(st.integers(4, 7), st.integers(2, 3), st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_property_complement_involution(n, d, r, seed):
    from math import comb

    r = min(r, comb(n, d))
    cx = rl.random_pure_complex(n, d, r, seed)
    try:
        comp = rl.complement_complex(cx)
    except rl.DegenerateComplement:
        return
    assert rl.complement_complex(comp) == cx


@given(st.integers(4, 6), st.integers(2, 3), st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_property_shelling_witness_is_textbook_shelling(n, d, r, seed):
    from math import comb

    r = min(r, comb(n, d))
    cx = rl.random_pure_complex(n, d, r, seed)
    order = rl.is_shellable(cx)
    if order is not None:
        from oracles import _shelling_order_ok

        assert _shelling_order_ok(order)
