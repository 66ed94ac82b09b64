"""Complex construction, duals, minors, chordality, shellability."""

import inspect
from math import comb

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
    oracle_nonface_indicator,
    oracle_single_swap_order,
)
from ridgeline.complexes import _masks_of, _maximal, _simplicial_bit, _split, nonface_indicator
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
    # a face list that is not iterable, as single_swap_order refuses one
    with pytest.raises(rl.BadParameters, match="expected a family of vertex sets"):
        rl.from_facets(5)
    # a bool or a float equal to a good vertex is refused in either order
    for face in ([1, True], [True, 1], [1, 1.0], [1.0, 1]):
        with pytest.raises(rl.BadParameters, match="not all positive integers"):
            rl.from_facets([face])
        with pytest.raises(rl.BadParameters):
            rl.from_facets([[1, 2]], ambient=face + [2])


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
            ind = rl.independence_complex(cx)
            assert ind.ambient == amb
            assert list(ind.facets) == oracle_independence_complex(family, amb), family
    # the non-face indicator against the oracle's marking loop, for every
    # antichain on four points (none, the empty set alone, ...) and every
    # window of at most four bits (the empty one and each generator's own)
    families = antichains(range(1, 5))
    assert {(), ((),), ((1, 2, 3, 4),)} <= set(families)
    for family in families:
        masks = _masks_of(family, (1, 2, 3, 4))
        for w_mask in range(16):
            assert nonface_indicator(masks, w_mask) == oracle_nonface_indicator(masks, w_mask)


def test_subset_scans_refuse_above_the_cap(monkeypatch):
    """MAX_BITS bounds what a routine builds, not the vertex count: the duals
    are minimal transversals, and the Betti scan builds the lcm lattice and
    one indicator per window core."""
    from ridgeline import complexes

    big = tuple(range(1, 18))
    edge = rl.SimplicialComplex(big, ((1, 2),))
    assert rl.minimal_nonfaces(edge) == tuple((v,) for v in big[2:])
    assert rl.independence_complex(edge).facets == ((1,) + big[2:], big[1:])
    # the 16-edge path on 17 vertices: 16 generators, 15 adjacent pairs and
    # 91 induced pairs of disjoint edges (105 disjoint pairs, less the 14
    # joined by an edge)
    path = rl.monomial_ideal([(i, i + 1) for i in range(1, 17)])
    table = rl.betti_table(path).as_dict()
    assert (table[(1, 2)], table[(2, 3)], table[(2, 4)]) == (16, 15, 91)
    assert rl.beta_in_degree(path, 1, 2) == 16
    ideal = rl.monomial_ideal([(1, 2), (2, 3)], ambient=big)
    assert rl.betti_table(ideal).as_dict() == {(1, 2): 2, (2, 3): 1}
    assert rl.beta_in_degree(ideal, 1, 2) == 2
    assert rl.has_linear_resolution(ideal)
    assert rl.analyze(rl.from_facets([(1, 2, 3), (2, 3, 4)], ambient=big))["beta2"]["oracle"] == 1
    # the bound lowered to 2**6 cells keeps the refusals cheap: n disjoint
    # edges span 2**n lattice windows, the empty one included, and a single
    # generator of n vertices is its own core of n vertices
    monkeypatch.setattr(complexes, "MAX_BITS", 6)
    disjoint = rl.monomial_ideal([(2 * i - 1, 2 * i) for i in range(1, 22)])
    with pytest.raises(rl.BudgetExceeded, match=r"more than 2\*\*6 windows"):
        rl.betti_table(disjoint)
    six = rl.monomial_ideal(disjoint.generators[:6])
    assert rl.betti_table(six).as_dict() == {(i, 2 * i): comb(6, i) for i in range(1, 7)}
    with pytest.raises(rl.BudgetExceeded, match=r"more than 2\*\*6 faces"):
        rl.betti_table(rl.monomial_ideal([range(1, 8)]))
    assert rl.betti_table(rl.monomial_ideal([range(1, 7)])).as_dict() == {(1, 6): 1}


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


def _is_simplicial(cx, v):
    """The chase's simplicial test at ambient vertex v of cx."""
    return _simplicial_bit(*_split(_masks_of(cx.facets, cx.ambient), 1 << cx.ambient.index(v)))


def test_simplicial_and_free_vertices():
    cx = rl.from_facets(CHAIN5)
    # free vertices (in exactly one facet) are simplicial
    assert _is_simplicial(cx, 1) and _is_simplicial(cx, 7)
    assert not _is_simplicial(cx, 3)
    # the counterexample complex has no simplicial vertex at all
    gamma = rl.from_facets(GAMMA)
    assert not any(_is_simplicial(gamma, v) for v in gamma.support)
    # an ambient vertex in no facet qualifies vacuously
    assert _is_simplicial(rl.from_facets([[1, 2], [2, 3]], ambient=[1, 2, 3, 4]), 4)


def test_chordal_complex_examples():
    assert rl.is_chordal_complex(rl.from_facets(CHAIN5))
    assert not rl.is_chordal_complex(rl.from_facets(GAMMA))
    assert rl.is_chordal_complex(rl.from_facets([[1, 2, 3]]))
    # every vertex of the simplex boundary is simplicial: the facet opposite
    # v sits inside the union-minus-v of any two facets through v
    assert rl.is_chordal_complex(
        rl.from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]))


def _with_steps(search):
    """(search(), Budget.spend calls), the result "exceeded" on BudgetExceeded."""
    steps = 0
    spend = Budget.spend

    def counting(self):
        nonlocal steps
        steps += 1
        return spend(self)

    Budget.spend = counting
    try:
        return search(), steps
    except rl.BudgetExceeded:
        return "exceeded", steps
    finally:
        Budget.spend = spend


def _chase_and_steps(cx, budget=None):
    return _with_steps(lambda: rl.is_chordal_complex(cx, budget))


def _oracle_chase(facets, limit=None):
    try:
        return oracle_minor_chase(facets, limit)
    except OracleBudgetExceeded as exc:
        return "exceeded", exc.args[0]


def test_families_of_two_or_three_facets_are_chordal_without_a_step():
    """The lemma of is_chordal_complex on every antichain of two or three
    nonempty subsets of five points, mixed sizes included: the oracle, which
    recurses through every minor, finds each one chordal, and the chase
    answers each without spending a step."""
    families = [f for f in antichains(range(1, 6)) if 2 <= len(f) <= 3]
    assert len(families) == 1375
    for family in families:
        assert oracle_minor_chase(family)[0] is True, family
        assert _chase_and_steps(rl.from_facets(family)) == (True, 0), family


def test_four_cycle_bounds_the_small_families():
    # four facets can fail: no vertex of the 4-cycle is simplicial
    cycle = [(1, 2), (2, 3), (3, 4), (1, 4)]
    assert _chase_and_steps(rl.from_facets(cycle)) == (False, 1)
    assert _oracle_chase(cycle) == (False, 1)


def _assert_chase_matches_oracle(cx):
    verdict, steps = _oracle_chase(cx.facets)
    assert _chase_and_steps(cx) == (verdict, steps), cx
    for limit in {lim for lim in (1, steps // 2, steps - 1, steps) if lim >= 1}:
        assert _chase_and_steps(cx, limit) == _oracle_chase(cx.facets, limit), (limit, cx)
    for v in cx.ambient:
        assert _is_simplicial(cx, v) == oracle_is_simplicial(cx.facets, v), (v, cx)


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
    # disconnected with a positive-dimensional facet: no order attaches the
    # second piece along codimension one, pure or not
    assert rl.is_shellable(rl.from_facets([[1, 2], [3, 4, 5]])) is None
    # nonpure but shellable: the edge hangs off the triangle along a vertex
    order = rl.is_shellable(rl.from_facets([[1, 2, 3], [3, 4]]))
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


# families of up to seven sets of mixed sizes, the empty set included, on at
# most seven vertices: comparable and repeated sets too, which no complex has
_SET_FAMILIES = st.lists(st.sets(st.integers(1, 7), max_size=7), max_size=7)


@given(_SET_FAMILIES, st.none() | st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_single_swap_order_matches_set_oracle_step_for_step_nonpure(family, budget):
    assert_step_for_step(lambda b: rl.single_swap_order(family, b),
                         lambda b: oracle_single_swap_order(family, b), budget)


def _is_single_swap_order(sets, order):
    """The defining condition, read off the sets: for every j < i some v in
    S_i minus S_j has S_i minus S_k = {v} for an earlier S_k."""
    seq = [set(sets[i]) for i in order]
    return sorted(order) == list(range(len(sets))) and all(
        any(any(seq[i] - seq[k] == {v} for k in range(i)) for v in seq[i] - seq[j])
        for i in range(len(seq)) for j in range(i))


@given(_SET_FAMILIES, st.permutations(range(1, 8)), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_property_single_swap_order_invariant_under_relabelling(family, perm, rnd):
    """Renaming the vertices keeps the index order and the step count; listing
    the sets in another order keeps the verdict, with a witness that holds."""
    order, steps = _with_steps(lambda: rl.single_swap_order(family))
    renamed = [{perm[v - 1] for v in s} for s in family]
    assert _with_steps(lambda: rl.single_swap_order(renamed)) == (order, steps)
    shuffled = rnd.sample(family, len(family))
    other = rl.single_swap_order(shuffled)
    assert (other is None) == (order is None)
    assert order is None or _is_single_swap_order(family, order)
    assert other is None or _is_single_swap_order(shuffled, other)


# a valid value for each required parameter after the first
_LATER_ARGS = {"interp": "all", "v": 1, "i": 2, "j": 3, "b": rl.from_facets([[9]]),
               "leaves": 2, "max_per_vertex": 2, "d": 2, "max_vertices": 4}
# the type each walked first parameter must hold
_FIRST_PARAMS = {"cx": "SimplicialComplex", "a": "SimplicialComplex",
                 "ideal": "MonomialIdeal", "g": "Graph"}


def test_every_public_complex_function_refuses_a_non_complex():
    """Each public function whose first parameter is a complex (``cx``, or
    ``a`` of ``join``), an ideal or a graph raises the typed
    BadParameters for a string, never an AttributeError from inside."""
    walked = []
    for name in sorted(dir(rl)):
        func = getattr(rl, name)
        if name.startswith("_") or not inspect.isfunction(func):
            continue
        params = inspect.signature(func).parameters
        expected = _FIRST_PARAMS.get(next(iter(params), None))
        if expected is None:
            continue
        later = [_LATER_ARGS[p] for p, spec in list(params.items())[1:]
                 if spec.default is inspect.Parameter.empty]
        with pytest.raises(rl.BadParameters, match=f"expected a {expected}, got str"):
            func("x", *later)
        walked.append(name)
    with pytest.raises(rl.BadParameters, match="expected a SimplicialComplex, got str"):
        rl.join(rl.from_facets([[1]]), "y")
    assert {
        "analyze", "complex_document", "serialize_complex",
        "line_graph", "ridge_counts", "edge_count_formula", "classify_triangles",
        "predicted_beta2", "characterize_complete", "count_Nt",
        "facet_size", "is_pure", "dimension",
        "complement_complex", "alexander_dual", "minimal_nonfaces",
        "facet_ideal", "stanley_reisner_ideal", "reduced_homology_ranks",
        "is_cohen_macaulay", "is_chordal_complex", "is_shellable",
        "join", "independence_complex",
        "betti_table", "beta_in_degree",
        "has_linear_quotients", "has_linear_resolution",
        "complement", "diameter", "is_connected", "line_graph_of_graph", "triangles",
        "is_chordal_graph", "has_induced_star", "clique_edge_partition", "edge_ideal",
        "froberg_check", "realizability_search",
    } <= set(walked)


def test_single_swap_order_validates():
    sets = [{1, 2}, {2, 3}, {3, 4}]
    order = rl.single_swap_order(sets)
    assert order is not None
    assert rl.single_swap_order([{1, 2}, {3, 4}]) is None


def test_independence_complex_and_clutter():
    # the facets {1,2} and {2,3}, read as circuits, are the minimal
    # non-faces of the independence complex
    cx = rl.from_facets([[1, 2], [2, 3]])
    ind = rl.independence_complex(cx)
    assert ind.ambient == cx.ambient and ind.facets == ((1, 3), (2,))
    assert rl.minimal_nonfaces(ind) == cx.facets
    # past the 2**n walk the duals replaced: 8 triangles on 20 vertices
    cx = rl.random_pure_complex(20, 3, 8, 0)
    assert rl.minimal_nonfaces(rl.independence_complex(cx)) == cx.facets


@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 2), st.lists(st.frozensets(st.integers(1, n)), max_size=8))))
@settings(max_examples=80, deadline=None)
def test_property_minimal_nonfaces_match_oracle(case):
    # non-pure families on at most ten vertices, with up to two ambient
    # vertices in no facet
    n, extra, faces = case
    amb = tuple(range(1, n + extra + 1))
    cx = rl.SimplicialComplex(amb, _maximal(tuple(sorted(f)) for f in faces))
    expected = oracle_minimal_nonfaces(cx.facets, amb)
    assert rl.minimal_nonfaces(cx) == tuple(sorted(expected, key=lambda f: (len(f), f)))


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
