"""Graph layer: connectivity, chordality, stars, clique partitions."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeline as rl
from oracles import (
    all_labeled_graphs,
    oracle_chordal_graph,
    oracle_check_clique_partition,
    oracle_clique_edge_partition,
    oracle_cycle_lengths,
    oracle_has_induced_star,
    oracle_induced_cycle_lengths,
    oracle_triangles,
)
from ridgeline import harness
from ridgeline.harness import _check_clique_partition, _iter_corpus, _ridge_graph


def test_graph_basics():
    g = rl.Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert g.edges() == ((1, 2), (2, 3), (3, 4))
    assert g.edge_count() == 3
    assert g.degree(2) == 2 and g.degree(1) == 1
    assert g.adj == (0b10, 0b101, 0b1010, 0b100)


def test_connectivity_and_distance():
    p4 = rl.path_graph(4)
    assert rl.is_connected(p4)
    assert rl.diameter(p4) == 3
    two = rl.Graph(4, [(1, 2), (3, 4)])
    assert not rl.is_connected(two)
    assert rl.diameter(two) == math.inf
    assert rl.diameter(rl.Graph(1, [])) == 0


def test_complement():
    g = rl.Graph(4, [(1, 2), (3, 4)])
    assert set(rl.complement(g).edges()) == {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_chordal_graph_examples():
    assert rl.is_chordal_graph(rl.cycle_graph(4)) is None
    assert rl.is_chordal_graph(rl.cycle_graph(5)) is None
    assert rl.is_chordal_graph(rl.complete_graph(5)) is not None
    assert rl.is_chordal_graph(rl.path_graph(6)) is not None
    # a chordal graph's returned order really is a perfect elimination order
    g = rl.Graph(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
    peo = rl.is_chordal_graph(g)
    assert peo is not None
    remaining = set(range(1, 6))
    for v in peo:
        nb = {w for w in remaining if g.adj[v - 1] >> (w - 1) & 1}
        for a in nb:
            for b in nb:
                assert a == b or g.adj[a - 1] >> (b - 1) & 1
        remaining.discard(v)


def test_chordal_graph_matches_bruteforce_small():
    for n in range(1, 6):
        for n_, edges in all_labeled_graphs(n):
            g = rl.Graph(n_, edges)
            assert (rl.is_chordal_graph(g) is not None) == oracle_chordal_graph(n_, edges)


def test_chordal_graph_matches_bruteforce_sampled():
    # exhaustive beyond five vertices is slow for the brute-force side, so
    # sample deterministically
    import random

    rng = random.Random(20240817)
    from itertools import combinations

    for n in (6, 7):
        pool = list(combinations(range(1, n + 1), 2))
        for _ in range(400):
            k = rng.randint(0, len(pool))
            edges = tuple(rng.sample(pool, k))
            g = rl.Graph(n, edges)
            assert (rl.is_chordal_graph(g) is not None) == oracle_chordal_graph(n, edges)


def test_triangles():
    g = rl.Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (3, 5)])
    assert rl.triangles(g) == ((1, 2, 3), (3, 4, 5))
    assert rl.triangles(g) == tuple(oracle_triangles(5, g.edges()))


def test_has_induced_star():
    # claw
    g = rl.Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert rl.has_induced_star(g, 3)
    assert not rl.has_induced_star(g, 4)
    # triangle has no induced star with two leaves (leaves must be nonadjacent)
    assert not rl.has_induced_star(rl.complete_graph(3), 2)
    assert rl.has_induced_star(rl.path_graph(3), 2)


def _with_steps(search, *args):
    """A search's result and its number of Budget.spend calls."""
    calls = 0
    spend = rl.Budget.spend

    def counting(self):
        nonlocal calls
        calls += 1
        spend(self)

    rl.Budget.spend = counting
    try:
        return search(*args), calls
    finally:
        rl.Budget.spend = spend


def test_induced_star_matches_oracle_exhaustive():
    for n in range(7):
        for n_, edges in all_labeled_graphs(n):
            g = rl.Graph(n_, edges)
            for leaves in range(5):
                assert rl.has_induced_star(g, leaves) == oracle_has_induced_star(g, leaves)[0], \
                    (g, leaves)


def test_induced_star_matches_oracle_on_line_graphs():
    # d + 1 leaves is the star-free statement (always False); d leaves has
    # both verdicts. The clique-cover bound prunes only nodes the popcount
    # search also explores, so it never takes more steps.
    pruned = 0
    for corpus, seed in ((("random", 10, 3, 60, 20), 4), (("random", 9, 3, 40, 12), 5),
                         (("random", 12, 4, 30, 10), 9)):
        for _, cx in _iter_corpus(corpus, seed):
            g = _ridge_graph(cx)
            d = rl.facet_size(cx)
            for leaves in (d, d + 1):
                verdict, steps = _with_steps(rl.has_induced_star, g, leaves)
                want, oracle_steps = oracle_has_induced_star(g, leaves)
                assert verdict == want and steps <= oracle_steps, (cx, leaves)
                pruned += oracle_steps - steps
    assert pruned > 0


def test_induced_star_budget():
    # K_{1,4} with four leaves: every node on the path to the star needs as
    # many cover cliques as it wants leaves, so each spends a step, and each
    # skip branch is pruned by the cover
    claw4 = rl.Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert _with_steps(rl.has_induced_star, claw4, 4) == (True, 4)
    assert oracle_has_induced_star(claw4, 4) == (True, 4)
    with pytest.raises(rl.BudgetExceeded):
        rl.has_induced_star(claw4, 4, 3)
    # in K_5 every neighbourhood is one clique, so the cover settles each
    # root and the search spends nothing
    assert _with_steps(rl.has_induced_star, rl.complete_graph(5), 2) == (False, 0)
    assert oracle_has_induced_star(rl.complete_graph(5), 2) == (False, 15)


def test_clique_edge_partition():
    # triangle: one clique, every vertex used once
    part = rl.clique_edge_partition(rl.complete_graph(3), 2)
    assert part is not None and sorted(map(sorted, part)) == [[1, 2, 3]]
    # C4 needs its four edges as separate cliques, two per vertex
    part = rl.clique_edge_partition(rl.cycle_graph(4), 2)
    assert part is not None and len(part) == 4
    # with cap 1 the C4 partition is impossible
    assert rl.clique_edge_partition(rl.cycle_graph(4), 1) is None
    # K4 as one clique under cap 1
    part = rl.clique_edge_partition(rl.complete_graph(4), 1)
    assert part is not None and len(part) == 1
    # claw under cap 3
    part = rl.clique_edge_partition(rl.Graph(4, [(1, 2), (1, 3), (1, 4)]), 3)
    assert part is not None and len(part) == 3


def test_graph_refuses_bad_input_typed():
    for order in (2.5, 2.0, True, "3", None, -1):
        with pytest.raises(rl.BadParameters):
            rl.Graph(order)
    for edge in ((1, 2.0), (1.0, 2), (True, 2), ("1", 2), (1, None)):
        with pytest.raises(rl.BadParameters, match="vertex must be an integer"):
            rl.Graph(3, [edge])
    for edge in ((1, 2, 3), (1,), 5, None, ()):
        with pytest.raises(rl.BadParameters, match="an edge is a pair of vertices"):
            rl.Graph(3, [edge])
    for v in ("x", 1.0, True):
        with pytest.raises(rl.BadParameters, match="vertex must be an integer"):
            rl.Graph(3).degree(v)
    with pytest.raises(rl.UnknownVertex):
        rl.Graph(3, [(1, 4)])
    with pytest.raises(rl.BadParameters, match="loop"):
        rl.Graph(3, [(2, 2)])
    assert rl.Graph(3, [[1, 2], (3, 2)]).edges() == ((1, 2), (2, 3))
    for make, n in ((rl.cycle_graph, 3.5), (rl.complete_graph, 2.5), (rl.path_graph, 2.5)):
        with pytest.raises(rl.BadParameters, match="must be an integer"):
            make(n)


@pytest.mark.parametrize("call, args", [
    (rl.realizability_search, ("x", 2, 4)),
    (rl.edge_ideal, ("x",)),
    (rl.froberg_check, ("x",)),
    (rl.is_chordal_graph, ("x",)),
    (rl.has_induced_star, ("x", 2)),
    (rl.clique_edge_partition, ("x", 2)),
    (rl.single_swap_order, (None,)),
    (rl.single_swap_order, ([1, 2],)),
    (rl.is_chordal_complex, ("x",)),
    (rl.is_shellable, ("x",)),
], ids=lambda v: getattr(v, "__name__", None))
def test_wrong_type_arguments_raise_bad_parameters(call, args):
    with pytest.raises(rl.BadParameters, match="expected a"):
        call(*args)


def test_counts_must_be_integers():
    for bad in (1.5, 2.0, True, False, "2", None):
        with pytest.raises(rl.BadParameters):
            rl.clique_edge_partition(rl.complete_graph(3), bad)
        with pytest.raises(rl.BadParameters):
            rl.has_induced_star(rl.complete_graph(3), bad)
    with pytest.raises(rl.BadParameters, match="nonnegative"):
        rl.clique_edge_partition(rl.complete_graph(3), -1)
    with pytest.raises(rl.BadParameters, match="nonnegative"):
        rl.has_induced_star(rl.complete_graph(3), -1)


def _assert_partition_matches_oracle(g, cap):
    """Same partition as the edge-indexed search in no more steps; under
    budgets below its own step count both searches run out, and at that
    count it finds the same partition. Returns the steps saved."""
    want, oracle_steps = oracle_clique_edge_partition(g, cap)
    part, steps = _with_steps(rl.clique_edge_partition, g, cap)
    assert part == want and steps <= oracle_steps, (g, cap)
    for limit in {1, steps // 2, steps - 1, steps}:
        if limit < 1:
            continue  # budgets are positive
        if limit < steps:
            with pytest.raises(rl.BudgetExceeded):
                oracle_clique_edge_partition(g, cap, limit)
            with pytest.raises(rl.BudgetExceeded):
                rl.clique_edge_partition(g, cap, limit)
        else:
            assert rl.clique_edge_partition(g, cap, limit) == part
    return oracle_steps - steps


def test_clique_partition_bound_prunes():
    # three triangles through vertex 1 under cap 2: after 123 or 12 is
    # covered, a greedy independent set of 1's residual neighbours ({4, 6}
    # or {3, 4, 6}) outnumbers the one clique 1 has left, so both branches
    # are cut before their step
    bowtie3 = rl.Graph(7, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5),
                           (1, 6), (1, 7), (6, 7)])
    part, steps = _with_steps(rl.clique_edge_partition, bowtie3, 2)
    assert part is None and steps == 1
    assert oracle_clique_edge_partition(bowtie3, 2)[1] > 1


def test_clique_partition_matches_oracle_exhaustive():
    for n in range(1, 6):
        for n_, edges in all_labeled_graphs(n):
            g = rl.Graph(n_, edges)
            for cap in range(4):
                _assert_partition_matches_oracle(g, cap)


def test_clique_partition_matches_oracle_on_ridge_graphs():
    pruned = 0
    for corpus, seed in ((("random", 10, 3, 60, 20), 4), (("random", 12, 3, 30, 20), 9)):
        for _, cx in _iter_corpus(corpus, seed):
            pruned += _assert_partition_matches_oracle(_ridge_graph(cx), rl.facet_size(cx))
    assert pruned > 0


# facets (1,2) (1,3) (2,3) (3,4) (4,5): two triangles 123 and 234 and the
# pendant edge 45, at cap d = 2
PARTITION_CX = rl.from_facets([[1, 2], [2, 3], [3, 4], [1, 3], [4, 5]])
TWICE = "edge covered twice"
INVALID = {"invalid": "not a partition within the cap"}


@pytest.mark.parametrize("part, expected", [
    (((1, 2), (1, 3), (2, 3, 4), (4, 5)), None),
    # two pairs repeated: (2, 3) in the second clique comes first, though
    # (1, 2) is smaller
    (((1, 2, 3), (2, 3, 4), (1, 2), (4, 5)), {"invalid": TWICE, "edge": [2, 3]}),
    # a clique repeating (1, 2) and (1, 3) reports the first in
    # combinations order
    (((1, 2, 3), (2, 4), (1, 2, 3, 4), (4, 5)), {"invalid": TWICE, "edge": [1, 2]}),
    (((1, 3, 4), (1, 2, 4), (2, 3), (4, 5)), {"invalid": TWICE, "edge": [1, 4]}),
    (((1, 2), (1, 3), (2, 3, 4)), INVALID),  # the edge 45 is missing
    (((1, 2), (1, 3), (2, 3, 4), (4, 5), (3, 5)), INVALID),  # 35 is no edge
    (((1, 2, 3), (2, 4), (3, 4), (4, 5)), INVALID),  # vertex 4 in three cliques
])
def test_clique_partition_check_matches_set_oracle(monkeypatch, part, expected):
    """The statement validates the partition it is handed on rows; crafted
    partitions get the diagnostic of the set-based validation, and a valid
    one is confirmed with no diagnostic."""
    g = _ridge_graph(PARTITION_CX)
    assert g.edges() == ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5))
    monkeypatch.setattr(harness, "clique_edge_partition", lambda g, cap, budget: part)
    got = _check_clique_partition(PARTITION_CX, None, None)
    want = oracle_check_clique_partition(g, part, 2)
    if expected is None:
        assert got == ("confirmed", None) and want[0] == "confirmed"
    else:
        assert got == want == ("counterexample", expected)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 9))
    pool = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return rl.Graph(n, edges)


@given(small_graphs(), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_clique_partition_matches_oracle_sampled(g, cap):
    _assert_partition_matches_oracle(g, cap)


def test_line_graph_of_graph_matches_complex_route():
    for n in range(2, 6):
        for n_, edges in all_labeled_graphs(n):
            if not edges:
                continue
            lg = rl.line_graph_of_graph(rl.Graph(n_, edges))
            cx = rl.from_facets(edges, ambient=range(1, n_ + 1))
            assert lg == rl.line_graph(cx).graph


def test_sw_cycle_lemma_small():
    # a graph has a cycle of length l >= 4 exactly when its line graph has
    # an induced cycle of length l; exhaustive for up to five vertices
    for n in range(2, 6):
        for n_, edges in all_labeled_graphs(n):
            if len(edges) < 4:
                continue
            g = rl.Graph(n_, edges)
            lg = rl.line_graph_of_graph(g)
            g_lengths = {c for c in oracle_cycle_lengths(n_, edges) if c >= 4}
            lg_lengths = {c for c in oracle_induced_cycle_lengths(lg.order, lg.edges())
                          if c >= 4}
            assert g_lengths == lg_lengths, (n_, edges)


def test_sw_cycle_lemma_sampled_n6():
    import random
    from itertools import combinations

    rng = random.Random(99)
    pool = list(combinations(range(1, 7), 2))
    for _ in range(250):
        k = rng.randint(4, len(pool))
        edges = tuple(rng.sample(pool, k))
        g = rl.Graph(6, edges)
        lg = rl.line_graph_of_graph(g)
        g_lengths = {c for c in oracle_cycle_lengths(6, edges) if c >= 4}
        lg_lengths = {c for c in oracle_induced_cycle_lengths(lg.order, lg.edges())
                      if c >= 4}
        assert g_lengths == lg_lengths, edges
