"""Line-graph layer: construction, triangle census, predictions, families."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeline as rl
from oracles import (
    all_labeled_graphs,
    assert_step_for_step,
    connected_labeled_graphs,
    oracle_beta,
    oracle_characterize_complete,
    oracle_classify_triangles,
    oracle_first_row_mismatch,
    oracle_realizability_search,
    oracle_ridge_counts,
    oracle_ridge_edges,
)
from ridgeline import harness, linegraph
from ridgeline.harness import (
    _INTERPS,
    _check_betti2,
    _check_complete,
    _check_deltac,
    _first_row_mismatch,
    _is_complete,
    _ridge_adjacency,
    _ridge_graph,
)

BD3 = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_line_graph_labels_and_edges():
    cx = rl.from_facets([[1, 2, 3], [2, 3, 4], [4, 5, 6]])
    lg = rl.line_graph(cx)
    assert lg.facet_of == ((1, 2, 3), (2, 3, 4), (4, 5, 6))
    assert lg.graph.edges() == ((1, 2),)
    with pytest.raises(rl.DimensionTooSmall):
        rl.line_graph(rl.from_facets([[1], [2]]))
    with pytest.raises(rl.NotPure):
        rl.line_graph(rl.from_facets([[1, 2], [3, 4, 5]]))


def test_ridge_counts_and_edge_formula():
    cx = rl.from_facets(BD3)
    assert rl.ridge_counts(cx) == (3, 2, 1, 0)
    assert rl.edge_count_formula(cx) == 6
    assert rl.line_graph(cx).graph.edge_count() == 6


def test_classify_triangles():
    # K4 line graph: every triple of facets of the simplex boundary meets in
    # a single vertex pairwise-doubly; triple intersections have size 1 = d-2
    cx = rl.from_facets(BD3)
    kinds = [kind for _, kind in rl.classify_triangles(cx)]
    assert len(kinds) == 4
    assert all(k is rl.TriangleType.SimplexType for k in kinds)
    # a cone: all triples share the common ridge
    cone = rl.make_cone(3, 3)
    kinds = [kind for _, kind in rl.classify_triangles(cone)]
    assert kinds == [rl.TriangleType.RidgeShared]
    # facet size 1: intersections are empty, size 0 = d-1, all ridge-shared
    tiny = rl.from_facets([[1], [2], [3]])
    kinds = [kind for _, kind in rl.classify_triangles(tiny)]
    assert kinds == [rl.TriangleType.RidgeShared]


def test_count_nt_interpretations_diverge():
    cx = rl.from_facets(BD3)
    assert rl.count_Nt(cx, "all") == 4
    assert rl.count_Nt(cx, "max_disjoint") == 1
    assert rl.count_Nt(cx, "isolated") == 0
    assert rl.predicted_beta2(cx, "all") == 2
    assert rl.predicted_beta2(cx, "max_disjoint") == 5
    assert rl.predicted_beta2(cx, "isolated") == 6
    # the homological answer: none of the three interpretations is right here
    assert rl.beta_in_degree(rl.facet_ideal(cx), 2, 4) == 3
    assert oracle_beta(BD3, [1, 2, 3, 4], 2, 4) == 3


def test_predicted_beta2_matches_on_friendly_examples():
    # star: line graph K3, no simplex-type triangles
    star = rl.make_cone(3, 2)
    assert rl.predicted_beta2(star, "all") == 3
    assert rl.beta_in_degree(rl.facet_ideal(star), 2, 3) == 3
    # triangle: one simplex-type triangle
    tri = rl.make_triangle_join(2, "b")
    assert rl.predicted_beta2(tri, "all") == 2
    assert rl.beta_in_degree(rl.facet_ideal(tri), 2, 3) == 2


def test_make_cone():
    cone = rl.make_cone(4, 3)
    assert cone.facets == ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6))
    g = rl.line_graph(cone).graph
    assert g == rl.complete_graph(4)
    with pytest.raises(rl.BadParameters):
        rl.make_cone(0, 3)
    with pytest.raises(rl.BadParameters):
        rl.make_cone(3, 1)


def test_make_simplex_subsets():
    cx = rl.make_simplex_subsets(3, 4)
    assert cx.facets == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    assert rl.line_graph(cx).graph == rl.complete_graph(4)
    with pytest.raises(rl.BadParameters):
        rl.make_simplex_subsets(2, 4)  # only 3 two-subsets of a 3-set exist


def test_make_triangle_join_cases():
    for d in (2, 3, 4):
        a = rl.make_triangle_join(d, "a")
        b = rl.make_triangle_join(d, "b")
        for cx in (a, b):
            assert rl.facet_size(cx) == d and cx.facet_count == 3
            assert rl.line_graph(cx).graph == rl.complete_graph(3)  # C_3 is K_3
    with pytest.raises(rl.BadParameters):
        rl.make_triangle_join(2, "c")


def test_generators_refuse_non_integers_typed():
    g = rl.path_graph(3)
    for make, args in ((rl.make_cone, (2.5, 3)), (rl.make_cone, (3, 2.5)),
                       (rl.make_cone, (True, 3)), (rl.make_simplex_subsets, (3, 2.0)),
                       (rl.make_simplex_subsets, ("3", 2)), (rl.make_cycle_complex, (4.0, 2)),
                       (rl.make_cycle_complex, (4, None)), (rl.make_triangle_join, (2.5, "a")),
                       (rl.realizability_search, (g, 2.5, 10)),
                       (rl.realizability_search, (g, 2, 7.5))):
        with pytest.raises(rl.BadParameters, match="must be an integer"):
            make(*args)


def test_realizability_search_matches_set_oracle_step_for_step():
    def facets_found(g, d, budget):
        found = rl.realizability_search(g, d, d * g.order, budget)
        return None if found is None else found.facet_of

    for d in (2, 3):
        for r in range(1, 6):
            for _, edges in all_labeled_graphs(r):
                g = rl.Graph(r, edges)
                assert_step_for_step(lambda budget: facets_found(g, d, budget),
                                     lambda budget: oracle_realizability_search(g, d, d * r, budget))


def test_realizability_search_finds_every_line_graph_of_a_graph():
    # Whitney: the edges of h realize its line graph at d = 2 on at most
    # 2|E(h)| vertices. A graph on fewer than 5 vertices has the edge set,
    # and so the line graph, of one on 5 with isolated vertices.
    for _, edges in all_labeled_graphs(5):
        if edges:
            line = rl.line_graph_of_graph(rl.Graph(5, edges))
            assert rl.realizability_search(line, 2, 2 * len(edges)) is not None, edges


def test_unknown_nt_interpretation_is_typed():
    cx = rl.from_facets(BD3)
    known = "known: all, max_disjoint, isolated"
    for query in (rl.count_Nt, rl.predicted_beta2):
        with pytest.raises(rl.BadParameters, match=f"unknown Nt interpretation; {known}"):
            query(cx, "bogus")


def test_nt_budget_is_checked_under_every_reading():
    cx = rl.from_facets(BD3)
    for interp in rl.NtInterpretation:
        for query in (rl.count_Nt, rl.predicted_beta2):
            for bad in (-1, 0, True, 1.5, "3"):
                with pytest.raises(rl.BadParameters, match="budget must be a positive integer"):
                    query(cx, interp, bad)
            # a good budget of one step is spent by the max-disjoint search only
            if interp is rl.NtInterpretation.MaxDisjointSimplexType:
                with pytest.raises(rl.BudgetExceeded):
                    query(cx, interp, 1)
            else:
                assert query(cx, interp, 1) == query(cx, interp)


def test_characterize_complete():
    assert rl.characterize_complete(rl.make_cone(5, 3)) == rl.CONE
    assert rl.characterize_complete(rl.make_simplex_subsets(3, 4)) == rl.SIMPLEX_SUBSETS
    assert rl.characterize_complete(rl.from_facets([[1, 2, 3], [3, 4, 5], [1, 4, 6]])) == rl.NEITHER
    # single facet counts as a cone
    assert rl.characterize_complete(rl.from_facets([[1, 2]])) == rl.CONE


def test_make_cycle_complex_window_branch():
    for r in range(4, 9):
        for d in range(2, r - 1):
            cx = rl.make_cycle_complex(r, d)
            assert cx.facet_count == r and rl.facet_size(cx) == d
            g = rl.line_graph(cx).graph
            # C_r up to labelling: the sorted facet order need not be cyclic
            assert rl.is_connected(g) and all(g.degree(v) == 2 for v in range(1, r + 1)), (r, d)


def test_make_cycle_complex_padded_branch_is_complete():
    for r in range(4, 7):
        for d in range(r - 1, r + 2):
            cx = rl.make_cycle_complex(r, d)
            g = rl.line_graph(cx).graph
            assert g == rl.complete_graph(r), (r, d)


def test_realizability_search_small_targets():
    # a path on three vertices is realizable as facet adjacency, in either
    # labelling; the witness maps vertex i to facet_of[i-1]
    for g in (rl.path_graph(3), rl.Graph(3, [(1, 3), (2, 3)])):
        found = rl.realizability_search(g, 2, max_vertices=6)
        assert found.graph == g
        assert oracle_ridge_edges(found.facet_of) == list(g.edges())
    # K_{1,3} is a line graph of a facet-size-2 family (three edges at a hub
    # cannot avoid mutual adjacency), so the claw must NOT be realizable
    assert rl.realizability_search(rl.Graph(4, [(1, 2), (1, 3), (1, 4)]), 2,
                                   max_vertices=9) is None


def test_realizability_witnesses_realize_every_small_connected_graph():
    # with max_vertices = d * r the search is complete; a connected graph
    # with no witness is not the line graph of any facet-size-d family
    unrealizable = {}
    for d in (2, 3):
        found = rl.realizability_search(rl.Graph(1), d, d)
        assert found.facet_of == (tuple(range(1, d + 1)),)
        for r in range(2, 6):
            unrealizable[r, d] = 0
            for _, edges in connected_labeled_graphs(r):
                g = rl.Graph(r, edges)
                found = rl.realizability_search(g, d, d * r)
                if found is None:
                    unrealizable[r, d] += 1
                    continue
                assert found.graph == g
                assert all(len(f) == d for f in found.facet_of)
                assert len(set(found.facet_of)) == r
                assert oracle_ridge_edges(found.facet_of) == list(edges), (edges, found)
    # r = 4, d = 2: the four labelled claws. r = 5, d = 3: the five labelled
    # K_{1,4}, and 60 more graphs in four isomorphism classes, K_{2,3} among
    # them (its three degree-2 facets must hold the three different ridges
    # of one degree-3 facet, and then no other facet meets all three in a
    # ridge). Brute force over every family of r distinct d-subsets of
    # {1..d+r-1} gives the same counts.
    assert unrealizable == {(2, 2): 0, (3, 2): 0, (4, 2): 4, (5, 2): 275,
                            (2, 3): 0, (3, 3): 0, (4, 3): 0, (5, 3): 65}


def test_edge_count_formula_internal_assertion_has_no_false_alarm(d3_corpus):
    for cx in d3_corpus[::97]:
        total = rl.edge_count_formula(cx)
        assert total == rl.line_graph(cx).graph.edge_count()


@given(st.integers(3, 7), st.integers(2, 4), st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_property_triangle_classification_total(n, d, r, seed):
    from itertools import combinations
    from math import comb

    d = min(d, n)
    r = min(r, comb(n, d))
    cx = rl.random_pure_complex(n, d, r, seed)
    tri = rl.classify_triangles(cx)
    sets = [set(f) for f in cx.facets]
    dd = rl.facet_size(cx)
    expected = sum(
        1 for a, b, c in combinations(range(len(sets)), 3)
        if len(sets[a] & sets[b]) == dd - 1
        and len(sets[a] & sets[c]) == dd - 1
        and len(sets[b] & sets[c]) == dd - 1)
    assert len(tri) == expected
    for (i, j, k), kind in tri:
        triple = sets[i - 1] & sets[j - 1] & sets[k - 1]
        if kind is rl.TriangleType.RidgeShared:
            assert len(triple) == dd - 1
        else:
            assert len(triple) == dd - 2


def _assert_line_graph_layer_matches_oracles(cx):
    facets, r, d = cx.facets, cx.facet_count, rl.facet_size(cx)
    edges = oracle_ridge_edges(facets)
    assert _ridge_graph(cx).edges() == tuple(edges), cx
    if d == 1:
        assert _ridge_graph(cx) == rl.complete_graph(r)
    else:
        lg = rl.line_graph(cx)
        assert lg.graph.edges() == tuple(edges) and lg.facet_of == facets
    assert rl.ridge_counts(cx) == oracle_ridge_counts(facets)
    assert rl.edge_count_formula(cx) == len(edges)
    got = tuple((t, kind.value) for t, kind in rl.classify_triangles(cx))
    assert got == oracle_classify_triangles(facets), cx
    shape = oracle_characterize_complete(facets)
    if shape == "contradiction":
        with pytest.raises(rl.RidgelineError, match="fits neither shape"):
            rl.characterize_complete(cx)
    else:
        assert rl.characterize_complete(cx) == shape, cx
    assert _is_complete(_ridge_adjacency(cx)[2]) == (len(edges) == r * (r - 1) // 2)
    if len(cx.ambient) > d:
        assert _check_deltac(cx, None, None) == ("confirmed", None)
    else:
        with pytest.raises(rl.DegenerateComplement):
            _check_deltac(cx, None, None)


def test_line_graph_layer_matches_oracles_exhaustive():
    for d in (1, 2, 3):
        for cx in rl.enumerate_pure_complexes(5, d, 5):
            _assert_line_graph_layer_matches_oracles(cx)


@st.composite
def sparse_pure_complexes(draw):
    """Pure families over sparse labels up to 10**6, with extra ambient
    vertices that lie in no facet."""
    n = draw(st.integers(2, 8))
    d = draw(st.integers(1, min(4, n)))
    labels = draw(st.lists(st.integers(1, 10 ** 6), min_size=n + 3, max_size=n + 3,
                           unique=True))
    family = draw(st.lists(st.sets(st.sampled_from(labels[:n]), min_size=d, max_size=d),
                           min_size=1, max_size=9))
    extra = draw(st.integers(0, 3))
    return rl.from_facets(family, ambient=labels[:n] + labels[n:n + extra])


@given(sparse_pure_complexes())
@settings(max_examples=150, deadline=None)
def test_line_graph_layer_matches_oracles_sparse(cx):
    _assert_line_graph_layer_matches_oracles(cx)


def test_ridge_rows_match_oracle_at_census_sizes():
    """The holder builder against pairwise set intersections on draws at
    the census sizes, for the facets and for their complements in facet
    order, as deltac builds them."""
    for n, d, r in ((12, 3, 30), (16, 5, 50), (10, 3, 60), (20, 4, 100)):
        for seed in range(3):
            cx = rl.random_pure_complex(n, d, r, seed)
            complements = [frozenset(cx.ambient).difference(f) for f in cx.facets]
            for faces in (cx.facets, complements):
                want = [0] * len(faces)
                for i, j in oracle_ridge_edges(faces):
                    want[i - 1] |= 1 << j - 1
                    want[j - 1] |= 1 << i - 1
                assert linegraph._ridge_rows(faces, cx.ambient) == tuple(want)


def _count_adjacencies(monkeypatch) -> list:
    """Record each complex that ``_ridge_adjacency`` runs on, whether the
    harness or the line-graph layer calls it."""
    calls = []
    adjacency = linegraph._ridge_adjacency

    def counted(cx):
        calls.append(cx)
        return adjacency(cx)

    monkeypatch.setattr(harness, "_ridge_adjacency", counted)
    monkeypatch.setattr(linegraph, "_ridge_adjacency", counted)
    return calls


def test_check_complete_builds_one_ridge_adjacency(monkeypatch):
    calls = _count_adjacencies(monkeypatch)
    for cx in (rl.make_cone(5, 3), rl.make_simplex_subsets(3, 4), rl.from_facets(BD3[:3]),
               rl.from_facets([[1, 2, 3], [3, 4, 5], [1, 4, 6], [2, 5, 6]]),
               rl.random_pure_complex(10, 3, 30, 1)):
        calls.clear()
        assert _check_complete(cx, None, None)[0] == "confirmed"
        assert calls == [cx]


@pytest.mark.parametrize("run", ["betti2", "ev-d2", "analyze"])
def test_betti2_ev_d2_and_analyze_build_one_ridge_adjacency(monkeypatch, run):
    """Edge count, ridge counts, triangle census, Nt readings and the
    complete shape all come from one adjacency per complex; ev-d2 refuses
    facet sizes other than 2 before it builds any."""
    calls = _count_adjacencies(monkeypatch)
    for cx in (rl.make_cone(5, 2), rl.from_facets([[1, 2], [2, 3], [1, 3], [3, 4]]),
               rl.random_pure_complex(8, 2, 9, 2), rl.from_facets(BD3),
               rl.random_pure_complex(8, 3, 12, 1), rl.random_pure_complex(7, 4, 6, 3)):
        calls.clear()
        if run == "analyze":
            assert rl.analyze(cx, "gf2", None, 3)["line_graph"]["vertex_count"] == cx.facet_count
        else:
            status = harness.THEOREMS[run](cx, "gf2", None)[0]
            if status == "skip":
                assert run == "ev-d2" and rl.facet_size(cx) != 2
                assert calls == []
                continue
        assert calls == [cx]


def test_deltac_is_an_identity_on_pure_input():
    """|C_i & C_j| = n - 2d + |F_i & F_j| for complement faces, so deltac
    confirms every pure instance it evaluates: none of the 6195 complexes
    of (6, 3, <=4) is a counterexample, and the 20 one-facet complexes on
    their own three vertices are skipped as degenerate complements."""
    rep = rl.verify("deltac", ("exhaustive", 6, 3, 4), stable_time=True)
    assert (rep.instances, rep.trials, rep.confirmations) == (6195, 6175, 6175)
    assert rep.counterexamples == ()
    assert len(rep.skips) == 20


def test_deltac_reports_first_disagreeing_pair(monkeypatch):
    """The two sides of deltac always agree on real input, so flip pairs of
    the complement's rows and compare the reported pair with the first
    disagreement of the set-based adjacencies under the same flips, the
    complements taken in the complex's facet order."""
    cx = rl.from_facets([[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5], [1, 2, 6]])
    complements = [{v for v in cx.ambient if v not in f} for f in cx.facets]
    left = set(oracle_ridge_edges(cx.facets))
    right = set(oracle_ridge_edges(complements))
    ridge_rows = harness._ridge_rows
    for flips in ([(2, 4)], [(4, 5), (1, 3)], [(1, 2), (2, 3)], [(3, 5), (1, 5)]):
        flipped = right ^ set(flips)
        sides = []

        def fake(faces, vertices, flips=flips, sides=sides):
            assert vertices == cx.ambient
            rows = list(ridge_rows(faces, vertices))
            faces = [set(f) for f in faces]
            sides.append(faces)
            if faces == complements:
                for a, b in flips:
                    rows[a - 1] ^= 1 << b - 1
                    rows[b - 1] ^= 1 << a - 1
            return tuple(rows)

        # only the complement side, its faces in facet order, gets the flips
        monkeypatch.setattr(harness, "_ridge_rows", fake)
        expected = None
        for i, j in [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]:
            if ((i, j) in left) != ((i, j) in flipped):
                expected = ("counterexample", {
                    "facet_pair": [i, j],
                    "adjacent_in_line_graph": (i, j) in left,
                    "adjacent_in_complement_line_graph": (i, j) in flipped,
                })
                break
        assert expected is not None
        assert _check_deltac(cx, None, None) == expected, flips
        assert sides == [[set(f) for f in cx.facets], complements]


def test_first_row_mismatch_matches_pair_loop():
    """Ridge graphs, unchanged and then with one adjacency bit pair flipped
    on either side: the row comparison and the pair loop report the same
    first pair and the same two flags."""
    import random

    rng = random.Random(12)
    flagged = set()
    for n, d, r in ((7, 3, 10), (9, 3, 25), (8, 2, 14), (10, 4, 30), (6, 3, 2)):
        for seed in range(6):
            rows = list(_ridge_adjacency(rl.random_pure_complex(n, d, r, seed))[2])
            crows = list(rows)
            assert _first_row_mismatch(rows, crows) is None
            assert oracle_first_row_mismatch(rows, crows) is None
            for _ in range(8):
                a, b = rng.sample(range(r), 2)
                side = rng.choice((rows, crows))
                side[a] ^= 1 << b
                side[b] ^= 1 << a
                got = _first_row_mismatch(rows, crows)
                assert got is not None
                assert got == oracle_first_row_mismatch(rows, crows)
                flagged.add(got[2:])
                side[a] ^= 1 << b
                side[b] ^= 1 << a
    assert flagged == {(True, False), (False, True)}


def _assert_complement_masks(cx):
    """The complement faces deltac builds, in facet order, are the facets of
    ``complement_complex`` in the same order, and deltac refuses exactly
    when ``complement_complex`` does."""
    built = []

    def recorded(faces, vertices):
        built.append([tuple(sorted(f)) for f in faces])
        return linegraph._ridge_rows(faces, vertices)

    try:
        comp = rl.complement_complex(cx).facets
    except rl.DegenerateComplement:
        comp = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_ridge_rows", recorded)
        if comp is None:
            with pytest.raises(rl.DegenerateComplement):
                _check_deltac(cx, None, None)
            assert built == []
            return
        assert _check_deltac(cx, None, None) == ("confirmed", None)
    assert built[0] == list(cx.facets)
    assert sorted(built[1]) == list(comp)
    # complement_complex sorts; complement i is still facet i's complement
    assert built[1] == [tuple(v for v in cx.ambient if v not in f) for f in cx.facets]


def test_complement_masks_match_complement_complex_exhaustive():
    for d in (1, 2, 3):
        for cx in rl.enumerate_pure_complexes(5, d, 5):
            _assert_complement_masks(cx)


@given(sparse_pure_complexes())
@settings(max_examples=150, deadline=None)
def test_complement_masks_match_complement_complex_sparse(cx):
    _assert_complement_masks(cx)


def _betti2_by_three_predictions(cx, field, budget):
    """The betti2 check as three separate predicted_beta2 calls."""
    d = rl.facet_size(cx)
    oracle = rl.beta_in_degree(rl.facet_ideal(cx), 2, d + 1, field)
    predictions = {interp.value: rl.predicted_beta2(cx, interp, budget) for interp in _INTERPS}
    matches = {tag: pred == oracle for tag, pred in predictions.items()}
    diag = {"oracle": oracle, "predicted": predictions, "matches": matches}
    return ("confirmed" if any(matches.values()) else "counterexample"), diag


def _outcome(fn, *args):
    try:
        return fn(*args)
    except rl.BudgetExceeded as exc:
        return "budget", str(exc)


SHARED_CENSUS_CORPORA = (("random", 6, 3, 10, 12), ("random", 5, 2, 8, 12),
                         ("random", 7, 3, 6, 12), ("random", 7, 4, 8, 8))


def test_shared_census_betti2_matches_three_predictions():
    for corpus in SHARED_CENSUS_CORPORA:
        for _, cx in harness._iter_corpus(corpus, seed=11):
            for budget in (None, *range(1, 41)):
                assert (_outcome(_check_betti2, cx, "gf2", budget)
                        == _outcome(_betti2_by_three_predictions, cx, "gf2", budget)), (cx, budget)


def test_shared_census_analyze_matches_count_nt():
    for corpus in SHARED_CENSUS_CORPORA[:2]:
        for _, cx in harness._iter_corpus(corpus, seed=12):
            for budget in (None, 1, 2, 3, 5, 8, 13, 21):
                # a search that runs out leaves None and its message as a note
                report = rl.analyze(cx, "gf2", None, budget)
                nt = {i.value: _outcome(rl.count_Nt, cx, i, budget) for i in _INTERPS}
                notes = {n[1] for n in nt.values() if isinstance(n, tuple)}
                assert notes == ({report["nt_note"]} if "nt_note" in report else set())
                nt = {tag: None if isinstance(n, tuple) else n for tag, n in nt.items()}
                edges = rl.edge_count_formula(cx)
                assert report["nt"] == nt
                assert report["beta2"]["predicted"] == {
                    tag: None if n is None else edges - n for tag, n in nt.items()}
                try:
                    shellable = rl.is_shellable(cx, budget) is not None
                except rl.BudgetExceeded as exc:
                    assert report["shellable"] is None
                    assert report["shellable_note"] == str(exc)
                else:
                    assert report["shellable"] == shellable
                    assert "shellable_note" not in report
                assert report["triangles"] == [{"vertices": list(t), "type": kind.value}
                                               for t, kind in rl.classify_triangles(cx)]
