"""The thirteen acceptance checks, one printed pass/fail line each.

Check 5 is expected to fail. Its third sub-assertion demands that the
five-facet chain complex not be Cohen-Macaulay, but that complex is shellable
and pure, hence Cohen-Macaulay (confirmed independently by the link-homology
criterion), so the assertion is unsatisfiable. The check reports the honest
outcome instead of being weakened to pass.
"""

from itertools import combinations

import pytest

import ridgeline as rl
from ridgeline.harness import _ridge_graph, verify
from conftest import record_acceptance
from oracles import all_labeled_graphs, faces_of, oracle_homology, oracle_is_cm_reisner

CHAIN5 = ((1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (5, 6, 7))
GAMMA = ((1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (1, 5, 6))

# seed and split for each random sub-corpus of check 3; arbitrary but frozen
RANDOM_SPECS = (("random", 8, 2, 6, 334, 1001),
                ("random", 8, 3, 5, 333, 1002),
                ("random", 8, 4, 5, 333, 1003))


@pytest.fixture(scope="module")
def random_corpus_1000():
    """The same 1000 complexes check 3 verifies, rebuilt from the seeds."""
    out = []
    for _, n, d, r, trials, seed in RANDOM_SPECS:
        for t in range(trials):
            out.append(rl.random_pure_complex(n, d, r, seed * 1_000_003 + t))
    return out


def test_criterion_01_ev_specialization(graph_complex_corpus):
    bad = []
    for cx in graph_complex_corpus:
        pred = rl.predicted_beta2(cx, "all")
        oracle = rl.beta_in_degree(rl.facet_ideal(cx), 2, 3)
        if pred != oracle:
            bad.append((cx.facets, pred, oracle))
    record_acceptance(
        1, "ev-d2", not bad,
        f"{len(graph_complex_corpus)} connected graphs on 2..6 vertices, "
        f"{len(bad)} mismatches")


def test_criterion_02_betti2_interpretations(d3_corpus):
    rep = verify("betti2", ("exhaustive", 6, 3, 5), stable_time=True)
    assert rep.instances == len(d3_corpus)
    stats = rep.tabulation["interpretations"]
    perfect = [tag for tag, st in sorted(stats.items()) if st["mismatches"] == 0]
    counts = ", ".join(f"{tag} {st['matches']}/{rep.trials}"
                       for tag, st in sorted(stats.items()))
    if perfect:
        record_acceptance(2, "betti2", True,
                          f"exact interpretation(s) {perfect}; {counts}")
        return
    # fallback branch: every interpretation fails somewhere, so the report
    # must isolate a minimal counterexample, fully serialized
    first = rep.counterexamples[0]["document"] if rep.counterexamples else None
    ok = (first is not None
          and "facets" in first and "ambient" in first
          and all(st["first_mismatch"] is not None for st in stats.values())
          and len(first["facets"]) == min(len(c["document"]["facets"])
                                          for c in rep.counterexamples))
    record_acceptance(
        2, "betti2", ok,
        f"no interpretation exact ({counts}); minimal counterexample "
        f"{first['facets'] if first else None} serialized in the report")


def test_criterion_03_complement_line_graphs():
    total_conf = 0
    bad = 0
    for kind, n, d, r, trials, seed in RANDOM_SPECS:
        rep = verify("deltac", (kind, n, d, r, trials), seed=seed, stable_time=True)
        assert rep.instances == trials and not rep.skips
        total_conf += rep.confirmations
        bad += len(rep.counterexamples)
    record_acceptance(3, "deltac", total_conf == 1000 and bad == 0,
                      f"{total_conf}/1000 random complexes confirmed, {bad} failures")


def test_criterion_04_edge_count_identities(graph_complex_corpus, d3_corpus,
                                            random_corpus_1000):
    checked = 0
    for cx in (*graph_complex_corpus, *d3_corpus, *random_corpus_1000):
        total = rl.edge_count_formula(cx)
        g = _ridge_graph(cx)
        assert total == g.edge_count()
        assert sum(g.degree(v) for v in range(1, g.order + 1)) == 2 * total
        checked += 1
    record_acceptance(4, "edge-count", True,
                      f"formula and degree sum exact on {checked} instances")


def test_criterion_05_shellable_connected_and_example(d3_corpus):
    violations = 0
    shellable_count = 0
    for cx in d3_corpus:
        if rl.is_shellable(cx) is not None:
            shellable_count += 1
            if not rl.is_connected(_ridge_graph(cx)):
                violations += 1
    example = rl.from_facets(CHAIN5)
    witness = rl.is_shellable(example)
    connected = rl.is_connected(_ridge_graph(example))
    cm = rl.is_cohen_macaulay(example)
    reisner = oracle_is_cm_reisner(example.facets)
    corpus_ok = violations == 0
    example_ok = witness is not None and connected
    expected_not_cm = cm is False
    record_acceptance(
        5, "shellable-connected", corpus_ok and example_ok and expected_not_cm,
        f"{shellable_count} shellable corpus instances, {violations} with a "
        f"disconnected line graph; chain example: shelling "
        f"{'found' if witness else 'missing'}, line graph "
        f"{'connected' if connected else 'disconnected'}; expected "
        f"is_cohen_macaulay False but got {cm} (link-homology oracle agrees: "
        f"{reisner}); a pure shellable complex is always Cohen-Macaulay, so "
        f"this sub-assertion cannot hold")


def test_criterion_06_no_induced_stars(graph_complex_corpus, d3_corpus,
                                       random_corpus_1000):
    bad = 0
    checked = 0
    for cx in (*graph_complex_corpus, *d3_corpus, *random_corpus_1000):
        d = rl.facet_size(cx)
        if rl.has_induced_star(_ridge_graph(cx), d + 1):
            bad += 1
        checked += 1
    record_acceptance(6, "star-free", bad == 0,
                      f"{checked} instances, {bad} induced (d+1)-stars found")


def test_criterion_07_clique_partitions(graph_complex_corpus, d3_corpus,
                                        random_corpus_1000):
    failures = 0
    small_budget_outs = 0
    large_budget_outs = 0
    checked = 0
    for cx in (*graph_complex_corpus, *d3_corpus):
        try:
            part = rl.clique_edge_partition(_ridge_graph(cx), rl.facet_size(cx))
        except rl.BudgetExceeded:
            small_budget_outs += 1
            continue
        if part is None:
            failures += 1
        checked += 1
    for cx in random_corpus_1000:
        try:
            part = rl.clique_edge_partition(_ridge_graph(cx), rl.facet_size(cx))
        except rl.BudgetExceeded:
            large_budget_outs += 1
            continue
        if part is None:
            failures += 1
        checked += 1
    record_acceptance(
        7, "clique-partition", failures == 0 and small_budget_outs == 0,
        f"{checked} partitions found, {failures} impossible, "
        f"{small_budget_outs} budget exhaustions on the small corpora (must "
        f"be 0), {large_budget_outs} on the larger random corpus")


def test_criterion_08_generator_families():
    bad = []
    for r in range(3, 8):
        for d in (2, 3, 4):
            g = rl.line_graph(rl.make_cone(r, d)).graph
            if g != rl.complete_graph(r):
                bad.append(("cone", r, d))
    for d in (2, 3, 4):
        g = rl.line_graph(rl.make_simplex_subsets(d, d + 1)).graph
        if g != rl.complete_graph(d + 1):
            bad.append(("simplex-subsets", d))
        for case in ("a", "b"):
            g = rl.line_graph(rl.make_triangle_join(d, case)).graph
            if g != rl.complete_graph(3):  # C_3 is K_3
                bad.append(("triangle-join", d, case))
    record_acceptance(8, "complete-generators", not bad,
                      f"cones r=3..7 x d=2..4, simplex subsets, triangle "
                      f"joins; failures: {bad if bad else 'none'}")


def test_criterion_09_cycle_family():
    rep = verify("cycle", stable_time=True)
    rows = rep.tabulation["rows"]
    window_rows = [row for row in rows if row["branch"] == "windows"]
    padded = [row for row in rows if row["branch"] == "padded"]
    window_ok = all(row["line_graph_is_cycle"] for row in window_rows)
    documented = all(row["line_graph_is_cycle"] != row["line_graph_is_complete"]
                     for row in padded)
    all_complete = all(row["line_graph_is_complete"] for row in padded)
    record_acceptance(
        9, "cycle-family", window_ok and documented,
        f"window branch: all {len(window_rows)} rows give the r-cycle; padded "
        f"branch (d >= r-1): "
        f"{'K_r on all ' + str(len(padded)) + ' rows' if all_complete else 'mixed shapes'}"
        f", the complete graph the padding forces, not the cycle")


def test_criterion_10_chordal_hypotheses(d3_corpus):
    violations = 0
    eligible = 0
    for cx in d3_corpus:
        g = _ridge_graph(cx)
        if not (rl.is_connected(g) and rl.is_chordal_graph(g) is not None
                and rl.diameter(g) <= 3):
            continue
        eligible += 1
        if not rl.is_chordal_complex(cx):
            violations += 1
    gamma = rl.from_facets(GAMMA)
    g = _ridge_graph(gamma)
    gamma_ok = (rl.diameter(g) == 4
                and rl.is_chordal_graph(g) is not None
                and not rl.is_chordal_complex(gamma))
    record_acceptance(
        10, "chordal-main", violations == 0 and gamma_ok,
        f"{eligible} corpus instances satisfy the hypotheses, {violations} "
        f"not chordal; five-facet cycle example: line graph chordal but "
        f"diameter 4 > 3, complex not chordal, reproduced: {gamma_ok}")


def test_criterion_11_froberg():
    disagreements = 0
    checked = 0
    for n in range(1, 7):
        for n_, edges in all_labeled_graphs(n):
            if not rl.froberg_check(rl.Graph(n_, edges))["agree"]:
                disagreements += 1
            checked += 1
    record_acceptance(11, "froberg", disagreements == 0,
                      f"{checked} graphs on 1..6 vertices, "
                      f"{disagreements} disagreements")


def test_criterion_12_consistency_chain(d3_corpus):
    shell_bad = 0
    resolution_bad = 0
    skipped = 0
    checked = 0
    reisner_checked = 0
    for k, cx in enumerate(d3_corpus):
        dual = rl.alexander_dual(cx)
        if dual.is_empty:
            skipped += 1  # full simplex: void dual, nothing to compare
            continue
        shelled = rl.is_shellable(cx) is not None
        ideal = rl.stanley_reisner_ideal(dual)
        quotients = rl.has_linear_quotients(ideal) is not None
        if shelled and not quotients:
            shell_bad += 1
        if quotients and not rl.has_linear_resolution(ideal):
            resolution_bad += 1
        if k % 371 == 0:
            # independent spot check: dual resolution criterion vs link homology
            assert rl.is_cohen_macaulay(cx) == oracle_is_cm_reisner(cx.facets), cx.facets
            reisner_checked += 1
        checked += 1
    record_acceptance(
        12, "consistency-chain", shell_bad == 0 and resolution_bad == 0,
        f"{checked} instances: shellable without dual linear quotients "
        f"{shell_bad}, quotients without linear resolution {resolution_bad}, "
        f"{skipped} full simplexes skipped, {reisner_checked} link-homology "
        f"spot checks passed")


def test_criterion_13_oracle_self_tests(graph_complex_corpus, d3_corpus):
    # boundary spheres in dimensions 1..4
    sphere_ok = True
    for k in range(1, 5):
        facets = list(combinations(range(1, k + 3), k + 1))
        for field in ("gf2", "rational"):
            hom = rl.reduced_homology_ranks(rl.from_facets(facets), field)
            expected = [0] * (k + 2)
            expected[k + 1] = 1
            sphere_ok &= hom == expected
        if k <= 3:
            sphere_ok &= oracle_homology(facets) == expected
    # Euler characteristic on 1000 seeded random complexes vs brute-force
    # face counts: sum of (-1)^|F| over all faces including the empty one
    # must equal the alternating sum of reduced homology ranks
    euler_ok = True
    cases = [(6, 2, 8), (7, 3, 6), (8, 4, 5), (8, 2, 10)]
    for t in range(1000):
        n, d, r = cases[t % 4]
        cx = rl.random_pure_complex(n, d, r, 2_000_000 + t)
        hom = rl.reduced_homology_ranks(cx)
        lhs = sum((-1) ** len(f) for f in faces_of(cx.facets))
        rhs = sum((-1) ** i * hom[i] for i in range(len(hom)))
        euler_ok &= lhs == rhs
    # field independence of every second-syzygy query behind checks 1 and 2
    field_bad = 0
    for cx in graph_complex_corpus:
        ideal = rl.facet_ideal(cx)
        if rl.beta_in_degree(ideal, 2, 3, "gf2") != rl.beta_in_degree(ideal, 2, 3, "rational"):
            field_bad += 1
    for cx in d3_corpus:
        ideal = rl.facet_ideal(cx)
        if rl.beta_in_degree(ideal, 2, 4, "gf2") != rl.beta_in_degree(ideal, 2, 4, "rational"):
            field_bad += 1
    record_acceptance(
        13, "oracle-self-tests", sphere_ok and euler_ok and field_bad == 0,
        f"spheres in dimensions 1..4 exact over both fields; Euler identity "
        f"on 1000 random complexes; GF(2) and rational second syzygies agree "
        f"on all {len(graph_complex_corpus) + len(d3_corpus)} queries "
        f"({field_bad} mismatches)")
