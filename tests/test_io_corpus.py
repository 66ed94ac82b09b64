"""File formats, corpus generation, determinism."""

import json
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeline as rl


def test_parse_json_document():
    cx, name = rl.parse_document(b'{"name": "t", "ambient": [1,2,3,4], "facets": [[1,2],[2,3]]}')
    assert name == "t"
    assert cx.ambient == (1, 2, 3, 4)
    assert cx.facets == ((1, 2), (2, 3))
    cx2 = rl.parse_complex('{"facets": [[3,1,2]]}')
    assert cx2.facets == ((1, 2, 3),)


def test_parse_text_document():
    cx = rl.parse_complex("# a comment\n1 2 3\n\n2 3 4  # trailing\n")
    assert cx.facets == ((1, 2, 3), (2, 3, 4))
    assert cx.ambient == (1, 2, 3, 4)


def test_parse_errors():
    with pytest.raises(rl.ParseError):
        rl.parse_complex("1 2\nx 3\n")
    with pytest.raises(rl.ParseError):
        rl.parse_complex("1 -2\n")
    with pytest.raises(rl.ParseError):
        rl.parse_complex('{"facets": "nope"}')
    with pytest.raises(rl.ParseError):
        rl.parse_complex('{"facets": [[1,2]], "ambient": 3}')
    with pytest.raises(rl.ParseError):
        rl.parse_complex("{broken json")
    with pytest.raises(rl.EmptyInput):
        rl.parse_complex("# nothing here\n")


def test_serialize_round_trip_preserves_ambient():
    cx = rl.from_facets([[1, 2]], ambient=[1, 2, 3, 4, 5])
    blob = rl.serialize_complex(cx)
    assert rl.parse_complex(blob) == cx
    doc = json.loads(blob)
    assert doc["ambient"] == [1, 2, 3, 4, 5]


def test_random_pure_complex_determinism_and_shape():
    a = rl.random_pure_complex(8, 3, 5, 123)
    b = rl.random_pure_complex(8, 3, 5, 123)
    c = rl.random_pure_complex(8, 3, 5, 124)
    assert a == b
    assert a != c
    assert a.ambient == tuple(range(1, 9))
    assert a.facet_count == 5 and rl.facet_size(a) == 3
    with pytest.raises(rl.BadParameters):
        rl.random_pure_complex(4, 3, 5, 0)  # only C(4,3)=4 facets exist


def test_random_pure_complex_matches_pool_draw():
    import random
    from itertools import combinations

    for n in range(1, 8):
        for d in range(1, n + 1):
            top = comb(n, d)
            for r in sorted({1, (top + 1) // 2, top}):
                for seed in (0, 41):
                    pool = list(combinations(range(1, n + 1), d))
                    drawn = random.Random(seed).sample(pool, r)
                    expect = rl.from_facets(drawn, ambient=range(1, n + 1))
                    assert rl.random_pure_complex(n, d, r, seed) == expect, (n, d, r, seed)


def test_unrank_subset_follows_combinations_order():
    from itertools import combinations

    from ridgeline.harness import _binomials, _unrank_subset

    for n in range(1, 10):
        for d in range(1, n + 1):
            table = _binomials(n, d)
            assert table == [[comb(m, j) for m in range(n)] for j in range(d + 1)]
            got = [_unrank_subset(k, n, d, table) for k in range(comb(n, d))]
            assert got == list(combinations(range(1, n + 1), d)), (n, d)


def test_random_pure_complex_is_canonical_at_benchmark_sizes(monkeypatch):
    """The draw is built without from_facets, so check that it is already in
    from_facets' form on every benchmark ladder row and on whole pools."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS

    rows = {row for w in WORKLOADS.values() for row in w.ladder}
    rows |= {(n, d, comb(n, d)) for n in range(1, 7) for d in range(1, n + 1)}
    for n, d, r in sorted(rows):
        for seed in range(50):
            cx = rl.random_pure_complex(n, d, r, seed)
            assert cx == rl.from_facets(cx.facets, ambient=range(1, n + 1)), (n, d, r, seed)
            assert cx.facet_count == r
            assert all(all(a < b for a, b in zip(f, f[1:])) for f in cx.facets)
            assert all(f < g for f, g in zip(cx.facets, cx.facets[1:]))


def test_random_pure_complex_huge_pool():
    # C(40, 20) is about 1.4e11 facets; only the three drawn are built
    cx = rl.random_pure_complex(40, 20, 3, 1)
    assert cx.facet_count == 3 and rl.facet_size(cx) == 20
    assert cx.ambient == tuple(range(1, 41))
    with pytest.raises(rl.BadParameters):
        rl.random_pure_complex(200, 100, 3, 1)


def test_enumerate_pure_complexes_count_and_order():
    out = list(rl.enumerate_pure_complexes(4, 2, 2))
    assert len(out) == comb(6, 1) + comb(6, 2)
    assert out[0].facets == ((1, 2),)
    # facet-count ascending, then lexicographic
    sizes = [cx.facet_count for cx in out]
    assert sizes == sorted(sizes)
    assert all(cx.ambient == cx.support for cx in out)


def test_enumerate_pure_complexes_match_from_facets():
    """Each complex is built without from_facets; it must equal what
    from_facets makes of its facets, for every n <= 6 and d, with r_max as
    large as a budget of 5000 complexes allows."""
    budget = 5000
    for n in range(1, 7):
        for d in range(1, n + 1):
            top = comb(n, d)
            r_max = 1
            while r_max < top and sum(comb(top, r) for r in range(1, r_max + 2)) <= budget:
                r_max += 1
            for cx in rl.enumerate_pure_complexes(n, d, r_max, budget):
                assert cx == rl.from_facets(cx.facets), (n, d, r_max, cx)


def test_corpus_parameters_must_be_integers():
    for args in [(8, 3, 5.5, 1), (3, True, 2, 1), (8.0, 3, 5, 1), ("8", 3, 5, 1),
                 (6, 3, 4, 1.5), (6, 3, 4, "x")]:
        with pytest.raises(rl.BadParameters, match="must be an integer"):
            rl.random_pure_complex(*args)
    for args in [(4, 2, 2.0), (4, False, 2), (None, 2, 2)]:
        with pytest.raises(rl.BadParameters, match="must be an integer"):
            list(rl.enumerate_pure_complexes(*args))
    for corpus in [("random", 8, 3, 5, 2.5), ("random", 8, 3, 5, True),
                   ("random", 8.0, 3, 5, 0), ("exhaustive", 4, 2, 2.0)]:
        with pytest.raises(rl.BadParameters, match="must be an integer"):
            rl.verify("edge-count", corpus)
    for corpus in [("random", 8, 3, 5), ("random", 8, 3, 5, 2, 1), ("exhaustive", 4, 2),
                   (), ("files",), ("files", "abc")]:
        with pytest.raises(rl.BadParameters, match="corpus is"):
            rl.verify("edge-count", corpus)
    # the range messages are unchanged
    with pytest.raises(rl.BadParameters, match="need 1 <= d <= n"):
        rl.random_pure_complex(3, 0, 1, 1)
    with pytest.raises(rl.BadParameters, match="trial count must be nonnegative, got -1"):
        rl.verify("edge-count", ("random", 8, 3, 5, -1))


def test_enumerate_budget():
    with pytest.raises(rl.BudgetExceeded):
        list(rl.enumerate_pure_complexes(6, 3, 5, budget=100))


def test_d3_corpus_size(d3_corpus):
    assert len(d3_corpus) == sum(comb(comb(6, 3), r) for r in range(1, 6))
    assert len(d3_corpus) == 21699


@given(st.integers(3, 8), st.integers(1, 4), st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_property_serialize_parse_identity(n, d, r, seed):
    d = min(d, n)
    r = min(r, comb(n, d))
    cx = rl.random_pure_complex(n, d, r, seed)
    assert rl.parse_complex(rl.serialize_complex(cx)) == cx
    # the analyze document form also parses back
    doc = rl.complex_document(cx, name="x")
    blob = json.dumps(doc).encode()
    got, name = rl.parse_document(blob)
    assert got == cx and name == "x"
