"""File formats, corpus generation, determinism."""

import json
from math import comb

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
