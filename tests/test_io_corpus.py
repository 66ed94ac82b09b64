"""File formats, corpus generation, determinism."""

import json
from collections import Counter, OrderedDict, UserList, defaultdict, namedtuple
from enum import IntEnum
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ridgeline as rl
from ridgeline.harness import _report_text


def test_parse_json_document():
    cx, name = rl.parse_document(b'{"name": "t", "ambient": [1,2,3,4], "facets": [[1,2],[2,3]]}')
    assert name == "t"
    assert cx.ambient == (1, 2, 3, 4)
    assert cx.facets == ((1, 2), (2, 3))
    cx2 = rl.parse_document('{"facets": [[3,1,2]]}')[0]
    assert cx2.facets == ((1, 2, 3),)


def test_parse_text_document():
    cx = rl.parse_document("# a comment\n1 2 3\n\n2 3 4  # trailing\n")[0]
    assert cx.facets == ((1, 2, 3), (2, 3, 4))
    assert cx.ambient == (1, 2, 3, 4)


def test_parse_errors():
    with pytest.raises(rl.ParseError):
        rl.parse_document("1 2\nx 3\n")
    with pytest.raises(rl.ParseError):
        rl.parse_document("1 -2\n")
    with pytest.raises(rl.ParseError):
        rl.parse_document('{"facets": "nope"}')
    with pytest.raises(rl.ParseError):
        rl.parse_document('{"facets": [[1,2]], "ambient": 3}')
    with pytest.raises(rl.ParseError):
        rl.parse_document("{broken json")
    with pytest.raises(rl.ParseError, match="recursion"):
        rl.parse_document('{"facets": [' + "[" * 200_000 + "1" + "]" * 200_000 + "]}")
    with pytest.raises(rl.ParseError, match="digits"):
        rl.parse_document('{"facets": [[1' + "0" * 5000 + "]]}")
    with pytest.raises(rl.EmptyInput):
        rl.parse_document("# nothing here\n")
    with pytest.raises(rl.ParseError, match="not UTF-8"):
        rl.parse_document(b"1 2\n\xff 3\n")
    with pytest.raises(rl.ParseError, match='"name" must be a string'):
        rl.parse_document('{"name": 3, "facets": [[1, 2]]}')
    with pytest.raises(rl.ParseError, match='needs a "facets" list'):
        rl.parse_document('{"ambient": [1, 2]}')


def test_serialize_round_trip_preserves_ambient():
    cx = rl.from_facets([[1, 2]], ambient=[1, 2, 3, 4, 5])
    blob = rl.serialize_complex(cx)
    assert rl.parse_document(blob)[0] == cx
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
            rows = _binomials(n, d)
            assert rows == [[comb(m, j) for m in range(n)] for j in range(d, 0, -1)]
            last = comb(n, d) - 1
            got = [_unrank_subset(last - k, n, rows) for k in range(comb(n, d))]
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


def test_random_corpus_draws_what_random_pure_complex_draws(monkeypatch):
    """A random corpus sets its draw up once and then draws every trial from
    it; each trial must still be ``random_pure_complex`` at its own seed,
    under its own name, on every benchmark ladder row at that workload's
    trial count."""
    from ridgeline.harness import _iter_corpus

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS

    for w in WORKLOADS.values():
        for n, d, r in w.ladder:
            for seed in (0, 1, 11, 2 ** 32 - 1):
                got = list(_iter_corpus(("random", n, d, r, w.trials), seed))
                subs = [seed * 1_000_003 + k for k in range(w.trials)]
                assert got == [(f"random-{n}-{d}-{r}-seed{s}", rl.random_pure_complex(n, d, r, s))
                               for s in subs], (w.name, n, d, r, seed)


# one bad n, d, r or seed each, with the message every entry point gives
_BAD_DRAWS = [
    ((3, 0, 1, 1), "need 1 <= d <= n"),
    ((3, 5, 1, 1), "need 1 <= d <= n"),
    ((4, 3, 5, 1), "need 1 <= r <= C(4,3) = 4"),
    ((6, 3, 0, 1), "need 1 <= r <= C(6,3) = 20"),
    ((6, 3, -2, 1), "need 1 <= r <= C(6,3) = 20"),
    ((10 ** 7, 1, 1, 1),
     "the (d + 1) * n binomial table of a random draw would hold more than 2**20 cells"),
    ((200, 100, 3, 1), "C(200,100) d-subsets are too many to index"),
    ((8.0, 3, 5, 1), "n must be an integer"),
    ((8, True, 5, 1), "d must be an integer"),
    ((8, 3, "5", 1), "r must be an integer"),
    ((8, 3, 5, 1.5), "seed must be an integer"),
    ((8, 3, 5, None), "seed must be an integer"),
]


@pytest.mark.parametrize("args, message", _BAD_DRAWS)
def test_bad_draw_parameters_refuse_alike(tmp_path, capsys, args, message):
    """``random_pure_complex``, ``verify`` and ``ridgeline generate`` refuse
    a bad draw with the same typed error and message. The CLI parses its
    numbers as ints, so only the int cases reach ``generate``."""
    from ridgeline.cli import main

    n, d, r, seed = args
    with pytest.raises(rl.BadParameters) as direct:
        rl.random_pure_complex(n, d, r, seed)
    with pytest.raises(rl.BadParameters) as verified:
        rl.verify("edge-count", ("random", n, d, r, 2), seed=seed)
    assert str(direct.value) == str(verified.value) == message
    if all(type(v) is int for v in args):
        out = tmp_path / "corpus"
        assert main(["generate", "--n", str(n), "--d", str(d), "--r", str(r), "--count", "2",
                     "--seed", str(seed), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_zero_trial_corpus_refuses_no_draw(tmp_path, capsys):
    """A corpus of no trials draws nothing, so even an (n, d, r) no draw
    could serve is not refused: ``verify`` reports no instance and
    ``generate --count 0`` makes an empty directory."""
    from ridgeline.cli import main

    for n, d, r in ((3, 5, 1), (4, 3, 5), (6, 3, 0), (10 ** 7, 1, 1)):
        rep = rl.verify("edge-count", ("random", n, d, r, 0), stable_time=True)
        assert (rep.instances, rep.trials, rep.counterexamples, rep.skips) == (0, 0, (), ())
        out = tmp_path / f"corpus-{n}-{d}-{r}"
        assert main(["generate", "--n", str(n), "--d", str(d), "--r", str(r), "--count", "0",
                     "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.is_dir() and not list(out.iterdir())


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
    # the range messages keep their prefixes
    with pytest.raises(rl.BadParameters, match="need 1 <= d <= n"):
        rl.random_pure_complex(3, 0, 1, 1)
    with pytest.raises(rl.BadParameters, match="trial count must be nonnegative"):
        rl.verify("edge-count", ("random", 8, 3, 5, -1))
    with pytest.raises(rl.BadParameters, match="r_max must be at least 1"):
        rl.enumerate_pure_complexes(4, 2, 0)
    with pytest.raises(rl.BadParameters, match="unknown corpus kind"):
        rl.verify("edge-count", ("orbits", 4, 2, 2))


@pytest.mark.parametrize("error, call", [
    (rl.BadParameters, lambda: rl.random_pure_complex(20000, 10000, 1, 1)),
    (rl.BadParameters, lambda: rl.random_pure_complex(10 ** 6, 5 * 10 ** 5, 1, 0)),
    (rl.BadParameters, lambda: rl.random_pure_complex(10 ** 7, 1, 1, 0)),
    (rl.BudgetExceeded, lambda: list(rl.enumerate_pure_complexes(30, 5, 4000))),
    (rl.BudgetExceeded, lambda: list(rl.enumerate_pure_complexes(30, 5, 8000))),
    (rl.BudgetExceeded, lambda: list(rl.enumerate_pure_complexes(10 ** 6, 5 * 10 ** 5, 2))),
])
def test_oversized_corpus_parameters_refuse_quickly(error, call):
    """Each of these once spent seconds on a binomial, a binomial table or
    a sum of binomials, or failed formatting one into its message."""
    import time

    start = time.perf_counter()
    with pytest.raises(error):
        call()
    assert time.perf_counter() - start < 1


HUGE = 10 ** 5000  # past the 4300 digits str() of an int allows


@pytest.mark.parametrize("error, call", [
    (rl.BadParameters, lambda: rl.random_pure_complex(5, HUGE, 1, 0)),
    (rl.BadParameters, lambda: rl.random_pure_complex(5, 2, HUGE, 0)),
    (rl.BadParameters, lambda: list(rl.enumerate_pure_complexes(3, HUGE, 1))),
    (rl.BadParameters, lambda: rl.search_budget(-HUGE)),
    (rl.BadParameters, lambda: rl.verify("edge-count", ("random", 5, 2, 2, 1), budget=-HUGE)),
    (rl.BadParameters, lambda: rl.verify("edge-count", ("random", 5, 2, 2, -HUGE))),
    (rl.UnknownVertex, lambda: rl.Graph(3, [(1, HUGE)])),
    (rl.UnknownVertex, lambda: rl.Graph(3).degree(HUGE)),
    (rl.BadParameters, lambda: rl.Graph(HUGE)),
    (rl.BadParameters, lambda: rl.from_facets([[HUGE, 0]])),
    (rl.BadParameters, lambda: rl.count_Nt(rl.from_facets([[1, 2]]), HUGE)),
    (rl.BadParameters, lambda: rl.predicted_beta2(rl.from_facets([[1, 2]]), HUGE)),
    (rl.BadParameters, lambda: rl.monomial_ideal([[HUGE], [HUGE, 1]])),
    (rl.OutOfAmbient, lambda: rl.from_facets([[1, HUGE]], [1])),
    (rl.OverlappingAmbients, lambda: rl.join(rl.from_facets([[HUGE]]), rl.from_facets([[HUGE, 1]]))),
    (rl.DegenerateComplement, lambda: rl.complement_complex(rl.from_facets([[HUGE]]))),
    (rl.BadParameters, lambda: rl.single_swap_order(HUGE)),
    (rl.BadParameters, lambda: rl.verify("deltac", ("random", HUGE))),
    (rl.BadParameters, lambda: rl.random_pure_complex([HUGE], 2, 2, 0)),
    (rl.BadParameters, lambda: rl.Graph(3, [(1, 2, HUGE)])),
    (rl.UnknownTheorem, lambda: rl.verify(HUGE, ("random", 5, 2, 2, 1))),
    (rl.UnknownTheorem, lambda: rl.verify([1], ("random", 5, 2, 2, 1))),
])
def test_refusals_do_not_format_huge_ints(error, call):
    """A refusal message that formatted the caller's int raised ValueError
    for an int past the digit limit, in place of the typed error."""
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("make, fits, over, huge", [
    # cells: facets times facet size, or order squared for a graph
    (rl.make_cone, (32, 2), (33, 2), (HUGE, 2)),
    (rl.make_cycle_complex, (32, 2), (33, 2), (HUGE, 2)),
    (rl.make_simplex_subsets, (64, 1), (65, 1), (HUGE, 1)),
    (rl.complete_graph, (8,), (9,), (HUGE,)),
    (rl.cycle_graph, (8,), (9,), (HUGE,)),
    (rl.path_graph, (8,), (9,), (HUGE,)),
], ids=lambda v: getattr(v, "__name__", None))
def test_generated_families_refuse_past_the_cell_cap(monkeypatch, make, fits, over, huge):
    """A builder refuses a family of more than 2**MAX_BITS cells before
    building it. The cap is lowered to 64 cells first, so a builder that
    lacks the refusal fails there, on a small family, and never reaches the
    huge call, which would build until memory runs out."""
    from ridgeline import complexes

    monkeypatch.setattr(complexes, "MAX_BITS", 6)
    make(*fits)
    with pytest.raises(rl.BadParameters, match=r"more than 2\*\*6 cells"):
        make(*over)
    monkeypatch.undo()
    with pytest.raises(rl.BadParameters, match=r"more than 2\*\*20 cells"):
        make(*huge)


def test_draw_table_cap_is_the_boundary(monkeypatch):
    from ridgeline import complexes

    monkeypatch.setattr(complexes, "MAX_BITS", 6)
    assert rl.random_pure_complex(32, 1, 3, 0).facet_count == 3
    assert rl.random_pure_complex(16, 3, 3, 0).facet_count == 3
    for n, d in ((33, 1), (17, 3), (13, 4)):
        with pytest.raises(rl.BadParameters, match=r"\(d \+ 1\) \* n .* more than 2\*\*6 cells"):
            rl.random_pure_complex(n, d, 1, 0)


def test_enumerate_budget():
    # the up-front count refuses at the call, not at the first next()
    with pytest.raises(rl.BudgetExceeded):
        rl.enumerate_pure_complexes(6, 3, 5, budget=100)


def test_d3_corpus_size(d3_corpus):
    assert len(d3_corpus) == sum(comb(comb(6, 3), r) for r in range(1, 6))
    assert len(d3_corpus) == 21699


@given(st.integers(3, 8), st.integers(1, 4), st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_property_serialize_parse_identity(n, d, r, seed):
    d = min(d, n)
    r = min(r, comb(n, d))
    cx = rl.random_pure_complex(n, d, r, seed)
    assert rl.parse_document(rl.serialize_complex(cx))[0] == cx
    # the analyze document form also parses back
    doc = rl.complex_document(cx, name="x")
    blob = json.dumps(doc).encode()
    got, name = rl.parse_document(blob)
    assert got == cx and name == "x"


# strings with quotes, backslashes, control and non-ASCII characters, and a
# lone surrogate, which the escape writes as a \uXXXX sequence
_TEXT = st.one_of(st.text(max_size=8),
                  st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028", "\ud800", "a\nb\tc"]))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e300, float("inf"), float("-inf"), float("nan")]),
    _TEXT,
)
# int lists with True and False mixed in, written one way and the other
_INT_LISTS = st.lists(st.one_of(st.integers(-(2 ** 70), 2 ** 70), st.booleans()), max_size=5)
_VALUES = st.recursive(
    st.one_of(_SCALARS, _INT_LISTS, _INT_LISTS.map(tuple)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@given(_VALUES)
@settings(max_examples=300, deadline=None)
# the same int list at two indents, and beside an equal-comparing bool list
@example({"b": [1, 2], "a": [[1, 2], (1, 2)], "10": [[True, 2], [1, 2]], "2": {}})
@example([[], {}, (), [0], [False], -(2 ** 64) - 1, 2 ** 64])
def test_property_report_text_is_json_dumps_byte_for_byte(value):
    assert _report_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    OrderedDict(b=1, a=2), defaultdict(list), Counter("ab"), namedtuple("P", "x y")(1, 2),
    UserList([1]), IntEnum("E", "A").A, Fraction(1, 2), object(), {1: 2},
])
def test_report_text_refuses_a_type_no_report_holds(value):
    """A container subclass or foreign scalar fails loudly, also inside a
    list, rather than being written in a form json.dumps would not give."""
    for doc in (value, [value]):
        with pytest.raises(TypeError):
            _report_text(doc)
