"""Verification harness semantics and the command-line surface."""

import json
import tempfile
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeline as rl
from ridgeline import harness
from ridgeline.cli import main
from ridgeline.harness import verify


def test_report_bookkeeping_invariant():
    rep = verify("c3", ("exhaustive", 5, 2, 3), stable_time=True)
    assert rep.trials == rep.confirmations + len(rep.counterexamples)
    assert rep.instances == rep.trials + len(rep.skips)
    assert rep.instances == 175
    # only the three-facet families are trials here
    assert rep.trials == 120 and not rep.counterexamples


def test_unknown_theorem_and_missing_corpus():
    with pytest.raises(rl.UnknownTheorem, match="no theorem 'nope'; known: betti2, "):
        verify("nope", ("exhaustive", 4, 2, 2))
    with pytest.raises(rl.BadParameters):
        verify("deltac", None)
    # the cycle tabulation runs its own grid, so a corpus would mislabel it
    for corpus in [("random", 5, 2, 3, 1), ("exhaustive", 4, 2, 2), ("bogus",)]:
        with pytest.raises(rl.BadParameters, match="takes no corpus"):
            verify("cycle", corpus, seed=9)


def test_report_json_deterministic():
    a = verify("betti2", ("random", 7, 3, 4, 20), seed=5, stable_time=True).to_json()
    b = verify("betti2", ("random", 7, 3, 4, 20), seed=5, stable_time=True).to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["seed"] == 5 and parsed["field"] == "gf2"
    assert "interpretations" in parsed["tabulation"]


def test_betti2_tabulation_counts_add_up():
    rep = verify("betti2", ("exhaustive", 5, 3, 3), stable_time=True)
    stats = rep.tabulation["interpretations"]
    for tag in ("all", "max_disjoint", "isolated"):
        assert stats[tag]["matches"] + stats[tag]["mismatches"] == rep.trials


def test_betti2_counterexample_is_serialized():
    # the simplex boundary defeats all three interpretations; with n=4 and
    # four facets allowed it must appear and be isolated in the report
    rep = verify("betti2", ("exhaustive", 4, 3, 4), stable_time=True)
    assert rep.counterexamples
    first = rep.counterexamples[0]
    assert first["document"]["facets"] == [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
    diag = first["diagnostic"]
    assert diag["oracle"] == 3
    assert diag["predicted"] == {"all": 2, "max_disjoint": 5, "isolated": 6}
    # it is also the first mismatch every interpretation tabulates
    for tag, st in rep.tabulation["interpretations"].items():
        assert st["first_mismatch"]["document"] == first["document"]


def test_cycle_report_documents_both_branches():
    rep = verify("cycle", stable_time=True)
    rows = rep.tabulation["rows"]
    assert len(rows) == sum(r for r in range(4, 9))
    for row in rows:
        if row["branch"] == "windows":
            assert row["line_graph_is_cycle"]
        else:
            # the padded construction comes out complete, not a cycle
            assert row["line_graph_is_complete"] and not row["line_graph_is_cycle"]


def test_cycle_tabulation_does_no_search(tmp_path, capsys):
    # degrees settle C_r and K_r, so even a one-step budget changes nothing
    assert (verify("cycle", budget=1, stable_time=True).to_json()
            == verify("cycle", stable_time=True).to_json())
    out = tmp_path / "rep.json"
    assert main(["verify", "--theorem", "cycle", "--budget", "1", "--stable-output",
                 "--out", str(out)]) == 10
    capsys.readouterr()


@pytest.mark.parametrize("theorem", ["edge-count", "cycle"])
def test_verify_checks_seed_and_budget(theorem):
    corpus = None if theorem == "cycle" else ("random", 8, 3, 5, 1)
    for seed in (1.5, "3", True, None):
        with pytest.raises(rl.BadParameters, match="seed must be an integer"):
            verify(theorem, corpus, seed=seed)
    for budget in (-1, 0, 1.5, "x", True):
        with pytest.raises(rl.BadParameters, match="budget must be a positive integer"):
            verify(theorem, corpus, budget=budget)


def test_shellable_connected_skips_are_hypothesis_failures():
    rep = verify("shellable-connected", ("exhaustive", 5, 2, 2), stable_time=True)
    assert not rep.counterexamples
    assert all("hypothesis" in s["reason"] or "budget" in s["reason"] for s in rep.skips)


def test_files_corpus(tmp_path):
    p1 = tmp_path / "a.json"
    p1.write_bytes(rl.serialize_complex(rl.from_facets([[1, 2], [2, 3]]), name="a"))
    p2 = tmp_path / "b.txt"
    p2.write_text("1 2 3\n2 3 4\n")
    rep = verify("edge-count", ("files", (str(p1), str(p2))), stable_time=True)
    assert rep.instances == 2 and rep.confirmations == 2
    # bytes and os.PathLike paths are paths too
    rep = verify("edge-count", ("files", [bytes(p1), p2]), stable_time=True)
    assert rep.instances == 2 and rep.confirmations == 2


def test_bytes_path_names_its_instance_by_the_decoded_path(tmp_path):
    """A bytes path names an unreadable or unnamed document by the path
    itself, as ``os.fsdecode`` decodes it, never by its ``b'...'`` repr."""
    import os

    empty, nonpure = tmp_path / "e.txt", tmp_path / "np.txt"
    empty.write_text("")
    nonpure.write_text("1 2\n3 4 5\n")
    rep = verify("edge-count", ("files", [bytes(empty), os.fsencode(nonpure)]), stable_time=True)
    assert [s["document"]["name"] for s in rep.skips] == [str(empty), str(nonpure)]
    assert rep.skips[0]["reason"].startswith("unreadable document")
    assert "b'" not in rep.to_json()


@pytest.mark.parametrize("path", [None, 3.5, [b"a.txt"]], ids=["none", "float", "list"])
def test_files_corpus_refuses_a_path_that_is_not_one(path):
    with pytest.raises(rl.BadParameters, match="path must be"):
        verify("edge-count", ("files", [path]))


def test_files_corpus_does_not_open_an_int_as_a_descriptor(tmp_path):
    """An int path was opened as a file descriptor, read as a complex and
    closed; ``[False]`` read stdin and closed fd 0."""
    import os

    p = tmp_path / "a.txt"
    p.write_text("1 2\n2 3\n")
    fd = os.open(p, os.O_RDONLY)
    try:
        with pytest.raises(rl.BadParameters, match="path must be"):
            verify("edge-count", ("files", [str(p), fd]))
        os.fstat(fd)  # still open
    finally:
        os.close(fd)


def test_nonpure_file_becomes_skip(tmp_path, capsys):
    """Every statement skips a non-pure document with the facet-size reason,
    edge-count too, and the CLI then exits 0, not 10."""
    p = tmp_path / "np.txt"
    p.write_text("1 2\n3 4 5\n")
    for theorem in ("betti2", "edge-count"):
        rep = verify(theorem, ("files", (str(p),)), stable_time=True)
        assert rep.instances == 1 and rep.trials == 0 and len(rep.skips) == 1
        assert rep.skips[0]["reason"] == "facet size is defined for pure complexes only"
        assert main(["verify", "--theorem", theorem, "--files", str(p), "--stable-output"]) == 0
        capsys.readouterr()


def test_lattice_past_the_bound_is_a_skip_and_cli_exit_3(tmp_path, monkeypatch, capsys):
    """An instance whose lcm lattice passes 2**MAX_BITS windows is skipped as
    an exhausted budget and the run goes on; ``betti --table`` on it exits 3.
    The bound is lowered to 2**6 first, so the lattice of K8's edges, every
    set of two or more of its eight vertices, passes it cheaply."""
    from itertools import combinations

    from ridgeline import complexes

    wide = tmp_path / "k8.txt"
    wide.write_text("".join(f"{a} {b}\n" for a, b in combinations(range(1, 9), 2)))
    small = tmp_path / "p3.txt"
    small.write_text("1 2\n2 3\n")
    monkeypatch.setattr(complexes, "MAX_BITS", 6)
    rep = verify("froberg", ("files", (str(wide), str(small))), stable_time=True)
    assert rep.instances == 2 and rep.confirmations == 1 and len(rep.skips) == 1
    assert rep.skips[0]["reason"].startswith("budget exceeded: more than 2**6 windows")
    assert main(["verify", "--theorem", "froberg", "--files", str(wide), "--stable-output"]) == 0
    capsys.readouterr()
    assert main(["betti", str(wide), "--table"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("budget exceeded: more than 2**6 windows")
    assert main(["betti", str(small), "--table"]) == 0


def test_betti2_tabulation_holds_every_reading_with_no_trial(tmp_path):
    """The interpretation counts start at zero and stay there when no
    instance is evaluated: an empty random corpus, or a files corpus whose
    only complex is skipped as non-pure."""
    p = tmp_path / "np.txt"
    p.write_text("1 2\n3 4 5\n")
    empty = {"matches": 0, "mismatches": 0, "first_mismatch": None}
    for corpus in [("random", 8, 3, 5, 0), ("files", (str(p),))]:
        rep = verify("betti2", corpus, stable_time=True)
        assert rep.trials == 0
        assert rep.tabulation == {"interpretations": {
            tag: empty for tag in ("all", "max_disjoint", "isolated")}}


def test_cli_analyze_text_and_json(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("1 2 3\n2 3 4\n")
    assert main(["analyze", str(f)]) == 0
    text = capsys.readouterr().out
    assert "line graph" in text and "shellable" in text
    assert main(["analyze", str(f), "--json"]) == 0
    stdout = capsys.readouterr().out
    doc = json.loads(stdout)
    assert doc["beta2"]["oracle"] == doc["beta2"]["predicted"]["all"]
    # --out writes the JSON report and still prints the rendering
    out = tmp_path / "report.json"
    assert main(["analyze", str(f), "--out", str(out)]) == 0
    assert out.read_text() == stdout and capsys.readouterr().out == text


def test_cli_betti_and_linegraph(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("1 2\n2 3\n1 3\n")
    assert main(["betti", str(f), "--i", "2", "--j", "3"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["betti", str(f), "--i", "2", "--j", "3", "--field", "rat"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["betti", str(f), "--i", "1", "--j", "2", "--table"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert [1, 2, 3] in table["entries"]
    assert main(["linegraph", str(f)]) == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["edge_count"] == 3
    # --out writes the same document in place of stdout
    out = tmp_path / "lg.json"
    assert main(["linegraph", str(f), "--out", str(out)]) == 0
    assert out.read_text() == stdout and capsys.readouterr().out == ""


def test_cli_betti_degree_matches_table_entry(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("1 2 3\n2 3 4\n3 4 5\n1 4 5\n")
    for field in ("gf2", "rat"):
        assert main(["betti", str(f), "--i", "1", "--j", "1", "--table", "--field", field]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert entries
        for i, j, rank in entries:
            assert main(["betti", str(f), "--i", str(i), "--j", str(j), "--field", field]) == 0
            assert capsys.readouterr().out.strip() == str(rank)
        # beta_{0,0} = 1 is implicit in the table; j = 9 lies beyond the support
        for i, j, expected in ((0, 0, "1"), (0, 3, "0"), (2, 9, "0")):
            assert main(["betti", str(f), "--i", str(i), "--j", str(j), "--field", field]) == 0
            assert capsys.readouterr().out.strip() == expected


def test_cli_betti_table_needs_no_degree(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("1 2\n2 3\n1 3\n")
    for flag, name in (("gf2", "gf2"), ("rat", "rational")):
        assert main(["betti", str(f), "--table", "--field", flag]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table == {"field": name, "entries": [[1, 2, 3], [2, 3, 2]]}
    # without --table both degrees are needed: a usage error, exit code 2
    for argv in ([], ["--i", "2"], ["--j", "3"]):
        assert main(["betti", str(f), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: betti needs --i and --j, or --table\n"


def test_cli_verify_exit_codes(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["verify", "--theorem", "deltac", "--random", "7,3,4,30",
                 "--seed", "3", "--stable-output", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["confirmations"] == 30
    # the cycle tabulation records literal counterexamples: exit 10
    code = main(["verify", "--theorem", "cycle", "--stable-output", "--out", str(out)])
    assert code == 10
    capsys.readouterr()


def test_cli_usage_and_budget_errors(tmp_path, capsys):
    assert main(["verify", "--theorem", "nope", "--exhaustive", "4,2,2"]) == 2
    assert main(["verify", "--theorem", "deltac"]) == 2
    assert main(["analyze", str(tmp_path / "missing.txt")]) == 2
    # a bool or a float beside an equal int vertex, in either order, and a
    # document nested too deeply to parse
    for facet in ("[1, true]", "[true, 1]", "[1, 1.0]", "[1.0, 1]"):
        (tmp_path / "bad.json").write_text(f'{{"facets": [{facet}]}}')
        assert main(["analyze", str(tmp_path / "bad.json")]) == 2
        assert "not all positive integers" in capsys.readouterr().err
    (tmp_path / "deep.json").write_text('{"facets": [' + "[" * 200_000 + "]" * 200_000 + "]}")
    assert main(["analyze", str(tmp_path / "deep.json")]) == 2
    assert "bad JSON" in capsys.readouterr().err
    assert main(["verify", "--theorem", "edge-count", "--random", "20000,10000,1,1"]) == 2
    assert "(d + 1) * n" in capsys.readouterr().err
    for rmax in ("4000", "8000"):
        assert main(["verify", "--theorem", "edge-count", "--exhaustive", f"30,5,{rmax}"]) == 3
        assert "exceed the budget" in capsys.readouterr().err
    code = main(["verify", "--theorem", "deltac", "--exhaustive", "6,3,5",
                 "--budget", "100"])
    assert code == 3
    capsys.readouterr()
    # a malformed corpus flag, and two corpus flags together, are usage errors
    rnd, exh, files = ["--random", "5,2,3,1"], ["--exhaustive", "4,2,2"], ["--files", "a.json"]
    for flags in (["--random", "bad"], ["--random", "5,2,x,1"], rnd + exh, exh + files,
                  files + rnd):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--theorem", "deltac", *flags])
        assert exc.value.code == 2
    assert capsys.readouterr().err.count("not allowed with") == 3
    out = tmp_path / "cycle.json"
    assert main(["verify", "--theorem", "cycle", "--random", "5,2,3,1",
                 "--out", str(out)]) == 2
    assert "takes no corpus" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_negative_trial_counts(tmp_path, capsys):
    assert main(["verify", "--theorem", "clique-partition", "--random", "5,2,1,-1"]) == 2
    assert "trial count" in capsys.readouterr().err
    out = tmp_path / "corpus"
    assert main(["generate", "--n", "5", "--d", "2", "--r", "1", "--count", "-2",
                 "--out", str(out)]) == 2
    assert "trial count" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(rl.BadParameters):
        verify("star-free", ("random", 5, 2, 1, -1))


def test_cli_generate_makes_its_directory_only_for_good_parameters(tmp_path, capsys):
    out = tmp_path / "corpus"
    for n, d in (("5", "0"), ("20000", "10000")):
        assert main(["generate", "--n", n, "--d", d, "--r", "3", "--count", "2",
                     "--out", str(out)]) == 2
        assert not out.exists()
    capsys.readouterr()
    assert main(["generate", "--n", "5", "--d", "2", "--r", "3", "--count", "0",
                 "--out", str(out)]) == 0
    assert out.is_dir() and not list(out.iterdir())


def _readings(tabulation):
    """A betti2 tabulation without its documents, whose labels may differ."""
    if tabulation is None:
        return None
    return {tag: {**stat, "first_mismatch": stat["first_mismatch"]
                  and {**stat["first_mismatch"], "document": None}}
            for tag, stat in tabulation["interpretations"].items()}


def _verdicts(theorem, facets, path, field="gf2"):
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in facets))
    rep = verify(theorem, ("files", (str(path),)), field=field, stable_time=True)
    return (rep.confirmations, [c["diagnostic"] for c in rep.counterexamples],
            [s["reason"] for s in rep.skips], _readings(rep.tabulation))


@given(st.integers(4, 9), st.integers(2, 4), st.integers(1, 14), st.integers(0, 10 ** 6),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_property_line_graph_verdicts_invariant_under_relabelling(n, d, r, seed, rnd):
    facets = rl.random_pure_complex(n, d, min(r, comb(n, d)), seed).facets
    labels = rnd.sample(range(1, 3 * n), n)
    moved = [rnd.sample([labels[v - 1] for v in f], d) for f in facets]
    rnd.shuffle(moved)
    with tempfile.TemporaryDirectory() as tmp:
        for theorem in ("clique-partition", "star-free", "edge-count", "complete",
                        "chordal-main", "dual-chordal"):
            # a witness partition may differ; the verdict and its diagnostic may not
            assert (_verdicts(theorem, facets, Path(tmp) / "a.txt")
                    == _verdicts(theorem, moved, Path(tmp) / "b.txt")), theorem
        # a deltac diagnostic names a facet pair by facet order, and a
        # shelling order may differ, so only the counts must agree
        for theorem in ("deltac", "shellable-connected"):
            conf_a, diags_a, skips_a, _ = _verdicts(theorem, facets, Path(tmp) / "a.txt")
            conf_b, diags_b, skips_b, _ = _verdicts(theorem, moved, Path(tmp) / "b.txt")
            assert (conf_a, len(diags_a), len(skips_a)) == (conf_b, len(diags_b), len(skips_b)), theorem


@given(st.integers(4, 8), st.integers(2, 4), st.integers(1, 12), st.integers(0, 10 ** 6),
       st.randoms(use_true_random=False), st.sampled_from(["gf2", "rational"]))
@settings(max_examples=30, deadline=None)
def test_property_betti2_verdicts_invariant_under_relabelling(n, d, r, seed, rnd, field):
    facets = rl.random_pure_complex(n, d, min(r, comb(n, d)), seed).facets
    labels = rnd.sample(range(1, 3 * n), n)
    moved = [rnd.sample([labels[v - 1] for v in f], d) for f in facets]
    rnd.shuffle(moved)
    with tempfile.TemporaryDirectory() as tmp:
        for theorem in ("betti2", "ev-d2"):
            # the oracle, each prediction and its match, or the skip reason
            assert (_verdicts(theorem, facets, Path(tmp) / "a.txt", field)
                    == _verdicts(theorem, moved, Path(tmp) / "b.txt", field)), theorem


@given(st.integers(4, 7), st.integers(2, 3), st.one_of(st.just(3), st.integers(1, 9)),
       st.integers(0, 10 ** 6), st.randoms(use_true_random=False),
       st.sampled_from(["gf2", "rational"]))
@settings(max_examples=30, deadline=None)
def test_property_c3_froberg_corollary_chain_invariant_under_relabelling(n, d, r, seed, rnd,
                                                                          field):
    facets = rl.random_pure_complex(n, d, min(r, comb(n, d)), seed).facets
    labels = rnd.sample(range(1, 3 * n), n)
    moved = [rnd.sample([labels[v - 1] for v in f], d) for f in facets]
    rnd.shuffle(moved)
    with tempfile.TemporaryDirectory() as tmp:
        for theorem in ("c3", "froberg", "corollary-chain"):
            # the shape, both Froberg sides, every chain check, or the skip reason
            assert (_verdicts(theorem, facets, Path(tmp) / "a.txt", field)
                    == _verdicts(theorem, moved, Path(tmp) / "b.txt", field)), theorem


def test_cli_generate_round_trip(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["generate", "--n", "6", "--d", "3", "--r", "4",
                 "--count", "3", "--seed", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    files = sorted(out.glob("*.json"))
    assert len(files) == 3
    corpus = list(harness._iter_corpus(("random", 6, 3, 4, 3), 9))
    for k, (f, (name, cx)) in enumerate(zip(files, corpus)):
        assert json.loads(f.read_bytes()) == rl.complex_document(cx, name)
        assert rl.parse_document(f.read_bytes()) == (cx, name)
        assert cx == rl.random_pure_complex(6, 3, 4, 9 * 1_000_003 + k)
        assert name == f"random-6-3-4-seed{9 * 1_000_003 + k}"

