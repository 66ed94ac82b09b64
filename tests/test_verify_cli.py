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
    with pytest.raises(rl.UnknownTheorem):
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


def test_nonpure_file_becomes_skip(tmp_path):
    p = tmp_path / "np.txt"
    p.write_text("1 2\n3 4 5\n")
    rep = verify("betti2", ("files", (str(p),)), stable_time=True)
    assert rep.instances == 1 and rep.trials == 0 and len(rep.skips) == 1


def test_cli_analyze_text_and_json(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("1 2 3\n2 3 4\n")
    assert main(["analyze", str(f)]) == 0
    text = capsys.readouterr().out
    assert "line graph" in text and "shellable" in text
    assert main(["analyze", str(f), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["beta2"]["oracle"] == doc["beta2"]["predicted"]["all"]


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
    doc = json.loads(capsys.readouterr().out)
    assert doc["edge_count"] == 3


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
    code = main(["verify", "--theorem", "deltac", "--exhaustive", "6,3,5",
                 "--budget", "100"])
    assert code == 3
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "deltac", "--random", "bad"])
    assert exc.value.code == 2
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
    assert main(["generate", "--n", "5", "--d", "0", "--r", "3", "--count", "2",
                 "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()
    assert main(["generate", "--n", "5", "--d", "2", "--r", "3", "--count", "0",
                 "--out", str(out)]) == 0
    assert out.is_dir() and not list(out.iterdir())


def _verdicts(theorem, facets, path):
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in facets))
    rep = verify(theorem, ("files", (str(path),)), stable_time=True)
    return (rep.confirmations, [c["diagnostic"] for c in rep.counterexamples],
            [s["reason"] for s in rep.skips])


@given(st.integers(4, 9), st.integers(2, 4), st.integers(1, 14), st.integers(0, 10 ** 6),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_property_line_graph_verdicts_invariant_under_relabelling(n, d, r, seed, rnd):
    facets = rl.random_pure_complex(n, d, min(r, comb(n, d)), seed).facets
    labels = rnd.sample(range(1, 3 * n), n)
    moved = [rnd.sample([labels[v - 1] for v in f], d) for f in facets]
    rnd.shuffle(moved)
    with tempfile.TemporaryDirectory() as tmp:
        for theorem in ("clique-partition", "star-free", "edge-count", "complete"):
            # a witness partition may differ; the verdict and its diagnostic may not
            assert (_verdicts(theorem, facets, Path(tmp) / "a.txt")
                    == _verdicts(theorem, moved, Path(tmp) / "b.txt")), theorem
        # a deltac diagnostic names a facet pair by facet order, so only the
        # counts must agree
        conf_a, diags_a, skips_a = _verdicts("deltac", facets, Path(tmp) / "a.txt")
        conf_b, diags_b, skips_b = _verdicts("deltac", moved, Path(tmp) / "b.txt")
        assert (conf_a, len(diags_a), len(skips_a)) == (conf_b, len(diags_b), len(skips_b))


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


def test_budget_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FRL_BUDGET", "100")
    code = main(["verify", "--theorem", "deltac", "--exhaustive", "6,3,5"])
    assert code == 3
    capsys.readouterr()
    monkeypatch.delenv("FRL_BUDGET")
