"""Frozen report bytes: sha256 digests of ``verify(...).to_json()``, of
``render_analysis`` output and of the JSON that ``ridgeline analyze --json``
and ``ridgeline linegraph`` print, over small seeded and file corpora.

The digests pin every confirmation, counterexample diagnostic and skip
reason (including the messages of non-pure, facet-size-1, degenerate and
budget-exhausted instances), so a rewrite of the line-graph layer or of the
searches must reproduce the reports byte for byte. Regenerate them only for
an intended change of the report contents: ``python tests/test_golden_reports.py``
prints the current digests.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

import ridgeline as rl
from oracles import (
    oracle_chordal_hypotheses,
    oracle_clique_edge_partition,
    oracle_has_induced_star,
    oracle_minor_chase,
)
from ridgeline.cli import main
from ridgeline.harness import _chordal_hypotheses, _iter_corpus, _ridge_graph

# file corpus; a document without a name is reported under its path, so the
# files are read by relative path from the directory they are written to
FILES = {
    "nonpure.txt": "1 2 3\n3 4\n",
    "points.txt": "1\n2\n5\n",
    "sparse.json": json.dumps({
        "ambient": [1, 7, 1000000, 3, 9, 40],
        "facets": [[1, 7, 1000000], [1, 7, 3], [1, 3, 1000000], [7, 3, 1000000], [3, 9, 40]],
        "name": "sparse",
    }),
    "cone.txt": "1 2 3\n1 2 4\n1 2 5\n1 2 6\n",
    "simplex.txt": "1 2 3\n1 2 4\n1 3 4\n2 3 4\n",
    "whole.json": json.dumps({"facets": [[1, 2, 3]], "name": "whole"}),
    "tri.txt": "1 2\n2 3\n1 3\n",
}

RANDOM_CORPORA = (
    ("random", 7, 3, 6, 25),
    ("random", 8, 2, 9, 25),
    ("random", 6, 3, 8, 15),
    ("random", 8, 4, 7, 10),
    ("random", 6, 3, 3, 25),
    ("random", 5, 2, 3, 25),
)

# the froberg statement needs facet size 2: the d = 2 rows above and one
# denser row, whose whole rational and GF(2) tables the window scan fills
FROBERG_CORPORA = tuple(c for c in RANDOM_CORPORA if c[2] == 2) + (("random", 7, 2, 12, 15),)

# its Stanley-Reisner ideals have generators of two degrees (2 and 3, or 2
# and 4), so the scan runs on ideals that are not edge ideals
COROLLARY_CORPUS = ("exhaustive", 5, 3, 5)

STATEMENTS = ("edge-count", "betti2", "ev-d2", "deltac", "complete", "c3",
              "star-free", "clique-partition", "shellable-connected", "dual-chordal", "cycle")

# (theorem, corpus, budgets) chosen so that the budgets run out on some
# instances and not on others, which pins every search's step count; the
# clique-cover bound settles every star search of the (8, 3, 8) corpus
# within one step, so the (9, 3, 40) corpus keeps star-free exhaustion pinned;
# the chordality corpora pass 12 and 4 instances through the hypothesis gate,
# whose minor chases take 4 to 12 and 5 to 11 steps (one dual-chordal
# counterexample at 5)
BUDGETED = (
    ("betti2", ("random", 5, 2, 8, 12), (3, 5, 8, 13)),
    ("betti2", ("random", 6, 3, 12, 8), (21, 55, 89, 144)),
    ("star-free", ("random", 8, 3, 8, 12), (1, 2, 3, 5, 8, 13)),
    ("star-free", ("random", 9, 3, 40, 12), (1, 3, 8, 21, 55, 144)),
    ("clique-partition", ("random", 8, 3, 8, 12), (1, 2, 3, 5, 8, 13)),
    ("shellable-connected", ("random", 6, 3, 8, 12), (3, 5, 8, 13)),
    ("chordal-main", ("random", 6, 3, 6, 40), (3, 5, 8, 13)),
    ("dual-chordal", ("random", 6, 3, 7, 40), (3, 5, 9, 13)),
)

ANALYZED = {
    "bd3": ([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]], None),
    "edges": ([[1, 2], [2, 3], [1, 3], [3, 4], [4, 5]], range(1, 7)),
    "sparse": ([[1, 7, 10 ** 6], [1, 7, 3], [1, 3, 10 ** 6], [7, 3, 10 ** 6], [3, 9, 40]], None),
    "nonpure": ([[1, 2, 3], [3, 4]], None),
    "simplex": ([[1, 2, 3]], None),
}

# twelve facets, so that the "facet_of" keys "10" to "12" of the linegraph
# JSON sort before "2" as strings
LINEGRAPH_FACETS = ((1, 2, 5), (1, 4, 5), (1, 4, 7), (1, 5, 6), (2, 3, 4), (2, 3, 5),
                    (2, 6, 7), (3, 4, 5), (3, 4, 6), (3, 5, 6), (3, 6, 7), (4, 5, 6))

# generated with the code before the bitmask line-graph core
GOLDEN = {
    # re-frozen when edge-count began to skip non-pure documents: nonpure.txt
    # moved from the counterexamples to the skips, with the facet-size reason
    'edge-count': '043a1877d926a992420543fca97a074658fb9b8313f336febff18a90394b6b45',
    'betti2': '470ac1d73abf69e13f7d0d1996c21af03ea65035160a2a8ac2bdcc834a33714c',
    'ev-d2': '181c9cbf8e305abaa7787652be4223baeacd48e46fb0d39a33dd54288b080f75',
    'deltac': 'f5206c389df8e17c08d3af5dad396c9754db0fbb502c858d61cb438e08e392f0',
    'complete': 'f9d56ae6de2ea4fb6ed41f5d76bc89f913ec50a16dc5e2f7657d340fb5cc2373',
    'c3': '59b78fa87a5beb05726c28fa802643fd89fd9ef99b22b604b9cba3875df28d92',
    'star-free': 'ac05b243e862282ac1d301ec9d87ed72df9ebdaa02f8b8417422a909b3e54914',
    'clique-partition': '5da76afa18918dd3514930ef3795d9f5a3b2b86f91efeac1e8c26bc107f20f6c',
    # re-frozen when shellable-connected began to take its purity refusal
    # from facet_size: nonpure.txt's skip reason is now the facet-size one
    'shellable-connected': '9e56ee1cb54746de1d5c86cf66d614035f9f23fbaefd7a620b8946cb0f8ebbe5',
    # frozen before the degenerate-complement refusal moved to the verify
    # loop: pins the skips of whole.json (degenerate) and nonpure.txt (gate)
    'dual-chordal': 'f884379727e8093bae8c244d530d469a981e5fae15dcf5f318d0bdd3626e4731',
    'cycle': 'c3f5989e09dfbb67cbc52a5ebae295fb3161f6a2b608dff53a025cf24fd11767',
    'betti2-rat': 'b60365001ec19e730e4ef727390d4bc1ba7fa564275c2ad7c455c0a4563531ca',
    # frozen from the window scan before it collapsed memo misses to a core
    'froberg': 'cda69e9d8f59958a5b469c24717d12bcaf7f295217f0bfa1618b33e25963c784',
    'froberg-rat': 'c71d9ae6c5c7c9a621d123a8795979ab97e2d9aff95049d61ccf483c115d9ff2',
    'corollary-chain': '58d2fa8a67e948ab72eecadb43e8295f08d5d7a120e5a75213d45d1ab666524f',
    'betti2-budgets-5-2-8': '9ea48df32b5c6890eb4a27f764bc25b338de03a19e28a7ff88fa0ee4d165d460',
    'betti2-budgets-6-3-12': '05edf7166f9777d8cbffeb6a9ddfb999e35ca8e2f1bb961a5cbe3954f6b375bf',
    # re-frozen with the clique-cover bound of has_induced_star: no instance
    # runs out of budget any more, and no verdict changed
    'star-free-budgets-8-3-8': '8f300c0c07521c986b2d632a3658f8abc35683d050770d80a7980f17ea18a92c',
    'star-free-budgets-9-3-40': 'c7c77ae4932408c692f10886e8db9257a5b11dd03029f52bad7c9c211fd8a8db',
    # re-frozen with the residual independent-set bound of
    # clique_edge_partition: at budget 13 the one instance that ran out is
    # now decided (confirmed, as unbudgeted); budgets 1 to 8 still run out
    'clique-partition-budgets-8-3-8': '9f3ca3be5128fe6434eabf9840f685997dc17baff40429d01785c393ab351fdf',
    'shellable-connected-budgets-6-3-8': '79e25a5b5356bcba0abeeb0bbd6b298eafe666687ed20b032d61c3fc9e587b49',
    # re-frozen when the chase stopped visiting minors of at most three
    # facets: its step counts fell, so the budgets above were re-picked to
    # straddle the new counts; no unbudgeted verdict changed
    'chordal-main-budgets-6-3-6': '4f5b3757ffc95a514b31b52901c2ab40ea1349fc43fc4df9948e78b6a28d955c',
    'dual-chordal-budgets-6-3-7': 'b957076e976788b119b7ef93368d9b2f32c3589815d8160b4a16b0dfd196575d',
    'analyze-bd3': 'fa7efe039a30f9931b3a0ba93e05bb0d45a8fa2f3e9e2080d6f746c2b5c0eb07',
    'analyze-edges': '5aab9396d2c3d161a0b1def939522f3e43f079d218655efddc4efa4b38b03af1',
    'analyze-sparse': '507b3ac98ed898b771339d30c05f6b569a37b46468c3c17b147a16b3e1aba737',
    'analyze-nonpure': '22590b9eb9377a56f3e6e9a879e9b9415fed4c107114d878261e187984250611',
    # frozen from json.dumps(..., sort_keys=True, indent=2) before the one
    # report writer replaced it
    'analyze-json-bd3': '97d0e96e276dac643d424757f802e3b274318ec0e9023933e53129396fd6c333',
    'analyze-json-edges': 'a74474cf6a65f5d34b35ab6a3dfa385f915f6c4c5e9b2c3da5af0099eebeac68',
    'analyze-json-sparse': '582853f473100393dd9d1f8676f8b26af21131045b72e1906f0ed3412ca707a7',
    'analyze-json-nonpure': 'd57be185e930903b1c60311c8f819d6bd969aaf430764ce88152d3491480389d',
    # the full simplex, whose Cohen-Macaulay test is refused with a note;
    # re-frozen when is_cohen_macaulay took that refusal from
    # complement_complex: the note is now the degenerate-complement reason
    'analyze-simplex': 'a2a3510abb2fc65f11e3d36bc6d546f41e3e001c0906ace9b984f9b84494d9b5',
    'analyze-json-simplex': '91851264c76174bd22ac12311064ec6d67a4e332751188d74f165d627537ee6b',
    'linegraph-12': '88af3175ff8b6dfbf661cdac33d9c6bf8a93ef248eee9ac7c23056281384ab39',
}


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
    return h.hexdigest()


def _cli_files() -> dict:
    """The documents the CLI digests read: one named JSON document per
    complex of ANALYZED, and the facets of LINEGRAPH_FACETS as text."""
    out = {}
    for key, (facets, ambient) in ANALYZED.items():
        doc = {"facets": facets, "name": key}
        if ambient is not None:
            doc["ambient"] = list(ambient)
        out[f"analyze-{key}.json"] = json.dumps(doc)
    out["lg12.txt"] = "".join(" ".join(map(str, f)) + "\n" for f in LINEGRAPH_FACETS)
    return out


def _write_files(directory) -> None:
    for name, text in {**FILES, **_cli_files()}.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _verify_json(theorem, corpus, seed=3, budget=None, field="gf2") -> str:
    return rl.verify(theorem, corpus, seed=seed, field=field, budget=budget,
                     stable_time=True).to_json()


def current_digests() -> dict:
    """Every digest of GOLDEN, computed in the current working directory
    (which must hold the files of FILES)."""
    out = {}
    files = ("files", sorted(FILES))
    for theorem in STATEMENTS:
        if theorem == "cycle":
            out[theorem] = _digest([_verify_json(theorem, None)])
            continue
        out[theorem] = _digest(
            [_verify_json(theorem, c) for c in RANDOM_CORPORA] + [_verify_json(theorem, files)])
    out["betti2-rat"] = _digest([_verify_json("betti2", c, field="rat") for c in RANDOM_CORPORA[:3]])
    out["froberg"] = _digest([_verify_json("froberg", c) for c in FROBERG_CORPORA])
    out["froberg-rat"] = _digest([_verify_json("froberg", c, field="rat") for c in FROBERG_CORPORA])
    out["corollary-chain"] = _digest([_verify_json("corollary-chain", COROLLARY_CORPUS)])
    for theorem, corpus, budgets in BUDGETED:
        out[f"{theorem}-budgets-" + "-".join(map(str, corpus[1:4]))] = _digest(
            [_verify_json(theorem, corpus, seed=5, budget=b) for b in budgets])
    for key, (facets, ambient) in ANALYZED.items():
        cx = rl.from_facets(facets, ambient)
        out[f"analyze-{key}"] = _digest([rl.render_analysis(rl.analyze(cx, name=key))])
        out[f"analyze-json-{key}"] = _digest([_cli_stdout(["analyze", f"analyze-{key}.json", "--json"])])
    out["linegraph-12"] = _digest([_cli_stdout(["linegraph", "lg12.txt"])])
    return out


def test_report_bytes_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path)
    got = current_digests()
    assert sorted(got) == sorted(GOLDEN)
    changed = [key for key in GOLDEN if got[key] != GOLDEN[key]]
    assert not changed, f"report bytes changed for {changed}"


def _assert_budgeted_runs_agree(theorem, oracle_runs_out):
    """At every frozen budget of ``theorem``, each decided instance has its
    unbudgeted verdict, and the bounded search runs out on no more instances
    than the reference search, ``oracle_runs_out(g, d, budget)``, would."""
    for name, corpus, budgets in BUDGETED:
        if name != theorem:
            continue
        full = rl.verify(theorem, corpus, seed=5)
        assert not full.skips
        graphs = [(_ridge_graph(cx), rl.facet_size(cx)) for _, cx in _iter_corpus(corpus, 5)]
        for budget in budgets:
            report = rl.verify(theorem, corpus, seed=5, budget=budget)
            skipped = {s["document"]["name"] for s in report.skips}
            kept = [c for c in full.counterexamples if c["document"]["name"] not in skipped]
            assert list(report.counterexamples) == kept
            assert report.instances == full.instances
            assert report.trials == full.instances - len(skipped)
            oracle_skips = sum(oracle_runs_out(g, d, budget) for g, d in graphs)
            assert len(skipped) <= oracle_skips, (corpus, budget)


def _runs_out(search, *args) -> bool:
    try:
        search(*args)
    except rl.BudgetExceeded:
        return True
    return False


def test_budgeted_star_free_agrees_and_skips_no_more_than_oracle():
    _assert_budgeted_runs_agree(
        "star-free", lambda g, d, budget: _runs_out(oracle_has_induced_star, g, d + 1, budget))


def test_budgeted_clique_partition_agrees_and_skips_no_more_than_oracle():
    _assert_budgeted_runs_agree(
        "clique-partition",
        lambda g, d, budget: _runs_out(oracle_clique_edge_partition, g, d, budget))


def test_chordal_gate_matches_diameter_first_oracle():
    """The gate tests connectivity, then chordality, then the diameter; the
    oracle takes the diameter first. Both give the same verdict, reason and
    diagnostic on every complex of (6, 3, <= 4) and on draws at the
    benchmark's searches rows, and each of the four outcomes occurs."""
    outcomes = set()
    for corpus in (("exhaustive", 6, 3, 4), ("random", 6, 3, 5, 100),
                   ("random", 6, 3, 7, 100), ("random", 7, 3, 6, 100)):
        for _, cx in _iter_corpus(corpus, 5):
            gate = _chordal_hypotheses(cx)
            assert gate == oracle_chordal_hypotheses(cx.facets), (corpus, cx)
            outcomes.add(gate[1] if not gate[0] else "passed")
    assert outcomes >= {"passed", "line graph disconnected", "line graph not chordal",
                        "line graph diameter 4 exceeds facet size 3"}


@pytest.mark.parametrize("theorem", ["chordal-main", "dual-chordal"])
def test_budgeted_chordality_skips_exactly_where_oracle_chase_runs_out(theorem):
    """At every frozen budget, the gated instances skipped for budget are
    exactly those whose oracle chase takes more steps, and the others keep
    their unbudgeted verdicts."""
    (corpus, budgets), = [(c, b) for name, c, b in BUDGETED if name == theorem]
    full = rl.verify(theorem, corpus, seed=5)
    steps = {}
    for name, cx in _iter_corpus(corpus, 5):
        if _chordal_hypotheses(cx)[0]:
            target = rl.complement_complex(cx) if theorem == "dual-chordal" else cx
            steps[name] = oracle_minor_chase(target.facets)[1]
    assert steps and not any("budget" in s["reason"] for s in full.skips)
    for budget in budgets:
        report = rl.verify(theorem, corpus, seed=5, budget=budget)
        ran_out = {s["document"]["name"] for s in report.skips if "budget" in s["reason"]}
        assert ran_out == {name for name, n in steps.items() if n > budget}, budget
        kept = [c for c in full.counterexamples if c["document"]["name"] not in ran_out]
        assert list(report.counterexamples) == kept
        assert report.trials == full.trials - len(ran_out)
    assert min(steps.values()) <= max(budgets) and max(steps.values()) > min(budgets)


def test_unreadable_files_become_skips(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.txt").write_text("# no facets\n")
    (tmp_path / "bad.json").write_text('{"facets": [[1, 2], [2, "x"]]}')
    (tmp_path / "good.txt").write_text("1 2\n2 3\n")
    (tmp_path / "deep.json").write_text('{"facets": [' + "[" * 200_000 + "1" + "]" * 200_000 + "]}")
    report = rl.verify("edge-count", ("files", ["empty.txt", "bad.json", "good.txt", "deep.json"]))
    assert report.instances == 4 and report.confirmations == 1
    assert [s["document"] for s in report.skips] == [{"name": "empty.txt"}, {"name": "bad.json"},
                                                     {"name": "deep.json"}]
    assert report.skips[0]["reason"] == "unreadable document: a complex needs at least one face"
    assert report.skips[1]["reason"] == ("unreadable document: "
                                         "vertices [2, 'x'] are not all positive integers")
    assert report.skips[2]["reason"].startswith("unreadable document: bad JSON: maximum recursion")
    with pytest.raises(FileNotFoundError):
        rl.verify("edge-count", ("files", ["good.txt", "missing.txt"]))


def test_analyze_budget_exhaustion_message():
    cx = rl.from_facets(ANALYZED["bd3"][0])
    report = rl.analyze(cx, budget=1)
    note = "search budget of 1 steps exhausted"
    assert report["nt"]["max_disjoint"] is None and report["nt_note"] == note
    assert report["beta2"]["predicted"]["max_disjoint"] is None
    assert report["shellable"] is None and report["shellable_note"] == note
    text = rl.render_analysis(report)
    assert f"max_disjoint=None, isolated=0 ({note})" in text
    assert f"shellable: None ({note})" in text


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            _write_files(tmp)
            digests = current_digests()
        finally:
            os.chdir(here)
    for key, value in digests.items():
        print(f"    {key!r}: {value!r},")
