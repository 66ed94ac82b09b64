"""Frozen report bytes: sha256 digests of ``verify(...).to_json()`` and of
``render_analysis`` output over small seeded and file corpora.

The digests pin every confirmation, counterexample diagnostic and skip
reason (including the messages of non-pure, facet-size-1, degenerate and
budget-exhausted instances), so a rewrite of the line-graph layer or of the
searches must reproduce the reports byte for byte. Regenerate them only for
an intended change of the report contents: ``python tests/test_golden_reports.py``
prints the current digests.
"""

import hashlib
import json
import os

import pytest

import ridgeline as rl
from oracles import (
    oracle_clique_edge_partition,
    oracle_has_induced_star,
    oracle_minor_chase,
)
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

STATEMENTS = ("edge-count", "betti2", "ev-d2", "deltac", "complete", "c3",
              "star-free", "clique-partition", "shellable-connected", "cycle")

# (theorem, corpus, budgets) chosen so that the budgets run out on some
# instances and not on others, which pins every search's step count; the
# clique-cover bound settles every star search of the (8, 3, 8) corpus
# within one step, so the (9, 3, 40) corpus keeps star-free exhaustion pinned;
# the chordality corpora pass 12 and 4 instances through the hypothesis gate,
# whose minor chases take 42 to 79 and 68 to 85 steps (one dual-chordal
# counterexample at 75)
BUDGETED = (
    ("betti2", ("random", 5, 2, 8, 12), (3, 5, 8, 13)),
    ("betti2", ("random", 6, 3, 12, 8), (21, 55, 89, 144)),
    ("star-free", ("random", 8, 3, 8, 12), (1, 2, 3, 5, 8, 13)),
    ("star-free", ("random", 9, 3, 40, 12), (1, 3, 8, 21, 55, 144)),
    ("clique-partition", ("random", 8, 3, 8, 12), (1, 2, 3, 5, 8, 13)),
    ("shellable-connected", ("random", 6, 3, 8, 12), (3, 5, 8, 13)),
    ("chordal-main", ("random", 6, 3, 6, 40), (21, 46, 55, 89)),
    ("dual-chordal", ("random", 6, 3, 7, 40), (34, 68, 75, 89)),
)

ANALYZED = {
    "bd3": ([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]], None),
    "edges": ([[1, 2], [2, 3], [1, 3], [3, 4], [4, 5]], range(1, 7)),
    "sparse": ([[1, 7, 10 ** 6], [1, 7, 3], [1, 3, 10 ** 6], [7, 3, 10 ** 6], [3, 9, 40]], None),
    "nonpure": ([[1, 2, 3], [3, 4]], None),
}

# generated with the code before the bitmask line-graph core
GOLDEN = {
    'edge-count': 'bfbe368a8409585758bec596d6bb053e0d23e7b71f6b941dd1cec400d818b1a4',
    'betti2': '470ac1d73abf69e13f7d0d1996c21af03ea65035160a2a8ac2bdcc834a33714c',
    'ev-d2': '181c9cbf8e305abaa7787652be4223baeacd48e46fb0d39a33dd54288b080f75',
    'deltac': 'f5206c389df8e17c08d3af5dad396c9754db0fbb502c858d61cb438e08e392f0',
    'complete': 'f9d56ae6de2ea4fb6ed41f5d76bc89f913ec50a16dc5e2f7657d340fb5cc2373',
    'c3': '59b78fa87a5beb05726c28fa802643fd89fd9ef99b22b604b9cba3875df28d92',
    'star-free': 'ac05b243e862282ac1d301ec9d87ed72df9ebdaa02f8b8417422a909b3e54914',
    'clique-partition': '5da76afa18918dd3514930ef3795d9f5a3b2b86f91efeac1e8c26bc107f20f6c',
    'shellable-connected': '7c1df2839a2c006ee80c1d208911c773a644be85ad5b3a4bff1c428d4862260b',
    'cycle': 'c3f5989e09dfbb67cbc52a5ebae295fb3161f6a2b608dff53a025cf24fd11767',
    'betti2-rat': 'b60365001ec19e730e4ef727390d4bc1ba7fa564275c2ad7c455c0a4563531ca',
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
    # frozen from the chase before it split each minor once per vertex
    'chordal-main-budgets-6-3-6': '1b2d94ee07ca2790d0b6445a7bbf209e524c8a0b094521b7c5f08b5b850e1e73',
    'dual-chordal-budgets-6-3-7': '87c20dbc318b82962c2c3507ccfe20f4bf9fdc36c4a6c53815949d6899599fd3',
    'analyze-bd3': 'fa7efe039a30f9931b3a0ba93e05bb0d45a8fa2f3e9e2080d6f746c2b5c0eb07',
    'analyze-edges': '5aab9396d2c3d161a0b1def939522f3e43f079d218655efddc4efa4b38b03af1',
    'analyze-sparse': '507b3ac98ed898b771339d30c05f6b569a37b46468c3c17b147a16b3e1aba737',
    'analyze-nonpure': '22590b9eb9377a56f3e6e9a879e9b9415fed4c107114d878261e187984250611',
}


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
    return h.hexdigest()


def _write_files(directory) -> None:
    for name, text in FILES.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


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
    for theorem, corpus, budgets in BUDGETED:
        out[f"{theorem}-budgets-" + "-".join(map(str, corpus[1:4]))] = _digest(
            [_verify_json(theorem, corpus, seed=5, budget=b) for b in budgets])
    for key, (facets, ambient) in ANALYZED.items():
        cx = rl.from_facets(facets, ambient)
        out[f"analyze-{key}"] = _digest([rl.render_analysis(rl.analyze(cx, name=key))])
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
    report = rl.verify("edge-count", ("files", ["empty.txt", "bad.json", "good.txt"]))
    assert report.instances == 3 and report.confirmations == 1
    assert [s["document"] for s in report.skips] == [{"name": "empty.txt"}, {"name": "bad.json"}]
    assert report.skips[0]["reason"] == "unreadable document: a complex needs at least one face"
    assert report.skips[1]["reason"] == ("unreadable document: "
                                         "vertices [2, 'x'] are not all positive integers")
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
