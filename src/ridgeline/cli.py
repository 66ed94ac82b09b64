"""Command-line front end.

Subcommands: analyze, linegraph, betti, verify, generate. Exit codes: 0 for
success (verify: everything confirmed), 10 when verify found counterexamples,
2 for usage or input errors, 3 when the search budget ran out. The budget
comes from --budget when given, else the FRL_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, islice
from pathlib import Path

from .algebra import beta_in_degree, betti_table, facet_ideal
from .errors import BudgetExceeded, RidgelineError
from .harness import (
    _iter_corpus,
    analyze,
    parse_document,
    render_analysis,
    serialize_complex,
    verify,
)
from .linegraph import line_graph, ridge_counts


def _read_document(path: str):
    data = Path(path).read_bytes()
    cx, name = parse_document(data)
    return cx, (name or Path(path).name)


def _ints(count: int, flag: str):
    def convert(text: str):
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(
                f"{flag} needs {count} comma-separated integers, got {text!r}")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} needs integers, got {text!r}") from None
    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridgeline",
        description="Line graphs of pure complexes and exact Betti tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full report for one complex file")
    p_an.add_argument("file")
    p_an.add_argument("--field", choices=["gf2", "rat"], default="gf2")
    p_an.add_argument("--json", action="store_true", help="print JSON instead of text")
    p_an.add_argument("--out", help="also write the JSON report to this path")
    p_an.add_argument("--budget", type=int, default=None)

    p_lg = sub.add_parser("linegraph", help="line graph of one complex file")
    p_lg.add_argument("file")
    p_lg.add_argument("--out", help="write the JSON to this path instead of stdout")

    p_bt = sub.add_parser("betti", help="graded Betti number of the facet ideal")
    p_bt.add_argument("file")
    p_bt.add_argument("--i", type=int, required=True, help="homological index")
    p_bt.add_argument("--j", type=int, required=True, help="internal degree")
    p_bt.add_argument("--field", choices=["gf2", "rat"], default="gf2")
    p_bt.add_argument("--table", action="store_true", help="print the whole table as JSON")

    p_vf = sub.add_parser("verify", help="run one statement over a corpus")
    p_vf.add_argument("--theorem", required=True)
    p_vf.add_argument("--random", type=_ints(4, "--random"), metavar="n,d,r,trials")
    p_vf.add_argument("--exhaustive", type=_ints(3, "--exhaustive"), metavar="n,d,rmax")
    p_vf.add_argument("--files", nargs="+", metavar="FILE")
    p_vf.add_argument("--seed", type=int, default=0)
    p_vf.add_argument("--field", choices=["gf2", "rat"], default="gf2")
    p_vf.add_argument("--out", help="write the JSON report to this path")
    p_vf.add_argument("--stable-output", action="store_true",
                      help="zero the wall time so identical runs are byte-identical")
    p_vf.add_argument("--budget", type=int, default=None)

    p_gn = sub.add_parser("generate", help="write seeded random complexes as JSON files")
    p_gn.add_argument("--n", type=int, required=True)
    p_gn.add_argument("--d", type=int, required=True)
    p_gn.add_argument("--r", type=int, required=True)
    p_gn.add_argument("--count", type=int, required=True)
    p_gn.add_argument("--seed", type=int, default=0)
    p_gn.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_analyze(args) -> int:
    cx, name = _read_document(args.file)
    report = analyze(cx, field=args.field, name=name, budget=args.budget)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text if args.json else render_analysis(report))
    return 0


def _cmd_linegraph(args) -> int:
    cx, name = _read_document(args.file)
    lg = line_graph(cx)
    doc = {
        "name": name,
        "vertex_count": lg.graph.order,
        "facet_of": {str(k + 1): list(f) for k, f in enumerate(lg.facet_of)},
        "edges": [list(e) for e in lg.graph.edges()],
        "edge_count": lg.graph.edge_count(),
        "ridge_counts": list(ridge_counts(cx)),
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_betti(args) -> int:
    cx, _ = _read_document(args.file)
    ideal = facet_ideal(cx)
    if args.table:
        table = betti_table(ideal, args.field)
        rows = [[i, j, rank] for (i, j), rank in table.entries]
        sys.stdout.write(json.dumps({"field": args.field, "entries": rows}) + "\n")
        return 0
    sys.stdout.write(f"{beta_in_degree(ideal, args.i, args.j, args.field)}\n")
    return 0


def _cmd_verify(args) -> int:
    chosen = [c for c in (args.random, args.exhaustive, args.files) if c]
    if len(chosen) > 1:
        raise RidgelineError("give at most one of --random, --exhaustive, --files")
    corpus = None
    if args.random:
        n, d, r, trials = args.random
        corpus = ("random", n, d, r, trials)
    elif args.exhaustive:
        n, d, r_max = args.exhaustive
        corpus = ("exhaustive", n, d, r_max)
    elif args.files:
        corpus = ("files", tuple(args.files))
    report = verify(args.theorem, corpus, seed=args.seed, field=args.field,
                    budget=args.budget, stable_time=args.stable_output)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text)
        sys.stdout.write(
            f"{report.theorem}: {report.confirmations} confirmed, "
            f"{len(report.counterexamples)} counterexamples, "
            f"{len(report.skips)} skipped over {report.instances} instances\n")
    else:
        sys.stdout.write(text)
    return 10 if report.counterexamples else 0


def _cmd_generate(args) -> int:
    out = Path(args.out)
    width = max(4, len(str(max(args.count - 1, 0))))
    corpus = _iter_corpus(("random", args.n, args.d, args.r, args.count), args.seed)
    # bad parameters raise on the first draw, before DIR exists
    first = list(islice(corpus, 1))
    out.mkdir(parents=True, exist_ok=True)
    for k, (doc, cx) in enumerate(chain(first, corpus)):
        path = out / f"complex_{k:0{width}d}.json"
        path.write_bytes(serialize_complex(cx, doc["name"]))
        sys.stdout.write(f"{path}\n")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "linegraph": _cmd_linegraph,
    "betti": _cmd_betti,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except RidgelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
