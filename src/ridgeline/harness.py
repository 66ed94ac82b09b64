"""Complex file formats, corpus generation, theorem verification, analysis.

The verify registry runs one named statement against a corpus (seeded random
complexes, an exhaustive enumeration, or files) or a statement's built-in
grid, and produces a deterministic JSON-friendly report: per-instance outcomes
are confirmed, counterexample (with diagnostics and the serialized complex),
or skipped with a reason.
Hypothesis-unsatisfied instances are skips, never confirmations, so the
confirmation counts carry no vacuous truth.
"""

from __future__ import annotations

import json
import random
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations
from json.encoder import encode_basestring_ascii as _escape
from math import comb, inf

from .algebra import (
    FieldChoice,
    _field,
    beta_in_degree,
    facet_ideal,
    froberg_check,
    has_linear_quotients,
    has_linear_resolution,
    is_cohen_macaulay,
    stanley_reisner_ideal,
)
from .complexes import (
    SimplicialComplex,
    _check_cells,
    _check_complex,
    alexander_dual,
    complement_complex,
    dimension,
    facet_size,
    from_facets,
    independence_complex,
    is_chordal_complex,
    is_pure,
    is_shellable,
)
from .errors import (
    BadParameters,
    BudgetExceeded,
    DegenerateComplement,
    DimensionTooSmall,
    EmptyInput,
    NotPure,
    ParseError,
    RidgelineError,
    UnknownTheorem,
    search_budget,
)
from .graphs import (
    Graph,
    _check_int,
    clique_edge_partition,
    diameter,
    has_induced_star,
    is_chordal_graph,
    is_connected,
)
from .linegraph import (
    NEITHER,
    NtInterpretation,
    TriangleType,
    _complete_shape,
    _edge_total,
    _is_complete,
    _nt_count,
    _ridge_adjacency,
    _ridge_counts,
    _ridge_rows,
    _triangle_census,
    make_cycle_complex,
    predicted_beta2,
)


# ---------------------------------------------------------------------------
# complex documents


def complex_document(cx: SimplicialComplex, name: str | None = None) -> dict:
    """Plain-dict form of a complex (the shape the JSON format uses)."""
    _check_complex(cx)
    doc = {
        "ambient": [int(v) for v in cx.ambient],
        "facets": [[int(v) for v in f] for f in cx.facets],
    }
    if name is not None:
        doc["name"] = name
    return doc


def _complex_of_document(doc: dict) -> SimplicialComplex:
    if not isinstance(doc, dict):
        raise ParseError("a complex document must be a JSON object")
    if "facets" not in doc:
        raise ParseError('a complex document needs a "facets" list')
    facets = doc["facets"]
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise ParseError('"facets" must be a list of integer lists')
    ambient = doc.get("ambient")
    if ambient is not None and not isinstance(ambient, list):
        raise ParseError('"ambient" must be a list of integers')
    return from_facets(facets, ambient)


def parse_document(data) -> tuple:
    """Parse JSON or line-per-facet text into (complex, optional name)."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from None
    else:
        text = data
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
        except (RecursionError, ValueError) as exc:  # nested too deep, or an int too long
            raise ParseError(f"bad JSON: {exc}") from None
        name = doc.get("name") if isinstance(doc, dict) else None
        if name is not None and not isinstance(name, str):
            raise ParseError('"name" must be a string')
        return _complex_of_document(doc), name
    facets = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        face = []
        for token in body.split():
            try:
                face.append(int(token))
            except ValueError:
                raise ParseError(f"line {lineno}: {token!r} is not an integer") from None
        if any(v <= 0 for v in face):
            raise ParseError(f"line {lineno}: vertices must be positive")
        facets.append(face)
    return from_facets(facets), None


def serialize_complex(cx: SimplicialComplex, name: str | None = None) -> bytes:
    """Canonical JSON bytes; parse_document inverts this exactly."""
    _check_complex(cx)
    doc = complex_document(cx, name)
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# corpus generation


def random_pure_complex(n: int, d: int, r: int, seed: int) -> SimplicialComplex:
    """r distinct d-subsets of {1..n}, uniform without replacement.

    Deterministic per seed; the ambient is the full vertex set {1..n}.
    Refuses, before any binomial is computed, a draw whose binomial table
    would hold more than 2**MAX_BITS cells.
    """
    for what, value in (("n", n), ("d", d), ("r", r), ("seed", seed)):
        _check_int(value, what)
    if d < 1 or n < d:
        raise BadParameters("need 1 <= d <= n")
    _check_cells((d + 1) * n, "the (d + 1) * n binomial table of a random draw")
    top = comb(n, d)
    if top > sys.maxsize:
        raise BadParameters(f"C({n},{d}) d-subsets are too many to index")
    if not 1 <= r <= top:
        raise BadParameters(f"need 1 <= r <= C({n},{d}) = {top}")
    rng = random.Random(seed)
    table = _binomials(n, d)
    # sampling indices draws exactly what sampling the list of all d-subsets
    # in lexicographic order would, without building that list; unranking
    # keeps that order, so sorted ranks give sorted facets, and distinct
    # sorted d-subsets form an antichain, so no re-maximalization
    ranks = rng.sample(range(top), r)
    ranks.sort()
    facets = tuple([_unrank_subset(k, n, d, table) for k in ranks])
    return SimplicialComplex(tuple(range(1, n + 1)), facets)


def _binomial_capped(n: int, k: int, cap: int) -> int:
    """min(C(n, k), cap + 1), in at most min(k, n - k) steps: the product
    C(n, j + 1) = C(n, j) * (n - j) / (j + 1) grows at each of them, so it
    stops at the first value past the cap."""
    value = 1
    for j in range(min(k, n - k)):
        value = value * (n - j) // (j + 1)
        if value > cap:
            return cap + 1
    return value


def _binomials(n: int, d: int) -> list:
    """Rows ``table[j][m] = C(m, j)`` for j <= d and m < n."""
    table = [[1] * n]
    for _ in range(d):
        # hockey stick: C(m, j) is the sum of C(i, j - 1) over i < m
        table.append([0, *accumulate(table[-1][:-1])])
    return table


def _unrank_subset(k: int, n: int, d: int, table: list) -> tuple:
    """The k-th d-subset of {1..n} in lexicographic order, counting from 0;
    ``table`` is ``_binomials(n, d)``.

    The subset a_1 < .. < a_d has rank C(n, d) - 1 - sum C(n - a_i, d + 1 - i),
    and that sum is the co-rank written in the combinatorial number system:
    n - a_i is the largest m with C(m, d + 1 - i) at most what is left of it.
    """
    left = table[d][n - 1] + table[d - 1][n - 1] - 1 - k  # C(n, d) - 1 - k
    out = []
    for j in range(d, 0, -1):
        row = table[j]
        m = bisect_right(row, left) - 1
        left -= row[m]
        out.append(n - m)
    return tuple(out)


def enumerate_pure_complexes(n: int, d: int, r_max: int, budget: int | None = None):
    """Every nonempty family of at most r_max distinct d-subsets of {1..n}.

    Canonical order: facet count ascending, then lexicographic on the sorted
    facet tuples. The ambient of each complex is its own support. The total
    count must fit the search budget up front; it is summed term by term,
    and the summing stops as soon as the budget is passed. Every refusal is
    raised at the call; the complexes come from the returned generator.
    """
    for what, value in (("n", n), ("d", d), ("r_max", r_max)):
        _check_int(value, what)
    if d < 1 or n < d:
        raise BadParameters("need 1 <= d <= n")
    if r_max < 1:
        raise BadParameters("r_max must be at least 1")
    limit = search_budget(budget)
    # the one-facet families alone number C(n, d), so it too stops at the budget
    top = _binomial_capped(n, d, limit)
    total = 0
    term = 1
    for r in range(1, min(r_max, top) + 1):
        term = term * (top - r + 1) // r  # C(top, r)
        total += term
        if total > limit:
            raise BudgetExceeded(
                f"more than {limit} complexes exceed the budget; raise it to enumerate"
            )
    pool = list(combinations(range(1, n + 1), d))
    # distinct d-subsets drawn in pool order form a sorted antichain
    return (SimplicialComplex(tuple(sorted({v for f in family for v in f})), family)
            for r in range(1, min(r_max, top) + 1) for family in combinations(pool, r))


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of running one statement over a corpus.

    ``trials`` counts evaluated instances, so confirmations plus the number
    of counterexamples always equals trials; skipped instances are recorded
    separately with reasons and ``instances`` counts everything seen.
    """

    theorem: str
    corpus: str
    seed: int
    field: str
    instances: int
    trials: int
    confirmations: int
    counterexamples: tuple
    skips: tuple
    tabulation: dict | None
    wall_time_s: float

    def to_json(self) -> str:
        return _report_text(vars(self))


_INT_ONLY = {int}


def _report_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2) + "\\n"`` for a report
    value, built of plain dicts with str keys, lists, tuples and scalars.

    Any ``indent`` sends ``json`` to its pure-Python encoder, so report
    bytes are written here instead, from the pieces ``json`` itself uses:
    the C string escape, ``int.__repr__`` and, for floats, ``json.dumps``.
    A list of plain ints is one join. Any other type, a dict or list
    subclass too, raises TypeError rather than being written in a form
    ``json.dumps`` would not give.
    """
    return _render(value, "\n") + "\n"


def _render(value, nl: str) -> str:
    """``value`` as indented JSON whose lines break with ``nl``, the newline
    and indent of the line it starts on."""
    t = type(value)
    if t is list or t is tuple:
        if not value:
            return "[]"
        inner = nl + "  "
        # bool is an int subclass, so plain ints are matched by type
        if set(map(type, value)) == _INT_ONLY:
            return "[" + inner + ("," + inner).join(map(int.__repr__, value)) + nl + "]"
        return "[" + inner + ("," + inner).join([_render(x, inner) for x in value]) + nl + "]"
    if t is dict:
        if not value:
            return "{}"
        inner = nl + "  "
        return ("{" + inner + ("," + inner).join(
            [_escape(k) + ": " + _render(value[k], inner) for k in sorted(value)]) + nl + "}")
    if t is str:
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if t is int:
        return int.__repr__(value)
    if t is float:
        return json.dumps(value)
    raise TypeError(f"a report holds no {t.__name__}")


CONFIRMED = "confirmed"
COUNTEREXAMPLE = "counterexample"
SKIP = "skip"


def _ridge_graph(cx: SimplicialComplex) -> Graph:
    """Facet adjacency by ridge intersections; total even at facet size 1
    (the complete graph K_r), where it agrees with the line-graph definition
    but the constructor with its size floor does not run."""
    facet_size(cx)
    return Graph.from_adj(_ridge_rows(cx.facets, cx.ambient))


def _chordal_hypotheses(cx: SimplicialComplex):
    """Shared hypothesis gate: line graph connected, chordal, diameter <= d.

    Returns (True, diag) or (False, reason). The gates run cheapest first:
    one BFS for connectivity, then chordality, and the diameter's BFS per
    vertex only on a connected chordal line graph.
    """
    d = facet_size(cx)
    g = _ridge_graph(cx)
    if not is_connected(g):
        return False, "line graph disconnected"
    if is_chordal_graph(g) is None:
        return False, "line graph not chordal"
    dia = diameter(g)
    if dia > d:
        return False, f"line graph diameter {dia} exceeds facet size {d}"
    return True, {"diameter": dia}


def _check_deltac(cx, field, budget):
    if facet_size(cx) == len(cx.ambient):
        complement_complex(cx)  # refuses the degenerate complement; verify skips
    rows = _ridge_rows(cx.facets, cx.ambient)
    # complement facet i is the ambient minus facet i, so both sides share
    # one facet order
    ambient = frozenset(cx.ambient)
    crows = _ridge_rows([ambient.difference(f) for f in cx.facets], cx.ambient)
    mismatch = _first_row_mismatch(rows, crows)
    if mismatch is None:
        return CONFIRMED, None
    i, j, left, right = mismatch
    return COUNTEREXAMPLE, {
        "facet_pair": [i + 1, j + 1],
        "adjacent_in_line_graph": left,
        "adjacent_in_complement_line_graph": right,
    }


def _first_row_mismatch(rows: tuple, crows: tuple):
    """First pair i < j, in lexicographic order, where bit j of ``rows[i]``
    differs from bit j of ``crows[i]``, as ``(i, j, left, right)`` with the
    two bits as booleans; None when the rows agree."""
    for i, (row, crow) in enumerate(zip(rows, crows)):
        diff = (row ^ crow) >> i + 1
        if diff:
            j = i + (diff & -diff).bit_length()
            return i, j, bool(row >> j & 1), bool(crow >> j & 1)
    return None


def _check_edge_count(cx, field, budget):
    # a non-pure or empty complex raises here, before the try, so it is a
    # skip as under every other statement
    adjacency = _ridge_adjacency(cx)
    try:
        total = _edge_total(*adjacency)
    except RidgelineError as exc:
        return COUNTEREXAMPLE, {"error": str(exc)}
    return CONFIRMED, {"edges": total}


_INTERPS = tuple(NtInterpretation)


def _check_betti2(cx, field, budget):
    """Oracle against the three readings of predicted_beta2, which share one
    ridge adjacency, and so one edge count and one triangle census."""
    d, masks, rows = _ridge_adjacency(cx)
    oracle = beta_in_degree(facet_ideal(cx), 2, d + 1, field)
    edges = _edge_total(d, masks, rows)
    classified = _triangle_census(d, masks, rows)
    predictions = {}
    for interp in _INTERPS:
        predictions[interp.value] = edges - _nt_count(classified, interp, budget)
    matches = {tag: pred == oracle for tag, pred in predictions.items()}
    diag = {"oracle": oracle, "predicted": predictions, "matches": matches}
    if any(matches.values()):
        return CONFIRMED, diag
    return COUNTEREXAMPLE, diag


def _betti2_tabulation():
    return {"interpretations": {
        interp.value: {"matches": 0, "mismatches": 0, "first_mismatch": None}
        for interp in _INTERPS
    }}


def _fold_betti2(tabulation, cx, name, diag):
    """Count each reading's matches and keep its first mismatch."""
    for tag, matched in diag["matches"].items():
        stat = tabulation["interpretations"][tag]
        stat["matches" if matched else "mismatches"] += 1
        if not matched and stat["first_mismatch"] is None:
            stat["first_mismatch"] = {"document": complex_document(cx, name),
                                      "predicted": diag["predicted"][tag], "oracle": diag["oracle"]}


def _check_shellable_connected(cx, field, budget):
    facet_size(cx)  # the line graph needs a nonempty pure complex
    order = is_shellable(cx, budget)
    if order is None:
        return SKIP, "not shellable; hypothesis unsatisfied"
    if is_connected(_ridge_graph(cx)):
        return CONFIRMED, None
    return COUNTEREXAMPLE, {
        "shelling_order": [list(f) for f in order],
        "line_graph_connected": False,
    }


def _check_star_free(cx, field, budget):
    d = facet_size(cx)
    if has_induced_star(_ridge_graph(cx), d + 1, budget):
        return COUNTEREXAMPLE, {"induced_star_leaves": d + 1}
    return CONFIRMED, None


def _check_clique_partition(cx, field, budget):
    """The partition is checked on adjacency rows: bit (b-1) of
    ``covered[a-1]`` is set once a clique has covered the pair {a, b}. A
    pair covered twice is reported as the first, in ``combinations`` order,
    of the first clique that repeats one; the covered rows must then equal
    the line graph's and no vertex may lie in more than d cliques. The
    cliques are ascending vertex tuples, as ``clique_edge_partition``
    returns them."""
    d = facet_size(cx)
    g = _ridge_graph(cx)
    part = clique_edge_partition(g, d, budget)
    if part is None:
        return COUNTEREXAMPLE, {"per_vertex_cap": d, "partition": None}
    counts = [0] * g.order
    covered = [0] * g.order
    for clique in part:
        mask = 0
        for v in clique:
            mask |= 1 << v - 1
        for a in clique:
            counts[a - 1] += 1
            twice = covered[a - 1] & mask >> a << a  # pairs {a, b}, b > a
            if twice:
                return COUNTEREXAMPLE, {"invalid": "edge covered twice",
                                        "edge": [a, (twice & -twice).bit_length()]}
        for a in clique:
            covered[a - 1] |= mask ^ 1 << a - 1
    if tuple(covered) != g.adj or any(c > d for c in counts):
        return COUNTEREXAMPLE, {"invalid": "not a partition within the cap"}
    return CONFIRMED, None


def _check_c3(cx, field, budget):
    if cx.facet_count != 3:
        return SKIP, "needs exactly three facets"
    return _check_complete(cx, field, budget)


def _check_complete(cx, field, budget):
    d, masks, rows = _ridge_adjacency(cx)
    complete = _is_complete(rows)
    try:
        shape = _complete_shape(d, masks, rows)
    except RidgelineError as exc:
        return COUNTEREXAMPLE, {"error": str(exc)}
    if complete == (shape != NEITHER):
        return CONFIRMED, {"shape": shape}
    return COUNTEREXAMPLE, {"shape": shape, "line_graph_complete": complete}


def _check_cycle(cx, field, budget):
    """The cyclic-window family has the r-cycle as its line graph.

    Rows of the plain-window branch must have a cycle line graph; padded
    rows record whichever of C_r / K_r the construction actually yields and
    count against the literal claim when it is not the cycle. Degrees settle
    both shapes: C_r is the connected 2-regular graph on r vertices and K_r
    the (r - 1)-regular one, so no search runs.
    """
    r, d = cx.facet_count, facet_size(cx)
    g = _ridge_graph(cx)
    is_cyc = all(row.bit_count() == 2 for row in g.adj) and is_connected(g)
    return (CONFIRMED if is_cyc else COUNTEREXAMPLE), {
        "r": r,
        "d": d,
        "branch": "windows" if d < r - 1 else "padded",
        "line_graph_is_cycle": is_cyc,
        "line_graph_is_complete": _is_complete(g.adj),
    }


def _cycle_grid():
    """The cyclic-window family over the documented grid of (r, d)."""
    for r in range(4, 9):
        for d in range(2, r + 2):
            yield f"cycle-family-r{r}-d{d}", make_cycle_complex(r, d)


def _check_chordal_main(cx, field, budget):
    ok, info = _chordal_hypotheses(cx)
    if not ok:
        return SKIP, f"hypothesis unsatisfied: {info}"
    if is_chordal_complex(cx, budget):
        return CONFIRMED, info
    return COUNTEREXAMPLE, {"complex_chordal": False, **info}


def _check_dual_chordal(cx, field, budget):
    ok, info = _chordal_hypotheses(cx)
    if not ok:
        return SKIP, f"hypothesis unsatisfied: {info}"
    if is_chordal_complex(complement_complex(cx), budget):
        return CONFIRMED, info
    return COUNTEREXAMPLE, {"complement_chordal": False, **info}


def _check_corollary_chain(cx, field, budget):
    ok, info = _chordal_hypotheses(cx)
    if not ok:
        return SKIP, f"hypothesis unsatisfied: {info}"
    checks = {}
    checks["complex_chordal"] = is_chordal_complex(cx, budget)
    try:
        checks["complement_chordal"] = is_chordal_complex(complement_complex(cx), budget)
    except DegenerateComplement:
        checks["complement_chordal"] = None
    ind = independence_complex(cx)
    checks["independence_shellable"] = is_shellable(ind, budget) is not None
    dual = alexander_dual(cx)
    if dual.is_empty:
        checks["dual_shellable"] = None
    else:
        checks["dual_shellable"] = is_shellable(dual, budget) is not None
    ideal = stanley_reisner_ideal(cx)
    checks["sr_linear_quotients"] = has_linear_quotients(ideal, budget) is not None
    checks["sr_linear_resolution"] = has_linear_resolution(ideal, field)
    checks["sr_generator_degrees"] = sorted({len(g) for g in ideal.generators})
    verdicts = [v for k, v in checks.items() if isinstance(v, bool)]
    if all(verdicts):
        return CONFIRMED, checks
    return COUNTEREXAMPLE, checks


def _graph_of_edge_complex(cx: SimplicialComplex) -> Graph:
    """A facet-size-2 complex read as a graph; ambient vertices renumbered
    1..n in sorted order."""
    pos = {v: i + 1 for i, v in enumerate(cx.ambient)}
    edges = [(pos[a], pos[b]) for a, b in cx.facets]
    return Graph(len(cx.ambient), edges)


def _check_froberg(cx, field, budget):
    if facet_size(cx) != 2:
        return SKIP, "edge ideals need facet size 2"
    result = froberg_check(_graph_of_edge_complex(cx), field)
    if result["agree"]:
        return CONFIRMED, result
    return COUNTEREXAMPLE, result


def _check_ev_d2(cx, field, budget):
    if facet_size(cx) != 2:
        return SKIP, "the specialization needs facet size 2"
    oracle = beta_in_degree(facet_ideal(cx), 2, 3, field)
    pred = predicted_beta2(cx, NtInterpretation.AllSimplexType, budget)
    if pred == oracle:
        return CONFIRMED, {"value": oracle}
    return COUNTEREXAMPLE, {"predicted": pred, "oracle": oracle}


THEOREMS = {
    "deltac": _check_deltac,
    "edge-count": _check_edge_count,
    "betti2": _check_betti2,
    "shellable-connected": _check_shellable_connected,
    "star-free": _check_star_free,
    "clique-partition": _check_clique_partition,
    "c3": _check_c3,
    "complete": _check_complete,
    "cycle": _check_cycle,
    "chordal-main": _check_chordal_main,
    "dual-chordal": _check_dual_chordal,
    "corollary-chain": _check_corollary_chain,
    "froberg": _check_froberg,
    "ev-d2": _check_ev_d2,
}

# A tabulating statement's empty tabulation, and its fold of one evaluated
# instance (complex, name, diagnostic) into it.
_TABULATIONS = {
    "betti2": (_betti2_tabulation, _fold_betti2),
    "cycle": (lambda: {"rows": []}, lambda tab, cx, name, diag: tab["rows"].append(diag)),
}

# Statements that run over a built-in grid of instances instead of a corpus.
_GRIDS = {"cycle": _cycle_grid}


_CORPUS_FIELDS = {"random": ("n", "d", "r", "trial count"), "exhaustive": ("n", "d", "r_max")}


def _iter_corpus(corpus, seed, budget=None):
    """Yield (name, complex) pairs for a corpus spec tuple; the name is None
    for an exhaustive corpus.

    A file that does not parse yields ``(path, error)`` with the
    ``RidgelineError`` in place of the complex, so that it costs one skipped
    instance rather than the run; a file that cannot be read still raises.
    """
    if not isinstance(corpus, (tuple, list)) or not corpus or not isinstance(corpus[0], str):
        raise BadParameters("a corpus is a tuple that starts with its kind")
    kind = corpus[0]
    if kind in _CORPUS_FIELDS:
        fields = _CORPUS_FIELDS[kind]
        if len(corpus) != len(fields) + 1:
            raise BadParameters(f"a {kind} corpus is ({kind!r}, {', '.join(fields)})")
        for what, value in zip(fields, corpus[1:]):
            _check_int(value, what)
    elif kind == "files":
        if len(corpus) != 2 or not isinstance(corpus[1], (tuple, list)):
            raise BadParameters("a files corpus is ('files', <list of paths>)")
        # an int would be opened as a file descriptor, read and closed
        if not all(isinstance(p, (str, bytes)) or hasattr(p, "__fspath__") for p in corpus[1]):
            raise BadParameters("a files corpus path must be a str, bytes or os.PathLike")
    if kind == "random":
        _, n, d, r, trials = corpus
        if trials < 0:
            raise BadParameters("trial count must be nonnegative")
        for t in range(trials):
            sub_seed = seed * 1_000_003 + t
            cx = random_pure_complex(n, d, r, sub_seed)
            yield f"random-{n}-{d}-{r}-seed{sub_seed}", cx
    elif kind == "exhaustive":
        _, n, d, r_max = corpus
        for cx in enumerate_pure_complexes(n, d, r_max, budget):
            yield None, cx
    elif kind == "files":
        for path in corpus[1]:
            with open(path, "rb") as fh:
                data = fh.read()
            # a bytes path is named as os.fsdecode names it, not as b'...'
            label = (path.decode(sys.getfilesystemencoding(), sys.getfilesystemencodeerrors())
                     if isinstance(path, bytes) else str(path))
            try:
                cx, name = parse_document(data)
            except RidgelineError as exc:
                yield label, exc
                continue
            yield name or label, cx
    else:
        raise BadParameters(f"unknown corpus kind {kind!r}")


def _corpus_label(corpus) -> str:
    if corpus is None:
        return "builtin-grid"
    kind = corpus[0]
    if kind == "random":
        _, n, d, r, trials = corpus
        return f"random(n={n},d={d},r={r},trials={trials})"
    if kind == "exhaustive":
        _, n, d, r_max = corpus
        return f"exhaustive(n={n},d={d},r_max={r_max})"
    return f"files({len(corpus[1])})"


def verify(theorem: str, corpus=None, seed: int = 0, field=FieldChoice.GF2,
           budget: int | None = None, stable_time: bool = False) -> VerifyReport:
    """Run one registered statement over a corpus and build its report.

    ``corpus`` is ("random", n, d, r, trials), ("exhaustive", n, d, r_max),
    ("files", [paths]) or None, which a statement over a built-in grid
    (cycle) requires and every other statement refuses. Every instance,
    from either source, goes through the statement's checker and, when it
    is evaluated, through its tabulation fold. Instance-level budget
    exhaustion becomes a skip; budget exhaustion of the corpus enumeration
    itself propagates.
    """
    if not isinstance(theorem, str) or theorem not in THEOREMS:
        named = repr(theorem) if isinstance(theorem, str) else f"of type {type(theorem).__name__}"
        raise UnknownTheorem(f"no theorem {named}; known: {', '.join(sorted(THEOREMS))}")
    _check_int(seed, "seed")
    search_budget(budget)
    field = _field(field)
    grid = _GRIDS.get(theorem)
    if grid is not None and corpus is not None:
        raise BadParameters(f"theorem {theorem!r} tabulates its built-in grid and takes no corpus")
    if grid is None and corpus is None:
        raise BadParameters(f"theorem {theorem!r} needs a corpus")
    checker = THEOREMS[theorem]
    empty, fold = _TABULATIONS.get(theorem, (lambda: None, None))
    tabulation = empty()
    start = time.perf_counter()
    confirmations = 0
    counterexamples = []
    skips = []
    instances = 0
    # only skips, counterexamples and first mismatches keep a document
    for name, cx in grid() if grid else _iter_corpus(corpus, seed, budget):
        instances += 1
        if isinstance(cx, RidgelineError):
            skips.append({"document": {"name": name},
                          "reason": f"unreadable document: {cx}"})
            continue
        try:
            status, diag = checker(cx, field, budget)
        except BudgetExceeded as exc:
            status, diag = SKIP, f"budget exceeded: {exc}"
        except (NotPure, EmptyInput, DimensionTooSmall, DegenerateComplement) as exc:
            status, diag = SKIP, str(exc)
        if status == SKIP:
            skips.append({"document": complex_document(cx, name), "reason": diag})
            continue
        if fold:
            fold(tabulation, cx, name, diag)
        if status == CONFIRMED:
            confirmations += 1
        else:
            counterexamples.append({"document": complex_document(cx, name),
                                    "diagnostic": diag})

    elapsed = 0.0 if stable_time else round(time.perf_counter() - start, 3)
    return VerifyReport(
        theorem=theorem,
        corpus=_corpus_label(corpus),
        seed=seed,
        field=field.value,
        instances=instances,
        trials=confirmations + len(counterexamples),
        confirmations=confirmations,
        counterexamples=tuple(counterexamples),
        skips=tuple(skips),
        tabulation=tabulation,
        wall_time_s=elapsed,
    )


# ---------------------------------------------------------------------------
# analyze


def analyze(cx: SimplicialComplex, field=FieldChoice.GF2, name: str | None = None,
            budget: int | None = None) -> dict:
    """One-complex report: line graph, triangle census, second-syzygy
    prediction vs the homological answer, chordality on both levels,
    shellability, Cohen-Macaulayness, and the edge-ideal comparison when the
    facets are edges."""
    _check_complex(cx)
    field = _field(field)
    search_budget(budget)
    pure = is_pure(cx)
    report: dict = {
        "name": name,
        **complex_document(cx),
        "facet_count": cx.facet_count,
        "dimension": dimension(cx),
        "pure": pure,
        "field": field.value,
    }
    if not pure or cx.is_empty:
        report["note"] = "line-graph analysis needs a nonempty pure complex"
        return report
    # one ridge adjacency serves the line graph, both edge counts, the
    # triangle census and the complete shape
    d, masks, rows = _ridge_adjacency(cx)
    report["facet_size"] = d
    g = Graph.from_adj(rows)
    dia = diameter(g)  # inf exactly when disconnected
    report["line_graph"] = {
        "vertex_count": g.order,
        "edges": [list(e) for e in g.edges()],
        "edge_count": g.edge_count(),
        "edge_count_formula": _edge_total(d, masks, rows),
        "ridge_counts": list(_ridge_counts(rows)),
        "connected": dia != inf,
        "diameter": None if dia == inf else dia,
        "chordal": is_chordal_graph(g) is not None,
    }
    classified = _triangle_census(d, masks, rows)
    report["triangles"] = [
        {"vertices": list(t), "type": kind.value} for t, kind in classified
    ]
    nt = {}
    for interp in _INTERPS:
        try:
            nt[interp.value] = _nt_count(classified, interp, budget)
        except BudgetExceeded as exc:
            nt[interp.value] = None
            report["nt_note"] = str(exc)
    report["nt"] = nt
    oracle = beta_in_degree(facet_ideal(cx), 2, d + 1, field)
    edges = report["line_graph"]["edge_count"]
    report["beta2"] = {
        "degree": d + 1,
        "oracle": oracle,
        "predicted": {
            tag: None if count is None else edges - count for tag, count in nt.items()
        },
    }
    report["shape_if_complete"] = _complete_shape(d, masks, rows)
    try:
        report["complex_chordal"] = is_chordal_complex(cx, budget)
    except BudgetExceeded as exc:
        report["complex_chordal"] = None
        report["complex_chordal_note"] = str(exc)
    try:
        shelling = is_shellable(cx, budget)
    except BudgetExceeded as exc:
        report["shellable"] = None
        report["shelling_order"] = None
        report["shellable_note"] = str(exc)
    else:
        report["shellable"] = shelling is not None
        report["shelling_order"] = None if shelling is None else [list(f) for f in shelling]
    try:
        report["cohen_macaulay"] = is_cohen_macaulay(cx, field)
    except DegenerateComplement as exc:
        report["cohen_macaulay"] = None
        report["cohen_macaulay_note"] = str(exc)
    if d == 2:
        report["froberg"] = froberg_check(_graph_of_edge_complex(cx), field)
    return report


def _noted(line: str, note) -> str:
    """A report line with its note, if any, in parentheses."""
    return line + (f" ({note})" if note else "")


def render_analysis(report: dict) -> str:
    """Human-readable text for an analyze report."""
    lines = []
    name = report.get("name")
    lines.append(f"complex: {name}" if name else "complex:")
    lines.append(f"  facets ({report['facet_count']}): "
                 + " ".join("{" + ",".join(map(str, f)) + "}" for f in report["facets"]))
    lines.append(f"  ambient: {report['ambient']}")
    lines.append(f"  dimension {report['dimension']}, pure: {report['pure']}")
    if "note" in report:
        lines.append(f"  note: {report['note']}")
        return "\n".join(lines) + "\n"
    lg = report["line_graph"]
    lines.append(
        f"line graph: {lg['vertex_count']} vertices, {lg['edge_count']} edges "
        f"(formula {lg['edge_count_formula']}), connected: {lg['connected']}, "
        f"diameter: {lg['diameter']}, chordal: {lg['chordal']}"
    )
    lines.append(f"  ridge counts: {lg['ridge_counts']}")
    tri = report["triangles"]
    ridge = sum(1 for t in tri if t["type"] == TriangleType.RidgeShared.value)
    simplex = sum(1 for t in tri if t["type"] == TriangleType.SimplexType.value)
    lines.append(f"triangles: {len(tri)} ({ridge} ridge-shared, {simplex} simplex-type)")
    nt = report["nt"]
    lines.append(_noted(f"correction counts: all={nt['all']}, max_disjoint={nt['max_disjoint']}, "
                        f"isolated={nt['isolated']}", report.get("nt_note")))
    b2 = report["beta2"]
    preds = ", ".join(f"{tag}={val}" for tag, val in sorted(b2["predicted"].items()))
    lines.append(f"beta_2 in degree {b2['degree']}: oracle={b2['oracle']} predicted: {preds}")
    lines.append(f"complete-shape: {report['shape_if_complete']}")
    lines.append(_noted(f"complex chordal: {report['complex_chordal']}",
                        report.get("complex_chordal_note")))
    if report["shellable"]:
        order = " ".join("{" + ",".join(map(str, f)) + "}" for f in report["shelling_order"])
        lines.append(f"shellable: True  order: {order}")
    else:
        lines.append(_noted(f"shellable: {report['shellable']}", report.get("shellable_note")))
    lines.append(_noted(f"Cohen-Macaulay: {report['cohen_macaulay']}",
                        report.get("cohen_macaulay_note")))
    if "froberg" in report:
        fr = report["froberg"]
        lines.append(
            f"edge ideal: linear resolution {fr['linear_resolution']}, "
            f"complement chordal {fr['complement_chordal']}, agree {fr['agree']}"
        )
    return "\n".join(lines) + "\n"
