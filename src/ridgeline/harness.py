"""Complex file formats, corpus generation, theorem verification, analysis.

The verify registry runs one named statement against a corpus (seeded random
complexes, an exhaustive enumeration, or files) and produces a deterministic
JSON-friendly report: per-instance outcomes are confirmed, counterexample
(with diagnostics and the serialized complex), or skipped with a reason.
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
from math import comb

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
    alexander_dual,
    clutter_of_complex,
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
    DegenerateDual,
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
    _is_complete,
    _nt_count,
    _ridge_adjacency,
    characterize_complete,
    classify_triangles,
    edge_count_formula,
    make_cycle_complex,
    predicted_beta2,
    ridge_counts,
)


# ---------------------------------------------------------------------------
# complex documents


def complex_document(cx: SimplicialComplex, name: str | None = None) -> dict:
    """Plain-dict form of a complex (the shape the JSON format uses)."""
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


def parse_complex(data) -> SimplicialComplex:
    """Parse a complex from JSON bytes/text or line-per-facet text."""
    return parse_document(data)[0]


def serialize_complex(cx: SimplicialComplex, name: str | None = None) -> bytes:
    """Canonical JSON bytes; parse_complex inverts this exactly."""
    doc = complex_document(cx, name)
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# corpus generation


def random_pure_complex(n: int, d: int, r: int, seed: int) -> SimplicialComplex:
    """r distinct d-subsets of {1..n}, uniform without replacement.

    Deterministic per seed; the ambient is the full vertex set {1..n}.
    """
    for what, value in (("n", n), ("d", d), ("r", r), ("seed", seed)):
        _check_int(value, what)
    if d < 1 or n < d:
        raise BadParameters(f"need 1 <= d <= n, got d={d}, n={n}")
    top = comb(n, d)
    if not 1 <= r <= top:
        raise BadParameters(f"need 1 <= r <= C({n},{d}) = {top}, got r={r}")
    if top > sys.maxsize:
        raise BadParameters(f"C({n},{d}) = {top} d-subsets are too many to index")
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
    count must fit the search budget up front.
    """
    for what, value in (("n", n), ("d", d), ("r_max", r_max)):
        _check_int(value, what)
    if d < 1 or n < d:
        raise BadParameters(f"need 1 <= d <= n, got d={d}, n={n}")
    if r_max < 1:
        raise BadParameters("r_max must be at least 1")
    top = comb(n, d)
    limit = search_budget(budget)
    total = sum(comb(top, r) for r in range(1, min(r_max, top) + 1))
    if total > limit:
        raise BudgetExceeded(
            f"{total} complexes exceed the budget of {limit}; raise it to enumerate"
        )
    pool = list(combinations(range(1, n + 1), d))
    for r in range(1, min(r_max, top) + 1):
        for family in combinations(pool, r):
            # distinct d-subsets drawn in pool order form a sorted antichain
            support = tuple(sorted({v for f in family for v in f}))
            yield SimplicialComplex(support, family)


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

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "corpus": self.corpus,
            "seed": self.seed,
            "field": self.field,
            "instances": self.instances,
            "trials": self.trials,
            "confirmations": self.confirmations,
            "counterexamples": list(self.counterexamples),
            "skips": list(self.skips),
            "tabulation": self.tabulation,
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


CONFIRMED = "confirmed"
COUNTEREXAMPLE = "counterexample"
SKIP = "skip"


def _ridge_graph(cx: SimplicialComplex) -> Graph:
    """Facet adjacency by ridge intersections; total even at facet size 1
    (the complete graph K_r), where it agrees with the line-graph definition
    but the constructor with its size floor does not run."""
    return Graph.from_adj(_ridge_adjacency(cx)[2])


def _chordal_hypotheses(cx: SimplicialComplex):
    """Shared hypothesis gate: line graph connected, chordal, diameter <= d.

    Returns (True, diag) or (False, reason).
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
    try:
        comp = complement_complex(cx)
    except DegenerateComplement:
        return SKIP, "a facet equals the ambient set; complement degenerate"
    # each side gets its own adjacency, from its own facet masks
    rows = _ridge_adjacency(cx)[2]
    crows = _ridge_adjacency(comp)[2]
    index_of = {f: k for k, f in enumerate(comp.facets)}
    mapped = [index_of[tuple(v for v in cx.ambient if v not in f)] for f in cx.facets]
    mismatch = _first_row_mismatch(rows, crows, mapped)
    if mismatch is None:
        return CONFIRMED, None
    i, j, left, right = mismatch
    return COUNTEREXAMPLE, {
        "facet_pair": [i + 1, j + 1],
        "adjacent_in_line_graph": left,
        "adjacent_in_complement_line_graph": right,
    }


def _first_row_mismatch(rows: list, crows: list, mapped: list):
    """First pair i < j, in lexicographic order, where bit j of ``rows[i]``
    differs from bit ``mapped[j]`` of ``crows[mapped[i]]``, as
    ``(i, j, left, right)`` with the two bits as booleans; None when
    ``mapped`` carries one graph onto the other.

    Each complement row is pulled back onto the indices of ``rows`` through
    the inverse of ``mapped``, and its XOR with ``rows[i]`` above bit i holds
    every mismatch of row i.
    """
    back = [0] * len(mapped)
    for i, k in enumerate(mapped):
        back[k] = i
    for i, row in enumerate(rows):
        crow = crows[mapped[i]]
        pulled = 0
        while crow:
            low = crow & -crow
            pulled |= 1 << back[low.bit_length() - 1]
            crow ^= low
        diff = (row ^ pulled) >> i + 1
        if diff:
            j = i + (diff & -diff).bit_length()
            return i, j, bool(row >> j & 1), bool(pulled >> j & 1)
    return None


def _check_edge_count(cx, field, budget):
    try:
        total = edge_count_formula(cx)
    except RidgelineError as exc:
        return COUNTEREXAMPLE, {"error": str(exc)}
    return CONFIRMED, {"edges": total}


_INTERPS = (
    NtInterpretation.AllSimplexType,
    NtInterpretation.MaxDisjointSimplexType,
    NtInterpretation.IsolatedSimplexType,
)


def _check_betti2(cx, field, budget):
    """Oracle against the three readings of predicted_beta2, which share one
    edge count and one triangle census."""
    d = facet_size(cx)
    oracle = beta_in_degree(facet_ideal(cx), 2, d + 1, field)
    edges = edge_count_formula(cx)
    classified = classify_triangles(cx)
    predictions = {}
    for interp in _INTERPS:
        predictions[interp.value] = edges - _nt_count(classified, interp, budget)
    matches = {tag: pred == oracle for tag, pred in predictions.items()}
    diag = {"oracle": oracle, "predicted": predictions, "matches": matches}
    if any(matches.values()):
        return CONFIRMED, diag
    return COUNTEREXAMPLE, diag


def _check_shellable_connected(cx, field, budget):
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
    d = facet_size(cx)
    g = _ridge_graph(cx)
    part = clique_edge_partition(g, d, budget)
    if part is None:
        return COUNTEREXAMPLE, {"per_vertex_cap": d, "partition": None}
    counts = [0] * (g.order + 1)
    covered = set()
    for clique in part:
        for v in clique:
            counts[v] += 1
        for e in combinations(clique, 2):
            if e in covered:
                return COUNTEREXAMPLE, {"invalid": "edge covered twice", "edge": list(e)}
            covered.add(e)
    if covered != set(g.edges()) or any(c > d for c in counts):
        return COUNTEREXAMPLE, {"invalid": "not a partition within the cap"}
    return CONFIRMED, {"cliques": [list(c) for c in part]}


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
    try:
        comp = complement_complex(cx)
    except DegenerateComplement:
        return SKIP, "a facet equals the ambient set; complement degenerate"
    if is_chordal_complex(comp, budget):
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
    ind = independence_complex(clutter_of_complex(cx))
    checks["independence_shellable"] = (
        is_shellable(ind, budget, allow_nonpure=True) is not None
    )
    dual = alexander_dual(cx)
    if dual.is_empty:
        checks["dual_shellable"] = None
    else:
        checks["dual_shellable"] = is_shellable(dual, budget, allow_nonpure=True) is not None
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
    "cycle": None,  # generator-driven; handled inside verify()
    "chordal-main": _check_chordal_main,
    "dual-chordal": _check_dual_chordal,
    "corollary-chain": _check_corollary_chain,
    "froberg": _check_froberg,
    "ev-d2": _check_ev_d2,
}


_CORPUS_FIELDS = {"random": ("n", "d", "r", "trial count"), "exhaustive": ("n", "d", "r_max")}


def _iter_corpus(corpus, seed, budget=None):
    """Yield (name, complex) pairs for a corpus spec tuple; the name is None
    for an exhaustive corpus.

    A file that does not parse yields ``(path, error)`` with the
    ``RidgelineError`` in place of the complex, so that it costs one skipped
    instance rather than the run; a file that cannot be read still raises.
    """
    if not isinstance(corpus, (tuple, list)) or not corpus or not isinstance(corpus[0], str):
        raise BadParameters(f"a corpus is a tuple that starts with its kind, got {corpus!r}")
    kind = corpus[0]
    if kind in _CORPUS_FIELDS:
        fields = _CORPUS_FIELDS[kind]
        if len(corpus) != len(fields) + 1:
            raise BadParameters(f"a {kind} corpus is ({kind!r}, {', '.join(fields)}), got {corpus!r}")
        for what, value in zip(fields, corpus[1:]):
            _check_int(value, what)
    elif kind == "files" and (len(corpus) != 2 or not isinstance(corpus[1], (tuple, list))):
        raise BadParameters(f"a files corpus is ('files', <list of paths>), got {corpus!r}")
    if kind == "random":
        _, n, d, r, trials = corpus
        if trials < 0:
            raise BadParameters(f"trial count must be nonnegative, got {trials}")
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
            try:
                cx, name = parse_document(data)
            except RidgelineError as exc:
                yield str(path), exc
                continue
            yield name or str(path), cx
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
    if kind == "files":
        return f"files({len(corpus[1])})"
    return str(corpus)


def _verify_cycle():
    """Tabulate the cyclic-window family over the documented grid.

    Rows with the plain-window branch must have a cycle line graph; padded
    rows record whichever of C_r / K_r the construction actually yields and
    count against the literal claim when it is not the cycle. Degrees settle
    both shapes: C_r is the connected 2-regular graph on r vertices and K_r
    the (r - 1)-regular one, so no search runs.
    """
    rows = []
    outcomes = []
    for r in range(4, 9):
        for d in range(2, r + 2):
            cx = make_cycle_complex(r, d)
            g = _ridge_graph(cx)
            is_cyc = all(row.bit_count() == 2 for row in g.adj) and is_connected(g)
            is_complete = _is_complete(g.adj)
            branch = "windows" if d < r - 1 else "padded"
            row = {
                "r": r,
                "d": d,
                "branch": branch,
                "line_graph_is_cycle": is_cyc,
                "line_graph_is_complete": is_complete,
            }
            rows.append(row)
            doc = complex_document(cx, name=f"cycle-family-r{r}-d{d}")
            if is_cyc:
                outcomes.append((CONFIRMED, doc, row))
            else:
                outcomes.append((COUNTEREXAMPLE, doc, row))
    return rows, outcomes


def verify(theorem: str, corpus=None, seed: int = 0, field=FieldChoice.GF2,
           budget: int | None = None, stable_time: bool = False) -> VerifyReport:
    """Run one registered statement over a corpus and build its report.

    ``corpus`` is ("random", n, d, r, trials), ("exhaustive", n, d, r_max),
    ("files", [paths]) or None, which the generator-driven cycle tabulation
    requires and every other statement refuses. Instance-level budget
    exhaustion becomes a skip; budget exhaustion of the corpus enumeration
    itself propagates.
    """
    if theorem not in THEOREMS:
        raise UnknownTheorem(f"no theorem {theorem!r}; known: {', '.join(sorted(THEOREMS))}")
    _check_int(seed, "seed")
    if budget is not None:
        search_budget(budget)
    field = _field(field)
    start = time.perf_counter()
    confirmations = 0
    counterexamples = []
    skips = []
    instances = 0
    tabulation = None

    if theorem == "cycle":
        if corpus is not None:
            raise BadParameters("theorem 'cycle' tabulates its built-in grid and takes no corpus")
        rows, outcomes = _verify_cycle()
        tabulation = {"rows": rows}
        for status, doc, diag in outcomes:
            instances += 1
            if status == CONFIRMED:
                confirmations += 1
            else:
                counterexamples.append({"document": doc, "diagnostic": diag})
    else:
        if corpus is None:
            raise BadParameters(f"theorem {theorem!r} needs a corpus")
        checker = THEOREMS[theorem]
        interp_stats = None
        if theorem == "betti2":
            interp_stats = {
                interp.value: {"matches": 0, "mismatches": 0, "first_mismatch": None}
                for interp in _INTERPS
            }
        # only skips, counterexamples and first mismatches keep a document
        for name, cx in _iter_corpus(corpus, seed, budget):
            instances += 1
            if isinstance(cx, RidgelineError):
                skips.append({"document": {"name": name},
                              "reason": f"unreadable document: {cx}"})
                continue
            try:
                status, diag = checker(cx, field, budget)
            except BudgetExceeded as exc:
                status, diag = SKIP, f"budget exceeded: {exc}"
            except (NotPure, EmptyInput, DimensionTooSmall, DegenerateDual) as exc:
                status, diag = SKIP, str(exc)
            if status == SKIP:
                skips.append({"document": complex_document(cx, name), "reason": diag})
                continue
            if interp_stats is not None and isinstance(diag, dict):
                for tag, matched in diag.get("matches", {}).items():
                    stat = interp_stats[tag]
                    if matched:
                        stat["matches"] += 1
                    else:
                        stat["mismatches"] += 1
                        if stat["first_mismatch"] is None:
                            stat["first_mismatch"] = {
                                "document": complex_document(cx, name),
                                "predicted": diag["predicted"][tag],
                                "oracle": diag["oracle"],
                            }
            if status == CONFIRMED:
                confirmations += 1
            else:
                counterexamples.append({"document": complex_document(cx, name),
                                        "diagnostic": diag})
        if interp_stats is not None:
            tabulation = {"interpretations": interp_stats}

    elapsed = 0.0 if stable_time else round(time.perf_counter() - start, 3)
    report = VerifyReport(
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
    if report.confirmations + len(report.counterexamples) != report.trials:
        raise RidgelineError("verify bookkeeping out of balance")
    return report


# ---------------------------------------------------------------------------
# analyze


def analyze(cx: SimplicialComplex, field=FieldChoice.GF2, name: str | None = None,
            budget: int | None = None) -> dict:
    """One-complex report: line graph, triangle census, second-syzygy
    prediction vs the homological answer, chordality on both levels,
    shellability, Cohen-Macaulayness, and the edge-ideal comparison when the
    facets are edges."""
    field = _field(field)
    report: dict = {
        "name": name,
        "ambient": [int(v) for v in cx.ambient],
        "facets": [[int(v) for v in f] for f in cx.facets],
        "facet_count": cx.facet_count,
        "dimension": dimension(cx),
        "pure": is_pure(cx),
        "field": field.value,
    }
    if not is_pure(cx) or cx.is_empty:
        report["note"] = "line-graph analysis needs a nonempty pure complex"
        return report
    d = facet_size(cx)
    report["facet_size"] = d
    g = _ridge_graph(cx)
    report["line_graph"] = {
        "vertex_count": g.order,
        "edges": [list(e) for e in g.edges()],
        "edge_count": g.edge_count(),
        "edge_count_formula": edge_count_formula(cx),
        "ridge_counts": list(ridge_counts(cx)),
        "connected": is_connected(g),
        "diameter": (None if not is_connected(g) else diameter(g)),
        "chordal": is_chordal_graph(g) is not None,
    }
    classified = classify_triangles(cx)
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
    report["shape_if_complete"] = characterize_complete(cx)
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
    except DegenerateDual as exc:
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
