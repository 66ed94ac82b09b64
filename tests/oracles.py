"""Independent slow-path oracles the tests freeze values against.

Everything here deliberately avoids the package's algorithms: homology ranks
come from sympy exact linear algebra over explicitly assembled boundary
matrices, Betti numbers from the subset-restriction formula evaluated the
naive way (and beta_{2,d+1} of a pure facet ideal also in closed form by
counting facets, and whole tables from the order complexes of the lcm
lattice), shellability and linear quotients from permutation search
against the textbook conditions, and graph chordality from induced-cycle
search, independence complexes from subsets checked one by one, the
chordal minor chase from deletions and contractions of explicit facet
tuples, and the line-graph layer (ridge edges, ridge counts,
triangle types, complete shapes) from pairwise intersections of facet sets,
and the chordal statements' hypothesis gate on that line graph in its
diameter-first order.
Clique edge partitions come from the earlier edge-indexed search, which the
package's residual-row search must match in no more steps, and are validated
by the earlier set-of-edges check, which the row-based check must match. The
single-swap order (shelling, linear quotients) and realizability searches
come from their earlier set-based forms, which the package's bitmask searches
must match step for step.
Slow on purpose; use only at unit-test scale. ``clear_window_memos`` gives
the package's own cold route: a Betti scan after it takes every rank afresh.
"""

from itertools import combinations, permutations

import pytest
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from ridgeline import algebra
from ridgeline.complexes import SimplicialComplex
from ridgeline.errors import BadParameters, Budget, BudgetExceeded, UnknownVertex


# ---------------------------------------------------------------------------
# faces and homology

def faces_of(facets):
    """Every face of the complex, as a sorted list of sorted tuples."""
    seen = set()
    for f in facets:
        fs = tuple(sorted(f))
        for k in range(len(fs) + 1):
            seen.update(combinations(fs, k))
    return sorted(seen, key=lambda t: (len(t), t))


def _rank(rows, ncols, field):
    if not rows or ncols == 0:
        return 0
    K = GF(2) if field == "gf2" else QQ
    data = [[K.convert(v) for v in row] for row in rows]
    return DomainMatrix(data, (len(rows), ncols), K).rank()


def oracle_homology(facets, field="gf2"):
    """Reduced homology ranks in dimensions -1..dim, from scratch.

    Builds each signed boundary matrix explicitly (the empty face is the
    single column in dimension -1) and takes exact ranks with sympy.
    """
    faces = faces_of(facets)
    if not faces:
        return []
    dim = max(len(f) for f in faces) - 1
    by_dim = [[] for _ in range(dim + 2)]
    for f in faces:
        by_dim[len(f)].append(f)
    index = [{f: k for k, f in enumerate(layer)} for layer in by_dim]
    ranks = [0] * (dim + 3)
    for p in range(1, dim + 2):
        rows = []
        ncols = len(by_dim[p - 1])
        for f in by_dim[p]:
            row = [0] * ncols
            for pos in range(len(f)):
                sub = f[:pos] + f[pos + 1:]
                row[index[p - 1][sub]] = (-1) ** pos
            rows.append(row)
        ranks[p] = _rank(rows, ncols, field)
    out = []
    for p in range(-1, dim + 1):
        out.append(len(by_dim[p + 1]) - ranks[p + 1] - ranks[p + 2])
    return out


def oracle_beta(generators, ambient, i, j, field="gf2"):
    """Graded Betti number of S/I by restricting to every j-subset of the
    ambient variables and reading one reduced homology rank."""
    if i == 0:
        return 1 if j == 0 else 0
    gens = [frozenset(g) for g in generators]
    total = 0
    for W in combinations(sorted(ambient), j):
        ws = set(W)
        faces = [s for k in range(len(W) + 1) for s in combinations(W, k)
                 if not any(g <= set(s) for g in gens)]
        maximal = [s for s in faces if not any(set(s) < set(t) for t in faces)]
        if not maximal:
            continue
        hom = oracle_homology(maximal, field)
        t = j - i - 1
        if -1 <= t <= len(hom) - 2:
            total += hom[t + 1]
    return total


def oracle_betti_lcm(generators, field="gf2"):
    """Graded Betti table of S/I from the lcm lattice, with no restriction
    complex (Gasharov-Peeva-Welker): beta_{i,m} is the rank of reduced
    homology in dimension i - 2 of the order complex of the open interval
    (0, m), where the lattice is every union of a nonempty set of generators
    and 0 is the empty union. Entries are summed into (i, |m|) and kept when
    positive, as ``BettiTable.as_dict`` keeps them."""
    gens = [frozenset(g) for g in generators]
    lattice = {frozenset().union(*sub)
               for k in range(1, len(gens) + 1) for sub in combinations(gens, k)}
    table = {}
    for m in lattice:
        below = [u for u in lattice if u < m]
        ups = [[b for b, v in enumerate(below)
                if u < v and not any(u < w < v for w in below)] for u in below]
        chains = []

        def climb(chain):
            if not ups[chain[-1]]:
                chains.append(tuple(sorted(chain)))
            for b in ups[chain[-1]]:
                climb(chain + [b])

        for a, u in enumerate(below):
            if not any(w < u for w in below):
                climb([a])
        # the empty interval's order complex has the empty face alone
        for p, rank in enumerate(oracle_homology(chains or [()], field)):
            if rank:
                table[(p + 1, len(m))] = table.get((p + 1, len(m)), 0) + rank
    return table


def clear_window_memos():
    """Empty the Hochster scan's window memo in both fields, so that the next
    scan takes every rank again (the cold route)."""
    for memo in algebra._window_memos.values():
        memo.clear()


def oracle_beta2_closed_form(facets, vertices):
    """beta_{2,d+1} of the facet ideal of a pure complex with facets of size
    d, in closed form: the sum over (d+1)-sets W of max(k_W - 1, 0), where
    k_W counts the facets inside W. The restriction to such a W is the
    boundary of the simplex on W minus k_W of its facets, a wedge of k_W - 1
    spheres of dimension d - 2 when k_W >= 1, so the value is field-free."""
    facets = [frozenset(f) for f in facets]
    d = len(facets[0])
    total = 0
    for W in combinations(sorted(vertices), d + 1):
        ws = frozenset(W)
        k = sum(1 for f in facets if f <= ws)
        total += max(k - 1, 0)
    return total


# ---------------------------------------------------------------------------
# shellability and linear quotients, textbook forms

def _shelling_order_ok(seq):
    """Each facet must meet the union of the earlier ones in a nonempty pure
    complex of codimension one (checked on explicit face sets)."""
    for idx in range(1, len(seq)):
        fi = set(seq[idx])
        inter = set()
        for k in range(idx):
            common = tuple(sorted(fi & set(seq[k])))
            for c in range(len(common) + 1):
                inter.update(combinations(common, c))
        maximal = [s for s in inter if not any(set(s) < set(t) for t in inter)]
        if any(len(s) != len(fi) - 1 for s in maximal):
            return False
    return True


def oracle_is_shellable(facets):
    """Permutation search with the intersection-complex condition; returns a
    shelling order or None. Factorial in the facet count."""
    facets = [tuple(sorted(f)) for f in facets]
    for seq in permutations(facets):
        if _shelling_order_ok(seq):
            return seq
    return None


def oracle_linear_quotients(generators):
    """Permutation search checking each colon ideal directly: the minimal
    monomial generators of (u_1..u_{k-1}) : u_k must all be variables."""
    gens = [tuple(sorted(g)) for g in generators]
    if len(gens) <= 1:
        return tuple(gens)
    for seq in permutations(gens):
        ok = True
        for k in range(1, len(seq)):
            uk = set(seq[k])
            quots = [frozenset(set(seq[x]) - uk) for x in range(k)]
            minimal = [q for q in quots if not any(p < q for p in quots)]
            if any(len(q) != 1 for q in minimal):
                ok = False
                break
        if ok:
            return seq
    return None


def oracle_single_swap_order(sets, budget=None):
    """The set-based single-swap search, kept as the reference for
    ``complexes.single_swap_order``: prefixes are frozensets of indices and
    differences are Python sets. Returns ``(order or None, steps)``, where
    steps counts ``Budget.spend`` calls; raises BudgetExceeded at the same
    step as the package's search must."""
    sets = [set(s) for s in sets]
    r = len(sets)
    b = Budget(budget)
    dead: set = set()
    order: list = []

    def can_append(used: frozenset, i: int) -> bool:
        si = sets[i]
        if not used:
            return True
        singles = set()
        for k in used:
            diff = si - sets[k]
            if len(diff) == 1:
                singles.update(diff)
        if not singles:
            return False
        return all(singles & (si - sets[j]) for j in used)

    def extend(used: frozenset) -> bool:
        if len(used) == r:
            return True
        if used in dead:
            return False
        b.spend()
        for i in range(r):
            if i in used:
                continue
            if can_append(used, i):
                order.append(i)
                if extend(used | {i}):
                    return True
                order.pop()
        dead.add(used)
        return False

    found = extend(frozenset())
    return (tuple(order) if found else None), b.used


# ---------------------------------------------------------------------------
# complexes: nonfaces, links, Reisner

def oracle_minimal_nonfaces(facets, ambient):
    faces = set(faces_of(facets))
    nonfaces = [s for k in range(len(ambient) + 1)
                for s in combinations(sorted(ambient), k) if s not in faces]
    return sorted(s for s in nonfaces
                  if all(s[:p] + s[p + 1:] in faces for p in range(len(s))))


def oracle_independence_complex(circuits, ambient):
    """Facets of the complex of the subsets of ``ambient`` containing no
    circuit: the independent sets with no independent proper superset."""
    circ = [set(c) for c in circuits]
    independent = [s for k in range(len(ambient) + 1)
                   for s in combinations(sorted(ambient), k)
                   if not any(c <= set(s) for c in circ)]
    return sorted(s for s in independent
                  if not any(set(s) < set(t) for t in independent))


def oracle_nonface_indicator(gen_masks, w_mask):
    """``(face, n)`` as ``nonface_indicator`` gives it, by marking, for each
    generator inside the window, every superset of it within the window as
    a non-face. Bit k of an index stands for the k-th lowest bit of
    ``w_mask``."""
    bits = [b for b in range(w_mask.bit_length()) if w_mask >> b & 1]
    n = len(bits)
    total = 1 << n
    face = bytearray(b"\x01") * total
    for gm in gen_masks:
        if gm & ~w_mask:
            continue
        cg = sum(1 << k for k, b in enumerate(bits) if gm >> b & 1)
        sup = (total - 1) ^ cg
        sub = sup
        while True:
            face[cg | sub] = 0
            if sub == 0:
                break
            sub = (sub - 1) & sup
    return face, n


def antichains(ground):
    """Every antichain of subsets of ``ground`` (the empty family and the
    family holding only the empty set included), as sorted tuples of sorted
    tuples."""
    subsets = [s for k in range(len(ground) + 1) for s in combinations(sorted(ground), k)]
    out = []

    def grow(start, chosen):
        out.append(tuple(sorted(chosen)))
        for pos in range(start, len(subsets)):
            s = set(subsets[pos])
            if all(not (s <= set(c) or set(c) <= s) for c in chosen):
                chosen.append(subsets[pos])
                grow(pos + 1, chosen)
                chosen.pop()

    grow(0, [])
    return out


def oracle_is_cm_reisner(facets, field="gf2"):
    """Reisner's criterion: every link (the empty face included) has reduced
    homology vanishing below its dimension."""
    for sigma in faces_of(facets):
        ss = set(sigma)
        link_faces = [tuple(sorted(set(f) - ss)) for f in facets if ss <= set(f)]
        maximal = [s for s in link_faces if not any(set(s) < set(t) for t in link_faces)]
        hom = oracle_homology(maximal, field)
        link_dim = len(hom) - 2
        if any(hom[p + 1] != 0 for p in range(-1, link_dim)):
            return False
    return True


# ---------------------------------------------------------------------------
# minors: simplicial vertices, the minor chase

def oracle_is_simplicial(facets, v):
    """Every two facets through v have a third facet inside their union
    with v removed (vacuous when v lies in at most one facet)."""
    through = [set(f) for f in facets if v in f]
    if len(through) <= 1:
        return True
    others = [set(f) for f in facets]
    for f1, f2 in combinations(through, 2):
        allowed = (f1 | f2) - {v}
        if not any(f3 <= allowed for f3 in others):
            return False
    return True


class OracleBudgetExceeded(Exception):
    """The oracle chase spent more steps than its limit."""


def _maximal_faces(faces):
    uniq = set(faces)
    return tuple(sorted(f for f in uniq if not any(set(f) < set(g) for g in uniq)))


def deletion(cx, v):
    """Drop every facet through v and remove v from the ambient.

    May return the empty complex, which is legal input for minor recursion.
    """
    if v not in cx.ambient:
        raise UnknownVertex(f"vertex {v} is not in the ambient set")
    facets = tuple(f for f in cx.facets if v not in f)
    return SimplicialComplex(tuple(u for u in cx.ambient if u != v), facets)


def contraction(cx, v):
    """Remove v from every facet, then keep the maximal results.

    The result need not be pure even when the input is, and contracting the
    last vertex of a lone facet leaves the complex whose only facet is empty.
    """
    if v not in cx.ambient:
        raise UnknownVertex(f"vertex {v} is not in the ambient set")
    stripped = (tuple(u for u in f if u != v) for f in cx.facets)
    return SimplicialComplex(tuple(u for u in cx.ambient if u != v), _maximal_faces(stripped))


def oracle_minor_chase(facets, limit=None):
    """Whether every deletion and contraction minor has a simplicial vertex,
    as ``(verdict, steps)``.

    States are canonical facet tuples, memoized; families of at most one
    facet pass. The recursion runs through every minor, small ones included,
    so it checks the package's lemma that families of at most three facets
    are chordal rather than assuming it. Only a new state of four or more
    facets counts one step after the memo misses, as the package's chase
    visits no smaller one, and the step past ``limit`` raises
    OracleBudgetExceeded. Vertices go in ascending order, the property test
    before any recursion, the deletion before the contraction at each vertex.
    """
    memo = {}
    steps = 0

    def good(cx):
        nonlocal steps
        state = cx.facets
        if len(state) <= 1:
            return True
        if state in memo:
            return memo[state]
        if len(state) > 3:
            steps += 1
            if limit is not None and steps > limit:
                raise OracleBudgetExceeded(steps)
        support = sorted(set().union(*map(set, state)))
        ok = any(oracle_is_simplicial(state, v) for v in support)
        if ok:
            for v in support:
                if not good(deletion(cx, v)) or not good(contraction(cx, v)):
                    ok = False
                    break
        memo[state] = ok
        return ok

    state = tuple(sorted(tuple(sorted(f)) for f in facets))
    verdict = good(SimplicialComplex(tuple(sorted(set().union(*map(set, state)))), state))
    return verdict, steps


# ---------------------------------------------------------------------------
# line graphs: ridge adjacency, triangles and complete shapes on facet sets

def oracle_ridge_edges(facets):
    """Pairs (i, j), 1 <= i < j <= r, of facets meeting in all but one
    vertex; facets are numbered in the given order and share one size."""
    sets = [set(f) for f in facets]
    d = len(sets[0])
    return [(i + 1, j + 1) for i, j in combinations(range(len(sets)), 2)
            if len(sets[i] & sets[j]) == d - 1]


def oracle_ridge_counts(facets):
    """For each facet, the number of later facets it meets in a ridge."""
    edges = oracle_ridge_edges(facets)
    return tuple(sum(1 for a, _ in edges if a == i) for i in range(1, len(facets) + 1))


def oracle_classify_triangles(facets):
    """Every triple (i, j, k), i < j < k in lexicographic order, of pairwise
    ridge-adjacent facets with "ridge_shared" (triple intersection of size
    d-1) or "simplex_type" (size d-2)."""
    sets = [set(f) for f in facets]
    d = len(sets[0])
    adjacent = set(oracle_ridge_edges(facets))
    out = []
    for i, j, k in combinations(range(1, len(sets) + 1), 3):
        if {(i, j), (i, k), (j, k)} <= adjacent:
            common = len(sets[i - 1] & sets[j - 1] & sets[k - 1])
            out.append(((i, j, k), "ridge_shared" if common == d - 1 else "simplex_type"))
    return tuple(out)


def oracle_characterize_complete(facets):
    """"Cone" (one facet, or all facets through a common (d-1)-set),
    "SimplexSubsets" (all facets inside one (d+1)-set), "Neither", or
    "contradiction" when the line graph is complete on four or more facets
    (facet size at least 2) and neither shape fits."""
    sets = [set(f) for f in facets]
    d, r = len(sets[0]), len(sets)
    if r == 1 or len(set.intersection(*sets)) == d - 1:
        return "Cone"
    if len(set.union(*sets)) <= d + 1:
        return "SimplexSubsets"
    if r >= 4 and d >= 2 and len(oracle_ridge_edges(facets)) == r * (r - 1) // 2:
        return "contradiction"
    return "Neither"


def oracle_chordal_hypotheses(facets):
    """The chordal statements' hypothesis gate as ``(True, {"diameter": D})``
    or ``(False, reason)``, deciding in its first order: the diameter first
    (by breadth-first search from every facet of the pairwise-intersection
    line graph; a facet out of reach means disconnected), then chordality,
    then diameter at most the facet size."""
    r, d = len(facets), len(facets[0])
    edges = oracle_ridge_edges(facets)
    adj = {v: set() for v in range(1, r + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    dia = 0
    for start in adj:
        dist = {start: 0}
        frontier = [start]
        while frontier:
            reached = []
            for v in frontier:
                for w in adj[v] - dist.keys():
                    dist[w] = dist[v] + 1
                    reached.append(w)
            frontier = reached
        if len(dist) < r:
            return False, "line graph disconnected"
        dia = max(dia, *dist.values())
    if not oracle_chordal_graph(r, edges):
        return False, "line graph not chordal"
    if dia > d:
        return False, f"line graph diameter {dia} exceeds facet size {d}"
    return True, {"diameter": dia}


# ---------------------------------------------------------------------------
# graphs

def oracle_chordal_graph(n, edges):
    """No induced cycle of length four or more, by scanning vertex subsets: a
    subset induces a cycle exactly when it is connected with all degrees 2."""
    adj = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for size in range(4, n + 1):
        for sub in combinations(range(1, n + 1), size):
            ss = set(sub)
            degs = [len(adj[v] & ss) for v in sub]
            if any(d != 2 for d in degs):
                continue
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                v = stack.pop()
                for w in adj[v] & ss:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if seen == ss:
                return False
    return True


def oracle_triangles(n, edges):
    es = {frozenset(e) for e in edges}
    return sorted(t for t in combinations(range(1, n + 1), 3)
                  if all(frozenset(p) in es for p in combinations(t, 2)))


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def oracle_clique_edge_partition(g, max_per_vertex, budget=None):
    """The edge-indexed clique-partition search, kept as the reference for
    ``graphs.clique_edge_partition``: uncovered edges are bits of one mask
    over the sorted edge list. Returns ``(partition or None, steps)``, where
    steps counts ``Budget.spend`` calls; raises BudgetExceeded at the same
    step as the package's search must."""
    if max_per_vertex < 0:
        raise BadParameters("per-vertex clique cap must be nonnegative")
    edges = list(g.edges())
    if not edges:
        return (), 0
    index = {e: k for k, e in enumerate(edges)}
    m = len(edges)
    b = Budget(budget)
    counts = [0] * (g.order + 1)
    chosen: list = []

    def cliques_through(a: int, bept: int, covered: int):
        """Maximal-first enumeration of cliques on edge (a, b) whose edges are
        all uncovered; yields vertex masks."""
        base = (1 << (a - 1)) | (1 << (bept - 1))
        cand_mask = g.adj[a - 1] & g.adj[bept - 1]
        cands = []
        rest = cand_mask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length()
            e1 = (min(a, v), max(a, v))
            e2 = (min(bept, v), max(bept, v))
            if covered >> index[e1] & 1 or covered >> index[e2] & 1:
                continue
            if counts[v] >= max_per_vertex:
                continue
            cands.append(v)
        out = []

        def grow(mask: int, pool: list):
            out.append(mask)
            for pos, v in enumerate(pool):
                ok = True
                mv = mask
                while mv:
                    low = mv & -mv
                    mv ^= low
                    u = low.bit_length()
                    if u == v:
                        continue
                    if not g.adj[u - 1] >> (v - 1) & 1:
                        ok = False
                        break
                    e = (min(u, v), max(u, v))
                    if covered >> index[e] & 1:
                        ok = False
                        break
                if ok:
                    grow(mask | 1 << (v - 1), pool[pos + 1:])

        grow(base, cands)
        # larger cliques first: fewer pieces tends to satisfy the cap sooner
        out.sort(key=lambda msk: -msk.bit_count())
        seen = set()
        uniq = [msk for msk in out if not (msk in seen or seen.add(msk))]
        return uniq

    def clique_edges(mask: int) -> tuple:
        vs = _bits(mask)
        return tuple((u, v) for u, v in combinations(vs, 2))

    def solve(covered: int) -> bool:
        if covered == (1 << m) - 1:
            return True
        b.spend()
        first = None
        for k in range(m):
            if not covered >> k & 1:
                first = edges[k]
                break
        a, bv = first
        if counts[a] >= max_per_vertex or counts[bv] >= max_per_vertex:
            return False
        for mask in cliques_through(a, bv, covered):
            es = clique_edges(mask)
            new_cov = covered
            for e in es:
                new_cov |= 1 << index[e]
            vs = _bits(mask)
            for v in vs:
                counts[v] += 1
            stuck = False
            for v in vs:
                if counts[v] == max_per_vertex:
                    row = g.adj[v - 1]
                    while row:
                        low = row & -row
                        row ^= low
                        u = low.bit_length()
                        e = (min(u, v), max(u, v))
                        if not new_cov >> index[e] & 1:
                            stuck = True
                            break
                    if stuck:
                        break
            if not stuck and solve(new_cov):
                chosen.append(vs)
                for v in vs:
                    counts[v] -= 1
                return True
            for v in vs:
                counts[v] -= 1
        return False

    if solve(0):
        chosen.reverse()
        return tuple(chosen), b.used
    return None, b.used


def oracle_check_clique_partition(g, part, cap):
    """The clique-partition statement's earlier validation of a partition on
    a set of edge tuples, kept as the reference for the row-based check in
    ``harness._check_clique_partition``: ``(status, diagnostic)``, with the
    first pair covered twice in partition and ``combinations`` order, else a
    mismatch of the covered set with the edges or a vertex over the cap."""
    counts = [0] * (g.order + 1)
    covered = set()
    for clique in part:
        for v in clique:
            counts[v] += 1
        for e in combinations(clique, 2):
            if e in covered:
                return "counterexample", {"invalid": "edge covered twice", "edge": list(e)}
            covered.add(e)
    if covered != set(g.edges()) or any(c > cap for c in counts):
        return "counterexample", {"invalid": "not a partition within the cap"}
    return "confirmed", {"cliques": [list(c) for c in part]}


def oracle_has_induced_star(g, leaves, budget=None):
    """The branch-and-reduce star search bounded only by popcount, kept as
    the reference for ``graphs.has_induced_star``: same verdicts, and never
    fewer steps, since the clique-cover bound prunes a superset of its nodes.
    Returns ``(verdict, steps)``; raises BudgetExceeded past the budget."""
    if leaves == 0:
        return g.order > 0, 0
    b = Budget(budget)

    def has_independent(mask, want):
        if want == 0:
            return True
        if mask.bit_count() < want:
            return False
        b.spend()
        low = mask & -mask
        v = low.bit_length()
        if has_independent(mask ^ low, want):
            return True
        return has_independent(mask & ~g.adj[v - 1] & ~low, want - 1)

    return any(has_independent(row, leaves) for row in g.adj), b.used


def oracle_realizability_search(g, d, max_vertices, budget=None):
    """The set-based realizability search, kept as the reference for
    ``linegraph.realizability_search``: candidates are sorted vertex tuples
    and each is checked against the chosen facets as Python sets, one
    adjacency-row bit test per chosen facet. Returns ``(facets or None,
    steps)``, the facets in vertex order; raises BudgetExceeded at the same
    step as the package's search must."""
    r = g.order
    b = Budget(budget)
    first = tuple(range(1, d + 1))
    chosen = [first]
    chosen_sets = [set(first)]

    def candidates(high: int):
        """d-sets over vertices 1..high plus a fresh suffix high+1..high+t."""
        for t in range(min(d, max_vertices - high) + 1):
            fresh = tuple(range(high + 1, high + 1 + t))
            for old in combinations(range(1, high + 1), d - t):
                yield tuple(sorted(old)) + fresh

    def fits(candidate: tuple) -> bool:
        cs = set(candidate)
        i = len(chosen) + 1
        for j, fj in enumerate(chosen_sets, start=1):
            inter = len(cs & fj)
            if inter == d:
                return False  # facets must be distinct
            if (inter == d - 1) != bool(g.adj[i - 1] >> (j - 1) & 1):
                return False
        return True

    def extend() -> bool:
        if len(chosen) == r:
            return True
        high = max(max(f) for f in chosen)
        for cand in candidates(high):
            b.spend()
            if fits(cand):
                chosen.append(cand)
                chosen_sets.append(set(cand))
                if extend():
                    return True
                chosen.pop()
                chosen_sets.pop()
        return False

    realized = r == 1 or extend()
    return (tuple(chosen) if realized else None), b.used


def assert_step_for_step(search, oracle, budget=None):
    """``search(budget)`` against ``oracle(budget) -> (result, steps)``.
    When the oracle runs out of ``budget``, the search must too, and None is
    returned. Otherwise, under budgets 1, steps // 2 and steps - 1 both run
    out, and under the oracle's own step count the search returns the
    oracle's result, so the two spend the same number of steps, which is
    returned."""
    try:
        want, steps = oracle(budget)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            search(budget)
        return None
    for limit in sorted({1, steps // 2, steps - 1, steps}):
        if limit < 1:
            continue  # budgets are positive
        if limit < steps:
            with pytest.raises(BudgetExceeded):
                oracle(limit)
            with pytest.raises(BudgetExceeded):
                search(limit)
        else:
            assert search(limit) == want
    return steps


def oracle_first_row_mismatch(rows, crows):
    """The pair loop that ``harness._first_row_mismatch`` replaces: every
    pair i < j in lexicographic order, comparing bit j of ``rows[i]`` with
    bit j of ``crows[i]``."""
    r = len(rows)
    for i in range(r):
        for j in range(i + 1, r):
            left = bool(rows[i] >> j & 1)
            right = bool(crows[i] >> j & 1)
            if left != right:
                return i, j, left, right
    return None


def oracle_cycle_lengths(n, edges):
    """All lengths of (not necessarily induced) cycles, by rotating simple
    paths; fine for the small graphs the tests use."""
    adj = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    lengths = set()

    def extend(path, used):
        head = path[-1]
        for w in adj[head]:
            if w == path[0] and len(path) >= 3:
                lengths.add(len(path))
            elif w not in used and w > path[0]:
                extend(path + [w], used | {w})

    for start in range(1, n + 1):
        extend([start], {start})
    return sorted(lengths)


def oracle_induced_cycle_lengths(n, edges):
    es = {frozenset(e) for e in edges}
    adj = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    out = set()
    for size in range(3, n + 1):
        if size in out:
            continue
        for sub in combinations(range(1, n + 1), size):
            ss = set(sub)
            if any(len(adj[v] & ss) != 2 for v in sub):
                continue
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                v = stack.pop()
                for w in adj[v] & ss:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if seen == ss:
                out.add(size)
                break
    return sorted(out)


def all_labeled_graphs(n):
    """Every labeled graph on vertex set {1..n}, as (n, edge tuple)."""
    pool = list(combinations(range(1, n + 1), 2))
    for k in range(len(pool) + 1):
        for es in combinations(pool, k):
            yield n, es


def connected_labeled_graphs(n):
    """Labeled connected graphs on {1..n} with at least one edge."""
    for n_, es in all_labeled_graphs(n):
        if not es:
            continue
        adj = {v: set() for v in range(1, n + 1)}
        for a, b in es:
            adj[a].add(b)
            adj[b].add(a)
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            yield n_, es
