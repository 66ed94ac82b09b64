"""The bounded searches leave no reference cycles behind.

A recursive closure refers to itself through its cell, so unless the cell is
cleared the function, its frame variables and its search state (the minor
chase's memo, a clique partition's counters) survive until the cyclic
garbage collector runs. With the collector off and DEBUG_SAVEALL, anything
that only the collector could free lands in ``gc.garbage``.
"""

import gc
import types

import ridgeline as rl

BD3 = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
GAMMA = [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (1, 5, 6)]
CHAIN5 = [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (5, 6, 7)]


def _searches(budget=None):
    """One call of every recursive search: count_Nt's disjoint-triangle
    search, clique_edge_partition (its solve and grow), has_induced_star,
    single_swap_order (through is_shellable), the chordality minor chase and
    the realizability search. The star search gets a line graph whose
    neighbourhoods the greedy clique cover does not settle at once, and the
    chase a chain whose minors of four facets make it recurse."""
    g = rl.line_graph(rl.random_pure_complex(10, 3, 30, 1)).graph
    dense = rl.line_graph(rl.random_pure_complex(9, 3, 40, 1)).graph
    gamma = rl.from_facets(GAMMA)
    chain = rl.from_facets(CHAIN5)
    return [
        lambda: rl.realizability_search(rl.path_graph(3), 2, 8, budget),
        lambda: rl.count_Nt(rl.from_facets(BD3), "max_disjoint", budget),
        lambda: rl.clique_edge_partition(g, 3, budget),
        lambda: rl.has_induced_star(dense, 4, budget),
        lambda: rl.is_shellable(rl.from_facets(BD3 + [(1, 5, 6)], ambient=range(1, 7)), budget),
        lambda: rl.is_shellable(gamma, budget),
        lambda: rl.is_chordal_complex(chain, budget),
    ]


def _cyclic_ridgeline_functions(run) -> list:
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return sorted(obj.__qualname__ for obj in gc.garbage
                      if isinstance(obj, types.FunctionType)
                      and obj.__module__.startswith("ridgeline"))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_searches_leave_no_closure_cycles():
    def run():
        for search in _searches():
            search()

    assert _cyclic_ridgeline_functions(run) == []


def test_exhausted_searches_leave_no_closure_cycles():
    def run():
        for search in _searches(budget=1):
            try:
                search()
            except rl.BudgetExceeded:
                pass
            else:
                raise AssertionError("a budget of one step should run out")

    assert _cyclic_ridgeline_functions(run) == []
