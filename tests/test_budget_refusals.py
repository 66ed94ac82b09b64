"""Every exported entry point that takes a step budget refuses a bad one.

A budget that is not a positive integer raises ``BadParameters`` on every
input, the most trivial included: no search step, no early answer for an
input with nothing to search, may come before the check.
"""

import inspect

import pytest

import ridgeline as rl

_POINT = rl.from_facets([[1]])

# the most trivial input each entry point accepts; analyze's is a non-pure
# complex, whose report stops before any search
TRIVIAL = {
    "analyze": lambda b: rl.analyze(rl.from_facets([[1, 2], [3]]), budget=b),
    "clique_edge_partition": lambda b: rl.clique_edge_partition(rl.Graph(0), 0, b),
    "count_Nt": lambda b: rl.count_Nt(_POINT, "all", b),
    # refused at the call, before any complex is drawn from the generator
    "enumerate_pure_complexes": lambda b: rl.enumerate_pure_complexes(1, 1, 1, b),
    "has_induced_star": lambda b: rl.has_induced_star(rl.Graph(0), 0, b),
    "has_linear_quotients": lambda b: rl.has_linear_quotients(rl.monomial_ideal([]), b),
    "is_chordal_complex": lambda b: rl.is_chordal_complex(_POINT, b),
    "is_shellable": lambda b: rl.is_shellable(_POINT, b),
    "predicted_beta2": lambda b: rl.predicted_beta2(_POINT, "all", b),
    "realizability_search": lambda b: rl.realizability_search(rl.Graph(1), 2, 2, b),
    "single_swap_order": lambda b: rl.single_swap_order([], b),
    "verify": lambda b: rl.verify("cycle", budget=b, stable_time=True),
}


def _budgeted() -> set:
    names = set()
    for name in dir(rl):
        obj = getattr(rl, name)
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if "budget" in params:
            names.add(name)
    return names


def test_table_names_every_budgeted_entry_point():
    assert _budgeted() == set(TRIVIAL)


@pytest.mark.parametrize("name", sorted(TRIVIAL))
def test_bad_budget_refused_on_trivial_input(name):
    call = TRIVIAL[name]
    call(None)  # the input itself is accepted
    for bad in (0, -1, True, 1.5):
        with pytest.raises(rl.BadParameters, match="budget must be a positive integer"):
            call(bad)
