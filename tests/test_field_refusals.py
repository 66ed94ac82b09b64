"""Every exported entry point that takes a coefficient field refuses a bad one.

A field that is not a ``FieldChoice`` or one of its spellings raises
``BadParameters`` on every input, the most trivial included: no early
answer, no complement build and no input refusal may come before the check.
"""

import inspect

import pytest

import ridgeline as rl

_POINT = rl.from_facets([[1]])

# the most trivial input each entry point accepts: an ideal with no
# generators or of mixed degrees, a graph with no vertex, and a complex whose
# complement is degenerate (is_cohen_macaulay raises DegenerateComplement
# for it once the field is accepted)
TRIVIAL = {
    "analyze": lambda f: rl.analyze(rl.from_facets([[1, 2], [3]]), f),
    "beta_in_degree": lambda f: rl.beta_in_degree(rl.monomial_ideal([]), 0, 0, f),
    "betti_table": lambda f: rl.betti_table(rl.monomial_ideal([]), f),
    "froberg_check": lambda f: rl.froberg_check(rl.Graph(0), f),
    "has_linear_resolution": lambda f: rl.has_linear_resolution(rl.monomial_ideal([(1, 2), (3,)]), f),
    "is_cohen_macaulay": lambda f: rl.is_cohen_macaulay(rl.from_facets([[1, 2], [3]]), f),
    "reduced_homology_ranks": lambda f: rl.reduced_homology_ranks(_POINT, f),
    "verify": lambda f: rl.verify("cycle", field=f, stable_time=True),
}


def _fielded() -> set:
    names = set()
    for name in dir(rl):
        obj = getattr(rl, name)
        # the dataclasses that store a field (BettiTable, VerifyReport) take
        # no choice to refuse
        if name.startswith("_") or inspect.ismodule(obj) or inspect.isclass(obj) or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if "field" in params:
            names.add(name)
    return names


def test_table_names_every_fielded_entry_point():
    assert _fielded() == set(TRIVIAL)


@pytest.mark.parametrize("name", sorted(TRIVIAL))
def test_bad_field_refused_on_trivial_input(name):
    call = TRIVIAL[name]
    call("rational")  # the input itself is accepted
    for bad in ("bogus", None, 2):
        with pytest.raises(rl.BadParameters, match="field must be"):
            call(bad)


def test_bad_field_refused_before_an_early_answer_or_a_degenerate_complement():
    simplex = rl.from_facets([[1, 2, 3]])
    with pytest.raises(rl.DegenerateComplement):
        rl.is_cohen_macaulay(simplex, "gf2")
    assert rl.has_linear_resolution(rl.monomial_ideal([]), "gf2")
    for call in (lambda: rl.is_cohen_macaulay(simplex, "bogus"),
                 lambda: rl.has_linear_resolution(rl.monomial_ideal([]), "bogus")):
        with pytest.raises(rl.BadParameters, match="field must be"):
            call()
