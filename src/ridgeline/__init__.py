"""Line graphs of pure simplicial complexes and exact Betti tables.

Facets of a pure complex become vertices of a graph, adjacent when they meet
in a ridge. The package builds that graph, classifies its triangles, predicts
the second graded Betti number of the facet ideal from edge and triangle
counts, computes exact Betti tables over GF(2) or the rationals for
comparison, and ships a verification harness that runs the combinatorial
statements over seeded random or exhaustive corpora.
"""

from .algebra import (
    BettiTable,
    FieldChoice,
    MonomialIdeal,
    beta_in_degree,
    betti_table,
    edge_ideal,
    facet_ideal,
    froberg_check,
    has_linear_quotients,
    has_linear_resolution,
    is_cohen_macaulay,
    monomial_ideal,
    reduced_homology_ranks,
    stanley_reisner_ideal,
)
from .complexes import (
    SimplicialComplex,
    alexander_dual,
    complement_complex,
    dimension,
    facet_size,
    from_facets,
    independence_complex,
    is_chordal_complex,
    is_pure,
    is_shellable,
    join,
    minimal_nonfaces,
    single_swap_order,
)
from .errors import (
    BadParameters,
    Budget,
    BudgetExceeded,
    DegenerateComplement,
    DimensionTooSmall,
    EmptyInput,
    NotPure,
    OutOfAmbient,
    OverlappingAmbients,
    ParseError,
    RidgelineError,
    UnknownTheorem,
    UnknownVertex,
    search_budget,
)
from .graphs import (
    Graph,
    clique_edge_partition,
    complement,
    complete_graph,
    cycle_graph,
    diameter,
    has_induced_star,
    is_chordal_graph,
    is_connected,
    line_graph_of_graph,
    path_graph,
    triangles,
)
from .harness import (
    VerifyReport,
    analyze,
    complex_document,
    enumerate_pure_complexes,
    parse_document,
    random_pure_complex,
    render_analysis,
    serialize_complex,
    verify,
)
from .kernels import COMPILED
from .linegraph import (
    CONE,
    NEITHER,
    SIMPLEX_SUBSETS,
    LabeledLineGraph,
    NtInterpretation,
    TriangleType,
    characterize_complete,
    classify_triangles,
    count_Nt,
    edge_count_formula,
    line_graph,
    make_cone,
    make_cycle_complex,
    make_simplex_subsets,
    make_triangle_join,
    predicted_beta2,
    realizability_search,
    ridge_counts,
)

__version__ = "0.1.0"
