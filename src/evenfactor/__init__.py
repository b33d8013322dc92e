"""Exact toolkit for deciding and constructing even [a,b]-factors in graphs."""

from .errors import ScaleError
from .graph import (
    Graph,
    MultiGraph,
    INFINITY,
    build_graph,
    degree_profile,
    sigma2,
    components_after_deletion,
    edge_cut,
    edge_connectivity,
    vertex_connectivity,
    is_connected,
)
from .formats import (
    to_edge_list_text,
    from_edge_list_text,
    to_dot,
    from_dot,
)
from .criteria import (
    CriterionWitness,
    Condition,
    ConditionReport,
    odd_cut_q,
    even_factor_deficiency,
    lovasz_deficiency,
    parity_check,
    criterion_decide,
    main_theorem_conditions,
    conjecture_conditions,
    order_threshold,
    prop_f_eval,
)
from .search import (
    Factor,
    MatchingInstance,
    brute_force_even_factor,
    loop_augment,
    tutte_gadget,
    max_matching,
    maximum_cardinality_matching,
    is_perfect,
    find_even_factor,
    find_ab_factor,
    verify_factor,
)
from .constructions import (
    example1,
    example2,
    h_na,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
)
from .spectral import (
    SpectralResult,
    SweepRecord,
    lambda1,
    bipartite_threshold,
    observation_decide,
    classify_threshold,
    rho,
    conjecture_sweep,
    sweep_summary,
    graph_from_mask,
)

__version__ = "0.1.0"
