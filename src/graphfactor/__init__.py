"""Matrix-product factorizations of graphs.

A graph G factors into H and K when adjacency matrices exist with
A = B*C.  This package decides and enumerates such witnesses, screens
graphs against the necessary conditions, validates every registered
structural assertion on found witnesses, and runs a full census over the
isomorphism classes of small orders.
"""
from .census import (
    CensusRecord,
    TheoremReport,
    enumerate_graphs,
    read_catalog,
    run_census,
    verify_catalog,
    verify_lines,
    write_catalog,
)
from .conditions import (
    ConditionReport,
    RuleResult,
    Violation,
    check_assertions,
    exploratory_observations,
    screen,
    validate_factorization,
)
from .errors import (
    CatalogSchemaError,
    Graph6Error,
    GraphFactorError,
    ParameterError,
    PreconditionError,
    TheoremViolationError,
    UnsupportedSizeError,
)
from .factorization import Factorization, IntMatrix, StoredWitness, adjacency
from .graphs import (
    Graph,
    bipartition_of,
    canonical_form,
    canonical_key,
    complete,
    components,
    contains_c4,
    cycle,
    decode_edge_list,
    decode_graph6,
    degree_sequence,
    disjoint_union,
    edgeless,
    encode_graph6,
    graph6_from_key,
    graph_from_key,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_regular,
    matching,
)
from .search import (
    FactorDecision,
    SearchConfig,
    SearchStats,
    cycle_product,
    dedup_pairs,
    disconnected_counterexample,
    doubled_graph,
    factor_search,
    is_factorizable,
)
from .spectral import (
    eigen_sym,
    lambda_max,
    perron,
    spectrum_is_symmetric,
)

__version__ = "0.1.0"
