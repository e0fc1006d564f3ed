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
    ViolationList,
    check_assertions,
    evaluate_rule,
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
from .exact import (
    BipartitePowerStructure,
    HoffmanCertificate,
    IntMatrix,
    PositivityProfile,
    adjacency,
    as_adjacency,
    bipartite_power_structure,
    commute,
    connected_by_powers,
    first_adjacency_violation,
    hoffman_polynomial,
    multiply,
    positivity_profile,
    power,
    primitivity_exponent,
    wielandt_bound,
)
from .factorization import Factorization, StoredWitness
from .graphs import (
    AcyclicClass,
    Bipartition,
    Graph,
    Permutation,
    bipartition_of,
    canonical_form,
    canonical_key,
    canonical_relabeling,
    classify_acyclic,
    complete,
    complete_bipartite,
    components,
    contains_c4,
    cycle,
    decode_edge_list,
    decode_graph6,
    degree_sequence,
    disjoint_union,
    edgeless,
    encode_edge_list,
    encode_graph6,
    generate,
    graph6_from_key,
    graph_from_key,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_regular,
    matching,
    path,
    permute,
    star,
    tree_from_pruefer,
)
from .search import (
    FactorDecision,
    SearchConfig,
    SearchStats,
    cycle_product,
    dedup_pairs,
    disconnected_counterexample,
    doubled_graph,
    factor_naive,
    factor_search,
    fix_labeling,
    is_factorizable,
)
from .spectral import (
    PerronData,
    ProductCheck,
    Spectrum,
    common_eigenbasis,
    eigen_sym,
    lambda_max,
    lambda_max_product_check,
    perron,
    spectrum_is_symmetric,
)

__version__ = "0.1.0"
