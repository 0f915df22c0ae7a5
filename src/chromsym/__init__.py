"""Exact chromatic symmetric and quasisymmetric functions of finite
simple graphs, with hook coefficients verified along independent routes."""

from .chromatic import (
    SinkProfile,
    chromatic_polynomial_via_colorings,
    chromatic_polynomial_via_specialization,
    cqf_fundamental_via_orientations,
    cqf_monomial,
    csf_monomial,
    csf_schur,
    dual_linear_extensions,
    e_sums_by_length,
    hook_coefficients_via_colorings_t,
    hook_coefficients_via_extensions_t,
    hook_coefficients_via_kostka,
    hook_coefficients_via_orientations_t,
    hook_coefficients_via_schur,
    hook_coefficients_via_sinks,
    hook_coefficient_via_sinks,
    orientations_by_sinks,
    sink_minimal_increasing_labeling,
    sink_profile,
)
from .graphs import (
    Graph,
    Labeling,
    Orientation,
    acyclic_orientations,
    complete_graph,
    edgeless_graph,
    is_claw_free,
    load_graph,
    parse_graph_text,
    path_graph,
    reference_orientation,
    stable_partitions_by_type,
    star_graph,
)
from .partitions import (
    composition_from_descents,
    conjugate,
    hook_partition,
    partition_of,
    partitions_of,
)
from .posets import (
    Poset,
    all_posets,
    count_p_tableaux_hooks,
    incomparability_graph,
    incomparability_schur_hooks,
    load_poset,
    parse_poset_text,
)
from .symfunc import (
    QuasisymmetricF,
    QuasisymmetricM,
    SymmetricFunctionM,
    canonical_items,
    collapse_t,
    is_symmetric,
    m_to_e,
    m_to_s,
    qsym_M_to_F,
)
from .tableaux import kostka
from .tpoly import TPoly

__version__ = "0.1.0"
