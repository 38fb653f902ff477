"""Signless-Laplacian spectral thresholds for perfect matchings.

Compute q1(G), decide matching existence, verify the threshold condition over
graph corpora, rebuild the quotient-matrix machinery behind it, and construct
the extremal graphs that attain the bounds.
"""

from .errors import (
    CapacityError,
    Graph6ParseError,
    HypothesisError,
    InputError,
    NumericalError,
    SamplingError,
)
from .generate import all_connected, connected_graph_count, sample_connected
from .graph import (
    Graph,
    build_graph,
    complete_graph,
    components,
    deficiency,
    delete_vertices,
    disjoint_union,
    empty_graph,
    extremal_h,
    is_connected,
    join,
    odd_components,
    proof_graph,
)
from .graph6 import (
    ParseFailure,
    decode_graph6,
    encode_graph6,
    read_edge_list,
    read_stream,
)
from .matching import (
    MatchingResult,
    has_perfect_matching,
    maximum_matching,
    tutte_berge_oracle,
)
from .proof_harness import (
    ProofInstance,
    PropertyReport,
    build_m1,
    build_m2,
    build_m3,
    build_m4,
    build_m5,
    check_case_analysis,
    check_h_bound,
    check_merge_singletons,
    check_root_bounds,
    check_vertex_shift,
    exhaustive_instances,
    r_l_of_n,
    run_proof_suite,
    sample_instances,
    verify_polynomial_transcriptions,
)
from .spectral import (
    closed_form_r,
    edge_threshold,
    is_equitable,
    largest_real_root,
    q1,
    q1_threshold,
    quotient_matrix,
    r_of_n,
    signless_laplacian,
    signless_laplacians,
    spectral_radius,
)
from .verify import (
    EPSILON,
    VERDICT_BOUNDARY,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_HOLDS,
    VERDICT_HYPOTHESIS,
    CorpusSummary,
    VerdictRecord,
    check_graph,
    check_graphs,
    run_exhaustive,
    run_random,
    run_stream,
    sharpness_graph,
    sharpness_report,
)

__version__ = "0.1.0"
