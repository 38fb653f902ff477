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
    empty_graph,
    extremal_h,
    is_connected,
    join,
    proof_graph,
)
from .graph6 import (
    ParseFailure,
    decode_graph6,
    encode_graph6,
    read_edge_list,
    scan_stream,
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
    build_m3,
    build_m4,
    build_m5,
    check_case_analysis,
    check_h_bound,
    check_merge_singletons,
    check_root_bounds,
    check_vertex_shift,
    exhaustive_instances,
    run_proof_suite,
    sample_instances,
    verify_polynomial_transcriptions,
)
from .spectral import (
    char_poly,
    closed_form_r,
    edge_threshold,
    polyval,
    q1,
    q1_threshold,
    r_l_of_n,
    r_of_n,
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
    run_exhaustive,
    run_random,
    run_stream,
    sharpness_graph,
    sharpness_row,
)

__version__ = "0.1.0"
