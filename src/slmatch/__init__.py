"""Signless-Laplacian spectral thresholds for perfect matchings.

Compute q1(G), decide matching existence, verify the threshold condition over
graph corpora, rebuild the quotient-matrix machinery behind it, and construct
the extremal graphs that attain the bounds.
"""

import os
import sys

# One BLAS thread per process: `verify --jobs` worker processes are the only
# parallelism.  OpenBLAS hands a solve of order about 72 and up to a second
# thread, which then spin-waits for about 0.1 s instead of sleeping, so the
# Python work after every such solve burns two CPUs.  The variable is read
# once, when numpy loads OpenBLAS: a value the user set wins, and after numpy
# is imported it is left alone.  Pool workers inherit the setting, forked or
# spawned.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
del os, sys

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
    deficiency,
    proof_graph,
)
from .graph6 import (
    ParseFailure,
    decode_graph6,
    encode_graph6,
    read_edge_list,
    scan_stream,
)
from .matching import MatchingResult, maximum_matching
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
    check_scenario,
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
