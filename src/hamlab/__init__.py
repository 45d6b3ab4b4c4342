"""hamlab: a rotation-extension Hamiltonicity laboratory.

Library + CLI for building Hamilton cycles with the rotation-extension
technique, checking the expansion/joined hypotheses that power it, and
cross-validating everything against brute-force oracles at desk scale.
"""

from .graph import (
    Cycle,
    Graph,
    GraphFormatError,
    Path,
    SoundnessError,
    Verdict,
    adjacency_masks,
    bfs_distances,
    complete,
    complete_bipartite,
    clique_plus_isolated,
    cycle_graph,
    edge_key,
    generate,
    gnp,
    is_connected,
    load_edge_list,
    neighborhood,
    neighborhood_mask,
    path_graph,
    petersen,
    random_regular,
    save_edge_list,
    validate_cycle,
    validate_path,
)
from .conditions import (
    ConditionReport,
    ConditionThresholds,
    FConnSpec,
    WorkBudgetExceeded,
    alpha_value,
    check_expansion,
    check_f_connected,
    check_gnp_properties,
    check_joined,
    check_conditions,
    fconn_implies_conditions,
    m_value,
    p2_failure_bound,
    condition_thresholds,
    small_vertices,
)
from .rotation import (
    EndpointFamily,
    PathBuf,
    RotationStep,
    double_rotation_targets,
    endpoint_closure_oracle,
    endpoint_family,
    extend,
    reconstruct_path,
    rotate,
)
from .pivots import (
    AugmentedPathGraph,
    PivotAudit,
    ProcessingCertificate,
    SpannedGraph,
    augment,
    classify_pivots,
    pivot_endpoint_set,
    process_bad_vertices,
)
from .closing import (
    CloseFailure,
    SearchResult,
    SegmentDecomposition,
    build_contracted,
    close_heuristic,
    close_proof_faithful,
    decompose,
    find_hamilton_cycle,
    select_sigma0,
    unbroken_segments,
)
from .applications import (
    ExperimentStats,
    cycle_of_length_k,
    fconnected_pipeline,
    gnp_trials,
    hamilton_connected_oracle,
    hamilton_path_between,
    hamilton_path_oracle,
    hamiltonian_oracle,
    strip_nonexpanding,
)

__version__ = "0.1.0"
