"""Union-of-subspaces learning: structure-constrained low-rank representation,
hierarchical subspace clustering, and subspace-sequence classification."""

from .bundles import KnnModel
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    NumericalError,
    UosError,
)
from .hierarchy import (
    HierarchyConfig,
    HierarchyTree,
    SubspaceNode,
    estimate_subspace,
    hcs_lrr,
    read_tree,
    tree_summary,
    try_split,
    write_tree,
)
from .linalg import (
    col_l21_prox,
    elementwise_shrink,
    svt,
    sym_eig_smallest,
)
from .metrics import clustering_accuracy
from .sequences import (
    LeafSet,
    SequenceSample,
    align_features_dtw,
    assign_to_leaves,
    dtw_grassmann,
    sequence_distance,
    subspace_distance,
)
from .solver import (
    FeatureMatrix,
    SolveResult,
    SolverConfig,
    SolverState,
    build_affinity,
    build_weight_matrix,
    cslrr_solve,
    threshold_coefficients,
)
from .spectral import kmeans, spectral_cluster
from .svm import (
    open_set_svm,
    svm_predict_multiclass,
    svm_train_binary,
    svm_train_multiclass,
)
from .synth import (
    SequenceSynthConfig,
    UosSynthConfig,
    generate_synthetic_sequences,
    generate_synthetic_uos,
)

__version__ = "0.1.0"
