"""Hyperbolic structured regularization toolkit.

Embeds weighted label hierarchies into learned feature spaces via CPCC-style
losses on the Poincare ball, with diagnostics (delta-hyperbolicity, test
CPCC, kNN accuracy, Mahalanobis OOD scoring) and a block-correlation
eigenspectrum toolkit whose closed forms the tests check against LAPACK and an
independent Jacobi solver.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    KleinPoint,
    PoincarePoint,
    clip_to_ball,
    einstein_midpoint,
    exp_map_origin,
    hyp_ave_poincare,
    klein_to_poincare,
    log_map_origin,
    poincare_distance,
    poincare_to_klein,
)
from .hierarchy import (  # noqa: F401
    LabelTree,
    TreeMetric,
    balanced_tree,
    builtin_cifar10_tree,
    lca_height,
    normalize_depths,
    parse_tree,
    tree_metric,
)
from .objective import (  # noqa: F401
    Batch,
    FlatInputs,
    ObjectiveConfig,
    Prototypes,
    centering_loss,
    composite_objective,
    cpcc,
    cross_entropy,
    gradient,
    hyp_prototypes,
    hypcpcc_loss,
    l2_cpcc_loss,
    l2_dataset_distance,
    supcon_loss,
)
from .training import (  # noqa: F401
    EmbedBudget,
    EncoderSpec,
    LabeledDataset,
    SyntheticSpec,
    TrainConfig,
    embed_tree_direct,
    generate_hierarchical_gaussians,
    train,
)
from .spectral import (  # noqa: F401
    BlockCorrelationSpec,
    EigenSpectrum,
    balanced_eigenvalues_closed_form,
    build_block_matrix,
    generic_gap_condition,
    gram_matrix,
    numerical_eigenvalues,
    phase_transition_detect,
    star_matrix_eigenvalues,
    two_level_block_reduction,
)
from .diagnostics import (  # noqa: F401
    DistanceMatrix,
    GaussianFit,
    auroc,
    borda_count,
    delta_hyperbolicity,
    fit_gaussian,
    gromov_product,
    knn_classify,
    mahalanobis_score,
    test_cpcc,
)
