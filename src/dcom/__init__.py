"""Dynamic coverage-and-margin active learning over embedding spaces."""

from .baselines import (
    select_by_uncertainty,
    select_coreset,
    select_probcover,
    select_random,
)
from .data import (
    EmbeddingSet,
    MixtureSpec,
    gen_gaussian_mixture,
    l2_normalize,
    read_embedding_file,
    read_label_file,
    write_embedding_file,
    write_label_file,
)
from .engine import (
    DComConfig,
    PoolState,
    QueryResult,
    competence_score,
    compute_tau,
    dcom_select,
    delta_grid,
    expand_delta,
    run_iteration,
)
from .graph import (
    RadiusGraph,
    build_radius_graph,
    covered_set,
)
from .harness import (
    ExperimentRecord,
    evaluate_accuracy,
    run_al_loop,
    summarize,
    write_report,
)
from .learners import (
    Learner,
    LearnerSpec,
    normalize_unit_interval,
    predict_softmax,
    train_learner,
    train_learners,
    uncertainty_scores,
)
from .purity import (
    PurityCurve,
    estimate_purity_curve,
    kmeans_cluster,
    select_initial_delta,
)

__version__ = "0.1.0"
