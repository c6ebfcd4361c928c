"""Gradient-subspace concordance toolkit for adjacent computer models.

Fit hinge-spline surrogates to simulator samples, form expected
gradient outer-product matrices in closed form or by Monte Carlo, and
derive concordance, co-active directions, activity scores, projection
bounds, and ensemble-level discordance embeddings.
"""

__version__ = "0.1.0"

from .analysis import (
    CoActiveDecomposition,
    ConstantFunctionError,
    DimSelection,
    activity_scores,
    concordance,
    decompose,
    discordance,
    poincare_bound,
    select_dim,
    shared_matrix,
    symmetrize,
)
from .closedform import (
    CoActiveMatrix,
    InputPrior,
    NormalDim,
    UniformDim,
    cmat,
    cmat_modified,
    cmat_trace,
    expected_gradient,
    load_matrix,
    load_prior,
    save_matrix,
    save_prior,
    write_matrix_csv,
)
from .cluster import (
    ConcordanceSummary,
    Embedding,
    PairwiseGrid,
    discordance_matrix,
    mds_embed,
    model_centers,
    pairwise_concordance,
)
from .model import (
    BasisTerm,
    Ensemble,
    FitConfig,
    FitReport,
    HingeFactor,
    MarsSurrogate,
    cross_validated_rmspe,
    fit,
    fit_ensemble,
    fit_ensemble_with_report,
    fit_with_report,
    load_ensemble,
    load_model,
    load_training_csv,
    save_ensemble,
    save_model,
)
from .montecarlo import (
    MCResult,
    SampledFunction,
    builtin_functions,
    fd_gradient,
    lhs_design,
    mc_cmat,
    piston,
    poly_pair,
)

__all__ = [
    "__version__",
    # model
    "HingeFactor", "BasisTerm", "MarsSurrogate", "Ensemble",
    "FitConfig", "FitReport",
    "fit", "fit_with_report", "fit_ensemble", "fit_ensemble_with_report",
    "cross_validated_rmspe",
    "save_model", "load_model", "save_ensemble", "load_ensemble",
    "load_training_csv",
    # closedform
    "UniformDim", "NormalDim", "InputPrior", "CoActiveMatrix",
    "cmat", "cmat_trace", "cmat_modified", "expected_gradient",
    "save_prior", "load_prior",
    "save_matrix", "load_matrix", "write_matrix_csv",
    # montecarlo
    "SampledFunction", "MCResult", "lhs_design", "fd_gradient", "mc_cmat",
    "poly_pair", "piston", "builtin_functions",
    # analysis
    "CoActiveDecomposition", "DimSelection", "ConstantFunctionError",
    "symmetrize", "decompose", "concordance", "discordance",
    "activity_scores", "shared_matrix", "poincare_bound", "select_dim",
    # cluster
    "ConcordanceSummary", "PairwiseGrid", "Embedding",
    "pairwise_concordance", "discordance_matrix", "mds_embed", "model_centers",
]
