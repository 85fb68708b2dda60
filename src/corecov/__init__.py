"""Geometry of Kronecker-core covariance manifolds and the partial-isotropy
core shrinkage estimator for matrix-variate data."""

from .errors import (CapacityError, ConfigError, DefinitenessError, NoKroneckerMle,
                     StructureError)
from .matops import Dims
from .kcd import KcdResult, SeparableCovariance, SquareRootKind, kronecker_mle
from .picse import (
    FitConfig,
    FitTrace,
    PicseParams,
    SampleCov,
    base_estimator,
    fit,
    init,
    kmle_estimator,
    nll,
    sigma_from_params,
)
from .simulate import (
    ExperimentConfig,
    ResultRecord,
    gen_data,
    gen_truth,
    rel_spec_norm,
    run_experiment,
)

__all__ = [
    "CapacityError",
    "ConfigError",
    "DefinitenessError",
    "Dims",
    "ExperimentConfig",
    "FitConfig",
    "FitTrace",
    "KcdResult",
    "NoKroneckerMle",
    "PicseParams",
    "ResultRecord",
    "SampleCov",
    "SeparableCovariance",
    "SquareRootKind",
    "StructureError",
    "base_estimator",
    "fit",
    "gen_data",
    "gen_truth",
    "init",
    "kmle_estimator",
    "kronecker_mle",
    "nll",
    "rel_spec_norm",
    "run_experiment",
    "sigma_from_params",
]
