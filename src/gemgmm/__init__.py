"""Gaussian mixture estimation via preconditioned generalized EM updates.

The package implements a family of update maps for maximum-likelihood
GMM fitting -- classic EM, shifted-covariance EM, and projected
preconditioned gradient steps (plain and weighted) that reproduce the
shifted EM step exactly -- plus a convergence-analysis toolkit (LMI rate
certificates, update-map Jacobian spectra) and an experiment harness
with a CLI.
"""

from .analysis import (
    JacobianReport,
    RateCertificate,
    SectorBounds,
    empirical_rate,
    lmi_matrix,
    rate_bound,
    rate_certificate,
    update_map_jacobian,
)
from .core import (
    Dataset,
    GmmParams,
    VectorLayout,
    as_dataset,
    log_likelihood,
    responsibilities,
    sample,
)
from .dynamics import (
    ALGORITHMS,
    MeanStepWeights,
    Preconditioner,
    RunTrace,
    TraceRecord,
    apply_projection,
    build_preconditioner,
    pb_gem_step,
    run,
    w_pb_gem_step,
)
from .engine import (
    em_step,
    grad_log_likelihood,
    shifted_em_step,
    soft_counts,
)
from .errors import (
    DegenerateComponentError,
    GemGmmError,
    InvalidCovarianceError,
    NumericalError,
    NumericUnderflowError,
    SimplexViolationError,
    StepFailure,
    ValidationError,
)
from .experiments import (
    ExperimentConfig,
    cmd_analyze,
    cmd_fit,
    cmd_generate,
    cmd_replicate,
    orthogonal_line_init,
)

__version__ = "0.1.0"
