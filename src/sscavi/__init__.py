"""Spike-and-slab CAVI for linear regression with a local stability toolkit.

Sequential (Gauss-Seidel ordered) and parallel (Jacobi ordered) coordinate
ascent for the mean-field spike-and-slab posterior, plus analytic Jacobians,
spectral radii, and contraction diagnostics at their shared fixed points.
"""

from .engines import (
    FixedPointError,
    RunConfig,
    RunTrace,
    Scheme,
    fixed_point,
    par_sweep,
    run,
    seq_sweep,
)
from .model import (
    Dataset,
    Hyperparams,
    Precomputed,
    VariationalState,
    elbo,
    expected_loglik,
    inclusion_prob,
    inclusion_prob_grad,
    kl_to_prior,
    precompute,
)
from .stability import (
    Assumption1Result,
    StabilityReport,
    WignerStat,
    analyze_stability,
    check_assumption1,
    jacobian_par,
    jacobian_seq,
    spectral_radius,
    wigner_stat,
)
from .synth import GenSpec, gen_design, gen_response, make_beta, make_dataset

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Hyperparams",
    "Precomputed",
    "VariationalState",
    "precompute",
    "inclusion_prob",
    "inclusion_prob_grad",
    "elbo",
    "expected_loglik",
    "kl_to_prior",
    "Scheme",
    "RunConfig",
    "RunTrace",
    "FixedPointError",
    "seq_sweep",
    "par_sweep",
    "run",
    "fixed_point",
    "Assumption1Result",
    "StabilityReport",
    "WignerStat",
    "jacobian_seq",
    "jacobian_par",
    "spectral_radius",
    "check_assumption1",
    "analyze_stability",
    "wigner_stat",
    "GenSpec",
    "gen_design",
    "gen_response",
    "make_beta",
    "make_dataset",
    "__version__",
]
