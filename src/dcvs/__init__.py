"""Variable smoothing for difference-of-convex composite minimization,
specialized to robust phase retrieval with nonconvex loss functions."""

from .losses import DcLoss, make_loss, surrogate_at_residual
from .maps import SmoothMap, rpr_map
from .retrieval import (
    Instance,
    generate_instance,
    kappa_fn_for_loss,
    kappa_mu,
    spectral_init,
    success,
)
from .solver import (
    RunRecord,
    SolverConfig,
    SolverError,
    backtrack,
    mu_schedule,
    solve,
    surrogate_oracle,
    write_trace,
)

__version__ = "0.1.0"

__all__ = (
    "DcLoss",
    "Instance",
    "RunRecord",
    "SmoothMap",
    "SolverConfig",
    "SolverError",
    "backtrack",
    "generate_instance",
    "kappa_fn_for_loss",
    "kappa_mu",
    "make_loss",
    "mu_schedule",
    "rpr_map",
    "solve",
    "spectral_init",
    "success",
    "surrogate_at_residual",
    "surrogate_oracle",
    "write_trace",
)
