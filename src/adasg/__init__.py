"""Dynamically adaptive anisotropic sparse-grid interpolation on hypercubes."""

from .driver import (
    BudgetExhausted,
    Record,
    RunConfig,
    RunState,
    load_state,
    run,
    save_state,
)
from .fitting import (
    FitParams,
    UnfittableError,
    adhoc_correction,
    fit_curved,
    isotropic_params,
)
from .multiindex import (
    CurvedWeights,
    IndexSet,
    MultiIndex,
    is_lower,
    lambda_classic,
    lambda_curved,
    lower_completion,
    margin,
)
from .rules1d import (
    RULE_KINDS,
    greedy_sequence,
    growth,
    lambda_model,
    lebesgue_constant,
)
from .sparse_grid import (
    DomainError,
    GridNodes,
    Interpolant,
    TensorSet,
    build_interpolant,
    evaluate_batch,
    grid_nodes,
    grid_size,
    load_interpolant,
    save_interpolant,
    theta_opt,
)
from .spectral import grid_coeffs, legendre_1d
from .targets import (
    EvaluationError,
    TargetSpec,
    builtin_target,
    external_evaluate,
    external_target,
)

__version__ = "0.1.0"
