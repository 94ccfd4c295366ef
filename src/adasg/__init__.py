"""Dynamically adaptive anisotropic sparse-grid interpolation on hypercubes."""

from .driver import (
    BudgetExhausted,
    Record,
    RunConfig,
    RunState,
    load_state,
    mc_linf_error,
    next_level,
    run,
    save_state,
    step,
)
from .fitting import (
    FitParams,
    UnfittableError,
    adhoc_correction,
    fit_curved,
    fit_surplus,
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
    read_index_set_csv,
    write_index_set_csv,
)
from .rules1d import (
    NodeSequence,
    RULE_KINDS,
    closed_form_node,
    greedy_sequence,
    growth,
    lambda_model,
    lebesgue_constant,
    node_sequence,
)
from .sparse_grid import (
    DomainError,
    GridNodes,
    Interpolant,
    TensorSet,
    build_interpolant,
    evaluate,
    evaluate_batch,
    grid_nodes,
    grid_size,
    load_interpolant,
    polynomial_range,
    save_interpolant,
    theta_curved,
    theta_opt,
)
from .spectral import LegendreExpansion, grid_coeffs, legendre_1d, legendre_coeffs
from .targets import (
    EvaluationError,
    TargetSpec,
    builtin_target,
    external_evaluate,
    external_target,
)

__version__ = "0.1.0"
