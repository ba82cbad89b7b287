"""Instrumented gradient descent on fixed-width smoothed-ReLU networks:
closed-form hyperparameters, logistic-loss training, and runtime monitors
for the step-by-step inequalities behind its convergence guarantees."""

from .activations import (
    Activation,
    ActivationKind,
    SmoothnessReport,
    certify_h_smooth,
    huberized,
    swish,
)
from .bounds import (
    PhaseTrace,
    RunContext,
    RunLog,
    Tolerances,
    Trajectory,
    compute_alpha_max,
    compute_h_max,
    compute_q_tilde,
    grad_lower_bound,
    grad_upper_bound,
    monitor_transition,
    resolve_context,
    smoothness_bound,
    summarize,
    weight_norm_floor,
    write_csv,
    write_summary_json,
)
from .linalg import (
    OperatorNormBracket,
    ShapeMismatchError,
    WeightStack,
    frobenius_norm,
    operator_norm,
    stack_axpy,
    stack_dot,
)
from .network import (
    Dataset,
    ForwardTrace,
    LossValue,
    forward,
    logistic,
    loss_and_gradient,
    output_gradient,
    total_loss,
)
from .ntk import (
    InitSpec,
    MarginWitness,
    NtBallConfig,
    NumericalDivergenceError,
    PhasePlan,
    RunAbortedError,
    approx_error_sample,
    gaussian_init,
    init_diagnostics,
    make_clustered_dataset,
    margin_estimate_subgradient,
    nt_class_minimize,
    ntk_features,
    two_phase_train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
