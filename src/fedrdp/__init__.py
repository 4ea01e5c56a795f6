"""Renyi-DP accounting for fixed-size subsampled Gaussian mechanisms.

Three layers: `divergence` evaluates the one-step divergence bound and an
independent quadrature oracle; `accountant` composes bounds per client over
a participation ledger and converts to (epsilon, delta); `simulate` runs a
seedable federated-learning loop that feeds the ledger.  `cli` exposes all
of it as the `fedrdp` command.
"""

from .accountant import (
    DEFAULT_ALPHAS,
    DEFAULT_DELTA,
    CalibrationError,
    ParticipationLedger,
    PrivacyBudget,
    RdpCurve,
    StepParams,
    calibrate_sigma,
    compose_client_rdp,
    rdp_to_dp,
)
from .divergence import (
    BoundBreakdownError,
    BoundResult,
    MechanismParams,
    QuadratureError,
    renyi_divergence_quadrature,
    renyi_step_bound,
)
from .simulate import (
    ClientState,
    ModelVector,
    RoundRecord,
    SimConfig,
    batch_size_trace,
    client_epsilon_report,
    evaluate_accuracy,
    generate_client_data,
    run_training,
    sample_fixed_batch,
    sample_poisson_batch,
    select_clients,
    server_update,
    write_artifacts,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ALPHAS",
    "DEFAULT_DELTA",
    "BoundBreakdownError",
    "BoundResult",
    "CalibrationError",
    "ClientState",
    "MechanismParams",
    "ModelVector",
    "ParticipationLedger",
    "PrivacyBudget",
    "QuadratureError",
    "RdpCurve",
    "RoundRecord",
    "SimConfig",
    "StepParams",
    "batch_size_trace",
    "calibrate_sigma",
    "client_epsilon_report",
    "compose_client_rdp",
    "evaluate_accuracy",
    "generate_client_data",
    "rdp_to_dp",
    "renyi_divergence_quadrature",
    "renyi_step_bound",
    "run_training",
    "sample_fixed_batch",
    "sample_poisson_batch",
    "select_clients",
    "server_update",
    "write_artifacts",
    "__version__",
]
