"""Renyi-DP accounting for fixed-size subsampled Gaussian mechanisms.

The package root is the accountant.  `divergence` evaluates the one-step
divergence bound and an independent quadrature oracle; `accountant`
composes bounds per client over a participation ledger and converts to
(epsilon, delta).  Neither imports numpy.  The seedable federated-learning
simulator that feeds the ledger is imported from `fedrdp.simulate`, and
`fedrdp.cli` exposes all of it as the `fedrdp` command.
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

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ALPHAS",
    "DEFAULT_DELTA",
    "BoundBreakdownError",
    "BoundResult",
    "CalibrationError",
    "MechanismParams",
    "ParticipationLedger",
    "PrivacyBudget",
    "QuadratureError",
    "RdpCurve",
    "StepParams",
    "calibrate_sigma",
    "compose_client_rdp",
    "rdp_to_dp",
    "renyi_divergence_quadrature",
    "renyi_step_bound",
    "__version__",
]
