"""Renyi-DP accounting for fixed-size subsampled Gaussian mechanisms.

The package root is the accountant.  `divergence` evaluates the one-step
divergence bound and an independent quadrature oracle; `accountant`
composes bounds per client over a participation ledger and converts to
(epsilon, delta).  Neither imports numpy, and mpmath is imported only when
the quadrature oracle or `divergence.likelihood_ratio_moment` first runs.
The seedable federated-learning simulator that feeds the ledger is
`fedrdp.simulate`, imported with numpy on first access.  `fedrdp.cli` is the
`fedrdp` command; its accountant commands load neither the simulator nor
numpy, and compose, convert and calibrate do not load mpmath.  Nor does
`import fedrdp` load dataclasses, typing, json or re: a ledger read imports
re, and json is imported for a jsonl curve or a simulator config.
"""

import importlib

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
    BoundResult,
    MechanismParams,
    QuadratureError,
    renyi_divergence_quadrature,
    renyi_step_bound,
)

__version__ = "0.1.0"


def __getattr__(name):
    # not `from . import simulate`: its hasattr(fedrdp, "simulate") lands here
    if name == "simulate":
        return importlib.import_module(f"{__name__}.simulate")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_ALPHAS",
    "DEFAULT_DELTA",
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
