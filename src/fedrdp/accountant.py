"""Per-client Renyi-DP accounting over fixed-size subsampled Gaussian steps.

A participation ledger records, per client, the rounds in which the client
ran a noisy step and the exact (q, sigma, clip, batch size) used.  Privacy
composes per client: the client's RDP curve is the sum over its recorded
steps of the one-step divergence bound, evaluated on a grid of orders, and
converts to (epsilon, delta) by the standard minimisation over the grid.

The ledger serialises to line-delimited text
``client_id<TAB>t<TAB>q<TAB>sigma<TAB>clip<TAB>batch_size`` sorted by
(client_id, t); q and sigma are written with repr so they round-trip
exactly.  Parsing interns step parameters: lines with the same
``q<TAB>sigma<TAB>clip<TAB>batch_size`` text share one validated
``StepParams``.  Writing goes through a temporary file that replaces the
target only when complete: a ledger cut short would read back as a valid,
shorter history and understate epsilon.  Composition groups a client's
steps by identical (q, sigma), so its cost grows with the number of distinct
step parameters, not with the number of steps.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .divergence import MechanismParams, renyi_step_bound

__all__ = [
    "DEFAULT_ALPHAS",
    "DEFAULT_DELTA",
    "StepParams",
    "PrivacyBudget",
    "RdpCurve",
    "ParticipationLedger",
    "CalibrationError",
    "record_participation",
    "compose_client_rdp",
    "rdp_to_dp",
    "calibrate_sigma",
    "calibration_curve",
]

# Order grid: dense between 1 and 2 where small-epsilon optima live, then
# roughly geometric up to 1025 for very low noise / few steps.
DEFAULT_ALPHAS: tuple[float, ...] = (
    1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0, 16.0,
    24.0, 32.0, 48.0, 64.0, 128.0, 256.0, 512.0, 1025.0,
)

DEFAULT_DELTA = 1e-5

# Moment orders above this are treated as unavailable while calibrating;
# the resulting curve entries are +inf, which the epsilon minimisation
# skips.  Only targets below ~log(1/delta)/255 could ever notice.
CALIBRATION_MAX_MOMENT_ORDER = 300


def _debug(message: str, *args) -> None:
    """Log at DEBUG on ``logging.getLogger(__name__)``.

    The package does not import logging itself, which costs ~6 ms and
    ~0.5 MB per process: a program that configured logging has imported it,
    and until something has, no level or handler exists that a DEBUG record
    could reach.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(message, *args, stacklevel=2)


class CalibrationError(RuntimeError):
    """Noise calibration exhausted its bracket without meeting the target."""

    def __init__(self, message: str, epsilon_at_bracket: float):
        super().__init__(message)
        self.epsilon_at_bracket = epsilon_at_bracket


@dataclass(frozen=True)
class StepParams:
    """Parameters of one recorded noisy step.

    sigma = 0 and q = 1 are admitted so that non-private simulator runs can
    still be ledgered; composition rejects them (no finite bound exists).
    """

    q: float
    sigma: float
    clip: float
    batch_size: int

    def __post_init__(self):
        if not (isinstance(self.q, (int, float)) and 0 < self.q <= 1):
            raise ValueError(f"q must lie in (0, 1], got {self.q!r}")
        if not (isinstance(self.sigma, (int, float)) and self.sigma >= 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be a finite real >= 0, got {self.sigma!r}")
        if not (isinstance(self.clip, (int, float)) and self.clip > 0):
            raise ValueError(f"clip must be > 0, got {self.clip!r}")
        if not (isinstance(self.batch_size, int) and self.batch_size >= 1):
            raise ValueError(f"batch_size must be an integer >= 1, got {self.batch_size!r}")


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float
    delta: float

    def __post_init__(self):
        if not (isinstance(self.epsilon, (int, float)) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if not (isinstance(self.delta, (int, float)) and 0 < self.delta < 1):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")


@dataclass(frozen=True)
class RdpCurve:
    """RDP values on a strictly increasing grid of orders > 1.

    Values are nonnegative; +inf marks orders at which no finite bound was
    computable.
    """

    alphas: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.alphas) != len(self.values):
            raise ValueError("alphas and values must have equal length")
        if not self.alphas:
            raise ValueError("curve must have at least one order")
        prev = 1.0
        for a in self.alphas:
            if not a > prev:
                raise ValueError(f"orders must be strictly increasing and > 1, got {self.alphas}")
            prev = a
        for v in self.values:
            if math.isnan(v) or v < 0:
                raise ValueError(f"curve values must be >= 0, got {v!r}")

    @classmethod
    def zero(cls, alphas: Iterable[float] = DEFAULT_ALPHAS) -> "RdpCurve":
        alphas = tuple(float(a) for a in alphas)
        return cls(alphas, (0.0,) * len(alphas))

    def items(self) -> Iterator[tuple[float, float]]:
        return zip(self.alphas, self.values)

    def value_at(self, alpha: float) -> float:
        for a, v in self.items():
            if a == alpha:
                return v
        raise KeyError(f"order {alpha} not on the curve grid")

    def __add__(self, other: "RdpCurve") -> "RdpCurve":
        if self.alphas != other.alphas:
            raise ValueError("cannot add curves on different order grids")
        return RdpCurve(self.alphas, tuple(x + y for x, y in zip(self.values, other.values)))


class ParticipationLedger:
    """Append-only record of which client stepped when, with what parameters.

    Timesteps must arrive strictly increasing within each client (real
    training emits them in order); violations are rejected naming the client
    and the offending pair.
    """

    def __init__(self):
        self._records: dict[int, list[tuple[int, StepParams]]] = {}

    def record(self, client_id: int, t: int, params: StepParams) -> "ParticipationLedger":
        if not isinstance(client_id, int):
            raise ValueError(f"client_id must be an integer, got {client_id!r}")
        if not isinstance(t, int):
            raise ValueError(f"t must be an integer, got {t!r}")
        if not isinstance(params, StepParams):
            raise TypeError("params must be a StepParams")
        _append_step(self._records.setdefault(client_id, []), client_id, t, params)
        return self

    def clients(self) -> tuple[int, ...]:
        return tuple(sorted(self._records))

    def steps(self, client_id: int) -> tuple[tuple[int, StepParams], ...]:
        return tuple(self._records.get(client_id, ()))

    def participation_count(self, client_id: int, t: int | None = None) -> int:
        """Number of participations of the client up to and including round t."""
        steps = self._records.get(client_id, ())
        if t is None:
            return len(steps)
        return sum(1 for tt, _ in steps if tt <= t)

    def participation_round(self, client_id: int, n: int) -> int:
        """Round of the client's n-th participation (1-based)."""
        steps = self._records.get(client_id, ())
        if not (1 <= n <= len(steps)):
            raise ValueError(
                f"client {client_id} has {len(steps)} participations, asked for #{n}"
            )
        return steps[n - 1][0]

    # --- serialisation -------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for client_id in self.clients():
            for t, p in self._records[client_id]:
                lines.append(
                    f"{client_id}\t{t}\t{p.q!r}\t{p.sigma!r}\t{p.clip!r}\t{p.batch_size}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "ParticipationLedger":
        """Parse the text written by `to_text`.

        Blank (whitespace-only) lines are skipped.  Each distinct parameter
        text ``q<TAB>sigma<TAB>clip<TAB>batch_size`` is parsed and validated
        once; later lines with the same text share that `StepParams`.
        Timesteps must increase within each client, as for `record`.
        """
        ledger = cls()
        interned: dict[str, StepParams] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                client_id, t, rest = line.split("\t", 2)
            except ValueError:
                raise ValueError(f"ledger line {lineno}: expected 6 tab-separated fields") from None
            params = interned.get(rest)
            if params is None:
                fields = rest.split("\t")
                if len(fields) != 4:
                    raise ValueError(f"ledger line {lineno}: expected 6 tab-separated fields")
                params = interned[rest] = StepParams(
                    q=float(fields[0]),
                    sigma=float(fields[1]),
                    clip=float(fields[2]),
                    batch_size=int(fields[3]),
                )
            client_id = int(client_id)
            _append_step(ledger._records.setdefault(client_id, []), client_id, int(t), params)
        return ledger

    def write(self, path) -> None:
        """Write `to_text` to path atomically.

        The text goes to a temporary file in path's directory, which then
        replaces path; if writing fails, path is left as it was and the
        temporary file is removed.
        """
        data = self.to_text().encode("ascii")
        path = os.fspath(path)
        directory, name = os.path.split(path)
        tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
        try:
            with open(tmp, "xb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def read(cls, path) -> "ParticipationLedger":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())


def _append_step(
    steps: list[tuple[int, StepParams]], client_id: int, t: int, params: StepParams
) -> None:
    """Append (t, params) to a client's steps, rejecting t not after the last."""
    if steps and t <= steps[-1][0]:
        raise ValueError(
            f"out-of-order participation for client {client_id}: "
            f"t={t} after t={steps[-1][0]}"
        )
    steps.append((t, params))


def record_participation(
    ledger: ParticipationLedger, client_id: int, t: int, params: StepParams
) -> ParticipationLedger:
    """Record one participation; returns the ledger for chaining."""
    return ledger.record(client_id, t, params)


@lru_cache(maxsize=None)
def _cached_step_bound(alpha: float, q: float, sigma: float, max_moment_order: int | None) -> float:
    try:
        return renyi_step_bound(
            alpha, MechanismParams(q=q, sigma=sigma), max_moment_order=max_moment_order
        ).bound
    except OverflowError:
        # No admissible truncation at this order; +inf is still a valid
        # upper bound and the conversion step skips it.
        return math.inf


def compose_client_rdp(
    ledger: ParticipationLedger,
    client_id: int,
    alphas: Iterable[float] = DEFAULT_ALPHAS,
    *,
    max_moment_order: int | None = None,
) -> RdpCurve:
    """Sum the one-step bounds over the client's recorded steps.

    Independent composition: value(alpha) = sum over steps of the one-step
    bound at (q, sigma) of that step.  Steps are grouped by identical
    (q, sigma), so each order's value is fsum over groups of count x the
    group's one-step bound, at a cost of O(distinct (q, sigma) x orders).
    A client absent from the ledger has the zero curve.  Steps with
    sigma = 0 or q = 1 admit no finite bound and raise, annotated with the
    index of the first such step.
    """
    alphas = tuple(float(a) for a in alphas)
    counts: dict[tuple[float, float], int] = {}
    for idx, (t, p) in enumerate(ledger.steps(client_id)):
        key = (p.q, p.sigma)
        if key not in counts:
            if p.sigma == 0 or p.q == 1:
                raise ValueError(
                    f"step {idx} (t={t}) of client {client_id} has q={p.q}, "
                    f"sigma={p.sigma}: no finite divergence bound exists"
                )
            counts[key] = 0
        counts[key] += 1
    totals = tuple(
        math.fsum(
            n * _cached_step_bound(alpha, q, sigma, max_moment_order)
            for (q, sigma), n in counts.items()
        )
        for alpha in alphas
    )
    return RdpCurve(alphas, totals)


def rdp_to_dp(curve: RdpCurve, delta: float = DEFAULT_DELTA) -> tuple[PrivacyBudget, float]:
    """Convert an RDP curve to (epsilon, delta) DP.

    epsilon = min over grid orders of value(alpha) + log(1/delta)/(alpha-1);
    ties break toward the smallest order.  Orders with +inf values are
    skipped; if every order is +inf the budget is +inf at the smallest order.
    """
    if not (isinstance(delta, (int, float)) and 0 < delta < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    log_term = math.log(1.0 / delta)
    best_eps = math.inf
    best_alpha = curve.alphas[0]
    for alpha, value in curve.items():
        if math.isinf(value):
            continue
        eps = value + log_term / (alpha - 1.0)
        if eps < best_eps:
            best_eps = eps
            best_alpha = alpha
    return PrivacyBudget(epsilon=best_eps, delta=delta), best_alpha


def calibration_curve(
    q: float,
    sigma: float,
    steps: int,
    alphas: Iterable[float] = DEFAULT_ALPHAS,
    *,
    max_moment_order: int | None = CALIBRATION_MAX_MOMENT_ORDER,
) -> RdpCurve:
    """The curve ``calibrate_sigma`` certifies: steps x the one-step bound.

    Each order's value is `steps` times the one-step bound at (q, sigma),
    with moment orders capped at max_moment_order as in calibration, so
    converting this curve at the calibrated sigma reproduces the epsilon the
    calibration accepted.
    """
    alphas = tuple(float(a) for a in alphas)
    return RdpCurve(
        alphas,
        tuple(steps * _cached_step_bound(a, q, sigma, max_moment_order) for a in alphas),
    )


def calibrate_sigma(
    target: PrivacyBudget,
    q: float,
    steps: int,
    alphas: Iterable[float] = DEFAULT_ALPHAS,
    *,
    sigma_low: float = 0.3,
    sigma_high: float = 64.0,
    rel_tol: float = 1e-4,
    sigma_max: float = 1e6,
    max_moment_order: int | None = CALIBRATION_MAX_MOMENT_ORDER,
) -> float:
    """Smallest noise multiplier meeting the target budget over `steps` steps.

    epsilon(sigma) is the epsilon of ``calibration_curve``, nonincreasing in
    sigma.  sigma_low is returned if it already meets the target.  Otherwise
    the bracket [lo, hi] starts at [sigma_low, sigma_high], with hi doubled
    until it meets the target (up to sigma_max), and is narrowed by the
    Illinois method (modified regula falsi) in x = log sigma on
    g(x) = log epsilon(e^x) - log target.epsilon, which is close to linear.
    Each probe is the secant root of the two ends, moved 0.4 of the stopping
    width toward the end the last probe did not replace and kept 1/4 of it
    inside the bracket; where an end's epsilon is +inf (no order available
    yet) the probe bisects in x.  Throughout, both ends have been evaluated
    and epsilon(lo) > target.epsilon >= epsilon(hi).  The solve stops once
    hi - lo <= rel_tol * hi and returns hi.

    Each epsilon evaluation (sigma, epsilon, alpha*) and the result (sigma,
    number of sigmas evaluated) are logged at DEBUG level.

    Raises CalibrationError if sigma_max is reached without meeting the
    target (e.g. a target below the conversion floor of the order grid);
    the epsilon achieved at the bracket edge is attached.
    """
    if not isinstance(target, PrivacyBudget):
        raise TypeError("target must be a PrivacyBudget")
    if not (0 < q < 1):
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    if not (isinstance(steps, int) and steps >= 1):
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    alphas = tuple(float(a) for a in alphas)
    evaluated = []

    def eps(sigma: float) -> float:
        curve = calibration_curve(q, sigma, steps, alphas, max_moment_order=max_moment_order)
        budget, alpha_star = rdp_to_dp(curve, target.delta)
        evaluated.append(sigma)
        _debug("calibrate: sigma=%r epsilon=%r alpha*=%r", sigma, budget.epsilon, alpha_star)
        return budget.epsilon

    def result(sigma: float) -> float:
        _debug("calibrate: returning sigma=%r after %d sigmas", sigma, len(evaluated))
        return sigma

    lo = sigma_low
    eps_lo = eps(lo)
    if eps_lo <= target.epsilon:
        return result(lo)  # pinned at the smallest admissible noise
    hi = sigma_high
    eps_hi = eps(hi)
    while eps_hi > target.epsilon:
        lo, eps_lo = hi, eps_hi
        hi *= 2.0
        if hi > sigma_max:
            raise CalibrationError(
                f"target epsilon={target.epsilon} unreachable: at sigma={lo} "
                f"the composed epsilon is still {eps_lo:.6g}",
                epsilon_at_bracket=eps_lo,
            )
        eps_hi = eps(hi)
    # invariant: eps(lo) > target >= eps(hi).  (xb, gb) is the end the last
    # probe set, (xa, ga) the other one; b_meets says which side b is on.
    width = -math.log1p(-rel_tol)  # hi - lo <= rel_tol * hi, in x
    log_target = math.log(target.epsilon)
    xa, ga = math.log(lo), math.log(eps_lo) - log_target
    xb, gb, b_meets = math.log(hi), math.log(eps_hi) - log_target, True
    while hi - lo > rel_tol * hi:
        x = math.nan
        if math.isfinite(ga) and math.isfinite(gb) and ga != gb:
            x = xb - gb * (xb - xa) / (gb - ga) + math.copysign(0.4 * width, xa - xb)
        if not math.isfinite(x):
            x = 0.5 * (xa + xb)
        x = min(max(x, min(xa, xb) + 0.25 * width), max(xa, xb) - 0.25 * width)
        sigma = math.exp(x)
        e = eps(sigma)
        meets = e <= target.epsilon
        if meets:
            hi = sigma
        else:
            lo = sigma
        if meets == b_meets:
            ga /= 2.0  # Illinois: the stale end's weight halves
        else:
            xa, ga = xb, gb
        xb, gb, b_meets = x, math.log(e) - log_target, meets
    return result(hi)
