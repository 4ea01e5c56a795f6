"""Per-client Renyi-DP accounting over fixed-size subsampled Gaussian steps.

A participation ledger records, per client, the rounds in which the client
ran a noisy step and the exact (q, sigma, clip, batch size) used.  Privacy
composes per client: the client's RDP curve is the sum over its recorded
steps of the one-step divergence bound, evaluated on a grid of orders, and
converts to (epsilon, delta) by the standard minimisation over the grid.

The ledger serialises to line-delimited text
``client_id<TAB>t<TAB>q<TAB>sigma<TAB>clip<TAB>batch_size`` sorted by
(client_id, t); q and sigma are written with repr so they round-trip
exactly.  The text is ASCII.  Lines end in "\n" (a "\r" before it is
dropped), blank lines hold only spaces and tabs, and a client id is
canonical decimal (no sign but a leading "-", no leading zero, no space), so
every line of client c starts with exactly ``c<TAB>``.
``ParticipationLedger.from_text`` describes how a read checks and parses
it.  Writing goes through a temporary file that replaces the target only
when complete: a ledger cut short would read back as a valid, shorter
history and understate epsilon.  Composition groups a client's steps by
identical (q, sigma), so its cost grows with the number of distinct step
parameters, not with the number of steps.  `client_epsilon_report` gives
every client's epsilon, the rows of clients.csv, from the same grouping.

A client's epsilon composes its recorded steps as if their number had been
fixed in advance.  That is valid when participation and each step's
(q, sigma) do not depend on the private data; the simulator draws
availability and selection from streams keyed only by (seed, tag, t).
Otherwise the step count is a stopping time, and the epsilon needs a privacy
filter or odometer (Rogers, Roth, Ullman & Vadhan, arXiv:1605.08294;
Feldman & Zrnic, arXiv:2008.11193).
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import lru_cache

from ._float64 import _binned_lower_bound
# renyi_step_bound is unused, but perfbench's tracer wraps it here
from .divergence import _Frozen, _number, _step_bound, renyi_step_bound

__all__ = [
    "DEFAULT_ALPHAS",
    "DEFAULT_DELTA",
    "StepParams",
    "PrivacyBudget",
    "RdpCurve",
    "ParticipationLedger",
    "CalibrationError",
    "compose_client_rdp",
    "client_epsilon_report",
    "rdp_to_dp",
    "calibrate_sigma",
]

# Order grid: fractional below 3, then roughly geometric up to 1025.  Small
# epsilon has large optimal orders: epsilon(alpha) >= log(1/delta)/(alpha-1),
# so at delta = 1e-5 alpha = 2.5 can win only where epsilon >= 7.7.
DEFAULT_ALPHAS: tuple[float, ...] = (
    1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0, 16.0,
    24.0, 32.0, 48.0, 64.0, 128.0, 256.0, 512.0, 1025.0,
)

DEFAULT_DELTA = 1e-5

# calibrate_sigma's search: the smallest noise it returns, the largest noise
# it tries, and its relative tolerance.
CALIBRATION_SIGMA_LOW = 0.3
CALIBRATION_SIGMA_MAX = 1e6
CALIBRATION_REL_TOL = 1e-4

# Most one-step bounds (alpha, q, sigma) kept for reuse; least recently used
# ones are dropped past it.
STEP_BOUND_CACHE_SIZE = 4096

# The "\n" before a line that neither starts with a canonical client id (0 or
# -?[1-9][0-9]*, the only spelling of an id) and a tab nor is blank.  The
# common case, a positive id, has a lookahead of its own, tried first.  A
# ledger read compiles it, through re's cache: no other command loads re.
_BAD_LINE = rb"\n(?![1-9][0-9]*\t)(?!0\t|-[1-9][0-9]*\t|[ \t]*(?:\n|\Z))"
# The ASCII line boundaries of str.splitlines other than "\n" and "\r\n".  The
# format has none of them, so a text holding one is rejected, never read two
# ways.
_FOREIGN_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"


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
    """Noise calibration cannot meet the target.

    epsilon_at_bracket is the epsilon at the largest sigma tried, or the
    order grid's conversion floor when the target is below it.
    """

    def __init__(self, message: str, epsilon_at_bracket: float):
        super().__init__(message)
        self.epsilon_at_bracket = epsilon_at_bracket


# (message, range) of a number for `_number`, and StepParams' fields with theirs
_DELTA = ("delta must lie in (0, 1)", lambda delta: 0 < delta < 1)
_CLIP = ("clip must be a finite real > 0", lambda clip: 0 < clip < math.inf)
_CURVE_VALUE = ("curve values must be >= 0", lambda value: value >= 0)
_STEP_FIELDS = (
    ("q", float, "q must lie in (0, 1]", lambda q: 0 < q <= 1),
    ("sigma", float, "sigma must be a finite real >= 0", lambda sigma: 0 <= sigma < math.inf),
    ("clip", float, *_CLIP),
    ("batch_size", int, "batch_size must be an integer >= 1", lambda size: size >= 1),
)


class StepParams(_Frozen):
    """Parameters of one recorded noisy step.

    sigma = 0 and q = 1 are admitted so that non-private simulator runs can
    still be ledgered; composition rejects them (no finite bound exists).
    """

    __match_args__ = ("q", "sigma", "clip", "batch_size")

    def __init__(self, q: float, sigma: float, clip: float, batch_size: int) -> None:
        # to_text writes these with repr, which reads back only for built-in
        # numbers (numpy's is "np.float64(1.5)")
        vars(self).update((name, _number(value, kind, message, ok)) for (name, kind, message, ok),
                          value in zip(_STEP_FIELDS, (q, sigma, clip, batch_size)))


class PrivacyBudget(_Frozen):
    """An (epsilon, delta) differential-privacy guarantee."""

    __match_args__ = ("epsilon", "delta")

    def __init__(self, epsilon: float, delta: float) -> None:
        epsilon = _number(epsilon, float, "epsilon must be >= 0", lambda eps: eps >= 0)
        vars(self).update(epsilon=epsilon, delta=_number(delta, float, *_DELTA))


class RdpCurve(_Frozen):
    """RDP values on a strictly increasing grid of finite orders > 1.

    Values are nonnegative; +inf (a valid bound that never wins) comes from
    a curve file, or from 2 alpha / sigma^2 or count x bound overflowing.
    """

    __match_args__ = ("alphas", "values")

    def __init__(self, alphas: tuple[float, ...], values: tuple[float, ...]) -> None:
        if len(alphas) != len(values):
            raise ValueError("alphas and values must have equal length")
        vars(self).update(alphas=_orders(alphas),
                          values=tuple(_number(v, float, *_CURVE_VALUE) for v in values))

    def items(self) -> Iterator[tuple[float, float]]:
        return zip(self.alphas, self.values)


def _orders(alphas: Iterable[float]) -> tuple[float, ...]:
    """The order grid alphas as floats, rejected if empty or not strictly
    increasing, > 1 and finite."""
    message = "orders must be strictly increasing and > 1 and finite"
    orders = tuple(float(_number(a, float, message)) for a in alphas)
    if not orders:
        raise ValueError("the order grid must not be empty")
    if not all(a < b for a, b in zip((1.0, *orders), (*orders, math.inf))):
        raise ValueError(f"{message}, got {orders}")
    return orders


class ParticipationLedger:
    """Append-only record of which client stepped when, with what parameters.

    Timesteps must arrive strictly increasing within each client (real
    training emits them in order); violations are rejected naming the client
    and the offending pair.  Every append goes through `_append`, and the
    simulator ledgers each round in one call.
    """

    def __init__(self):
        self._records: dict[int, list[tuple[int, StepParams]]] = {}

    def record(self, client_id: int, t: int, params: StepParams) -> "ParticipationLedger":
        client_id = _number(client_id, int, "client_id must be an integer")
        t = _number(t, int, "t must be an integer")
        if not isinstance(params, StepParams):
            raise TypeError("params must be a StepParams")
        self._append(t, (client_id,), params)
        return self

    def _append(self, t: int, client_ids: Iterable[int], params: StepParams) -> None:
        """Append one shared (t, params) to each client's steps, in order; the
        caller passes built-in ints and a StepParams.  A t not after a client's
        last step raises ValueError naming both, the clients before it appended."""
        records, step = self._records, (t, params)
        for client_id in client_ids:
            steps = records.get(client_id)
            if steps is None:
                records[client_id] = [step]
            elif steps[-1][0] < t:
                steps.append(step)
            else:
                raise ValueError(f"out-of-order participation for client {client_id}: "
                                 f"t={t} after t={steps[-1][0]}")

    def clients(self) -> tuple[int, ...]:
        return tuple(sorted(self._records))

    def steps(self, client_id: int) -> tuple[tuple[int, StepParams], ...]:
        client_id = _number(client_id, int, "client_id must be an integer")
        return tuple(self._records.get(client_id, ()))

    def participation_count(self, client_id: int, t: int | None = None) -> int:
        """Number of participations of the client up to and including round t."""
        steps = self.steps(client_id)
        if t is None:
            return len(steps)
        t = _number(t, int, "t must be an integer")
        return sum(1 for tt, _ in steps if tt <= t)

    # --- serialisation -------------------------------------------------

    def to_text(self) -> str:
        lines = []
        texts: dict[int, str] = {}  # by id: equal steps may differ in text (0.0, -0.0)
        for client_id in self.clients():
            prefix = f"{client_id}\t"
            for t, p in self._records[client_id]:
                text = texts.get(id(p))
                if text is None:
                    text = texts[id(p)] = f"{p.q!r}\t{p.sigma!r}\t{p.clip!r}\t{p.batch_size}"
                lines.append(f"{prefix}{t}\t{text}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str, client_id: int | None = None) -> "ParticipationLedger":
        """Parse the text written by `to_text`.

        The text must be ASCII (a non-ASCII character raises
        UnicodeEncodeError).  Lines end in "\n" or "\r\n"; any other line
        boundary of `str.splitlines` is rejected.  Every line must start with
        a canonical client id and a tab, or be blank (spaces and tabs only).
        The text sits between two "\n" in one buffer, so one scan for a "\n"
        not followed by such a start checks every line, the first and the
        last alike, before any line is parsed.  Blank lines are skipped.
        Each distinct parameter text ``q<TAB>sigma<TAB>clip<TAB>batch_size``
        is parsed and validated once; later lines with the same text share
        that `StepParams`.  Timesteps must increase within each client, as
        for `record`.  An error in a line, but a non-ASCII character, raises
        ValueError ``ledger line N: <cause>``, N counted only when raised.

        With client_id, the ledger holds only that client's steps: the lines
        that start with ``client_id<TAB>`` are decoded, parsed and checked as
        above, and after the scan none of the client's lines can hide under
        another spelling.  Other clients' lines are not parsed: a malformed
        field in one of them does not fail this read.
        """
        return cls._parse(bytearray(b"\n" + text.encode("ascii") + b"\n"), client_id)

    def write(self, path) -> None:
        """Write `to_text` to path atomically (see `write_atomic`)."""
        write_atomic(path, self.to_text())

    @classmethod
    def read(cls, path, client_id: int | None = None) -> "ParticipationLedger":
        """Parse the ledger file at path as `from_text` parses its text.

        Its bytes are taken as they are: a "\r" not before a "\n" is
        rejected, not read as a line break.  The file is read once, into the
        buffer that `from_text` builds, and must be ASCII: another byte
        raises the UnicodeDecodeError that decoding the file as ASCII raises.
        """
        with open(path, "rb") as fh:
            data = bytearray(os.fstat(fh.fileno()).st_size + 2)
            with memoryview(data)[1:-1] as view:
                size = fh.readinto(view)
            data[size + 1 : -1] = fh.read()  # the file shrank or grew, or is a pipe
        data[0] = data[-1] = ord("\n")
        if not data.isascii():
            data[1:-1].decode("ascii")  # raises, naming the first non-ASCII byte
        return cls._parse(data, client_id)

    @classmethod
    def _parse(cls, data: bytearray, client_id: int | None) -> "ParticipationLedger":
        """The ledger in data: ASCII ledger text between two "\n" (see `from_text`)."""
        if b"\r" in data:
            data[1:-1] = data[1:-1].replace(b"\r\n", b"\n")  # a final lone "\r" stays
        for byte in _FOREIGN_BREAKS:
            pos = data.find(byte)
            if pos != -1:
                raise ValueError(f"ledger line {_line_number(data, pos)}: "
                                 f"{chr(byte)!r} is not a ledger line break")
        import re

        match = re.search(_BAD_LINE, data)
        if match:
            raise ValueError(f"ledger line {_line_number(data, match.end())}: "
                             "does not start with a canonical client id and a tab")
        if client_id is None:
            lines = _all_lines(data)
        else:
            lines = _client_lines(data, _number(client_id, int, "client_id must be an integer"))
        ledger = cls()
        interned: dict[str, StepParams] = {}
        for start, line in lines:
            if not line.strip(" \t"):
                continue
            try:
                cid, t, rest = line.split("\t", 2)
                params = interned.get(rest)
                if params is None:
                    q, sigma, clip, batch_size = rest.split("\t")
                    params = interned[rest] = StepParams(
                        float(q), float(sigma), float(clip), int(batch_size))
                client = int(cid)
                ledger._append(int(t), (client,), params)
            except ValueError as exc:
                cause = exc if line.count("\t") == 5 else "expected 6 tab-separated fields"
                raise ValueError(f"ledger line {_line_number(data, start)}: {cause}") from None
        return ledger


def _line_number(data: bytearray, pos: int) -> int:
    """Number of the line holding position pos of data: the "\n" before it."""
    return data.count(b"\n", 0, pos)


def _all_lines(data: bytearray) -> Iterator[tuple[int, str]]:
    """(start, line) of each line of data, decoded; the sentinels give blank ones.

    One decode and split: a find per line, as in `_client_lines`, makes a
    full read of 10^5 lines ~45% slower.
    """
    start = 0
    for line in data.decode("ascii").split("\n"):
        yield start, line
        start += len(line) + 1


def _client_lines(data: bytearray, client_id: int) -> Iterator[tuple[int, str]]:
    """(start, line) of each line of data starting ``client_id<TAB>``, decoded.

    data holds the text between two "\n" (see `from_text`), so each such line
    follows a "\n" and ends at the next.  The caller has checked that every
    line starts with a canonical client id and a tab or is blank, so no line
    of the client can be spelled another way ("07", "+7", " 7", "7_0").
    """
    import re

    for match in re.finditer(re.escape(b"\n%d\t" % client_id), data):
        pos = match.start()
        end = data.find(b"\n", pos + 1)
        yield pos + 1, data[pos + 1 : end].decode("ascii")


def write_atomic(path, text: str) -> None:
    """Write ASCII text to path so that path never holds a partial file.

    The text goes to a temporary file in path's directory, which is fsynced
    and then replaces path; if writing fails, path is left as it was and the
    temporary file is removed.  A failed or killed process leaves path old or
    new, complete either way.  The fsync orders the data before the rename,
    so an OS crash or power loss does too, except that the rename may be
    lost (the directory is not fsynced), which leaves the old file.
    """
    data = text.encode("ascii")
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@lru_cache(maxsize=STEP_BOUND_CACHE_SIZE)
def _cached_step_bound(alpha: float, q: float, sigma: float) -> float:
    """``renyi_step_bound(alpha, MechanismParams(q, sigma)).bound``, from its float
    core: alpha comes from `_orders` or its floor, q from a `StepParams` or
    `calibrate_sigma`, and the callers pass no q = 1 or sigma = 0."""
    try:
        return _step_bound(alpha, q, sigma)[0]
    except OverflowError:
        # q = 1's 2 alpha / sigma^2 bounds every q (joint quasi-convexity, arXiv:1206.2459, Thm 13)
        return math.nextafter(math.nextafter(2.0 * alpha / sigma / sigma, math.inf), math.inf)


def _round_up(total: float) -> float:
    """total moved one ulp toward +inf, so that the rounding to nearest that
    produced it cannot leave it below the exact value.  A sum of nonnegative
    terms that came out 0 was exactly 0, and stays 0."""
    return math.nextafter(total, math.inf) if total else total


def _composed(groups: dict[tuple[float, float], int], alpha: float) -> float:
    """The sum of count x one-step bound at alpha over steps counted by
    (q, sigma), rounded up: with more than one group each product first.
    Composition and calibration both sum through here, so calibration
    converts composition's curve exactly."""
    products = [n * _cached_step_bound(alpha, q, sigma) for (q, sigma), n in groups.items()]
    if len(products) > 1:
        products = [_round_up(p) for p in products]
    return _round_up(math.fsum(products))


def _step_groups(steps: tuple[tuple[int, StepParams], ...]) -> tuple[Counter, int | None]:
    """A client's steps counted by (q, sigma), first appearance first, and the
    index of its first step with no finite bound (sigma = 0 or q = 1), or None."""
    groups = Counter((p.q, p.sigma) for _, p in steps)
    bad = [(q, sigma) for q, sigma in groups if sigma == 0 or q == 1]
    return groups, [(p.q, p.sigma) for _, p in steps].index(bad[0]) if bad else None


def compose_client_rdp(
    ledger: ParticipationLedger,
    client_id: int,
    alphas: Iterable[float] = DEFAULT_ALPHAS,
) -> RdpCurve:
    """Sum the one-step bounds over the client's recorded steps.

    Independent composition: value(alpha) = sum over steps of the one-step
    bound at (q, sigma) of that step.  Steps are grouped by identical
    (q, sigma) (``_step_groups``), so each order's value is the sum over
    groups of count x the group's one-step bound, rounded up (``_composed``),
    at a cost of O(distinct (q, sigma) x orders).
    A client absent from the ledger has the zero curve.  Steps with
    sigma = 0 or q = 1 admit no finite bound and raise, annotated with the
    index of the first such step.
    """
    steps = ledger.steps(client_id)
    alphas = _orders(alphas)
    groups, idx = _step_groups(steps)
    if idx is not None:
        t, p = steps[idx]
        raise ValueError(f"step {idx} (t={t}) of client {client_id} has q={p.q}, "
                         f"sigma={p.sigma}: no finite divergence bound exists")
    return RdpCurve(alphas, tuple(_composed(groups, alpha) for alpha in alphas))


def client_epsilon_report(ledger: ParticipationLedger, delta: float) -> list[tuple[int, int, float]]:
    """(client_id, participations, epsilon) rows for every ledgered client.

    epsilon is ``rdp_to_dp`` of ``compose_client_rdp`` on DEFAULT_ALPHAS,
    rounded up to 12 significant digits: clients.csv's ``.12g`` prints it
    exactly, and the value read back is never below the library's.  It is
    +inf, not an error, for a client with a step of no finite bound: a
    non-private run is a legitimate simulator configuration.  delta must lie
    in (0, 1), even with no client.  Clients with the same step count per
    (q, sigma) share one composition, as its fsum ignores the step order.
    """
    import decimal  # ~1.6 ms and ~0.3 MB that no other job of the accountant needs

    delta = _number(delta, float, *_DELTA)
    twelve_digits_up = decimal.Context(prec=12, rounding=decimal.ROUND_CEILING)
    epsilons: dict[frozenset, float] = {}
    rows = []
    for cid in ledger.clients():
        steps = ledger._records[cid]
        groups, nonprivate = _step_groups(steps)
        history = frozenset(groups.items())
        if history not in epsilons:
            epsilon = math.inf if nonprivate is not None else rdp_to_dp(
                RdpCurve(DEFAULT_ALPHAS, tuple(_composed(groups, a) for a in DEFAULT_ALPHAS)),
                delta)[0].epsilon
            epsilons[history] = float(twelve_digits_up.create_decimal(epsilon))
        rows.append((cid, len(steps), epsilons[history]))
    return rows


def _conversion_terms(alphas: Iterable[float], delta: float) -> dict[float, float]:
    """{alpha: log(1/delta)/(alpha - 1)} in the order of alphas, the one place
    the RDP -> DP conversion is written: D at order alpha converts to
    ``_round_up(D + term)``, nondecreasing in D, which the skips of
    `_calibration_epsilon` rest on."""
    log_inv_delta = math.log(1.0 / delta)
    return {alpha: log_inv_delta / (alpha - 1.0) for alpha in alphas}


def _calibration_walk(alphas: tuple[float, ...], delta: float) -> dict[float, float]:
    """The grid's ``_conversion_terms`` in the order `_calibration_epsilon` walks
    it: integer orders ascending, then fractional ones (sorted is stable).
    `calibrate_sigma` builds it once for all its probes."""
    return _conversion_terms(sorted(alphas, key=float.is_integer, reverse=True), delta)


def rdp_to_dp(curve: RdpCurve, delta: float = DEFAULT_DELTA) -> tuple[PrivacyBudget, float]:
    """Convert an RDP curve to (epsilon, delta) DP.

    epsilon = min over grid orders of value(alpha) + its ``_conversion_terms``
    term, rounded up; ties break toward the smallest order.  An order valued
    +inf cannot win; if every order is +inf the budget is +inf at the first.
    """
    delta = _number(delta, float, *_DELTA)
    terms = _conversion_terms(curve.alphas, delta)
    epsilons = {alpha: _round_up(value + terms[alpha]) for alpha, value in curve.items()}
    alpha_star = min(epsilons, key=epsilons.__getitem__)
    return PrivacyBudget(epsilon=epsilons[alpha_star], delta=delta), alpha_star


def _calibration_epsilon(
    q: float, sigma: float, steps: int, walk: dict[float, float], seed: float | None = None,
) -> tuple[float, float, int]:
    """``rdp_to_dp`` at delta of the curve ``compose_client_rdp`` gives a
    client with `steps` steps at (q, sigma) on the grid alphas, where walk is
    ``_calibration_walk(alphas, delta)``, as (epsilon, alpha*), bit for bit,
    plus how many grid orders it evaluated.

    That curve is steps x the one-step bound at each order, rounded up
    (``_composed``).  One pass walks seed first if one is given (an order of
    alphas), then the integer orders ascending, then the fractional ones,
    and evaluates an order unless ``_round_up(lower + term)`` exceeds the
    best epsilon so far, where term is the order's conversion term
    (``_conversion_terms``) and lower a lower bound on its value.  The
    conversion is nondecreasing in the value, so that is a lower bound on
    the order's epsilon.  The lower bounds are:
      - 0, for any order: every value is >= 0;
      - for an order above the lowest evaluated order whose value exceeded
        the best epsilon at that point, that order's value;
      - for a fractional order above 2, steps x the bound at its floor,
        looked up only once the test at 0 has passed;
      - for a fractional order, steps x ``_binned_lower_bound``, taken only
        once the three tests above have passed.
    The second and third rest on D_alpha being nondecreasing in alpha (van
    Erven & Harremoes, arXiv:1206.2459): the bound exceeds D_alpha by at most
    its stated slack (~1e-13 relative at integer orders), far less than
    D_alpha grows between grid orders, and 2 alpha / sigma^2, taken where an
    order has no bound, grows with alpha too.  The fourth is <= D_alpha, so
    <= the order's bound.  No test assumes the term's sign or
    monotonicity, so each holds under any conversion nondecreasing in the
    value; under this one, whose term is > 0, every order above the lowest
    that exceeded is skipped.  Each skip is on a strict > against an epsilon
    some evaluated order achieved, so (epsilon, alpha*) is the first minimum
    over the evaluated orders in grid order, as ``rdp_to_dp`` takes it over
    all of them: the seed changes only which orders are evaluated.  Met
    again at its place in the walk, the seed is not evaluated twice, but its
    value is compared with the best epsilon there.  alphas must be a grid
    that `_orders` returns and delta a number `rdp_to_dp` accepts.
    """
    values = {}  # of each evaluated order
    epsilons: dict[float, float] = {}  # of each evaluated order, as rdp_to_dp converts it
    best = math.inf
    stop, stop_value = math.inf, 0.0  # the lowest evaluated order whose value exceeded best
    for alpha in walk if seed is None else (seed, *walk):
        term = walk[alpha]
        value = values.get(alpha)  # the seed's, met again at its place in the walk
        if value is None:
            if (alpha > stop and _round_up(stop_value + term) > best
                    or _round_up(term) > best
                    or alpha % 1.0 and (
                        alpha > 2.0 and _round_up(
                            steps * _cached_step_bound(alpha // 1.0, q, sigma) + term) > best
                        or _round_up(steps * _binned_lower_bound(alpha, q, sigma) + term) > best)):
                continue
            value = values[alpha] = _composed({(q, sigma): steps}, alpha)
            epsilons[alpha] = _round_up(value + term)
            best = min(best, epsilons[alpha])
        if value > best and alpha < stop:
            stop, stop_value = alpha, value
    alpha_star = min(sorted(epsilons), key=epsilons.__getitem__)
    return epsilons[alpha_star], alpha_star, len(epsilons)


class _Sigma(float):
    """A sigma `calibrate_sigma` probed, with its epsilon and alpha*."""

    __slots__ = ("epsilon", "alpha_star")


def _first_probe(target: PrivacyBudget, q: float, steps: int) -> float:
    """The largest CALIBRATION_SIGMA_LOW * 2^k <= CALIBRATION_SIGMA_MAX at or below
    2 / sqrt(log1p(2A / (steps q^2))), A = (sqrt(L + eps) - sqrt(L))^2, L = log(1/delta),
    where the composed RDP's small-q term steps (alpha/2) q^2 (e^(4/sigma^2) - 1)
    (arXiv:1908.10530) converts to eps at its best alpha.  Never raises."""
    log_inv_delta = -math.log(target.delta)
    a = (math.sqrt(log_inv_delta + target.epsilon) - math.sqrt(log_inv_delta)) ** 2
    r = math.log1p(2.0 * a / q / q / min(steps, sys.float_info.max))  # guess = 2 / sqrt(r)
    sigma = CALIBRATION_SIGMA_LOW
    while 2.0 * sigma <= CALIBRATION_SIGMA_MAX and (2.0 * sigma) ** 2 * r <= 4.0:
        sigma *= 2.0
    return sigma


def calibrate_sigma(
    target: PrivacyBudget,
    q: float,
    steps: int,
    alphas: Iterable[float] = DEFAULT_ALPHAS,
) -> float:
    """Smallest noise multiplier meeting the target budget over `steps` steps.

    epsilon(sigma) is the epsilon of the curve ``compose_client_rdp`` gives a
    client with `steps` steps at (q, sigma), nonincreasing in sigma; each
    probe takes it from `_calibration_epsilon`, seeded with the largest
    integer order of the grid at or below the previous probe's alpha*, if
    any (the first probe is unseeded).
    From the lattice point CALIBRATION_SIGMA_LOW * 2^k at or below a
    closed-form guess (`_first_probe`), sigma is doubled while it misses the
    target (up to CALIBRATION_SIGMA_MAX) or halved while it meets it, and
    CALIBRATION_SIGMA_LOW is returned if it meets: as epsilon(sigma) is
    nonincreasing, this is the bracket doubling from CALIBRATION_SIGMA_LOW
    finds.  The bracket [lo, hi] between the last sigma that missed and the
    first that met it is narrowed by the
    Illinois method (modified regula falsi) in x = log sigma on
    g(x) = log epsilon(e^x) - log target.epsilon, which is close to linear.
    Each probe is the secant root of the two ends, moved 0.4 of the stopping
    width toward the end the last probe did not replace and kept 1/4 of it
    inside the bracket.  Throughout, both ends are probes and
    epsilon(lo) > target.epsilon >= epsilon(hi).  The solve stops once
    hi - lo <= CALIBRATION_REL_TOL * hi and returns hi.

    Each probe is a float subclass carrying its .epsilon and .alpha_star,
    and the sigma returned is the probe that accepted it: its .epsilon
    (<= target.epsilon) and .alpha_star are the CLI's achieved_epsilon and
    alpha_star.  Every number boundary (`_number`) stores it as a built-in
    float.

    Each epsilon evaluation (sigma, epsilon, alpha*, orders evaluated out of
    the grid's, seed) and the result (sigma, number of sigmas evaluated) are
    logged at DEBUG level.

    Raises CalibrationError before any evaluation if the target is at or
    below the grid's conversion floor, the least of its terms
    (``_conversion_terms``), log(1/delta)/(alpha_max - 1), rounded up:
    every D_alpha > 0, so every epsilon exceeds it; the floor is
    attached.  Raises it too if CALIBRATION_SIGMA_MAX is reached without
    meeting the target; the epsilon at the last sigma tried is attached.
    """
    if not isinstance(target, PrivacyBudget):
        raise TypeError("target must be a PrivacyBudget")
    q = _number(q, float, "q must lie in (0, 1)", lambda q: 0 < q < 1)
    steps = _number(steps, int, "steps must be an integer >= 1", lambda steps: steps >= 1)
    alphas = _orders(alphas)
    walk = _calibration_walk(alphas, target.delta)
    floor = _round_up(min(walk.values()))
    if target.epsilon <= floor:
        raise CalibrationError(
            f"target epsilon={target.epsilon} unreachable: every epsilon on this "
            f"order grid exceeds log(1/delta)/(alpha_max - 1) = {floor:.6g}",
            epsilon_at_bracket=floor,
        )
    seed, probes = None, 0

    def probe(sigma: float) -> _Sigma:
        nonlocal seed, probes
        p = _Sigma(sigma)
        p.epsilon, p.alpha_star, orders = _calibration_epsilon(q, sigma, steps, walk, seed)
        probes += 1
        _debug("calibrate: sigma=%r epsilon=%r alpha*=%r orders=%d/%d seed=%r",
               sigma, p.epsilon, p.alpha_star, orders, len(alphas), seed)
        seed = max((a for a in alphas if a.is_integer() and a <= p.alpha_star), default=None)
        return p

    lo = hi = probe(_first_probe(target, q, steps))
    while lo.epsilon <= target.epsilon:
        if lo == CALIBRATION_SIGMA_LOW:
            hi = lo  # pinned at the smallest admissible noise: nothing left to solve
            break
        hi, lo = lo, probe(lo / 2.0)
    while hi.epsilon > target.epsilon:
        if 2.0 * hi > CALIBRATION_SIGMA_MAX:
            raise CalibrationError(
                f"target epsilon={target.epsilon} unreachable: at sigma={hi} "
                f"the composed epsilon is still {hi.epsilon:.6g}",
                epsilon_at_bracket=hi.epsilon,
            )
        lo, hi = hi, probe(2.0 * hi)
    # invariant: lo.epsilon > target >= hi.epsilon.  (xb, gb) is the end the
    # last probe set, (xa, ga) the other one; b_meets says which side b is on.
    width = -math.log1p(-CALIBRATION_REL_TOL)  # hi - lo <= CALIBRATION_REL_TOL * hi, in x
    log_target = math.log(target.epsilon)
    xa, ga = math.log(lo), math.log(lo.epsilon) - log_target
    xb, gb, b_meets = math.log(hi), math.log(hi.epsilon) - log_target, True
    while hi - lo > CALIBRATION_REL_TOL * hi:
        # ga and gb lie on opposite sides of 0, so the secant is defined
        x = xb - gb * (xb - xa) / (gb - ga) + math.copysign(0.4 * width, xa - xb)
        x = min(max(x, min(xa, xb) + 0.25 * width), max(xa, xb) - 0.25 * width)
        p = probe(math.exp(x))
        meets = p.epsilon <= target.epsilon
        if meets:
            hi = p
        else:
            lo = p
        if meets == b_meets:
            ga /= 2.0  # Illinois: the stale end's weight halves
        else:
            xa, ga = xb, gb
        xb, gb, b_meets = x, math.log(p.epsilon) - log_target, meets
    _debug("calibrate: returning sigma=%r after %d sigmas", hi, probes)
    return hi
