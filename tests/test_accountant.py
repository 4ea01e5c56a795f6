"""Ledger bookkeeping, per-client composition, conversion, calibration."""

import builtins
import errno
import logging
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

import reference
from fedrdp import accountant
from fedrdp.accountant import (
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
    record_participation,
)
from fedrdp.divergence import MOMENT_EXPONENT_CAP, MechanismParams, renyi_step_bound

STEP = StepParams(q=0.01, sigma=2.0, clip=1.0, batch_size=10)


# --- types -------------------------------------------------------------


def test_step_params_accepts_ledgerable_extremes():
    # sigma = 0 and q = 1 are recordable (non-private simulator runs);
    # composition is where they get rejected
    StepParams(q=1.0, sigma=0.0, clip=0.5, batch_size=3)


@pytest.mark.parametrize(
    "kw",
    [
        dict(q=0.0, sigma=1.0, clip=1.0, batch_size=1),
        dict(q=1.2, sigma=1.0, clip=1.0, batch_size=1),
        dict(q=0.5, sigma=-1.0, clip=1.0, batch_size=1),
        dict(q=0.5, sigma=1.0, clip=0.0, batch_size=1),
        dict(q=0.5, sigma=1.0, clip=1.0, batch_size=0),
        dict(q=0.5, sigma=1.0, clip=1.0, batch_size=2.5),
    ],
)
def test_step_params_rejects(kw):
    with pytest.raises(ValueError):
        StepParams(**kw)


def test_privacy_budget_validation():
    PrivacyBudget(epsilon=0.0, delta=0.5)
    PrivacyBudget(epsilon=math.inf, delta=1e-9)
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=-1.0, delta=0.5)
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=1.0, delta=0.0)
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=1.0, delta=1.0)


def test_curve_validation():
    RdpCurve((1.5, 2.0), (0.0, math.inf))
    with pytest.raises(ValueError):
        RdpCurve((2.0, 1.5), (0.0, 0.0))  # not increasing
    with pytest.raises(ValueError):
        RdpCurve((1.0, 2.0), (0.0, 0.0))  # order must exceed 1
    with pytest.raises(ValueError):
        RdpCurve((2.0,), (-0.1,))
    with pytest.raises(ValueError):
        RdpCurve((2.0,), (0.0, 0.1))
    with pytest.raises(ValueError):
        RdpCurve((2.0,), (math.nan,))


def test_curve_addition_requires_same_grid():
    a = RdpCurve((2.0, 4.0), (0.1, 0.2))
    b = RdpCurve((2.0, 8.0), (0.1, 0.2))
    with pytest.raises(ValueError):
        a + b
    c = a + RdpCurve((2.0, 4.0), (0.3, 0.4))
    assert c.values == (0.4, 0.6000000000000001)


# --- ledger -------------------------------------------------------------


def test_single_record_bookkeeping():
    led = ParticipationLedger()
    record_participation(led, 7, 3, STEP)
    assert led.participation_count(7, 3) == 1
    assert led.participation_round(7, 1) == 3


def test_counting_over_history():
    led = ParticipationLedger()
    for t in (1, 4, 9):
        led.record(5, t, STEP)
    assert led.participation_count(5, 9) == 3
    assert led.participation_count(5, 4) == 2
    assert led.participation_count(5, 3) == 1
    assert led.participation_round(5, 2) == 4
    with pytest.raises(ValueError):
        led.participation_round(5, 4)


def test_out_of_order_rejected_with_context():
    led = ParticipationLedger().record(3, 5, STEP)
    with pytest.raises(ValueError, match=r"client 3.*t=5.*t=5"):
        led.record(3, 5, STEP)
    with pytest.raises(ValueError, match=r"t=4 after t=5"):
        led.record(3, 4, STEP)


def test_text_round_trip_file(tmp_path):
    led = ParticipationLedger()
    led.record(2, 1, StepParams(q=1 / 3, sigma=2.7182818, clip=0.1, batch_size=7))
    led.record(0, 4, StepParams(q=0.1, sigma=1.0, clip=2.0, batch_size=1))
    path = tmp_path / "ledger.tsv"
    led.write(path)
    back = ParticipationLedger.read(path)
    assert back.to_text() == led.to_text()
    assert back.steps(2) == led.steps(2)


def test_text_rejects_malformed_line():
    with pytest.raises(ValueError, match="line 1"):
        ParticipationLedger.from_text("1\t2\t0.3\n")


@given(
    qs=st.lists(
        st.floats(1e-6, 1.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    ),
    sigmas=st.lists(
        st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    ),
)
def test_text_round_trip_exact_floats(qs, sigmas):
    led = ParticipationLedger()
    for t, (q, sigma) in enumerate(zip(qs, sigmas), start=1):
        led.record(0, t, StepParams(q=q, sigma=sigma, clip=1.0, batch_size=2))
    back = ParticipationLedger.from_text(led.to_text())
    assert back.steps(0) == led.steps(0)


LINE = "0.1\t1.0\t1.0\t2"  # q, sigma, clip, batch_size of a valid step


def _assert_same_steps(got, want):
    assert got.clients() == want.clients()
    for cid in want.clients():
        assert got.steps(cid) == want.steps(cid)


def test_text_skips_whitespace_only_lines():
    text = f"0\t1\t{LINE}\n\n\t\t\t\t\t\n   \n \t \n0\t2\t{LINE}\n"
    led = ParticipationLedger.from_text(text)
    assert [t for t, _ in led.steps(0)] == [1, 2]
    assert led.clients() == (0,)


def test_text_accepts_crlf_line_endings():
    unix = f"0\t1\t{LINE}\n1\t3\t0.2\t2.0\t1.0\t5\n"
    _assert_same_steps(
        ParticipationLedger.from_text(unix.replace("\n", "\r\n")),
        ParticipationLedger.from_text(unix),
    )


def test_text_interleaved_clients():
    text = f"1\t1\t{LINE}\n0\t2\t{LINE}\n1\t3\t0.2\t2.0\t1.0\t5\n0\t4\t{LINE}\n"
    led = ParticipationLedger.from_text(text)
    assert led.clients() == (0, 1)
    assert [t for t, _ in led.steps(0)] == [2, 4]
    assert [t for t, _ in led.steps(1)] == [1, 3]
    assert led.steps(1)[1][1] == StepParams(q=0.2, sigma=2.0, clip=1.0, batch_size=5)


@pytest.mark.parametrize("bad", ["0\t2", "0\t2\t0.1\t1.0\t1.0", f"0\t2\t{LINE}\t9"])
def test_text_wrong_field_count_names_the_line(bad):
    with pytest.raises(ValueError, match="line 3"):
        ParticipationLedger.from_text(f"0\t1\t{LINE}\n\n{bad}\n")


@pytest.mark.parametrize("params", ["0\t1.0\t1.0\t2", "0.1\tnan\t1.0\t2", "0.1\t1.0\t1.0\t2.5"])
def test_text_rejects_invalid_params_after_valid_lines(params):
    text = f"0\t1\t{LINE}\n0\t2\t{LINE}\n0\t3\t{params}\n0\t4\t{params}\n"
    with pytest.raises(ValueError):
        ParticipationLedger.from_text(text)


def test_text_out_of_order_names_client_and_pair():
    text = f"4\t3\t{LINE}\n5\t1\t{LINE}\n4\t2\t{LINE}\n"
    with pytest.raises(ValueError, match=r"client 4.*t=2 after t=3"):
        ParticipationLedger.from_text(text)


def test_text_interns_identical_parameter_text():
    led = ParticipationLedger.from_text(f"0\t1\t{LINE}\n0\t2\t{LINE}\n1\t1\t{LINE}\n")
    first = led.steps(0)[0][1]
    assert led.steps(0)[1][1] is first
    assert led.steps(1)[0][1] is first


# Parameter texts for random ledgers: one value written three ways, texts
# that differ from it in one field only, the ledgerable extremes and a long
# repr; then texts that must be rejected.
VALID_PARAMS = [
    "0.01\t2.0\t1.0\t10", "0.010\t2.0\t1.0\t10", "1e-2\t2.0\t1.0\t10",
    "0.05\t2.0\t1.0\t10", "0.01\t1.3\t1.0\t10", "0.01\t2.0\t0.5\t10", "0.01\t2.0\t1.0\t3",
    "1.0\t0.0\t1.0\t1", "0.3333333333333333\t2.718281828459045\t0.1\t7",
]
INVALID_PARAMS = ["0\t1.0\t1.0\t2", "0.1\tnan\t1.0\t2", "0.1\t1.0\t1.0", "0.1\t1.0\t1.0\tx"]
BLANK_LINES = ["", "   ", "\t\t\t\t\t", " \t "]


@settings(max_examples=300)
@given(
    lines=st.lists(
        st.one_of(
            st.tuples(st.integers(0, 3), st.integers(1, 3), st.sampled_from(VALID_PARAMS)),
            st.sampled_from(BLANK_LINES),
        ),
        max_size=30,
    ),
    fault=st.one_of(
        st.none(),
        st.tuples(st.integers(0, 30), st.integers(0, 3), st.sampled_from(INVALID_PARAMS + [None])),
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_text_parse_matches_per_line_reference(lines, fault, newline):
    # fault = (position, client, params): one line with invalid params, or
    # (params None) one that repeats the client's last t, inserted at position
    last_t = {}
    rendered = []
    for pos, line in enumerate(lines + [""]):
        if fault and fault[0] == pos:
            _, cid, params = fault
            t = last_t.get(cid, 0) if params is None else last_t.get(cid, 0) + 1
            rendered.append(f"{cid}\t{t}\t{params or VALID_PARAMS[0]}")
        if isinstance(line, str):
            rendered.append(line)
            continue
        cid, gap, params = line
        last_t[cid] = last_t.get(cid, 0) + gap
        rendered.append(f"{cid}\t{last_t[cid]}\t{params}")
    text = newline.join(rendered)
    try:
        want = reference.parse_ledger_per_line(text)
    except ValueError:
        with pytest.raises(ValueError):
            ParticipationLedger.from_text(text)
        return
    got = ParticipationLedger.from_text(text)
    _assert_same_steps(got, want)
    sorted_text = got.to_text()
    assert sorted_text == want.to_text()
    assert ParticipationLedger.from_text(sorted_text).to_text() == sorted_text


def _ledger_file(tmp_path):
    led = ParticipationLedger()
    for t in range(1, 50):
        led.record(t % 3, t, STEP)
    path = tmp_path / "ledger.tsv"
    path.write_text("0\t1\t0.5\t1.0\t1.0\t2\n", encoding="ascii")
    return led, path, path.read_bytes()


def test_write_replaces_existing_ledger_without_leftovers(tmp_path):
    led, path, _ = _ledger_file(tmp_path)
    led.write(path)
    assert path.read_text(encoding="ascii") == led.to_text()
    assert os.listdir(tmp_path) == ["ledger.tsv"]


def test_write_failing_in_to_text_keeps_old_ledger(tmp_path, monkeypatch):
    led, path, before = _ledger_file(tmp_path)

    def broken_to_text(self):
        raise RuntimeError("serialisation failed")

    monkeypatch.setattr(ParticipationLedger, "to_text", broken_to_text)
    with pytest.raises(RuntimeError):
        led.write(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ledger.tsv"]


def test_write_failing_partway_keeps_old_ledger(tmp_path, monkeypatch):
    led, path, before = _ledger_file(tmp_path)
    written = []

    class HalfFullDisk:
        """A file whose write stores half the data, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            written.append(os.path.getsize(self.fh.name))
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(
        accountant, "open", lambda file, mode: HalfFullDisk(builtins.open(file, mode)), raising=False
    )
    with pytest.raises(OSError):
        led.write(path)
    assert written and written[0] > 0  # the failure came after a partial write
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ledger.tsv"]


# --- composition ---------------------------------------------------------


def test_compose_empty_history_is_zero():
    curve = compose_client_rdp(ParticipationLedger(), 42)
    assert all(v == 0.0 for v in curve.values)
    assert curve.alphas == tuple(float(a) for a in DEFAULT_ALPHAS)


def test_compose_identical_steps_scale_linearly():
    led = ParticipationLedger()
    for t in range(1, 101):
        led.record(1, t, STEP)
    one = compose_client_rdp(led, 1, alphas=(2.0, 8.0)).values
    led100 = compose_client_rdp(led, 1, alphas=(2.0, 8.0))
    single = [
        renyi_step_bound(a, MechanismParams(STEP.q, STEP.sigma)).bound for a in (2.0, 8.0)
    ]
    for got, per in zip(led100.values, single):
        assert got == pytest.approx(100 * per, rel=1e-12)


def test_compose_heterogeneous_steps_sum():
    led = ParticipationLedger()
    led.record(0, 1, StepParams(q=0.01, sigma=2.0, clip=1.0, batch_size=5))
    led.record(0, 2, StepParams(q=0.05, sigma=4.0, clip=1.0, batch_size=5))
    got = compose_client_rdp(led, 0, alphas=(2.0, 4.0, 16.0))
    for alpha, v in got.items():
        want = (
            renyi_step_bound(alpha, MechanismParams(0.01, 2.0)).bound
            + renyi_step_bound(alpha, MechanismParams(0.05, 4.0)).bound
        )
        assert v == want


def test_compose_isolated_between_clients():
    led = ParticipationLedger()
    led.record(1, 1, STEP)
    before = compose_client_rdp(led, 1, alphas=(2.0, 4.0))
    led.record(2, 2, StepParams(q=0.2, sigma=1.0, clip=1.0, batch_size=9))
    led.record(2, 3, STEP)
    after = compose_client_rdp(led, 1, alphas=(2.0, 4.0))
    assert after.values == before.values


def test_compose_split_history_additivity():
    steps = [
        StepParams(q=0.01 * (i % 3 + 1), sigma=1.0 + i % 4, clip=1.0, batch_size=2)
        for i in range(12)
    ]
    full = ParticipationLedger()
    first = ParticipationLedger()
    second = ParticipationLedger()
    for t, p in enumerate(steps, start=1):
        full.record(0, t, p)
        (first if t <= 6 else second).record(0, t, p)
    alphas = (1.5, 2.0, 6.0)
    total = compose_client_rdp(full, 0, alphas)
    summed = compose_client_rdp(first, 0, alphas) + compose_client_rdp(second, 0, alphas)
    for a, b in zip(total.values, summed.values):
        assert a == pytest.approx(b, rel=1e-12)


def test_compose_depends_only_on_step_parameters():
    led = ParticipationLedger()
    for t in (1, 2, 3):
        led.record(0, t, STEP)
    for t in (10, 57, 900):
        led.record(1, t, STEP)
    a = compose_client_rdp(led, 0, alphas=(2.0, 4.0))
    b = compose_client_rdp(led, 1, alphas=(2.0, 4.0))
    assert a.values == b.values


def test_compose_rejects_first_nonprivate_step_among_repeats():
    led = ParticipationLedger()
    led.record(0, 1, STEP)
    led.record(0, 2, STEP)
    led.record(0, 3, StepParams(q=1.0, sigma=2.0, clip=1.0, batch_size=2))
    led.record(0, 4, StepParams(q=0.1, sigma=0.0, clip=1.0, batch_size=2))
    led.record(0, 6, StepParams(q=1.0, sigma=2.0, clip=1.0, batch_size=2))
    with pytest.raises(ValueError, match=r"step 2 \(t=3\)"):
        compose_client_rdp(led, 0)


def test_compose_rejects_nonprivate_step_with_index():
    led = ParticipationLedger()
    led.record(0, 1, STEP)
    led.record(0, 5, StepParams(q=0.1, sigma=0.0, clip=1.0, batch_size=2))
    with pytest.raises(ValueError, match=r"step 1 \(t=5\)"):
        compose_client_rdp(led, 0)


# --- conversion ------------------------------------------------------------


def test_convert_zero_curve_default_grid():
    budget, alpha = rdp_to_dp(RdpCurve.zero(), DEFAULT_DELTA)
    assert alpha == 1025.0
    assert budget.epsilon == pytest.approx(math.log(1e5) / 1024, rel=1e-12)


def test_convert_single_order():
    budget, alpha = rdp_to_dp(RdpCurve((2.0,), (0.5,)), 0.01)
    assert alpha == 2.0
    assert budget.epsilon == pytest.approx(0.5 + math.log(100.0), rel=1e-12)


def test_convert_linear_curve_brackets_continuous_optimum():
    rho = 0.01
    curve = RdpCurve(
        tuple(float(a) for a in DEFAULT_ALPHAS),
        tuple(rho * a for a in DEFAULT_ALPHAS),
    )
    _, alpha = rdp_to_dp(curve, 1e-5)
    best = 1 + math.sqrt(math.log(1e5) / rho)
    grid = [a for a in DEFAULT_ALPHAS]
    below = max(a for a in grid if a <= best)
    above = min(a for a in grid if a >= best)
    assert alpha in (below, above)


def test_convert_skips_infinite_orders():
    budget, alpha = rdp_to_dp(RdpCurve((2.0, 4.0), (math.inf, 0.1)), 1e-2)
    assert alpha == 4.0
    assert budget.epsilon == pytest.approx(0.1 + math.log(100.0) / 3, rel=1e-12)


def test_convert_all_infinite_is_infinite():
    budget, alpha = rdp_to_dp(RdpCurve((2.0, 4.0), (math.inf, math.inf)), 1e-2)
    assert math.isinf(budget.epsilon)
    assert alpha == 2.0


def test_convert_ties_break_to_smallest_order():
    log_term = math.log(100.0)
    # arrange equal objective at both orders: v2 + log/1 = v4 + log/3
    v2, v4 = 0.0, log_term - log_term / 3
    _, alpha = rdp_to_dp(RdpCurve((2.0, 4.0), (v2, v4)), 1e-2)
    assert alpha == 2.0


def test_convert_rejects_bad_delta():
    with pytest.raises(ValueError):
        rdp_to_dp(RdpCurve.zero(), 0.0)


@given(
    d1=st.floats(1e-9, 0.4),
    d2=st.floats(1e-9, 0.4),
    values=st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3),
)
def test_convert_monotone_in_delta_and_curve(d1, d2, values):
    lo, hi = min(d1, d2), max(d1, d2)
    curve = RdpCurve((1.5, 4.0, 32.0), tuple(values))
    eps_lo = rdp_to_dp(curve, lo)[0].epsilon
    eps_hi = rdp_to_dp(curve, hi)[0].epsilon
    assert eps_lo >= eps_hi
    bigger = RdpCurve((1.5, 4.0, 32.0), tuple(v + 0.25 for v in values))
    assert rdp_to_dp(bigger, lo)[0].epsilon >= eps_lo


# --- calibration -------------------------------------------------------------


def test_calibrate_round_trip_tightness():
    target = PrivacyBudget(1.0, 1e-5)
    sigma = calibrate_sigma(target, q=0.02, steps=100)

    def forward(s):
        led = ParticipationLedger()
        for t in range(1, 101):
            led.record(0, t, StepParams(q=0.02, sigma=s, clip=1.0, batch_size=1))
        return rdp_to_dp(compose_client_rdp(led, 0), 1e-5)[0].epsilon

    assert forward(sigma) <= 1.0
    assert forward(sigma * (1 - 1e-3)) > 1.0


def test_calibrate_pins_to_lower_bracket_when_unconstrained():
    sigma = calibrate_sigma(PrivacyBudget(1e4, 1e-5), q=0.1, steps=1)
    assert sigma == 0.3


def test_calibrate_monotone_in_steps():
    sigmas = [
        calibrate_sigma(PrivacyBudget(2.0, 1e-5), q=0.02, steps=n)
        for n in (10, 20, 40, 80)
    ]
    assert sigmas == sorted(sigmas)


def test_calibrate_rejects_bad_args():
    with pytest.raises(ValueError):
        calibrate_sigma(PrivacyBudget(1.0, 1e-5), q=0.02, steps=0)
    with pytest.raises(ValueError):
        calibrate_sigma(PrivacyBudget(1.0, 1e-5), q=1.0, steps=5)
    with pytest.raises(TypeError):
        calibrate_sigma(1.0, q=0.1, steps=5)


def test_calibrate_unreachable_target_reports_bracket():
    with pytest.raises(CalibrationError) as exc:
        calibrate_sigma(PrivacyBudget(1e-9, 1e-5), q=0.3, steps=100, sigma_max=50.0)
    assert exc.value.epsilon_at_bracket > 1e-9


def _calibration_epsilon(q, sigma, steps, alphas=DEFAULT_ALPHAS):
    return rdp_to_dp(accountant.calibration_curve(q, sigma, steps, alphas), 1e-5)[0].epsilon


@settings(derandomize=True, max_examples=20, deadline=None)
@given(epsilon=st.floats(0.3, 20.0), u_q=st.floats(0.0, 1.0), steps=st.integers(1, 3000))
def test_calibrate_lands_within_tolerance_of_the_threshold(epsilon, u_q, steps):
    q = 1e-3 * 300.0**u_q  # log-uniform over [1e-3, 0.3]
    sigma = calibrate_sigma(PrivacyBudget(epsilon, 1e-5), q=q, steps=steps)
    assert _calibration_epsilon(q, sigma, steps) <= epsilon
    assert _calibration_epsilon(q, sigma * (1 - 1e-3), steps) > epsilon


def _count_calibration_sigmas(monkeypatch):
    sigmas = []
    original = accountant.calibration_curve

    def counting(q, sigma, *args, **kwargs):
        sigmas.append(sigma)
        return original(q, sigma, *args, **kwargs)

    monkeypatch.setattr(accountant, "calibration_curve", counting)
    return sigmas


@pytest.mark.parametrize(
    "epsilon, q, steps",
    [(1.2, 0.01, 600), (4.0, 0.05, 100), (16.0, 0.2, 5)]
    + [(eps, 128 / 30000, 250) for eps in (2.0, 4.0, 6.0, 8.0, 10.0)],
)
def test_calibrate_evaluates_few_sigmas(monkeypatch, epsilon, q, steps):
    # bisection from [0.3, 64] down to rel_tol 1e-4 evaluates 20-22
    sigmas = _count_calibration_sigmas(monkeypatch)
    calibrate_sigma(PrivacyBudget(epsilon, 1e-5), q=q, steps=steps)
    assert len(sigmas) == len(set(sigmas)) <= 14


def test_calibrate_bisects_where_epsilon_is_infinite(monkeypatch):
    # with orders 48 and 64 only, epsilon is +inf below the sigma at which
    # order 48 passes the exponent cap
    alphas = (48.0, 64.0)
    edge = math.sqrt(2 * 48 * 47 / MOMENT_EXPONENT_CAP)
    sigmas = _count_calibration_sigmas(monkeypatch)
    sigma = calibrate_sigma(PrivacyBudget(0.6, 1e-5), q=0.01, steps=100, alphas=alphas)
    assert sigmas[:3] == [0.3, 64.0, pytest.approx(math.sqrt(0.3 * 64.0), rel=1e-12)]
    assert sigma > edge
    assert _calibration_epsilon(0.01, sigma, 100, alphas) <= 0.6
    assert 0.6 < _calibration_epsilon(0.01, sigma * (1 - 1e-3), 100, alphas) < math.inf
    # a target above epsilon just past the edge: the threshold is the jump
    # from +inf to finite, so every probe bisects
    sigma = calibrate_sigma(PrivacyBudget(1e4, 1e-5), q=0.01, steps=100, alphas=alphas)
    assert sigma * (1 - 2e-4) < edge <= sigma * (1 + 1e-12)
    assert _calibration_epsilon(0.01, sigma, 100, alphas) <= 1e4
    assert math.isinf(_calibration_epsilon(0.01, sigma * (1 - 1e-3), 100, alphas))


def test_calibrate_logs_each_evaluation_at_debug(caplog, monkeypatch):
    sigmas = _count_calibration_sigmas(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="fedrdp.accountant"):
        sigma = calibrate_sigma(PrivacyBudget(4.0, 1e-5), q=0.05, steps=100)
    probes = list(sigmas)
    records = [r for r in caplog.records if r.name == "fedrdp.accountant"]
    assert {r.levelno for r in records} == {logging.DEBUG}
    *evaluations, last = [r.getMessage() for r in records]
    assert len(evaluations) == len(probes)
    for message, probe in zip(evaluations, probes):
        budget, alpha_star = rdp_to_dp(accountant.calibration_curve(0.05, probe, 100), 1e-5)
        assert message == (
            f"calibrate: sigma={probe!r} epsilon={budget.epsilon!r} alpha*={alpha_star!r}"
        )
    assert last == f"calibrate: returning sigma={sigma!r} after {len(probes)} sigmas"
