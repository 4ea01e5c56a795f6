"""Ledger bookkeeping, per-client composition, conversion, calibration."""

import copy
import inspect
import logging
import math
import os
import pickle
import re
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from fedrdp import accountant, divergence
from fedrdp.accountant import (
    DEFAULT_ALPHAS,
    DEFAULT_DELTA,
    CalibrationError,
    ParticipationLedger,
    PrivacyBudget,
    RdpCurve,
    StepParams,
    calibrate_sigma,
    client_epsilon_report,
    compose_client_rdp,
    rdp_to_dp,
)
from fedrdp.divergence import (
    BoundResult,
    MechanismParams,
    likelihood_ratio_moment,
    renyi_divergence_quadrature,
    renyi_step_bound,
)

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
        dict(q=0.5, sigma=1.0, clip=math.inf, batch_size=1),
    ],
)
def test_step_params_rejects(kw):
    with pytest.raises(ValueError):
        StepParams(**kw)


def _curves():
    return st.sampled_from([(2.0,), (1.5, 4.0)]).flatmap(lambda alphas: st.builds(
        RdpCurve, st.just(alphas),
        st.lists(st.sampled_from([0.0, 0.25, math.inf]), min_size=len(alphas),
                 max_size=len(alphas)).map(tuple)))


# each value class and its values; few distinct field values, so equal pairs are drawn
VALUE_CLASSES = {
    StepParams: st.builds(StepParams, st.sampled_from([0.01, 1]), st.sampled_from([0.0, 2.0]),
                          st.sampled_from([1, 0.5]), st.sampled_from([1, 10])),
    PrivacyBudget: st.builds(PrivacyBudget, st.sampled_from([0.0, 4, math.inf]),
                             st.sampled_from([1e-5, 0.5])),
    RdpCurve: _curves(),
    MechanismParams: st.builds(MechanismParams, st.sampled_from([0, 0.05, 1]),
                               st.sampled_from([0.5, 2.0])),
    BoundResult: st.builds(BoundResult, st.sampled_from([0.0, 1.5, math.inf]),
                           st.sampled_from([1.0, math.inf]), st.sampled_from([0.0, 1e-12]),
                           st.sampled_from([1, 3]), st.sampled_from(["closed_form", "split"])),
}


def _attribute_error(action, *args) -> AttributeError:
    with pytest.raises(AttributeError) as info:
        action(*args)
    return info.value


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_value_classes_behave_as_frozen_dataclasses(cls, data):
    # each class matches its frozen-dataclass twin, except that assigning or deleting
    # a field raises AttributeError itself, not its subclass FrozenInstanceError
    twin = getattr(reference, cls.__name__)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__match_args__ == twin.__match_args__
    a, b = data.draw(VALUE_CLASSES[cls]), data.draw(VALUE_CLASSES[cls])
    ta, tb = (twin(*(getattr(x, name) for name in cls.__match_args__)) for x in (a, b))
    assert repr(a) == repr(ta)
    assert (a == b, a != b) == (ta == tb, ta != tb)
    # against another class with equal field values
    assert (a == ta, a != ta) == (ta == a, ta != a) == (False, True)
    assert hash(a) == hash(ta)
    for made, twin_made in ((copy.copy(a), copy.copy(ta)), (copy.deepcopy(a), copy.deepcopy(ta)),
                            *((pickle.loads(pickle.dumps(a, protocol)),
                               pickle.loads(pickle.dumps(ta, protocol)))
                              for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(made) is cls and made is not a and made == a
        assert repr(made) == repr(twin_made) and vars(made) == vars(twin_made)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        # the same pickle but for the class named: either side's loads as the other
        ours, theirs = a.__reduce_ex__(protocol), ta.__reduce_ex__(protocol)
        assert (ours[0], ours[1][1:], ours[2:]) == (theirs[0], theirs[1][1:], theirs[2:])
    for name in (*cls.__match_args__, "other"):
        for action, args in ((setattr, (name, 1)), (delattr, (name,))):
            error = _attribute_error(action, a, *args)
            assert type(error) is AttributeError
            assert str(error) == str(_attribute_error(action, ta, *args))
    assert vars(a) == vars(ta)  # and a is unchanged


def test_step_params_shows_an_integer_past_float_range_by_its_size():
    # its repr runs past 4300 digits, which Python refuses to print
    with pytest.raises(ValueError) as info:
        StepParams(q=0.1, sigma=10**5000, clip=1.0, batch_size=10)
    assert str(info.value) == "sigma must be a finite real >= 0, got an integer of 5001 digits"
    with pytest.raises(ValueError) as info:
        StepParams(q=0.1, sigma=1.0, clip=1.0, batch_size=-(10**400))
    assert str(info.value) == "batch_size must be an integer >= 1, got a negative integer of 401 digits"


@pytest.mark.parametrize(
    "call",
    [
        lambda: calibrate_sigma(PrivacyBudget(1.0, 1e-5), q=0.1, steps=True),
        lambda: PrivacyBudget(epsilon=True, delta=1e-5),
        lambda: MechanismParams(q=True, sigma=2.0),
        lambda: MechanismParams(q=0.1, sigma=True),
        lambda: renyi_step_bound(True, MechanismParams(q=0.1, sigma=2.0)),
        lambda: renyi_divergence_quadrature(2.0, True, 2.0),
        lambda: renyi_divergence_quadrature(2.0, 0.1, True),
        lambda: likelihood_ratio_moment(True, 2),
        lambda: likelihood_ratio_moment(2.0, True),
        lambda: PrivacyBudget(epsilon=1.0, delta=True),
        lambda: rdp_to_dp(RdpCurve((2.0,), (0.5,)), True),
        lambda: calibrate_sigma(PrivacyBudget(1.0, 1e-5), q=True, steps=10),
        lambda: compose_client_rdp(ParticipationLedger(), 0, (1.5, True)),
        lambda: compose_client_rdp(ParticipationLedger().record(1, 1, STEP), True),
        lambda: RdpCurve((1.5, True), (0.0, 0.0)),
        lambda: RdpCurve((2.0,), (True,)),
        lambda: ParticipationLedger().record(1, 1, STEP).steps(True),
        lambda: ParticipationLedger().record(1, 1, STEP).participation_count(True),
        lambda: ParticipationLedger().record(1, 1, STEP).participation_count(1, True),
    ],
    ids=["steps", "epsilon", "q", "sigma", "alpha", "quadrature-q", "quadrature-sigma",
         "moment-sigma", "moment-k", "delta", "convert-delta", "calibrate-q", "compose-alpha",
         "compose-client_id", "curve-alpha", "curve-value", "ledger-steps-client_id",
         "count-client_id", "count-t"],
)
def test_bool_is_not_a_number(call):
    # True would be read as 1
    with pytest.raises(ValueError, match="got True$"):
        call()


# Each public entry point's number fields: a call that takes the field's
# value, and the error the field gives a value that is not a number of its
# kind in its range.
ENTRY_POINT_FIELDS = {
    "params-q": (lambda v: MechanismParams(q=v, sigma=2.0), "q must lie in [0, 1]"),
    "params-sigma": (lambda v: MechanismParams(q=0.1, sigma=v), "sigma must be a positive finite real"),
    "bound-alpha": (lambda v: renyi_step_bound(v, MechanismParams(q=0.1, sigma=2.0)),
                    "alpha must be a finite real > 1"),
    "quadrature-alpha": (lambda v: renyi_divergence_quadrature(v, 0.1, 2.0),
                         "alpha must be a finite real > 1"),
    "quadrature-q": (lambda v: renyi_divergence_quadrature(2.0, v, 2.0), "q must lie in [0, 1]"),
    "quadrature-sigma": (lambda v: renyi_divergence_quadrature(2.0, 0.1, v),
                         "sigma must be a positive finite real"),
    "moment-sigma": (lambda v: likelihood_ratio_moment(v, 2), "sigma must be a positive finite real"),
    "moment-k": (lambda v: likelihood_ratio_moment(2.0, v), "k must be an integer >= 2"),
    "step-q": (lambda v: StepParams(q=v, sigma=1.0, clip=1.0, batch_size=1), "q must lie in (0, 1]"),
    "step-sigma": (lambda v: StepParams(q=0.1, sigma=v, clip=1.0, batch_size=1),
                   "sigma must be a finite real >= 0"),
    "step-clip": (lambda v: StepParams(q=0.1, sigma=1.0, clip=v, batch_size=1),
                  "clip must be a finite real > 0"),
    "step-batch_size": (lambda v: StepParams(q=0.1, sigma=1.0, clip=1.0, batch_size=v),
                        "batch_size must be an integer >= 1"),
    "epsilon": (lambda v: PrivacyBudget(v, 1e-5), "epsilon must be >= 0"),
    "delta": (lambda v: PrivacyBudget(1.0, v), "delta must lie in (0, 1)"),
    "convert-delta": (lambda v: rdp_to_dp(RdpCurve((2.0,), (0.5,)), v), "delta must lie in (0, 1)"),
    "calibrate-q": (lambda v: calibrate_sigma(PrivacyBudget(4.0, 1e-5), q=v, steps=10),
                    "q must lie in (0, 1)"),
    "calibrate-steps": (lambda v: calibrate_sigma(PrivacyBudget(4.0, 1e-5), q=0.05, steps=v),
                        "steps must be an integer >= 1"),
    "compose-alpha": (lambda v: compose_client_rdp(ParticipationLedger(), 0, (1.5, v)),
                      "orders must be strictly increasing and > 1 and finite"),
    # a client's steps are not found under another type of id, so its curve would be zero
    "compose-client_id": (lambda v: compose_client_rdp(ParticipationLedger().record(2, 1, STEP), v),
                          "client_id must be an integer"),
    "curve-alpha": (lambda v: RdpCurve((1.5, v), (0.0, 0.0)),
                    "orders must be strictly increasing and > 1 and finite"),
    "curve-value": (lambda v: RdpCurve((2.0,), (v,)), "curve values must be >= 0"),
    "record-client_id": (lambda v: ParticipationLedger().record(v, 1, STEP), "client_id must be an integer"),
    "record-t": (lambda v: ParticipationLedger().record(0, v, STEP), "t must be an integer"),
    # a client's steps are not found under another type of id, so it would have none
    "steps-client_id": (lambda v: ParticipationLedger().record(2, 1, STEP).steps(v),
                        "client_id must be an integer"),
    "count-client_id": (lambda v: ParticipationLedger().record(2, 1, STEP).participation_count(v),
                        "client_id must be an integer"),
    "count-t": (lambda v: ParticipationLedger().record(2, 1, STEP).participation_count(2, v),
                "t must be an integer"),
    "from_text-client_id": (lambda v: ParticipationLedger.from_text("", client_id=v),
                            "client_id must be an integer"),
    "read-client_id": (lambda v: ParticipationLedger.read(os.devnull, client_id=v),
                       "client_id must be an integer"),
}


@pytest.mark.parametrize("field", ENTRY_POINT_FIELDS)
def test_a_string_is_not_a_number(field):
    # float("2") would read it as 2.0
    call, message = ENTRY_POINT_FIELDS[field]
    with pytest.raises(ValueError) as info:
        call("2")
    assert str(info.value) == f"{message}, got '2'"


# Calls given real(x) for each real argument x and integer(n) for each
# integral one; a ledger is shown by its clients and steps.
NUMBER_CALLS = {
    "params": lambda real, integer: MechanismParams(q=real(0.05), sigma=integer(2)),
    "bound": lambda real, integer: (
        renyi_step_bound(real(2.5), MechanismParams(q=real(0.05), sigma=real(1.3))),
        renyi_step_bound(integer(4), MechanismParams(q=real(0.05), sigma=real(1.3)))),
    "quadrature": lambda real, integer: renyi_divergence_quadrature(integer(2), real(0.05), real(4.0)),
    "moment": lambda real, integer: likelihood_ratio_moment(real(2.0), integer(3)),
    "step": lambda real, integer: StepParams(q=real(0.05), sigma=real(1.3), clip=integer(1),
                                             batch_size=integer(10)),
    "budget": lambda real, integer: PrivacyBudget(integer(4), real(1e-5)),
    "convert": lambda real, integer: rdp_to_dp(
        RdpCurve((real(2.0), integer(4)), (real(0.5), real(0.7))), real(1e-5)),
    "calibrate": lambda real, integer: calibrate_sigma(
        PrivacyBudget(real(4.0), real(1e-5)), q=real(0.05), steps=integer(100)),
    "compose": lambda real, integer: compose_client_rdp(
        ParticipationLedger().record(0, 1, STEP).record(0, 2, STEP), integer(0), (real(2.5), integer(8))),
    "curve": lambda real, integer: RdpCurve((real(1.5), integer(4)), (real(0.25), integer(1))),
    "record": lambda real, integer: _shown_ledger(
        ParticipationLedger().record(integer(3), integer(1), STEP)),
    "lookup": lambda real, integer: (
        ParticipationLedger().record(3, 1, STEP).record(3, 4, STEP).steps(integer(3)),
        ParticipationLedger().record(3, 1, STEP).record(3, 4, STEP).participation_count(integer(3), integer(2))),
    "from_text": lambda real, integer: _shown_ledger(
        ParticipationLedger.from_text("3\t1\t0.01\t2.0\t1.0\t10\n", client_id=integer(3))),
}


def _shown_ledger(ledger):
    return ledger.clients(), [ledger.steps(cid) for cid in ledger.clients()]


@pytest.mark.parametrize("real_type", [np.float32, np.float64])
@pytest.mark.parametrize("name", NUMBER_CALLS)
def test_numpy_numbers_give_what_their_builtin_values_give(name, real_type):
    # repr tells a NumPy scalar from a built-in ("np.float64(0.5)") and
    # round-trips every float, so equal reprs mean built-ins, bit for bit
    call = NUMBER_CALLS[name]
    given = call(real_type, np.int64)
    builtin = call(lambda x: float(real_type(x)), int)
    assert repr(given) == repr(builtin)


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


# --- ledger -------------------------------------------------------------


def test_single_record_bookkeeping():
    led = ParticipationLedger()
    assert led.record(7, 3, STEP) is led
    assert led.participation_count(7, 3) == 1
    assert led.steps(7) == ((3, STEP),)


def test_record_takes_only_step_params():
    led = ParticipationLedger()
    with pytest.raises(TypeError, match="params must be a StepParams"):
        led.record(0, 1, (0.1, 1.0, 1.0, 4))
    assert led.clients() == ()


def test_counting_over_history():
    led = ParticipationLedger()
    for t in (1, 4, 9):
        led.record(5, t, STEP)
    assert led.participation_count(5, 9) == 3
    assert led.participation_count(5, 4) == 2
    assert led.participation_count(5, 3) == 1


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


def test_ledger_round_trips_numpy_scalars_and_rejects_bools():
    # repr writes a numpy scalar as "np.float64(0.25)", which the reader
    # rejects, and a bool as True
    step = StepParams(q=np.float64(0.25), sigma=np.float64(1.5), clip=np.float32(0.5),
                      batch_size=np.int64(2))
    assert [type(v) for v in (step.q, step.sigma, step.clip, step.batch_size)] == [float, float, float, int]
    led = ParticipationLedger().record(0, 1, step)
    assert led.to_text() == "0\t1\t0.25\t1.5\t0.5\t2\n"
    assert ParticipationLedger.from_text(led.to_text()).steps(0) == led.steps(0)
    valid = dict(q=0.5, sigma=1.0, clip=1.0, batch_size=1)
    for kw in (dict(q=True), dict(sigma=False), dict(clip=True), dict(batch_size=True)):
        with pytest.raises(ValueError):
            StepParams(**{**valid, **kw})
    with pytest.raises(ValueError, match="client_id must be an integer"):
        ParticipationLedger().record(True, 1, STEP)
    with pytest.raises(ValueError, match="t must be an integer"):
        ParticipationLedger().record(0, True, STEP)
    with pytest.raises(ValueError, match="client_id must be an integer"):
        ParticipationLedger.from_text("1\t1\t0.01\t2.0\t1.0\t10\n", client_id=True)


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


@pytest.mark.parametrize("params", ["0\t1.0\t1.0\t2", "0.1\tnan\t1.0\t2", "0.1\t1.0\t1.0\t2.5",
                                    "0.1\t1.0\tinf\t2"])
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


# --- reading one client -----------------------------------------------------

# Spellings of a client id that int() reads as that id but the format does
# not allow, and the line boundaries of str.splitlines other than "\n":
# each could carry a line of the client that a search for "\n<id>\t" misses.
NONCANONICAL_IDS = ["0{}", " {}", "+{}", "{} ", "-{}"]  # "-{}" is a trap for 0 only
FOREIGN_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r"]
CLIENT_IDS = [0, 1, 7, 70, -3]


def _spell(template, cid):
    # "7_0" reads as 70: an underscore between the digits of a multi-digit id
    return "_".join(str(cid)) if template == "_" else template.format(cid)


@settings(max_examples=300)
@given(
    lines=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(CLIENT_IDS), st.integers(1, 3), st.sampled_from(VALID_PARAMS)),
            st.sampled_from(BLANK_LINES),
        ),
        max_size=24,
    ),
    trap=st.one_of(
        st.none(),
        st.tuples(st.integers(0, 24), st.sampled_from(CLIENT_IDS),
                  st.sampled_from(NONCANONICAL_IDS + ["_"])),
    ),
    malformed=st.one_of(
        st.none(),
        st.tuples(st.integers(0, 24), st.sampled_from(CLIENT_IDS), st.sampled_from(INVALID_PARAMS)),
    ),
    foreign_break=st.one_of(
        st.none(), st.tuples(st.integers(0, 24), st.sampled_from(FOREIGN_BREAKS))
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_read_one_client_never_skips_a_line_of_the_client(
    tmp_path_factory, lines, trap, malformed, foreign_break, newline
):
    # trap: a valid next step of a client under a non-canonical spelling;
    # malformed: a client's next step with invalid parameters;
    # foreign_break: one line ended by a splitlines-only boundary
    last_t = {}

    def next_t(cid):
        last_t[cid] = last_t.get(cid, 0) + 1
        return last_t[cid]

    rendered = []
    for pos, line in enumerate(lines + [""]):
        if trap and trap[0] == pos:
            _, cid, template = trap
            rendered.append(f"{_spell(template, cid)}\t{next_t(cid)}\t{VALID_PARAMS[0]}")
        if malformed and malformed[0] == pos:
            _, cid, params = malformed
            rendered.append(f"{cid}\t{next_t(cid)}\t{params}")
        if isinstance(line, str):
            rendered.append(line)
            continue
        cid, gap, params = line
        last_t[cid] = last_t.get(cid, 0) + gap
        rendered.append(f"{cid}\t{last_t[cid]}\t{params}")
    breaks = [newline] * (len(rendered) - 1)
    if foreign_break and foreign_break[0] < len(breaks):
        breaks[foreign_break[0]] = foreign_break[1]
    text = "".join(line + end for line, end in zip(rendered, breaks + [""]))
    path = tmp_path_factory.mktemp("ledger") / "ledger.tsv"
    path.write_bytes(text.encode("ascii"))

    try:
        full = ParticipationLedger.read(path)
    except ValueError:
        full = None
    for cid in CLIENT_IDS + [5]:
        try:
            want = reference.client_steps_by_splitlines(text, cid)
        except ValueError:
            want = None  # one of the client's own lines is malformed
        try:
            got = ParticipationLedger.read(path, client_id=cid)
        except ValueError:
            # raising is always safe, but only a text the full read rejects
            assert full is None
            continue
        assert want is not None, f"client {cid}: a malformed line of the client went unread"
        assert got.steps(cid) == want, f"client {cid}: steps differ from every line of the client"
        assert got.clients() == ((cid,) if want else ())
        if full is not None:
            assert full.steps(cid) == want


@pytest.mark.parametrize(
    "spelling, cid", [("07", 7), (" 7", 7), ("+7", 7), ("7 ", 7), ("7_0", 70), ("-0", 0), ("00", 0)]
)
def test_read_rejects_noncanonical_client_id(tmp_path, spelling, cid):
    path = tmp_path / "ledger.tsv"
    path.write_text(f"1\t1\t{LINE}\n{spelling}\t1\t{LINE}\n", encoding="ascii")
    assert reference.client_steps_by_splitlines(path.read_text(), cid)  # int() reads a step
    for client_id in (None, cid, 1):
        with pytest.raises(ValueError, match="line 2"):
            ParticipationLedger.read(path, client_id=client_id)


_LINE_PIECES = [b"0", b"00", b"7", b"10", b"-", b"-0", b"-3", b"+", b"\t", b" ", b"\n", b"x", b"\r"]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(pieces=st.lists(st.sampled_from(_LINE_PIECES), max_size=24))
def test_bad_line_scan_is_the_canonical_start_predicate(pieces):
    # every "\n" is reported unless the line after it starts with a canonical
    # id and a tab or is blank up to the next "\n" or the end of the buffer
    data = b"\n" + b"".join(pieces)
    want = [pos for pos in range(len(data))
            if data[pos] == ord("\n") and not reference.is_canonical_line_start(data, pos + 1)]
    assert [match.start() for match in re.compile(accountant._BAD_LINE).finditer(data)] == want


@pytest.mark.parametrize(
    "line, ok",
    [(b"0\t", True), (b"7\t", True), (b"-12\t", True), (b"", True), (b" \t ", True),
     (b"00\t", False), (b"-0\t", False), (b"07\t", False), (b"+7\t", False), (b"7", False),
     (b"-\t", False), (b" 7\t", False), (b"\t1", False), (b" \r", False)],
)
def test_bad_line_scan_at_line_and_buffer_ends(line, ok):
    for data in (b"\n" + line, b"\n" + line + b"\n", b"\n" + line + b"\n1\t"):
        assert reference.is_canonical_line_start(data, 1) is ok
        assert (re.compile(accountant._BAD_LINE).match(data) is None) is ok


@pytest.mark.parametrize("brk", FOREIGN_BREAKS)
def test_read_rejects_splitlines_only_line_breaks(brk):
    text = f"0\t1\t{LINE}{brk}7\t2\t{LINE}\n"
    assert reference.client_steps_by_splitlines(text, 7)  # splitlines finds a step of 7
    for client_id in (None, 7, 0):
        with pytest.raises(ValueError, match=re.escape(f"line 1: {brk!r} is not")):
            ParticipationLedger.from_text(text, client_id)


def test_read_one_client_skips_other_clients_fields(tmp_path):
    # documented choice: other clients' lines are checked for a canonical id
    # at their start and not parsed, so their bad fields do not fail the read
    text = f"0\t1\t{LINE}\n1\t1\tjunk\n2\t5\t{LINE}\n2\t4\t{LINE}\n0\t3\t{LINE}\r\n\n"
    path = tmp_path / "ledger.tsv"
    path.write_text(text, encoding="ascii")
    with pytest.raises(ValueError):
        ParticipationLedger.read(path)
    got = ParticipationLedger.read(path, client_id=0)
    assert got.clients() == (0,)
    assert [t for t, _ in got.steps(0)] == [1, 3]
    assert got.steps(0)[0][1] == StepParams(q=0.1, sigma=1.0, clip=1.0, batch_size=2)
    with pytest.raises(ValueError, match="line 2"):
        ParticipationLedger.read(path, client_id=1)
    with pytest.raises(ValueError, match=r"client 2.*t=4 after t=5"):
        ParticipationLedger.read(path, client_id=2)
    assert ParticipationLedger.read(path, client_id=9).clients() == ()


def test_read_one_client_reads_a_last_line_without_a_newline():
    text = "3\t1\t0.1\t1.0\t1.0\t1\n4\t1\t0.1\t1.0\t1.0\t1\n3\t2\t0.1\t1.0\t1.0\t1"
    got = ParticipationLedger.from_text(text, 3)
    assert [t for t, _ in got.steps(3)] == [1, 2]
    with pytest.raises(ValueError, match="line 3: expected 6"):
        ParticipationLedger.from_text(text[:-4], 3)


# Edge cases of the reader, with what reading client 3 gives (its timesteps,
# or the error message) and what reading absent client 9 gives.
LONE_CR_ERROR = "ledger line 2: '\\r' is not a ledger line break"
READER_EDGES = {
    "empty": ("", [], []),
    "no final newline": (f"3\t1\t{LINE}\n4\t1\t{LINE}\n3\t2\t{LINE}", [1, 2], []),
    "trailing lone CR": (f"3\t1\t{LINE}\n4\t1\t{LINE}\r", LONE_CR_ERROR, LONE_CR_ERROR),
    "CRLF": (f"3\t1\t{LINE}\r\n4\t1\t{LINE}\r\n3\t2\t{LINE}\r\n", [1, 2], []),
    "blank lines": (f"\n \t\n3\t1\t{LINE}\n\n4\t1\t{LINE}\n\t\n3\t2\t{LINE}\n\n", [1, 2], []),
    "bad field": (f"4\t1\t{LINE}\r\n\r\n3\t2\tx\t1.0\t1.0\t2\n",
                  "ledger line 3: could not convert string to float: 'x'", []),
    "bad t": (f"4\t1\t{LINE}\n3\tx\t{LINE}\n",
              "ledger line 2: invalid literal for int() with base 10: 'x'", []),
    "bad batch_size": (f"3\t1\t{LINE}\n\n3\t2\t0.1\t1.0\t1.0\t2.5\n",
                       "ledger line 3: invalid literal for int() with base 10: '2.5'", []),
    "q out of range": (f"4\t1\t{LINE}\n3\t2\t2.0\t1.0\t1.0\t2\n",
                       "ledger line 2: q must lie in (0, 1], got 2.0", []),
    "out of order": (f"3\t2\t{LINE}\n4\t1\t{LINE}\n3\t2\t{LINE}\n",
                     "ledger line 3: out-of-order participation for client 3: t=2 after t=2", []),
    "short line": (f"4\t1\t{LINE}\n\n3\t2\t0.1\t1.0\n",
                   "ledger line 3: expected 6 tab-separated fields", []),
}


@pytest.mark.parametrize("case", READER_EDGES)
def test_reader_edges_agree_across_read_and_from_text(tmp_path, case):
    text, want, want_absent = READER_EDGES[case]
    path = tmp_path / "ledger.tsv"
    path.write_bytes(text.encode("ascii"))

    def outcome(read, cid):
        try:
            ledger = read()
        except ValueError as exc:
            return str(exc)
        return [t for t, _ in ledger.steps(cid)]

    for cid, expected in ((3, want), (9, want_absent)):
        reads = {
            "read": lambda: ParticipationLedger.read(path),
            "read one": lambda: ParticipationLedger.read(path, cid),
            "from_text one": lambda: ParticipationLedger.from_text(text, cid),
        }
        if cid == 9:
            del reads["read"]  # a full read also parses client 3's bad fields
        for name, read in reads.items():
            assert outcome(read, cid) == expected, (name, cid)


def test_read_rejects_non_ascii_as_an_ascii_decode_does(tmp_path):
    data = f"3\t1\t{LINE}\n4\t1\t{LINE}\xe9\n".encode("latin-1")
    path = tmp_path / "ledger.tsv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as want:
        path.read_text(encoding="ascii")
    for client_id in (None, 3, 9):
        with pytest.raises(UnicodeDecodeError) as got:
            ParticipationLedger.read(path, client_id)
        assert str(got.value) == str(want.value)
    with pytest.raises(UnicodeEncodeError) as encode:
        ParticipationLedger.from_text(data.decode("latin-1"), 3)
    assert encode.value.start == want.value.start == len(data) - 2


def test_read_one_client_names_the_line_of_a_bad_step(tmp_path):
    path = tmp_path / "ledger.tsv"
    path.write_text(f"1\t1\t{LINE}\n0\t1\t{LINE}\n\n1\t2\t0.1\t1.0\n", encoding="ascii")
    with pytest.raises(ValueError, match="line 4"):
        ParticipationLedger.read(path, client_id=1)


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


def test_write_failing_partway_keeps_old_ledger(tmp_path, half_full_disk):
    led, path, before = _ledger_file(tmp_path)
    written = half_full_disk("ledger.tsv")
    with pytest.raises(OSError):
        led.write(path)
    assert written and written[0] > 0  # the failure came after a partial write
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ledger.tsv"]


def test_write_fsyncs_the_whole_temporary_file_before_replacing(tmp_path, monkeypatch):
    # without the fsync an OS crash may persist the rename before the data,
    # leaving a short ledger that reads back as a shorter history
    events = []
    fsync, replace = os.fsync, os.replace

    def traced_fsync(fd):
        stat = os.fstat(fd)
        events.append(("fsync", stat.st_ino, stat.st_size))
        fsync(fd)

    def traced_replace(src, dst):
        events.append(("replace", os.stat(src).st_ino, os.fspath(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", traced_fsync)
    monkeypatch.setattr(os, "replace", traced_replace)

    def check(target, text, write):
        events.clear()
        write()
        assert [event[0] for event in events] == ["fsync", "replace"]
        (_, synced, size), (_, replaced, dst) = events
        assert synced == replaced and size == len(text) and dst == os.fspath(target)
        assert target.read_text(encoding="ascii") == text

    led, path, before = _ledger_file(tmp_path)
    check(path, led.to_text(), lambda: led.write(path))
    for target, text in [(path, before.decode("ascii")), (tmp_path / "curve.csv", "alpha,rdp\n")]:
        check(target, text, lambda: accountant.write_atomic(target, text))
    assert sorted(os.listdir(tmp_path)) == ["curve.csv", "ledger.tsv"]


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
        want = math.fsum(
            math.nextafter(renyi_step_bound(alpha, MechanismParams(q, sigma)).bound, math.inf)
            for q, sigma in ((0.01, 2.0), (0.05, 4.0))
        )
        # composition rounds each group's product up, then the sum
        assert v == math.nextafter(want, math.inf)


def test_compose_of_several_groups_is_never_below_their_exact_sum():
    # each group's count x bound rounds to nearest: summed and rounded up
    # by one ulp only, this ledger composed 5.2e-17 below the exact sum
    groups = [(0.1, 2.0, 118), (0.02, 1.0, 83)]
    led = ParticipationLedger()
    t = 0
    for q, sigma, count in groups:
        for _ in range(count):
            t += 1
            led.record(0, t, StepParams(q=q, sigma=sigma, clip=1.0, batch_size=1))
    (value,) = compose_client_rdp(led, 0, alphas=(2.0,)).values
    exact = sum(
        count * Fraction(renyi_step_bound(2.0, MechanismParams(q, sigma)).bound)
        for q, sigma, count in groups
    )
    assert Fraction(value) >= exact


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
    head, tail = compose_client_rdp(first, 0, alphas), compose_client_rdp(second, 0, alphas)
    for a, b, c in zip(total.values, head.values, tail.values):
        assert a == pytest.approx(b + c, rel=1e-12)


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


def test_epsilon_report_over_two_phases_keeps_its_rows():
    # rounds 1-40 run one (q, sigma) and rounds 41-100 another; clients 2 and 3
    # share a history.  The rows are the ones fedrdp.simulate's report gave
    # before the report moved into the accountant.
    first = StepParams(q=0.05, sigma=1.5, clip=1.0, batch_size=10)
    second = StepParams(q=0.01, sigma=2.0, clip=1.0, batch_size=10)
    rounds = {0: range(1, 101), 1: range(1, 101, 3), 2: range(2, 101, 3), 3: range(3, 101, 3),
              4: range(41, 101, 2), 5: range(1, 41, 5), 6: range(30, 60)}
    ledger = ParticipationLedger()
    for cid, ts in rounds.items():
        for t in ts:
            ledger.record(cid, t, first if t <= 40 else second)
    assert client_epsilon_report(ledger, 1e-5) == [
        (0, 100, 6.95275779485), (1, 34, 5.52252795646), (2, 33, 5.40269773833),
        (3, 33, 5.40269773833), (4, 30, 1.67151295509), (5, 8, 4.7962835667),
        (6, 30, 5.16267414802),
    ]


def test_step_bound_memo_is_capped():
    memo = accountant._cached_step_bound
    assert memo.cache_info().maxsize == accountant.STEP_BOUND_CACHE_SIZE < math.inf
    first = memo(2.0, 0.01, 2.0)
    # more distinct (alpha, q, sigma) than the cap holds evicts the first entry
    for i in range(accountant.STEP_BOUND_CACHE_SIZE + 8):
        memo(2.0, 0.01, 5.0 + i / 1024)
    info = memo.cache_info()
    assert info.currsize <= info.maxsize
    misses = info.misses
    again = memo(2.0, 0.01, 2.0)
    assert memo.cache_info().misses == misses + 1
    assert again == first == renyi_step_bound(2.0, MechanismParams(q=0.01, sigma=2.0)).bound


def _composed_curve(q, sigma, steps, alphas=DEFAULT_ALPHAS):
    """The curve of a client with `steps` steps at (q, sigma)."""
    led = ParticipationLedger()
    step = StepParams(q=q, sigma=sigma, clip=1.0, batch_size=1)
    for t in range(1, steps + 1):
        led.record(0, t, step)
    return compose_client_rdp(led, 0, alphas)


def test_calibration_and_composition_share_step_bounds(monkeypatch):
    q, sigma, steps = 0.0123, 30.456789, 7
    epsilon, alpha_star, orders = accountant._calibration_epsilon(
        q, sigma, steps, DEFAULT_ALPHAS, 1e-5)
    seen = []
    original = accountant._step_bound  # the float core the memo calls

    def counting(alpha, q, sigma):
        seen.append(alpha)
        return original(alpha, q, sigma)

    monkeypatch.setattr(accountant, "_step_bound", counting)
    composed = _composed_curve(q, sigma, steps)
    # only the orders calibration pruned are new to the memo
    assert 0 < len(seen) == len(DEFAULT_ALPHAS) - orders
    assert all(math.isfinite(v) for v in composed.values)
    assert rdp_to_dp(composed, 1e-5) == (PrivacyBudget(epsilon, 1e-5), alpha_star)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    alpha=st.sampled_from((*DEFAULT_ALPHAS, 3.5, 7.25, 300.5)),
    u_q=st.floats(0.0, 1.0),
    u_sigma=st.floats(0.0, 1.0),
)
def test_the_memo_takes_the_public_bound_from_its_float_core(alpha, u_q, u_sigma):
    # a cold memo gives renyi_step_bound's bound bit for bit, and the core's
    # tuple is its BoundResult's fields
    q = 1e-4 * 9000.0**u_q  # log-uniform over [1e-4, 0.9]
    sigma = 0.3 * (200 / 0.3) ** u_sigma  # log-uniform over [0.3, 200]
    accountant._cached_step_bound.cache_clear()
    memo = accountant._cached_step_bound(alpha, q, sigma)
    result = renyi_step_bound(alpha, MechanismParams(q, sigma))
    assert repr(memo) == repr(result.bound)
    fields = (result.bound, result.leading_sum, result.remainder, result.m, result.path)
    assert repr(divergence._step_bound(alpha, q, sigma)) == repr(fields)


@pytest.mark.parametrize("alpha, q, sigma", [(1025.0, 0.01, 0.0442), (2.0**40, 0.01, 1.0),
                                             (1.5, 0.1, 1e-4)])
def test_the_memo_takes_the_full_sampling_divergence_past_the_core_domain(alpha, q, sigma):
    # past the closed form's and the split series' domains the core raises
    # where renyi_step_bound does, and the memo takes q = 1's 2 alpha / sigma^2
    accountant._cached_step_bound.cache_clear()
    memo = accountant._cached_step_bound(alpha, q, sigma)
    with pytest.raises(OverflowError, match="domain"):
        renyi_step_bound(alpha, MechanismParams(q, sigma))
    with pytest.raises(OverflowError, match="domain"):
        divergence._step_bound(alpha, q, sigma)
    assert memo == math.nextafter(math.nextafter(2.0 * alpha / sigma / sigma, math.inf), math.inf)


def test_no_calibration_probe_composes_an_order_twice(monkeypatch):
    # the seed is composed first, and not again at its place in the walk
    probes = []
    composed, calibration_epsilon = accountant._composed, accountant._calibration_epsilon

    def counting_composed(groups, alpha):
        probes[-1].append(alpha)
        return composed(groups, alpha)

    def probe(*args):
        probes.append([])
        return calibration_epsilon(*args)

    monkeypatch.setattr(accountant, "_composed", counting_composed)
    monkeypatch.setattr(accountant, "_calibration_epsilon", probe)
    for epsilon, q, steps, delta in _LATTICE_TARGETS[::4]:
        _calibration_outcome(calibrate_sigma, PrivacyBudget(epsilon, delta), q, steps)
    assert sum(map(len, probes)) > len(probes) > 100
    assert all(len(set(alphas)) == len(alphas) for alphas in probes)


# --- conversion ------------------------------------------------------------


def _zero_curve():
    return RdpCurve(DEFAULT_ALPHAS, (0.0,) * len(DEFAULT_ALPHAS))


def test_convert_zero_curve_default_grid():
    budget, alpha = rdp_to_dp(_zero_curve(), DEFAULT_DELTA)
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
        rdp_to_dp(_zero_curve(), 0.0)


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
    assert _curve_epsilon(0.02, sigma, 100) <= 1.0
    assert _curve_epsilon(0.02, sigma * (1 - 1e-3), 100) > 1.0


@pytest.mark.parametrize("epsilon, q, steps", [(0.05, 0.01, 100), (0.02, 0.001, 10)])
def test_calibrate_meets_targets_won_above_order_300(epsilon, q, steps):
    # the composed curve's alpha* is 512 and 1025 here: calibration must see
    # those orders to find the smallest sigma, or to find one at all
    sigma = calibrate_sigma(PrivacyBudget(epsilon, 1e-5), q=q, steps=steps)
    budget, alpha_star = rdp_to_dp(_composed_curve(q, sigma, steps), 1e-5)
    assert budget.epsilon <= epsilon
    assert alpha_star > 300
    assert _curve_epsilon(q, sigma * (1 - 1e-3), steps) > epsilon


def test_calibrate_doubles_then_narrows_where_alpha_star_is_1025(monkeypatch):
    # epsilon used to jump here, at the sigma where order 1025 passed the
    # exponent cap, and the secant crawled along it for 29 probes
    sigmas = _count_calibration_sigmas(monkeypatch)
    calibrate_sigma(PrivacyBudget(0.02, 1e-5), q=0.001, steps=10)
    # the closed-form guess starts the lattice at 1.2, and doubling brackets
    # the target in [9.6, 19.2]; every later probe lies inside it
    assert accountant._first_probe(PrivacyBudget(0.02, 1e-5), 0.001, 10) == 1.2
    assert sigmas[:5] == [0.3 * 2**k for k in range(2, 7)]
    assert all(9.6 < sigma < 19.2 for sigma in sigmas[5:])
    assert len(sigmas) <= 20


def _calibration_outcome(search, target, q, steps):
    try:
        return search(target, q, steps)
    except CalibrationError as exc:
        return str(exc), exc.epsilon_at_bracket


_LATTICE_TARGETS = [
    (epsilon, q, steps, (1e-5, 1e-3)[i % 2])
    for i, (epsilon, q, steps) in enumerate(
        (epsilon, q, steps)
        for epsilon in (0.05, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
        for q in (1e-4, 1e-3, 0.01, 0.05, 0.2, 0.6)
        for steps in (1, 10, 100, 1000, 10**4)
    )
] + [
    (30.0, 0.3, 2, 1e-5),  # the guess meets, and the walk down misses at 0.3
    (1e4, 0.1, 1, 1e-5),  # pinned at 0.3
    (0.02, 0.5, 10**9, 1e-5),  # unreachable below CALIBRATION_SIGMA_MAX
    (1.0, 1e-300, 10, 1e-5),  # q^2 underflows
    (0.1116, 0.1045, 1719, 1e-5),  # 17 probes doubling from 0.3
]


def test_calibrate_lattice_start_matches_doubling_from_the_smallest_sigma(monkeypatch):
    sigmas = _count_calibration_sigmas(monkeypatch)
    probes = {"doubling": 0, "guess": 0}
    for epsilon, q, steps, delta in _LATTICE_TARGETS:
        target = PrivacyBudget(epsilon, delta)
        sigmas.clear()
        want = _calibration_outcome(reference.calibrate_sigma_doubling, target, q, steps)
        doubling = len(sigmas)
        sigmas.clear()
        got = _calibration_outcome(calibrate_sigma, target, q, steps)
        assert got == want, (epsilon, q, steps, delta)
        assert len(sigmas) == len(set(sigmas)) <= doubling, (epsilon, q, steps, delta)
        probes["doubling"] += doubling
        probes["guess"] += len(sigmas)
    assert probes["guess"] < 0.8 * probes["doubling"]


def test_calibrate_seeds_each_probe_with_the_last_alpha_star(monkeypatch):
    # each probe's walk, seeded from the previous probe, gives the unseeded
    # walk's epsilon and alpha*, so no sigma changes; it evaluates fewer orders
    original = accountant._calibration_epsilon
    orders = {"seeded": 0, "unseeded": 0}

    def both(q, sigma, steps, alphas, delta, seed, walk):
        got, unseeded = original(q, sigma, steps, alphas, delta, seed, walk), original(
            q, sigma, steps, alphas, delta)
        assert repr(got[:2]) == repr(unseeded[:2]), (q, sigma, steps, delta, seed)
        orders["seeded"] += got[2]
        orders["unseeded"] += unseeded[2]
        return got

    monkeypatch.setattr(accountant, "_calibration_epsilon", both)
    for epsilon, q, steps, delta in _LATTICE_TARGETS:
        _calibration_outcome(calibrate_sigma, PrivacyBudget(epsilon, delta), q, steps)
    assert orders["seeded"] < 0.6 * orders["unseeded"]
    # the two-loop walk with its stop at the first integer order over the best
    # epsilon evaluated 9737 (of 20222 unseeded); a lost skip shows here
    assert orders["seeded"] <= 9737, orders


def test_calibrate_walks_down_the_lattice_to_the_first_miss(monkeypatch):
    # at q = 0.9 the small-q guess overshoots: 1.2 and 0.6 meet the target and
    # 0.3 misses, so the bracket is [0.3, 0.6], one probe more than doubling
    target = PrivacyBudget(16.0, 1e-2)
    sigmas = _count_calibration_sigmas(monkeypatch)
    want = reference.calibrate_sigma_doubling(target, 0.9, 1)
    assert sigmas[:2] == [0.3, 0.6]
    sigmas.clear()
    assert calibrate_sigma(target, 0.9, 1) == want
    assert sigmas[:3] == [1.2, 0.6, 0.3]
    assert all(0.3 < sigma < 0.6 for sigma in sigmas[3:])


@pytest.mark.parametrize(
    "epsilon, delta, q, steps, first",
    [
        (1.0, 1e-5, 1e-300, 10, 0.3),  # q^2 underflows: the guess is 0
        (1e-300, 1e-5, 0.5, 10, 0.3 * 2**21),  # A is 0: the guess is inf
        (math.inf, 1e-5, 0.5, 10, 0.3),
        (1.0, 1e-5, 0.5, 10**400, 0.3 * 2**21),  # steps past float range
        (1e308, 1e-300, 1e-300, 1, 0.3),
    ],
)
def test_calibrate_first_probe_never_raises(epsilon, delta, q, steps, first):
    assert accountant._first_probe(PrivacyBudget(epsilon, delta), q, steps) == first


def test_calibrate_pins_to_lower_bracket_when_unconstrained():
    sigma = calibrate_sigma(PrivacyBudget(1e4, 1e-5), q=0.1, steps=1)
    assert sigma == 0.3


@pytest.mark.parametrize("epsilon, q, steps", [(4.0, 0.05, 100), (1e4, 0.1, 1)])
def test_calibrate_keeps_its_accepting_probe(epsilon, q, steps):
    # the (epsilon, alpha*) the returned sigma carries is the accepting probe's,
    # with the bits of an unseeded walk at that sigma
    sigma = calibrate_sigma(PrivacyBudget(epsilon, 1e-5), q=q, steps=steps)
    plain = float(sigma)
    fresh = accountant._calibration_epsilon(q, plain, steps, DEFAULT_ALPHAS, 1e-5)[:2]
    assert [repr(sigma), "%r" % sigma, f"{sigma:.12g}"] == [repr(plain), repr(plain), f"{plain:.12g}"]
    assert repr((sigma.epsilon, sigma.alpha_star)) == repr(fresh)


def test_calibrate_in_concurrent_threads_carries_each_walks_probe():
    # each thread's sigma carries its own accepting probe, whatever the
    # other threads calibrated in between
    targets = [(4.0, 0.05, 100), (16.0, 0.2, 5), (2.0, 0.02, 50), (8.0, 0.1, 20)]
    barrier = threading.Barrier(len(targets), timeout=60)
    results = {}

    def run(target):
        epsilon, q, steps = target
        barrier.wait()
        results[target] = calibrate_sigma(PrivacyBudget(epsilon, 1e-5), q=q, steps=steps)

    threads = [threading.Thread(target=run, args=(target,)) for target in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(set(results.values())) == len(targets)
    for (epsilon, q, steps), sigma in results.items():
        fresh = accountant._calibration_epsilon(q, float(sigma), steps, DEFAULT_ALPHAS, 1e-5)[:2]
        assert repr((sigma.epsilon, sigma.alpha_star)) == repr(fresh)
        assert sigma.epsilon <= epsilon


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
        calibrate_sigma(PrivacyBudget(1e-9, 1e-5), q=0.3, steps=100)
    assert exc.value.epsilon_at_bracket > 1e-9
    # doubling from CALIBRATION_SIGMA_LOW, the last sigma under
    # CALIBRATION_SIGMA_MAX is 0.3 * 2^21 = 629145.6, still short of the target
    with pytest.raises(CalibrationError, match="at sigma=629145.6") as exc:
        calibrate_sigma(PrivacyBudget(0.02, 1e-5), q=0.5, steps=10**9)
    assert exc.value.epsilon_at_bracket == pytest.approx(0.2523, rel=1e-3)


def _curve_epsilon(q, sigma, steps, alphas=DEFAULT_ALPHAS):
    return rdp_to_dp(_composed_curve(q, sigma, steps, alphas), 1e-5)[0].epsilon


@settings(derandomize=True, max_examples=20, deadline=None)
@given(epsilon=st.floats(0.3, 20.0), u_q=st.floats(0.0, 1.0), steps=st.integers(1, 3000))
def test_calibrate_lands_within_tolerance_of_the_threshold(epsilon, u_q, steps):
    q = 1e-3 * 300.0**u_q  # log-uniform over [1e-3, 0.3]
    sigma = calibrate_sigma(PrivacyBudget(epsilon, 1e-5), q=q, steps=steps)
    assert _curve_epsilon(q, sigma, steps) <= epsilon
    assert _curve_epsilon(q, sigma * (1 - 1e-3), steps) > epsilon


def _count_calibration_sigmas(monkeypatch):
    sigmas = []
    original = accountant._calibration_epsilon

    def counting(q, sigma, *args, **kwargs):
        sigmas.append(sigma)
        return original(q, sigma, *args, **kwargs)

    monkeypatch.setattr(accountant, "_calibration_epsilon", counting)
    return sigmas


@pytest.mark.parametrize(
    "epsilon, q, steps",
    [(1.2, 0.01, 600), (4.0, 0.05, 100), (16.0, 0.2, 5)]
    + [(eps, 128 / 30000, 250) for eps in (2.0, 4.0, 6.0, 8.0, 10.0)],
)
def test_calibrate_evaluates_few_sigmas(monkeypatch, epsilon, q, steps):
    # doubling from 0.3, then bisection down to rel_tol 1e-4, would evaluate
    # ~20; the Illinois method takes 8-13 on these targets
    sigmas = _count_calibration_sigmas(monkeypatch)
    calibrate_sigma(PrivacyBudget(epsilon, 1e-5), q=q, steps=steps)
    assert 0 < len(sigmas) == len(set(sigmas)) <= 14


def test_calibrate_rejects_a_grid_that_is_not_increasing(monkeypatch):
    sigmas = _count_calibration_sigmas(monkeypatch)
    with pytest.raises(ValueError, match="orders must be strictly increasing and > 1"):
        calibrate_sigma(PrivacyBudget(4.0, 1e-5), q=0.05, steps=100, alphas=(4.0, 2.0))
    with pytest.raises(ValueError, match="orders must be strictly increasing and > 1"):
        calibrate_sigma(PrivacyBudget(4.0, 1e-5), q=0.05, steps=100, alphas=(1.0, 2.0))
    with pytest.raises(ValueError, match="the order grid must not be empty"):
        calibrate_sigma(PrivacyBudget(4.0, 1e-5), q=0.05, steps=100, alphas=())
    assert sigmas == []  # rejected before any evaluation


def test_calibrate_fails_fast_below_the_conversion_floor(monkeypatch):
    # every D_alpha > 0, so epsilon > log(1/delta)/(alpha_max - 1) at any sigma;
    # the conversion rounds up
    sigmas = _count_calibration_sigmas(monkeypatch)
    floor = math.nextafter(math.log(1e5) / 1024, math.inf)
    for epsilon in (0.0, 1e-9, 0.011, floor):
        with pytest.raises(CalibrationError, match="unreachable") as exc:
            calibrate_sigma(PrivacyBudget(epsilon, 1e-5), q=0.3, steps=100)
        assert exc.value.epsilon_at_bracket == floor
    with pytest.raises(CalibrationError) as exc:
        calibrate_sigma(PrivacyBudget(0.5, 1e-5), q=0.01, steps=1, alphas=(2.0, 24.0))
    assert exc.value.epsilon_at_bracket == math.nextafter(math.log(1e5) / 23, math.inf)
    assert sigmas == []
    # just above the floor the search runs
    calibrate_sigma(PrivacyBudget(0.501, 1e-5), q=0.01, steps=1, alphas=(2.0, 24.0))
    assert sigmas


_GRIDS = [
    DEFAULT_ALPHAS,
    (48.0, 64.0),  # integer orders only, none below 48
    (4.0,),
    (2.5,),
    (1.5, 3.5, 7.25, 300.5, 512.0),  # floors 3 and 7 are not in the grid
]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    u_q=st.floats(0.0, 1.0),
    u_sigma=st.floats(0.0, 1.0),
    steps=st.integers(1, 5000),
    u_delta=st.floats(0.0, 1.0),
    alphas=st.sampled_from(_GRIDS),
)
def test_calibration_epsilon_is_the_converted_calibration_curve(
    u_q, u_sigma, steps, u_delta, alphas
):
    q = 1e-4 * 9000.0**u_q  # log-uniform over [1e-4, 0.9]
    sigma = 0.3 * (64 / 0.3) ** u_sigma
    delta = 1e-10 * 1e8**u_delta
    epsilon, alpha_star, orders = accountant._calibration_epsilon(q, sigma, steps, alphas, delta)
    budget, want_alpha = rdp_to_dp(_composed_curve(q, sigma, steps, alphas), delta)
    assert repr(epsilon) == repr(budget.epsilon)
    assert alpha_star == want_alpha
    assert 0 < orders <= len(alphas)


def test_calibration_epsilon_skips_orders_that_cannot_win():
    # the README target at a q no other test uses, so every bound is cold
    q, sigma, steps = 0.0512345, 2.188120005418291, 100
    memo = accountant._cached_step_bound
    before = memo.cache_info().misses
    epsilon, alpha_star, orders = accountant._calibration_epsilon(
        q, sigma, steps, DEFAULT_ALPHAS, 1e-5)
    pruned_misses = memo.cache_info().misses - before
    budget, want_alpha = rdp_to_dp(_composed_curve(q, sigma, steps), 1e-5)
    full_misses = memo.cache_info().misses - before
    assert (epsilon, alpha_star) == (budget.epsilon, want_alpha)
    assert pruned_misses == orders <= 12
    assert full_misses == len(DEFAULT_ALPHAS)
    # seeded at the README's alpha* = 6, a probe walks at most 4 orders
    seeded = accountant._calibration_epsilon(q, sigma, steps, DEFAULT_ALPHAS, 1e-5, seed=6.0)
    assert seeded[:2] == (epsilon, alpha_star)
    assert seeded[2] <= 4


def test_calibration_walk_skips_orders_above_a_fractional_order_that_exceeded():
    # 4.5's value, 34.66, exceeds the best epsilon 32.48 (at 4.0), so no order
    # above 4.5 can win: 4.75 is skipped on that value alone, as its
    # conversion term, its floor's value and its binned lower bound each leave
    # it below the best
    q, sigma, steps, delta, alphas = 0.005, 1.5, 100000, 1e-5, (4.0, 4.5, 4.75)
    got = accountant._calibration_epsilon(q, sigma, steps, alphas, delta)
    assert got == (32.47562554976279, 4.0, 2)
    curve = _composed_curve(q, sigma, steps, alphas)
    assert rdp_to_dp(curve, delta) == (PrivacyBudget(got[0], delta), 4.0)
    term = math.log(1 / delta) / 3.75
    for lower in (0.0, accountant._cached_step_bound(4.0, q, sigma),
                  accountant._binned_lower_bound(4.75, q, sigma)):
        assert steps * lower + term < got[0]


def test_calibration_walk_skips_fractional_orders_on_their_binned_lower_bound(monkeypatch):
    # at the sigma calibrated for (16, 0.2, 5), alpha* = 2; 1.75 (no floor >= 2)
    # and 2.5 (whose floor's value is too small) are skipped on their binned
    # lower bounds, so neither order's own bound is looked up
    q, sigma, steps = 0.2, 1.0512430084285838, 5
    looked_up = []
    memo = accountant._cached_step_bound
    monkeypatch.setattr(accountant, "_cached_step_bound",
                        lambda alpha, q, sigma: looked_up.append(alpha) or memo(alpha, q, sigma))
    got = accountant._calibration_epsilon(q, sigma, steps, DEFAULT_ALPHAS, 1e-5)
    assert got == (15.999118325168764, 2.0, 3)
    assert 1.75 not in looked_up and 2.5 not in looked_up
    monkeypatch.undo()
    assert rdp_to_dp(_composed_curve(q, sigma, steps), 1e-5) == (PrivacyBudget(got[0], 1e-5), 2.0)


def test_calibration_walk_skips_high_fractional_orders_on_their_floor(monkeypatch):
    # the binned lower bound is 0.0 at order 300.5, so only the value at its
    # floor 300 skips it: 300.5's own bound (its split series) is never looked up
    q, sigma, steps, delta = 0.024436909976044096, 8.599250193054768, 2, 1e-5
    alphas = (1.5, 3.5, 7.25, 300.5, 512.0)
    assert accountant._binned_lower_bound(300.5, q, sigma) == 0.0
    looked_up = []
    memo = accountant._cached_step_bound
    monkeypatch.setattr(accountant, "_cached_step_bound",
                        lambda alpha, q, sigma: looked_up.append(alpha) or memo(alpha, q, sigma))
    got = accountant._calibration_epsilon(q, sigma, steps, alphas, delta)
    assert got == (1.8423104296825643, 7.25, 3)
    assert 300.5 not in looked_up
    monkeypatch.undo()
    curve = _composed_curve(q, sigma, steps, alphas)
    assert rdp_to_dp(curve, delta) == (PrivacyBudget(got[0], delta), 7.25)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    u_q=st.floats(0.0, 1.0),
    u_sigma=st.floats(0.0, 1.0),
    u_steps=st.floats(0.0, 1.0),
    delta=st.sampled_from([1e-8, 1e-5, 1e-3, 0.5]),
    alphas=st.sampled_from(_GRIDS),
)
def test_seeded_calibration_walk_is_the_converted_curve(u_q, u_sigma, u_steps, delta, alphas):
    # every seed calibration can pass, and the fractional ones, changes only
    # which orders the walk evaluates
    q = 1e-4 * 9000.0**u_q  # log-uniform over [1e-4, 0.9]
    sigma = 0.3 * (200 / 0.3) ** u_sigma  # log-uniform over [0.3, 200]
    steps = round(10**5 ** u_steps)  # log-uniform over [1, 10^5]
    budget, want_alpha = rdp_to_dp(_composed_curve(q, sigma, steps, alphas), delta)
    want = (repr(budget.epsilon), want_alpha)
    for seed in (None, *alphas):
        epsilon, alpha_star, orders = accountant._calibration_epsilon(
            q, sigma, steps, alphas, delta, seed=seed)
        assert (repr(epsilon), alpha_star) == want, seed
        assert 0 < orders <= len(alphas)


def test_seeded_calibration_walk_on_an_infinite_curve():
    # sigma^2 underflows, so every order is +inf: the walk evaluates them all
    # and alpha* is the smallest order, as rdp_to_dp takes it, whatever the seed
    for seed in (None, *DEFAULT_ALPHAS):
        got = accountant._calibration_epsilon(0.1, 1e-200, 1, DEFAULT_ALPHAS, 1e-5, seed)
        assert got == (math.inf, DEFAULT_ALPHAS[0], len(DEFAULT_ALPHAS)), seed


def _improved_terms(alphas, delta):
    # the conversion of Balle et al. (arXiv:1905.09982) and Canonne, Kamath &
    # Steinke (arXiv:2004.00010), unclamped: negative at order 1025 once
    # delta >= ~3.6e-4, and not monotone in the order at delta = 0.5
    return {a: math.log((a - 1) / a) - (math.log(delta) + math.log(a)) / (a - 1) for a in alphas}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    u_q=st.floats(0.0, 1.0),
    u_sigma=st.floats(0.0, 1.0),
    u_steps=st.floats(0.0, 1.0),
    alphas=st.sampled_from(_GRIDS),
)
def test_calibration_walk_holds_under_another_conversion(u_q, u_sigma, u_steps, alphas):
    # the walk's skips assume only a conversion nondecreasing in the value, so
    # under terms of either sign and any shape it is still the first minimum
    # of the converted curve, whatever the seed
    q = 1e-4 * 9000.0**u_q  # log-uniform over [1e-4, 0.9]
    sigma = 0.3 * (200 / 0.3) ** u_sigma  # log-uniform over [0.3, 200]
    steps = round(10**4 ** u_steps)  # log-uniform over [1, 10^4]
    curve = _composed_curve(q, sigma, steps, alphas)
    for delta in (1e-8, 1e-5, 1e-3, 0.5):
        terms = _improved_terms(alphas, delta)
        epsilons = {a: accountant._round_up(v + terms[a]) for a, v in curve.items()}
        alpha_star = min(epsilons, key=epsilons.__getitem__)
        want = (repr(epsilons[alpha_star]), alpha_star)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(accountant, "_conversion_terms", _improved_terms)
            for seed in (None, *(a for a in alphas if a.is_integer())):
                epsilon, got_alpha, orders = accountant._calibration_epsilon(
                    q, sigma, steps, alphas, delta, seed=seed)
                assert (repr(epsilon), got_alpha) == want, (delta, seed)
                assert 0 < orders <= len(alphas)


@pytest.mark.parametrize("delta", [1e-12, 1e-5, 1e-3, 0.5, 0.999])
def test_conversion_term_is_nonincreasing_in_the_order(delta):
    # the walk in _calibration_epsilon tests each order on its own term, valid
    # under any conversion nondecreasing in the value; nonincreasing, the term
    # makes the orders a seeded walk skips on it the lowest ones.  The
    # improved conversion's term is not (at delta = 0.5 it rises from order 2
    # to 3), so there it would skip others
    terms = [accountant._round_up(t)
             for t in accountant._conversion_terms(DEFAULT_ALPHAS, delta).values()]
    assert all(a >= b > 0 for a, b in zip(terms, terms[1:]))


@pytest.mark.parametrize("alpha, q, sigma", [(300.5, 0.1, 1.0), (2.0**40, 0.01, 1.0)])
def test_order_without_a_bound_takes_the_full_sampling_divergence(caplog, alpha, q, sigma):
    # no closed form at 2^40 (outside its domain): composition takes q = 1's
    # 2 alpha / sigma^2, rounded up, without a log line.  Order 300.5 has the
    # split series' bound, between the oracle and 2 alpha / sigma^2
    shift = 2 * alpha / sigma**2  # exact here
    with caplog.at_level(logging.DEBUG, logger="fedrdp.accountant"):
        (value,) = _composed_curve(q, sigma, 1, (alpha,)).values
    assert not caplog.records
    if alpha == 300.5:
        r = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma))
        assert value == math.nextafter(r.bound, math.inf)
        assert renyi_divergence_quadrature(alpha, q, sigma) <= r.bound < shift  # 598.69 < 601
        return
    with pytest.raises(OverflowError):
        renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma))
    assert shift < value <= shift * (1 + 2.0**-50)


def test_step_bound_is_inf_only_where_the_full_sampling_divergence_overflows():
    # sigma^2 underflows to 0, and 2 alpha / sigma^2 overflows
    assert _composed_curve(0.1, 1e-200, 1, (1.5, 2.0)).values == (math.inf, math.inf)


def test_calibrate_logs_each_evaluation_at_debug(caplog, monkeypatch):
    sigmas = _count_calibration_sigmas(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="fedrdp.accountant"):
        sigma = calibrate_sigma(PrivacyBudget(4.0, 1e-5), q=0.05, steps=100)
    probes = list(sigmas)
    assert probes
    records = [r for r in caplog.records if r.name == "fedrdp.accountant"]
    assert {r.levelno for r in records} == {logging.DEBUG}
    *evaluations, last = [r.getMessage() for r in records]
    assert len(evaluations) == len(probes)
    orders_at = {}
    seed = None  # each probe's walk starts from the previous probe's alpha*
    for message, probe in zip(evaluations, probes):
        budget, alpha_star = rdp_to_dp(_composed_curve(0.05, probe, 100), 1e-5)
        orders = orders_at[probe] = accountant._calibration_epsilon(
            0.05, probe, 100, DEFAULT_ALPHAS, 1e-5, seed)[2]
        assert 0 < orders <= len(DEFAULT_ALPHAS)
        assert message == (
            f"calibrate: sigma={probe!r} epsilon={budget.epsilon!r} alpha*={alpha_star!r} "
            f"orders={orders}/{len(DEFAULT_ALPHAS)} seed={seed!r}"
        )
        seed = max(a for a in DEFAULT_ALPHAS if a.is_integer() and a <= alpha_star)
    # at the answer, fewer orders than the whole grid
    assert orders_at[sigma] < len(DEFAULT_ALPHAS)
    assert last == f"calibrate: returning sigma={sigma!r} after {len(probes)} sigmas"
