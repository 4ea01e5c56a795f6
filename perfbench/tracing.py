"""Span tracing at fedrdp's module boundaries, from outside the package.

``instrument`` replaces the functions that one module of the package calls
in another with wrappers that record a span (name, start, end, parent and a
few attributes) per call; ``restore`` puts the originals back.  Spans stay in
memory until the run ends.  Nothing under ``src/`` changes: the wrappers are
installed on the importing module's names, which is where the caller looks
them up at call time.

``layer_metrics`` turns the spans of a run into the per-layer metrics, each
divided by the number of operations the run made.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "error", "child_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}
        self.error = None
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child_s

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "error": self.error, **self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so that each call records a span.

        before(args) and after(args, result) return attributes to store;
        before also runs for calls that raise.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent)
            if before is not None:
                span.attrs.update(before(args))
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    span.attrs.update(after(args, result))
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.seconds

        return traced


def _step_inputs(args):
    alpha, params = args[0], args[1]
    return {"alpha": float(alpha), "q": params.q, "sigma": params.sigma}


def _step_m(args, result):
    return {"m": result.m}


def _compose_steps(args):
    ledger, client = args[0], args[1]
    return {"steps": len(ledger.steps(client))}


def _compose_orders(args, result):
    return {"orders": len(result.alphas)}


def _ledger_lines(args, result):
    return {"lines": sum(result.participation_count(c) for c in result.clients())}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _train_steps(args, result):
    return {"client_steps": sum(len(rec.selected) for rec in result[1])}


def _artifact_bytes(args, result):
    return {"bytes": sum(os.path.getsize(p) for p in result.values())}


def instrument(tracer: Tracer, package) -> list:
    """Install the wrappers; returns what ``restore`` needs to undo them."""
    accountant, cli, simulate = package.accountant, package.cli, package.simulate
    step = ("divergence.step_bound", _step_inputs, _step_m)
    compose = ("accountant.compose", _compose_steps, _compose_orders)
    plan = [
        # the names cli imports from accountant, divergence and simulate
        (cli, "calibrate_sigma", ("accountant.calibrate", None, None)),
        (cli, "compose_client_rdp", compose),
        (cli, "rdp_to_dp", ("accountant.convert", None, None)),
        (cli, "renyi_step_bound", step),
        (cli, "renyi_divergence_quadrature", ("divergence.quadrature", None, None)),
        (cli, "run_training", ("simulate.train", None, _train_steps)),
        (cli, "write_artifacts", ("simulate.artifacts", None, _artifact_bytes)),
        (cli, "evaluate_accuracy", ("simulate.accuracy", None, None)),
        (cli, "generate_client_data", ("simulate.data", None, None)),
        (cli, "batch_size_trace", ("simulate.trace", None, None)),
        # the step bound as accountant calls it; data, report and composition
        # as simulate calls them
        (accountant, "renyi_step_bound", step),
        (simulate, "generate_client_data", ("simulate.data", None, None)),
        (simulate, "client_epsilon_report", ("simulate.report", None, None)),
        (simulate, "compose_client_rdp", compose),
        (simulate, "rdp_to_dp", ("accountant.convert", None, None)),
    ]
    undo = []
    for module, attr, (name, before, after) in plan:
        original = getattr(module, attr)
        undo.append((module, attr, original))
        setattr(module, attr, tracer.span(name, original, before, after))
    ledger_cls = accountant.ParticipationLedger
    read, write = ledger_cls.__dict__["read"], ledger_cls.__dict__["write"]
    undo += [(ledger_cls, "read", read), (ledger_cls, "write", write)]
    ledger_cls.read = classmethod(
        tracer.span("accountant.ledger_read", read.__func__, after=_ledger_lines))
    ledger_cls.write = tracer.span("accountant.ledger_write", write, after=_file_bytes)
    return undo


def restore(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# (name, unit) of every per-layer metric, in the order they are printed.
LAYER_METRICS = (
    ("divergence.step_bound.calls", "count/op"),
    ("divergence.step_bound.s", "s/op"),
    ("divergence.step_bound.s_low", "s/op"),
    ("divergence.step_bound.s_mid", "s/op"),
    ("divergence.step_bound.s_high", "s/op"),
    ("divergence.step_bound.s_frac", "s/op"),
    ("divergence.step_bound.m_mean", "1"),
    ("divergence.step_bound.repeat", "count/op"),
    ("divergence.step_bound.inf", "count/op"),
    ("divergence.step_bound.distinct", "count/op"),
    ("divergence.quadrature.calls", "count/op"),
    ("divergence.quadrature.s", "s/op"),
    ("accountant.calibrate.s", "s/op"),
    ("accountant.calibrate.sigma_evals", "count"),
    ("accountant.compose.calls", "count/op"),
    ("accountant.compose.s", "s/op"),
    ("accountant.compose.steps", "count/op"),
    ("accountant.compose.ns_per_step_order", "ns"),
    ("accountant.convert.s", "s/op"),
    ("accountant.ledger_read.s", "s/op"),
    ("accountant.ledger_read.lines", "count/op"),
    ("accountant.ledger_write.s", "s/op"),
    ("accountant.ledger_write.bytes", "bytes/op"),
    ("simulate.train.s", "s/op"),
    ("simulate.client_steps", "count/op"),
    ("simulate.client_step_us", "us"),
    ("simulate.data.calls", "count/op"),
    ("simulate.data.s", "s/op"),
    ("simulate.report.s", "s/op"),
    ("simulate.artifacts.s", "s/op"),
    ("simulate.artifacts.bytes", "bytes/op"),
    ("cli.self_s", "s/op"),
    ("trace.op_s", "s"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], ops: int, op_seconds: list[float], speed: float) -> dict:
    """Per-layer metrics of one traced run; totals are divided by ops.

    op_seconds are already at the reference speed; span times are scaled to
    it by the run's factor `speed`.

    Self time is a span's duration minus that of its child spans.  A step
    bound is a repeat when an earlier span of the run already evaluated the
    same (alpha, q, sigma), whatever either returned; it counts as inf when
    it raised OverflowError (no admissible truncation, which composition
    turns into +inf).
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total(name, seconds=lambda s: s.seconds):
        return speed * sum(seconds(s) for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    steps = named("divergence.step_bound")
    seen: set = set()
    repeat = 0
    bands = {"low": 0.0, "mid": 0.0, "high": 0.0, "frac": 0.0}
    for span in steps:
        alpha = span.attrs["alpha"]
        key = (alpha, span.attrs["q"], span.attrs["sigma"])
        repeat += key in seen
        seen.add(key)
        bands["low" if alpha <= 8 else "mid" if alpha < 48 else "high"] += speed * span.seconds
        if alpha != math.floor(alpha):
            bands["frac"] += speed * span.seconds
    ms = [s.attrs["m"] for s in steps if "m" in s.attrs]

    # distinct sigma among the step bounds each calibration asked for
    sigmas_by_parent: dict = {}
    for span in steps:
        sigmas_by_parent.setdefault(span.parent, set()).add(span.attrs["sigma"])
    sigma_evals = [len(sigmas_by_parent.get(index, ()))
                   for index, span in enumerate(spans) if span.name == "accountant.calibrate"]

    compose = named("accountant.compose")
    step_orders = sum(s.attrs.get("steps", 0) * s.attrs.get("orders", 0) for s in compose)
    train_self = total("simulate.train", lambda s: s.self_seconds)
    client_steps = attr_sum("simulate.train", "client_steps")

    return {
        "divergence.step_bound.calls": len(steps) / ops,
        "divergence.step_bound.s": total("divergence.step_bound") / ops,
        "divergence.step_bound.s_low": bands["low"] / ops,
        "divergence.step_bound.s_mid": bands["mid"] / ops,
        "divergence.step_bound.s_high": bands["high"] / ops,
        "divergence.step_bound.s_frac": bands["frac"] / ops,
        "divergence.step_bound.m_mean": statistics.fmean(ms) if ms else 0.0,
        "divergence.step_bound.repeat": repeat / ops,
        "divergence.step_bound.inf": sum(s.error == "OverflowError" for s in steps) / ops,
        "divergence.step_bound.distinct": len(seen) / ops,
        "divergence.quadrature.calls": len(named("divergence.quadrature")) / ops,
        "divergence.quadrature.s": total("divergence.quadrature") / ops,
        "accountant.calibrate.s": total("accountant.calibrate") / ops,
        "accountant.calibrate.sigma_evals": statistics.fmean(sigma_evals) if sigma_evals else 0.0,
        "accountant.compose.calls": len(compose) / ops,
        "accountant.compose.s": total("accountant.compose") / ops,
        "accountant.compose.steps": attr_sum("accountant.compose", "steps") / ops,
        "accountant.compose.ns_per_step_order": 1e9 * _ratio(
            total("accountant.compose", lambda s: s.self_seconds), step_orders),
        "accountant.convert.s": total("accountant.convert") / ops,
        "accountant.ledger_read.s": total("accountant.ledger_read") / ops,
        "accountant.ledger_read.lines": attr_sum("accountant.ledger_read", "lines") / ops,
        "accountant.ledger_write.s": total("accountant.ledger_write") / ops,
        "accountant.ledger_write.bytes": attr_sum("accountant.ledger_write", "bytes") / ops,
        "simulate.train.s": train_self / ops,
        "simulate.client_steps": client_steps / ops,
        "simulate.client_step_us": 1e6 * _ratio(train_self, client_steps),
        "simulate.data.calls": len(named("simulate.data")) / ops,
        "simulate.data.s": total("simulate.data") / ops,
        "simulate.report.s": total("simulate.report") / ops,
        "simulate.artifacts.s": total("simulate.artifacts", lambda s: s.self_seconds) / ops,
        "simulate.artifacts.bytes": attr_sum("simulate.artifacts", "bytes") / ops,
        "cli.self_s": total("cli", lambda s: s.self_seconds) / ops,
        "trace.op_s": statistics.median(op_seconds),
    }
