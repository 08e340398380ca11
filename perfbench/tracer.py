"""Span recorder that times calls into phsurgery's modules from outside them.

The tracer replaces module attributes, `forms.MoserMap` methods on the class
and the entries of `suites.SUITE_RUNNERS` with wrappers that append a span
``[name, start, end, parent]`` to an in-memory list.  Replacing the attribute
(not a call site) also catches intra-module calls such as
``richardson_residual -> flow_slow``; `cli` holds the very dict
`SUITE_RUNNERS`, so its entries are replaced in place.  Counts that describe
the work done (rows, RK4 steps, crossings) are taken from the arguments and
return values of the same calls.  `restore()` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

# (module, attribute path) of every wrapped callable; the span name is
# "<module>.<attribute path>".
SPANS = (
    ("saddle", "_transit_batch"),
    ("saddle", "transit_campaign"),
    ("saddle", "flow_slow"),
    ("saddle", "variational_flow_slow"),
    ("blowup", "_lifted_flow_batch"),
    ("blowup", "lifted_slow_flow"),
    ("blowup", "commutation_campaign"),
    ("blowup", "kl_density"),
    ("cones", "inner_cone_campaign"),
    ("cones", "crossing_cone_campaign"),
    ("cones", "propagate"),
    ("cones", "rate_chain_check"),
    ("forms", "MoserMap.__call__"),
    ("forms", "MoserMap.inverse"),
    ("forms", "MoserMap.transport_residuals"),
    ("forms", "equivariance_audit"),
    ("forms", "verify_rho_volume"),
    ("forms", "form_max_at"),
    ("cli", "build_report"),
    ("cli", "canonical_json"),
    ("cli", "write_csv_extracts"),
    ("config", "CampaignConfig.load"),
)

SUITE_NAMES = ("saddle", "blowup", "cones", "volume", "moser", "homogeneous")

COUNTS = ("saddle.transit.rows", "saddle.transit.row_steps", "saddle.transit.crossings",
          "saddle.transit.trapped", "blowup.lifted.rows", "blowup.lifted.row_steps",
          "forms.moser.evals", "forms.moser.rk4_steps")

# Per-layer metrics: name -> (unit, better).  Everything here is printed by a
# traced run; run.py adds the report, trace and failure rows at the end.
LAYER_METRICS = {
    "saddle._transit_batch.calls": ("count", "lower"),
    "saddle._transit_batch.self_s": ("s", "lower"),
    "saddle.transit.rows": ("count", "lower"),
    "saddle.transit.row_steps": ("count", "lower"),
    "saddle.transit.crossings": ("count", "higher"),
    "saddle.transit.trapped": ("count", "lower"),
    "saddle.transit.row_steps_per_s": ("1/s", "higher"),
    "saddle.flow_slow.calls": ("count", "lower"),
    "saddle.flow_slow.self_s": ("s", "lower"),
    "saddle.variational_flow_slow.calls": ("count", "lower"),
    "saddle.variational_flow_slow.self_s": ("s", "lower"),
    "saddle.transit_campaign.self_s": ("s", "lower"),
    "blowup._lifted_flow_batch.calls": ("count", "lower"),
    "blowup._lifted_flow_batch.self_s": ("s", "lower"),
    "blowup.lifted.row_steps": ("count", "lower"),
    "blowup.lifted.rows_per_call": ("rows/call", "higher"),
    "blowup.lifted.row_steps_per_s": ("1/s", "higher"),
    "blowup.lifted_slow_flow.calls": ("count", "lower"),
    "blowup.commutation_campaign.self_s": ("s", "lower"),
    "blowup.kl_density.calls": ("count", "lower"),
    "blowup.kl_density.self_s": ("s", "lower"),
    "cones.inner_cone_campaign.self_s": ("s", "lower"),
    "cones.crossing_cone_campaign.self_s": ("s", "lower"),
    "cones.propagate.calls": ("count", "lower"),
    "cones.propagate.self_s": ("s", "lower"),
    "cones.rate_chain_check.self_s": ("s", "lower"),
    "forms.moser.evals": ("count", "lower"),
    "forms.moser.rk4_steps": ("count", "lower"),
    "forms.moser.rk4_steps_per_s": ("1/s", "higher"),
    "forms.MoserMap.transport_residuals.self_s": ("s", "lower"),
    "forms.equivariance_audit.self_s": ("s", "lower"),
    "forms.verify_rho_volume.self_s": ("s", "lower"),
    "forms.form_max_at.calls": ("count", "lower"),
    "forms.form_max_at.self_s": ("s", "lower"),
    **{f"suites.{name}.{kind}": ("s", "lower")
       for name in SUITE_NAMES for kind in ("s", "self_s")},
    "cli.build_report.self_s": ("s", "lower"),
    "cli.canonical_json.s": ("s", "lower"),
    "cli.write_csv_extracts.s": ("s", "lower"),
    "config.CampaignConfig.load.s": ("s", "lower"),
}


def _arguments(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_transits(counts, fn, args, kwargs, reports):
    step = _arguments(fn, args, kwargs)["step"]
    counts["saddle.transit.rows"] += len(reports)
    for rep in reports:
        if rep.exit_sphere == "trapped":
            counts["saddle.transit.trapped"] += 1
        else:
            counts["saddle.transit.crossings"] += 1
        # RK4 steps the row took: every started step, the crossing one included
        counts["saddle.transit.row_steps"] += math.ceil(rep.time / step)


def _count_lifted(counts, fn, args, kwargs, result):
    arguments = _arguments(fn, args, kwargs)
    rows, t, step = len(arguments["points"]), arguments["t"], arguments["step"]
    nsteps = 0 if t == 0 else max(1, math.ceil(abs(t) / step))
    counts["blowup.lifted.rows"] += rows
    counts["blowup.lifted.row_steps"] += rows * nsteps


def _count_moser(counts, fn, args, kwargs, result):
    counts["forms.moser.evals"] += 1
    counts["forms.moser.rk4_steps"] += args[0].steps


_HOOKS = {
    "saddle._transit_batch": _count_transits,
    "blowup._lifted_flow_batch": _count_lifted,
    "forms.MoserMap.__call__": _count_moser,
    "forms.MoserMap.inverse": _count_moser,
}


class Tracer:
    """Records spans in memory while installed; `restore()` undoes `install()`."""

    def __init__(self):
        self.spans = []   # [name, start, end, index of the parent span or -1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, fn, args, kwargs, out)
            return out

        return traced

    def install(self):
        for module_name, path in SPANS:
            owner = importlib.import_module(f"phsurgery.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            name = f"{module_name}.{path}"
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            setattr(owner, attr, replacement)
            self._undo.append((setattr, owner, attr, original))
        runners = importlib.import_module("phsurgery.suites").SUITE_RUNNERS
        for suite, runner in list(runners.items()):
            runners[suite] = self._wrap(f"suites.{suite}", runner)
            self._undo.append((dict.__setitem__, runners, suite, runner))
        return self

    def restore(self):
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    def summary(self):
        """Per span name: [calls, inclusive s, self s]; plus the covered time.

        Self time is a span's duration minus the durations of its direct
        children.  The covered time is the length of the union of all span
        intervals; the self times must add up to it.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_name = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = per_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        covered = 0.0
        reach = -math.inf
        for start, end in sorted((s[1], s[2]) for s in self.spans):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return per_name, covered


def layer_metrics(per_name, counts):
    """Per-layer metric values from a span summary and the work counts."""

    def span(name, field):
        calls, incl, own = per_name.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "s": incl, "self_s": own}[field]

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    out = {}
    for metric in LAYER_METRICS:
        head, field = metric.rsplit(".", 1)
        if field in ("calls", "s", "self_s"):
            out[metric] = span(head, field)
    out.update({name: counts[name] for name in COUNTS if name in LAYER_METRICS})
    lifted_calls = span("blowup._lifted_flow_batch", "calls")
    out["saddle.transit.row_steps_per_s"] = rate(
        counts["saddle.transit.row_steps"], span("saddle._transit_batch", "s"))
    out["blowup.lifted.rows_per_call"] = rate(counts["blowup.lifted.rows"], lifted_calls)
    out["blowup.lifted.row_steps_per_s"] = rate(
        counts["blowup.lifted.row_steps"], span("blowup._lifted_flow_batch", "s"))
    out["forms.moser.rk4_steps_per_s"] = rate(
        counts["forms.moser.rk4_steps"],
        span("forms.MoserMap.__call__", "s") + span("forms.MoserMap.inverse", "s"))
    return out
