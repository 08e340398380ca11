"""The names and arguments that perfbench reads from the package.

perfbench/tracer.py wraps module attributes by name and reads call
arguments through `inspect.signature`, and perfbench/run.py expects the
check names recorded in perfbench/reference.  A rename or a dropped argument
or check in src breaks only the benchmark runs, so these tests load
perfbench by path and hold the package to it.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from phsurgery import blowup, cli, forms, saddle
from phsurgery.blowup import BlowupPoint
from phsurgery.config import CampaignConfig
from phsurgery.dualnum import Dual
from phsurgery.saddle import BumpProfile, SaddleSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_as_install_does(tracer):
    for module_name, path in tracer.SPANS:
        owner = importlib.import_module(f"phsurgery.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        assert callable(original) or isinstance(original, classmethod), (module_name, path)


def test_hook_arguments_bind(tracer):
    spec = SaddleSpec(rates=(-1.0, 1.0))
    lifted_batch, transit_batch = blowup._lifted_flow_batch, saddle._transit_batch
    traced = tracer.Tracer().install()
    try:
        blowup._lifted_flow_batch(spec, BumpProfile.flat(0.5),
                                  BlowupPoint(0, np.tile([0.01, 0.2], (3, 1))), 0.1, step=0.05)
        reports = saddle._transit_batch(spec, BumpProfile(delta=0.1, rho0=0.5),
                                        np.array([[0.0, 0.1], [0.2, 0.0]]), step=0.05)
    finally:
        traced.restore()
    assert blowup._lifted_flow_batch is lifted_batch
    assert saddle._transit_batch is transit_batch
    counts = traced.counts
    assert counts["blowup.lifted.rows"] == 3
    assert counts["blowup.lifted.row_steps"] == 6
    assert counts["saddle.transit.rows"] == 2
    assert counts["saddle.transit.crossings"] == 2
    assert counts["saddle.transit.row_steps"] == sum(
        int(np.ceil(rep.time / 0.05)) for rep in reports)
    per_name, _ = traced.summary()
    assert per_name["blowup._lifted_flow_batch"][0] == 1
    assert per_name["saddle._transit_batch"][0] == 1


def test_moser_counts_and_form_spans(tracer):
    h = forms.MoserMap(alpha=lambda x: 1.0 + 0.1 * x[0] * x[2], radius=0.5, steps=7)
    traced = tracer.Tracer().install()
    try:
        rows = np.array([[0.1, 0.2, -0.1, 0.05], [0.0, 0.1, 0.2, 0.1]])
        fw, inv = h.transport_residuals(h(Dual(rows, np.ones(2))))
        h.inverse(rows)
        forms.form_max_at(forms.Form.volume(4), np.zeros((3, 4)))
    finally:
        traced.restore()
    assert fw.shape == inv.shape == (2,)
    # one forward and one inverse pass of the map, each of `steps` RK4 steps;
    # the transport residuals read the closed-form primitive and make none
    assert traced.counts["forms.moser.evals"] == 2
    assert traced.counts["forms.moser.rk4_steps"] == 2 * h.steps
    per_name, _ = traced.summary()
    assert per_name["forms.MoserMap.transport_residuals"][0] == 1
    assert per_name["forms.MoserMap.__call__"][0] == 1
    assert per_name["forms.MoserMap.inverse"][0] == 1
    assert per_name["forms.form_max_at"][0] == 1


def _workloads():
    # run.py imports the tracer by its bare name, as when run from perfbench/
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("workload", sorted(_workloads()))
def test_reports_hold_the_benchmark_check_names(workload):
    # perfbench counts an expected check missing from a report as failed; the
    # references may predate later checks, so they are a subset of the report
    subcommand, config = _workloads()[workload]
    reference = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())
    seed = min(int(s) for s in reference["seeds"])
    cfg = CampaignConfig.from_dict({**config, "seed": seed})
    report = cli.build_report(cfg, cli._SUBCOMMANDS[subcommand])
    names = {f"{suite}/{check['name']}" for suite, body in report["suites"].items()
             for check in body["checks"]}
    assert set(reference["checks"]) <= names
