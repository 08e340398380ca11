"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: all), at the inputs of benchmark seeds 0 and 1:

- two untraced and two traced calls at seed 0 pass every check and give
  byte-identical stripped reports;
- the two traced calls give identical counts (calls, rows, RK4 steps,
  crossings, Moser evaluations) and span self times that add up to the time
  the spans cover;
- one untraced call at seed 1 passes every check, so a later claim can be
  checked again on a seed not used while writing it.

It also checks that the metric names and units match BENCHMARK.json.  Exits
1 on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import (END_TO_END, REPORT_METRICS, ROOT, WORK_DIR, WORKLOADS, call, cli_args,
                 failed_checks, load_reference, write_config)
from tracer import LAYER_METRICS, layer_metrics


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        raise SystemExit(1)


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check(e2e == END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    check(layers == {**LAYER_METRICS, **REPORT_METRICS},
          "BENCHMARK.json per_layer matches the tracer and report metrics")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS")


def selftest(workload):
    reference = load_reference(workload)
    expected = reference["checks"]
    seeds = sorted(reference["seeds"], key=int)[:2]
    workdir = WORK_DIR / f"selftest-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        results = {}
        for seed in seeds:
            config = write_config(workdir, workload, int(seed))
            modes = ("run", "run", "trace", "trace") if seed == seeds[0] else ("run",)
            results[seed] = [call(workdir, f"{seed}-{i}", cli_args(workload, config,
                                                                   workdir / f"out{seed}-{i}"),
                                  mode)
                             for i, mode in enumerate(modes)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for seed, calls in results.items():
        failed = sum(failed_checks(r, expected) for r in calls)
        check(failed == 0, f"{workload} CLI seed {seed}: {len(calls)} calls, "
                           f"{failed}/{len(expected) * len(calls)} checks failed")
    first = results[seeds[0]]
    digests = {r["report"]["sha256"] for r in first}
    check(digests == {reference["seeds"][seeds[0]]["sha256"]},
          f"{workload}: stripped reports byte-identical across calls and to the reference")
    traced = [r["spans"] for r in first if "spans" in r]
    counts = [{name: value for name, value in layer_metrics(s["per_name"], s["counts"]).items()
               if LAYER_METRICS[name][0] == "count"} for s in traced]
    check(counts[0] == counts[1], f"{workload}: traced counts identical {counts[0]}")
    for spans in traced:
        self_sum = sum(entry[2] for entry in spans["per_name"].values())
        check(abs(self_sum - spans["covered_s"]) <= 1e-6 * max(1.0, spans["covered_s"]),
              f"{workload}: self times sum to {self_sum:.6f} s, spans cover "
              f"{spans['covered_s']:.6f} s")


if __name__ == "__main__":
    check_benchmark_json()
    for name in sys.argv[1:] or sorted(WORKLOADS):
        selftest(name)
