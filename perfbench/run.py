"""phsurgery benchmark: the real CLI on three workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Load is a closed loop: one client starts
one `phsurgery` CLI call at a time, each in a fresh interpreter
(perfbench/child.py), and starts the next only after the previous one has
ended.  Calls repeat for about S seconds: a call starts when it would end
less than half a call past S (at least one call).  Every call is checked: each expected check must be present and
passed, the CLI must exit 0, and all calls of a run must give byte-identical
stripped reports.

--trace 0 prints the end-to-end metrics (medians over the calls).  Their
times are read at a fixed host speed: each child process samples the speed
of its core as it runs, and its times are scaled to speed 1
(perfbench/hostspeed.py), so that the drift of a shared host between phases
does not show as a change.
--trace 1 alternates untraced and traced calls and prints the per-layer
metrics of perfbench/tracer.py, the drift of the report from the reference
recorded for the seed, and the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".perfbench_work"

# Each workload keeps the code paths and checks of the config it is named
# after, scaled so that one call takes 5-15 s and a 30 s run holds 2-4 calls
# (perfbench/NOTES.md gives the reasons and the unscaled timings).
_REDUCED = {"samples": 64, "crossing_entries": 40, "cone_orbits": 8,
            "delta_sweep": [0.1, 0.01]}
WORKLOADS = {
    "campaign-reduced": ("all", {**_REDUCED, "moser_steps": 40, "step": 0.01}),
    "saddle-default": ("verify-saddle", {"samples": 250, "step": 0.01}),
    "moser-default": ("verify-moser", {"moser_steps": 200}),
}

SETUP_PROBES = 3          # set-up-only interpreters per run; the first warms caches
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
REPORT_METRICS = {
    "cli.report_bytes": ("bytes", "lower"),
    "cli.report.max_rel_drift": ("ratio", "lower"),
    "cli.report.changed_values": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "failed_ratio": ("ratio", "lower"),
    "host.speed": ("ratio", "higher"),
    "host.wall_run_s": ("s", "lower"),
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (no program, a call that crashed)."""


def child_env():
    env = dict(os.environ)
    env.pop("PHSURGERY_THREADS", None)
    env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "loadavg_1m": os.getloadavg()[0]}


def write_config(workdir, workload, cli_seed):
    config = dict(WORKLOADS[workload][1], seed=cli_seed)
    path = workdir / "campaign.yaml"
    path.write_text(json.dumps(config, sort_keys=True) + "\n", encoding="utf-8")  # JSON is YAML
    return path


def call(workdir, tag, args, mode="run"):
    """Start child.py in `mode` with CLI arguments `args`; wait and return its result."""
    result_path = workdir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), repr(time.monotonic()), str(result_path),
           mode, "--", *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{tag}: no result within {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchmarkError(f"{tag}: child exited with {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def cli_args(workload, config, out):
    return [WORKLOADS[workload][0], "--config", str(config), "--out", str(out), "--csv"]


def load_reference(workload):
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def failed_checks(result, expected):
    """Expected checks counted as failed in one call."""
    if result.get("error") or result.get("exit_code") != 0:
        return len(expected)
    seen = result["report"]["checks"]
    return sum(1 for name in expected if not seen.get(name, False))


def drift(values, reference):
    """(largest relative change, number of changed values) against a reference."""
    worst, changed = 0.0, 0
    for path in set(values) | set(reference):
        a, b = values.get(path), reference.get(path)
        if a == b:
            continue
        changed += 1
        if a is None or b is None:
            worst = max(worst, 1.0)
        else:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst, changed


def run_calls(workdir, workload, config, seconds, trace):
    """Closed loop of CLI calls for about `seconds`; returns (untraced, traced) results.

    A call starts while the previous one's duration, added to the time so
    far, would end it less than half a call past `seconds`, so runs overrun
    and underrun the window about equally.
    """
    plain, traced = [], []
    start = time.monotonic()
    last = 0.0
    while not plain or time.monotonic() - start + last / 2 <= seconds:
        t0 = time.monotonic()
        n = len(plain)
        plain.append(call(workdir, f"call{n}", cli_args(workload, config, workdir / f"out{n}")))
        if trace:
            traced.append(call(workdir, f"traced{n}",
                               cli_args(workload, config, workdir / f"tout{n}"), "trace"))
        last = time.monotonic() - t0
    return plain, traced


def end_to_end_metrics(setups, plain):
    metrics = {"setup_s": statistics.median(setups)}
    for name in ("run_s", "cpu_s", "peak_rss_mb"):
        metrics[name] = statistics.median(r[name] for r in plain)
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}


def per_layer_metrics(plain, traced, ref_values, failed_ratio, problems):
    """Medians over the traced calls, plus the report, trace and failure rows."""
    per_call = []
    for spans in (r["spans"] for r in traced):
        per_call.append(layer_metrics(spans["per_name"], spans["counts"]))
        self_sum = sum(entry[2] for entry in spans["per_name"].values())
        print(f"trace: {spans['count']} spans, self times {self_sum:.6f} s, "
              f"covered {spans['covered_s']:.6f} s", file=sys.stderr)
        if abs(self_sum - spans["covered_s"]) > 1e-6 * max(1.0, spans["covered_s"]):
            problems.append("span self times do not add up to the covered time")
    metrics = {}
    for name, (unit, _) in LAYER_METRICS.items():
        values = [m[name] for m in per_call]
        if unit == "count" and len(set(values)) > 1:
            problems.append(f"{name} differs between traced calls: {values}")
        median = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = (median(values), unit)

    reports = [r["report"] for r in plain + traced if "report" in r]
    drifts = [drift(r["values"], ref_values) for r in reports]
    extra = {
        "cli.report_bytes": statistics.median_low(r["report_bytes"] for r in reports)
        if reports else 0,
        "cli.report.max_rel_drift": max((d[0] for d in drifts), default=1.0),
        "cli.report.changed_values": max((d[1] for d in drifts), default=len(ref_values)),
        "trace.overhead_s": statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain),
        "failed_ratio": failed_ratio,
        "host.speed": statistics.median(r["speed"] for r in plain),
        "host.wall_run_s": statistics.median(r["wall_s"] for r in plain),
    }
    metrics.update((name, (value, REPORT_METRICS[name][0])) for name, value in extra.items())
    return metrics


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns (summary dict, metrics {name: (value, unit)})."""
    if not (ROOT / "src" / "phsurgery" / "cli.py").is_file():
        raise BenchmarkError(f"no phsurgery sources under {ROOT / 'src'}")
    reference = load_reference(workload)
    # --seed picks one of the CLI seeds whose reference report was recorded
    passing = sorted(reference["seeds"], key=int)
    cli_seed = int(passing[seed % len(passing)])
    workdir = WORK_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        config = write_config(workdir, workload, cli_seed)
        setups = []
        if not trace:
            for i in range(SETUP_PROBES):
                probe = call(workdir, f"setup{i}", cli_args(workload, config, workdir), "setup")
                if i:
                    setups.append(probe)
        plain, traced = run_calls(workdir, workload, config, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls = plain + traced
    print("call wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in calls), file=sys.stderr)
    print("call run_s (at speed 1): " + " ".join(f"{r['run_s']:.3f}" for r in plain),
          file=sys.stderr)
    print("call host speed: " + " ".join(f"{r['speed']:.3f}" for r in plain), file=sys.stderr)
    if not trace:
        print("setup wall_s: " + " ".join(f"{r['setup_wall_s']:.3f}" for r in setups + plain),
              file=sys.stderr)
        print("setup_s (at speed 1): " + " ".join(f"{r['setup_s']:.3f}" for r in setups + plain),
              file=sys.stderr)
    expected = reference["checks"]
    attempted = len(expected) * len(calls)
    failed = sum(failed_checks(r, expected) for r in calls)
    problems = []
    if len({r["report"]["sha256"] for r in calls if "report" in r}) > 1:
        problems.append("stripped reports differ between calls at one seed")
    if trace:
        ref = reference["seeds"][str(cli_seed)]
        metrics = per_layer_metrics(plain, traced, dict(zip(reference["paths"], ref["values"])),
                                    failed / attempted, problems)
    else:
        metrics = end_to_end_metrics([r["setup_s"] for r in setups + plain], plain)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    summary = {"correct": failed == 0 and not problems, "attempted": attempted,
               "failed": failed, "calls": len(plain), "traced_calls": len(traced),
               "cli_seed": cli_seed, "failing_seeds": reference["failing_seeds"]}
    return summary, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = machine()  # the load average is the one at start
    try:
        summary, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: seed {args.seed} (CLI seed {summary['cli_seed']}), "
          f"{summary['calls']} calls, {summary['traced_calls']} traced, "
          f"{summary['failed']}/{summary['attempted']} checks failed")
    kinds = {}
    for cli_seed, error in summary["failing_seeds"].items():
        kind = error if error.startswith("failed checks") else error.split(":")[0]
        kinds.setdefault(kind, []).append(cli_seed)
    for kind, seeds in kinds.items():
        print(f"known failure at the reference commit, not used as input: {kind} "
              f"on CLI seeds {', '.join(seeds)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
