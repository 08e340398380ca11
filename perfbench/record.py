"""Record the reference reports that the benchmark measures drift against.

    python3 perfbench/record.py [WORKLOAD ...]

For each workload (default: all), runs one untraced call per CLI seed 0, 1,
2, ... until REFERENCE_SEEDS seeds have passed every check, and stores in
perfbench/reference/<workload>.json the names of the checks and, per passing
seed, the digest of the stripped canonical report and its numeric values.
Seeds whose call fails or raises are stored with the error under
`failing_seeds`; run.py draws its inputs from the passing seeds only and
prints the failing ones on every run.  Record again only when a change is
meant to alter the reports.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import REFERENCE_DIR, WORK_DIR, WORKLOADS, call, cli_args, write_config

REFERENCE_SEEDS = 16
MAX_SCANNED = 48


def record(workload):
    workdir = WORK_DIR / f"record-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    reports, failing = {}, {}
    try:
        for seed in range(MAX_SCANNED):
            if len(reports) == REFERENCE_SEEDS:
                break
            config = write_config(workdir, workload, seed)
            result = call(workdir, f"seed{seed}", cli_args(workload, config, workdir / "out"))
            if result.get("error"):
                failing[seed] = result["error"]
            elif result["exit_code"] != 0:
                failing[seed] = "failed checks: " + ", ".join(
                    name for name, ok in result["report"]["checks"].items() if not ok)
            else:
                reports[seed] = result["report"]
            print(f"{workload} seed {seed}: {failing.get(seed, 'pass')}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks = {tuple(r["checks"]) for r in reports.values()}
    if len(checks) != 1:
        raise SystemExit(f"{workload}: the set of checks depends on the seed")
    paths = sorted(set().union(*(r["values"] for r in reports.values())))
    body = {
        "workload": workload,
        "subcommand": WORKLOADS[workload][0],
        "config": WORKLOADS[workload][1],
        "checks": list(checks.pop()),
        "paths": paths,
        "seeds": {str(seed): {"sha256": r["sha256"],
                              "values": [r["values"].get(p) for p in paths]}
                  for seed, r in reports.items()},
        "failing_seeds": {str(seed): error for seed, error in failing.items()},
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{workload}.json").write_text(json.dumps(body, indent=1) + "\n",
                                                   encoding="utf-8")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(name)
