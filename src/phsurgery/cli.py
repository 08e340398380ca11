"""Command line runner: configure, execute suites, serialize reports.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad
configuration or usage.  Reports are JSON with a stable schema; floats use
the shortest round-trip decimal (the platform repr).  Timing, and the
suites' deterministic work counters (`timing.counters`), live in a dedicated
subtree so reports are comparable modulo wall-clock noise.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import traceback
from pathlib import Path

from .config import DEFAULT_TOLERANCES, LOWER_BOUNDS, CampaignConfig, ConfigError, SUITES
from .suites import SUITE_RUNNERS, _check, _suite

SCHEMA_VERSION = 1

_SUBCOMMANDS = {f"verify-{name}": (name,) for name in SUITES}
_SUBCOMMANDS["all"] = SUITES


def build_report(cfg: CampaignConfig, suite_names):
    """Run the requested suites and assemble the canonical report dict.

    A suite that raises is reported as one failed `suite-error` check whose
    witness names the exception; the remaining suites still run.
    """
    timings = {}
    suites = {}
    for name in suite_names:
        t0 = time.perf_counter()
        try:
            suites[name] = SUITE_RUNNERS[name](cfg)
        except Exception as exc:
            traceback.print_exc()
            suites[name] = _suite(name, [_check(
                "suite-error", False,
                "the suite ran to completion without raising",
                witness={"type": type(exc).__name__, "message": str(exc)})])
        timings[name] = time.perf_counter() - t0
    counters = {name: s.pop("counters") for name, s in suites.items() if "counters" in s}

    report = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "suites": suites,
        "passed": all(s["passed"] for s in suites.values()),
        "timing": {**{k: round(v, 3) for k, v in timings.items()},
                   "total": round(sum(timings.values()), 3), "counters": counters},
    }
    return report


def strip_timing(report):
    """Copy of the report without wall-clock fields (for comparisons)."""
    out = dict(report)
    out.pop("timing", None)
    return out


def canonical_json(report):
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)


def _flat_rows(key, val):
    """(quantity, value) rows of a measured entry; nested dict keys go in brackets."""
    if isinstance(val, dict):
        for sub, v in sorted(val.items()):
            yield from _flat_rows(f"{key}[{sub}]", v)
    else:
        yield key, val


def write_csv_extracts(report, outdir: Path):
    """Flat tables of the measured constants, one file per suite."""
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, suite in report["suites"].items():
        path = outdir / f"{name}_measured.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "passed", "quantity", "value"])
            for check in suite["checks"]:
                for key, val in sorted(check["measured"].items()):
                    for quantity, v in _flat_rows(key, val):
                        writer.writerow([check["name"], check["passed"], quantity, v])
        paths.append(path)
    return paths


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="phsurgery",
        description="Verification suites for the slow-down/blow-up surgery "
                    "on partially hyperbolic product flows.")
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS),
                        help="which verification suite(s) to run")
    parser.add_argument("--config", type=Path, default=None,
                        help="YAML campaign configuration (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    parser.add_argument("--out", type=Path, default=Path("reports"),
                        help="output directory for report files")
    parser.add_argument("--csv", action="store_true",
                        help="also write flat CSV extracts of measured constants")
    parser.add_argument("--strict", action="store_true",
                        help="refuse configurations that loosen any default tolerance")
    args = parser.parse_args(argv)

    try:
        cfg = CampaignConfig.load(args.config) if args.config else CampaignConfig()
        if args.seed is not None:
            data = cfg.to_dict()
            data["seed"] = args.seed
            cfg = CampaignConfig.from_dict(data)
        if args.strict:
            loosened = [k for k, v in cfg.tolerances.items() if (
                v < DEFAULT_TOLERANCES[k] if k in LOWER_BOUNDS else v > DEFAULT_TOLERANCES[k])]
            if loosened:
                raise ConfigError(f"strict mode: loosened tolerances {sorted(loosened)}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 2

    report = build_report(cfg, _SUBCOMMANDS[args.subcommand])
    report_path = args.out / f"{args.subcommand.replace('-', '_')}_report.json"
    report_path.write_text(canonical_json(report) + "\n", encoding="utf-8")
    if args.csv:
        write_csv_extracts(report, args.out)

    for name, suite in report["suites"].items():
        for check in suite["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"[{status}] {name}/{check['name']}")
            if not check["passed"]:
                witness = check.get("witness")
                print(f"       meaning: {check['meaning']}")
                print(f"       measured: {json.dumps(check['measured'], sort_keys=True)}")
                if witness is not None:
                    print(f"       witness: {json.dumps(witness, sort_keys=True)[:500]}")
    overall = "PASS" if report["passed"] else "FAIL"
    print(f"{overall}: report written to {report_path}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
