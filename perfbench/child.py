"""One phsurgery CLI call in a fresh interpreter, measured from the inside.

    python3 perfbench/child.py SPAWN_TIME RESULT_JSON MODE -- CLI_ARGS...

SPAWN_TIME is the parent's `time.monotonic()` just before it started this
process, so set-up time runs from interpreter start until `phsurgery` is
imported and the `--config` file of CLI_ARGS is parsed.  MODE `setup` stops
there.  MODE `run` then calls `phsurgery.cli.main(CLI_ARGS)` once, and MODE
`trace` does the same with the tracer installed.  The timings, the check
outcomes and the stripped report's digest and numeric values go to
RESULT_JSON.

In MODE `setup` and `run` a `hostspeed.Sampler` runs throughout, and
`setup_s`, `run_s` and `cpu_s` are times at speed 1 (see hostspeed.py);
`setup_wall_s` and `wall_s` are the raw wall times, less the time spent in
slices, and `speed` is the host speed during the call.  MODE `trace` runs no
sampler and reports the raw `wall_s` only.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import Sampler, scale


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _numeric_leaves(obj, path, out):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _numeric_leaves(obj[key], f"{path}/{key}", out)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _numeric_leaves(item, f"{path}[{i}]", out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[path] = obj
    return out


def _report_facts(cli, path):
    """Digest, size, check outcomes and numeric values of a written report."""
    raw = path.read_bytes()
    stripped = cli.strip_timing(json.loads(raw))
    text = cli.canonical_json(stripped)
    return {
        "report_bytes": len(raw),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "checks": {f"{suite}/{check['name']}": check["passed"]
                   for suite, body in stripped["suites"].items()
                   for check in body["checks"]},
        "values": _numeric_leaves(stripped["suites"], "", {}),
    }


def main(argv):
    spawn, result_path, mode = float(argv[1]), Path(argv[2]), argv[3]
    cli_args = argv[5:]
    src = Path(__file__).resolve().parent.parent / "src"
    sampler = Sampler().start() if mode != "trace" else None

    from phsurgery import cli
    from phsurgery.config import CampaignConfig

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"phsurgery imported from {cli.__file__}, not from {src}")
    CampaignConfig.load(cli_args[cli_args.index("--config") + 1])
    setup_wall = time.monotonic() - spawn
    result = {}
    if sampler is not None:
        setup_end = len(sampler.slices)
        setup = scale(sampler.slices[:setup_end], setup_wall)
        result.update(setup_s=setup["adj_s"], setup_wall_s=setup["wall_s"])
        if mode == "setup":
            sampler.stop()

    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer().install()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            result["exit_code"] = cli.main(cli_args)
        except (Exception, SystemExit) as exc:  # counted as failed checks by the parent
            result["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if sampler is not None:
                sampler.stop()
            wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
            if tracer is not None:
                tracer.restore()
            if sampler is not None:
                run = scale(sampler.slices[setup_end:], wall, cpu)
                result.update(run_s=run["adj_s"], cpu_s=run["adj_cpu_s"], wall_s=run["wall_s"],
                              speed=run["speed"])
            else:
                result["wall_s"] = wall
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = max(own, kids) / 1024.0  # ru_maxrss is in KiB
        if tracer is not None:
            per_name, covered = tracer.summary()
            result["spans"] = {"count": len(tracer.spans), "per_name": per_name,
                               "covered_s": covered, "counts": tracer.counts}
        if "error" not in result:
            out = Path(cli_args[cli_args.index("--out") + 1])
            report = out / f"{cli_args[0].replace('-', '_')}_report.json"
            result["report"] = _report_facts(cli, report)

    result_path.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv)
