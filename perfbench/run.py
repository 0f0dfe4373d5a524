"""femforge benchmark: time to an exact PASS/FAIL verdict, end to end and per layer.

    python3 perfbench/run.py --workload verify-d2 --seed 1 --seconds 20 --trace 0

Run from anywhere; femforge is imported from the ``src`` directory next to
this one.  Each run of the workload is a fresh child process (``child.py``),
because a CLI user pays the import and the cold caches on every run.  Runs
repeat until ``--seconds`` have passed.  Set-up is measured in separate
set-up-only children as well.

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s``,
``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` every untraced run is
followed by a traced one, and the result holds the per-layer metrics of the
traced runs plus ``trace_overhead``.  Times are reference-speed seconds (see
``probe.py``).  Each value is the median over the runs.  The last line of
standard output is the JSON result; a readable table goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_ONLY_RUNS = 9
RUN_LIMIT_S = 175  # a run of the benchmark ends within 180 s


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("FEMFORGE_MAX_K", None)
    # Fixed string hashing, so that one seed repeats the same operations.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(job: dict, deadline: float) -> dict:
    """Run one child; return its result with ``setup_s`` added."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        capture_output=True, text=True, env=_child_env(),
        timeout=max(1.0, deadline - spawned),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = (result["ready"] - spawned) * result["setup_speed"]
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    job = dict(workloads.make_job(workload, seed), src=str(SRC))
    setups = [_spawn(dict(job, setup_only=True), deadline)["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
    untraced, traced = [], []
    window = time.monotonic()
    while not untraced or time.monotonic() - window < seconds:
        untraced.append(_spawn(job, deadline))
        if trace:
            traced.append(_spawn(dict(job, trace=True), deadline))
    runs = untraced + traced
    setups += [r["setup_s"] for r in runs]
    wall = statistics.median(r["wall_s"] for r in untraced)
    return {
        "job": job,
        "runs": runs,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": sorted({r["error"] for r in runs if r["error"]}),
        "end_to_end": {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        },
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in untraced),
        "speed": statistics.median(r["speed"] for r in untraced),
        "per_layer": dict(
            {name: statistics.median(r["layers"][name] for r in traced)
             for name in layers.PER_LAYER if name != "trace_overhead"},
            trace_overhead=statistics.median(r["wall_s"] for r in traced) / wall,
        ) if traced else {},
        "elapsed_s": time.monotonic() - started,
    }


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _table(m: dict, seed: int, trace: bool) -> str:
    job = m["job"]
    inputs = {k: job[k] for k in ("argv", "vertices", "cells") if k in job}
    lines = [
        f"workload {job['workload']}  seed {seed}  inputs {json.dumps(inputs)}",
        f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"{len(m['runs'])} child runs in {m['elapsed_s']:.1f} s",
    ]
    for name, value in m["end_to_end"].items():
        lines.append(f"  {name:<28} {value:12.4f} {UNITS[name]}")
    ratio = m["failed"] / m["attempted"] if m["attempted"] else 1.0
    lines.append(f"  {'check_fail_ratio':<28} {ratio:12.4f} ratio "
                 f"({m['failed']} of {m['attempted']} checks differ from the known answer)")
    lines.append(f"  {'raw wall (as measured)':<28} {m['raw_wall_s']:12.4f} s "
                 f"at speed {m['speed']:.3f} of the reference CPU")
    for err in m["errors"]:
        lines.append(f"  error: {err}")
    if trace:
        for name, value in m["per_layer"].items():
            lines.append(f"  {name:<28} {value:12.4f} {layers.PER_LAYER[name]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "femforge" / "__init__.py").is_file():
        print(f"perfbench: no femforge sources in {SRC}", file=sys.stderr)
        return 2
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(_table(m, args.seed, bool(args.trace)), file=sys.stderr)
    metrics = m["per_layer"] if args.trace else m["end_to_end"]
    units = layers.PER_LAYER if args.trace else UNITS
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
