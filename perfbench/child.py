"""One femforge run in a fresh process, started by ``run.py``.

    python3 perfbench/child.py '<job as JSON>'

The job (see ``workloads.make_job``) names the workload, its inputs and the
``src`` directory to import femforge from.  The child imports femforge, as a
CLI user does on every run, and is then ready; with ``"setup_only"`` it stops
there.  Otherwise it runs the workload once under the speed probe, traced if
``"trace"`` is set, and gates the verdict.  It prints one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    import femforge  # noqa: F401
    import femforge.cli  # noqa: F401

    ready = time.monotonic()

    import layers
    import workloads
    from probe import SpeedProbe
    from spans import Tracer

    setup_probe = SpeedProbe()
    for _ in range(5):
        setup_probe.sample()
    result = {"ready": ready, "setup_speed": setup_probe.speed()}
    if job.get("setup_only"):
        print(json.dumps(result))
        return 0

    tracer = None
    if job.get("trace"):
        tracer = Tracer()
        layers.install(tracer)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        try:
            outcome = workloads.run(job)
        except Exception as err:  # a crash is a failed verdict, reported by the gate
            outcome = {"error": f"{type(err).__name__}: {err}"}
        end = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    if tracer is not None:
        tracer.restore()
        left = layers.leftover_wrappers()
        if left:
            print(f"perfbench: wrappers left after restore: {left}", file=sys.stderr)
            return 1
        speed = probe.speed()
        result["layers"] = {
            name: value * speed if layers.PER_LAYER[name] == "s" else value
            for name, value in layers.metrics(tracer, end - start, job.get("jobs", 1)).items()
        }
    attempted, failed = workloads.gate(job, outcome)
    result.update(
        wall_s=probe.reference_seconds(start, end),
        raw_wall_s=end - start,
        speed=probe.speed(),
        peak_rss_mb=usage / 1024,
        attempted=attempted,
        failed=failed,
        error=outcome.get("error"),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
