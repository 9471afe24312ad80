"""Run one experiment config in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC holds ``config`` (an ExperimentConfig dict), ``out_dir``, ``jobs``,
``manifest_only``, ``trace``, ``request`` (workload, rep) and ``result``
(where to write the outcome).
The outcome records the seconds spent inside ``cli.run``, the seconds of
the workload's calibration kernel run just before and just after it, the
data-file digests from the manifest and, when traced, the spans and
counters.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from pathlib import Path


def timed(kernel) -> float:
    """Mean seconds of ``kernel`` over the (first four) CPUs this process may use.

    Each vCPU drifts between fast and slow on its own, and the scheduler
    moves ``cli.run`` and its workers across them, so the kernel runs
    once pinned to each.
    """
    cpus = os.sched_getaffinity(0)
    took = []
    try:
        for cpu in sorted(cpus)[:4]:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            kernel()
            took.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(took) / len(took)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    result_path = Path(spec["result"])
    try:
        from shrinktarget import cli

        tracer = None
        if spec["trace"]:
            import layertrace

            tracer = layertrace.Tracer()
            layertrace.install(tracer)
        from workloads import WORKLOADS

        kernel = WORKLOADS[spec["request"][0]].calibration
        config = cli.ExperimentConfig.from_dict(spec["config"])
        cal = 0.0
        if not spec["manifest_only"]:
            kernel()  # untimed: the first call pays numpy's lazy set-up
            cal = timed(kernel)
        start = time.perf_counter()
        manifest = cli.run(config, Path(spec["out_dir"]), jobs=spec["jobs"],
                           manifest_only=spec["manifest_only"])
        wall = time.perf_counter() - start
        if not spec["manifest_only"]:
            cal += timed(kernel)
        outcome = {"wall_s": wall, "cal_s": cal, "outputs": manifest.outputs}
        if tracer is not None:
            outcome["trace"] = dict(layertrace.finish(tracer), request=spec["request"])
    except Exception:
        result_path.write_text(json.dumps({"error": traceback.format_exc()}))
        return 1
    result_path.write_text(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
