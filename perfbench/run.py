"""shrinktarget benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload count_digit --seed 1 --seconds 25 --trace 0

Run from the root of a source tree (the program is imported from ``src``).
The load is a closed loop: one child interpreter at a time, each running
one ``cli.run`` of the workload's config (``perfbench/workloads.py``), with
BLAS/OpenMP threads set to 1.  Only ``count_digit`` uses a process pool
(``--jobs 2``).

``--trace 0`` reports the end-to-end metrics:
  setup_s      median child lifetime of the config run with manifest_only
               (interpreter start, imports, config parse and validate),
               one before each timed child so both see the same machine;
  wall_cal     median over timed children of the seconds inside
               ``cli.run`` divided by the seconds of the workload's
               calibration kernel run in the same child just before and
               just after it, so the vCPU's drifting speed divides out
               (the record keeps the raw ``wall_s`` and ``cal_s`` too);
  peak_rss_mb  median over children of the largest resident set of any
               process in the child's tree (``os.wait4`` rusage);
  ok_frac      share of children that exit 0, pass the workload's output
               check and reproduce the reference digests.
``--trace 1`` reports the per-layer metrics of ``layertrace.summarize``
from traced ``--jobs 1`` children, alternated with untraced ``--jobs 1``
children that give ``trace.overhead_frac`` (compared as ``wall_cal``).

The reference is a traced ``--jobs 1`` child: the first traced child with
``--trace 1``, one more child at the end with ``--trace 0``.  The data-file
sha256s of every child must equal the reference's.  The last line of
stdout is the result object; the line before it is the full record
(every child, quartiles, digests, versions).  The metric names and units
are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import layertrace
from workloads import WORKLOADS, output_counters

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELDOUT_SEED = 20221017
MIN_REPS = 3
RUN_BUDGET_S = 170.0


def _metric_units(trace: int) -> dict:
    """Names and units of the reported metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Bench:
    """One benchmark run: launches children, checks and records them."""

    def __init__(self, workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.config = workload.config(seed)
        self.work = work
        self.deadline = deadline
        self.children: list = []
        self.checked: dict = {}  # output digests -> (problems, output counters)
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def launch(self, kind: str, jobs: int, trace: bool = False,
               manifest_only: bool = False) -> dict:
        rep_dir = self.work / f"{len(self.children):03d}-{kind}"
        rep_dir.mkdir()
        spec = {"config": self.config, "out_dir": str(rep_dir / "out"), "jobs": jobs,
                "manifest_only": manifest_only, "trace": trace,
                "request": [self.workload.name, len(self.children)],
                "result": str(rep_dir / "result.json")}
        (rep_dir / "spec.json").write_text(json.dumps(spec))
        timeout = max(1.0, self.deadline - time.monotonic())
        with (rep_dir / "stderr.txt").open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(rep_dir / "spec.json")],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                env=self.env, start_new_session=True)
            watchdog = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            lifetime = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = {"kind": kind, "jobs": jobs, "exit": proc.returncode,
                 "lifetime_s": lifetime, "rss_mb": usage.ru_maxrss / 1024.0,
                 "problems": []}
        result_path = rep_dir / "result.json"
        outcome = json.loads(result_path.read_text()) if result_path.exists() else {}
        if proc.returncode != 0 or "error" in outcome or not outcome:
            tail = (rep_dir / "stderr.txt").read_text(errors="replace")[-2000:]
            child["problems"].append(
                f"exit {proc.returncode}: {outcome.get('error') or tail}".strip())
        else:
            child["wall_s"] = outcome["wall_s"]
            child["cal_s"] = outcome["cal_s"]
            child["outputs"] = outcome["outputs"]
            if not manifest_only:
                problems, counters = self._check(rep_dir / "out", outcome["outputs"])
                child["problems"] += problems
                child["counters"] = counters
            if trace:
                child["layers"] = layertrace.summarize(outcome["trace"])
        shutil.rmtree(rep_dir)
        self.children.append(child)
        return child

    def _check(self, out_dir: Path, outputs: dict) -> tuple:
        key = tuple(sorted(outputs.items()))
        if key not in self.checked:
            try:
                self.checked[key] = (self.workload.check(out_dir, self.config["params"]),
                                     output_counters(out_dir, outputs))
            except Exception as exc:  # malformed output fails the child, not the run
                self.checked[key] = ([f"output check raised {exc!r}"], {})
        return self.checked[key]

    def loop(self, seconds: float, step) -> None:
        """Call ``step`` until ``seconds`` pass, at least MIN_REPS times.

        A step is not started when the median step so far would overrun
        the window or the run's budget.
        """
        start = time.monotonic()
        took: list = []
        while True:
            now = time.monotonic()
            guess = statistics.median(took) if took else 0.0
            if len(took) >= MIN_REPS and now + guess > start + seconds:
                break
            if now + guess > self.deadline - 10.0 and took:
                break
            step()
            took.append(time.monotonic() - now)

    def verify_determinism(self, reference: dict) -> None:
        """Every child's data digests must equal the traced reference's."""
        want = reference.get("outputs")
        for child in self.children:
            if child["kind"] == "setup" or "outputs" not in child:
                continue
            if want is None or child["outputs"] != want:
                child["problems"].append("data digests differ from the --jobs 1 traced pass")


def _quartiles(values: list) -> dict:
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _environment() -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit}


def _measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Launch the run's children; returns the traced ``--jobs 1`` reference."""
    jobs = bench.workload.jobs
    if trace:
        def pair():
            bench.launch("untraced", 1)
            bench.launch("traced", 1, trace=True)

        bench.loop(seconds, pair)
        if jobs != 1:
            bench.launch("timed", jobs)
        return next(c for c in bench.children if c["kind"] == "traced")

    def pair():
        bench.launch("setup", jobs, manifest_only=True)
        bench.launch("timed", jobs)

    bench.loop(seconds, pair)
    return bench.launch("reference", 1, trace=True)


def _good(bench: Bench, kind: str) -> list:
    return [c for c in bench.children if c["kind"] == kind and not c["problems"]]


def _end_to_end(bench: Bench) -> dict:
    timed = _good(bench, "timed")
    failed = sum(1 for c in bench.children if c["problems"])
    return {
        "setup_s": _quartiles([c["lifetime_s"] for c in _good(bench, "setup")]),
        "wall_s": _quartiles([c["wall_s"] for c in timed]),
        "cal_s": _quartiles([c["cal_s"] for c in timed]),
        "wall_cal": _quartiles([c["wall_s"] / c["cal_s"] for c in timed]),
        "peak_rss_mb": _quartiles([c["rss_mb"] for c in timed]),
        "ok_frac": {"median": 1.0 - failed / len(bench.children), "n": len(bench.children)},
    }


def _per_layer(bench: Bench, names) -> dict:
    """Quartiles over the traced children of ``names`` and every layer's self time."""
    traced = _good(bench, "traced")
    summary = {}
    for name in {*names, *(f"{layer}.self_s" for layer in layertrace.LAYERS)}:
        values = [c["layers"][name] if name in c["layers"] else c["counters"].get(name, 0)
                  for c in traced]
        summary[name] = _quartiles(values)
    traced_wall = _quartiles([c["wall_s"] / c["cal_s"] for c in traced])
    plain_wall = _quartiles([c["wall_s"] / c["cal_s"] for c in _good(bench, "untraced")])
    if traced_wall["n"] and plain_wall["n"]:
        summary["trace.overhead_frac"] = {
            "median": traced_wall["median"] / plain_wall["median"] - 1.0,
            "n": min(traced_wall["n"], plain_wall["n"])}
    return summary


def _as_recorded(workload: str, seed: int, digests) -> bool | None:
    """Whether ``digests`` equal the committed record's for the same seed.

    Reported, not enforced: a later change may alter the outputs on
    purpose, and the oracles in ``workloads.py`` still check them.
    """
    path = HERE / "results" / f"{workload}.trace0.json"
    if not path.is_file():
        return None
    recorded = json.loads(path.read_text())
    return recorded["digests"] == digests if recorded["seed"] == seed else None


def _dominant_layer(summary: dict) -> str:
    layers = {name.split(".")[0]: s.get("median", 0.0) for name, s in summary.items()
              if name.endswith(".self_s")}
    return max(layers, key=layers.get) if layers else "none"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {HELDOUT_SEED} is held out for confirming claims")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shrinktarget" / "__init__.py").is_file():
        print(f"no shrinktarget sources under {SRC}; run from the root of the source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work, started + RUN_BUDGET_S)
        reference = _measure(bench, args.seconds, args.trace)
        bench.verify_determinism(reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    units = _metric_units(args.trace)
    summary = _per_layer(bench, units) if args.trace else _end_to_end(bench)
    attempted = len(bench.children)
    failed = sum(1 for c in bench.children if c["problems"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": bench.config, "jobs": bench.workload.jobs,
        "environment": _environment(), "digests": reference.get("outputs"),
        "digests_as_recorded": _as_recorded(args.workload, args.seed,
                                            reference.get("outputs")),
        "summary": summary, "children": bench.children,
    }
    if args.trace:
        record["dominant_layer"] = _dominant_layer(summary)
    metrics = {name: {"value": summary[name].get("median", 0.0), "unit": unit}
               for name, unit in units.items() if name in summary}
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
