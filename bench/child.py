"""Benchmark child process: imports sglab and calls ``sglab.cli.main`` op after op.

    python3 child.py JOB.json

The job names a mode:

* ``setup``: time ``import sglab`` plus one config parse, then run the
  calibration loop a few times.
* ``time``: warm up, then run whole op cycles back to back (closed loop,
  one client) until ``seconds`` have passed, then re-run op 0 with the same
  argv to compare report hashes.  No tracing.
* ``trace``: warm up, install span wrappers, run the fixed trace prefix.
* ``alloc``: warm up, run one op under tracemalloc with peak recorders
  inside ``experiment.run_local_mode`` and ``reports.render_report``.
* ``rss``: run one op of the first cycle, with nothing before or after it,
  and record the process's peak RSS.

Every mode but ``rss`` runs the calibration loop (canary.py) now and then
between ops and records its durations.  The result goes to
``<work>/result-<mode>.json``; reports go to ``<work>``.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import spans
import workloads
from canary import Canary

# Passes config parsing and fails validation: the set-up probe does every
# step of a CLI run before the pipeline itself, and writes nothing.
SETUP_ARGV = ["run", "local", "--shots=0"]

ALLOC_SPANS = ("experiment.run_local_mode", "reports.render_report")

SETUP_CANARIES = 5


def _import_sglab(root: str):
    """Import sglab and its CLI; returns (module, setup seconds)."""
    t0 = time.perf_counter()
    import sglab
    import sglab.cli
    with redirect_stderr(io.StringIO()):
        rc = sglab.cli.main(SETUP_ARGV)
    setup_s = time.perf_counter() - t0
    src = Path(root, "src").resolve()
    if src not in Path(sglab.__file__).resolve().parents:
        raise SystemExit(f"sglab imported from {sglab.__file__}, not from {src}")
    if rc == 0:
        raise SystemExit(f"set-up probe {SETUP_ARGV} exited 0")
    return sglab, setup_s


def run_op(cli, op) -> tuple[float, str | None]:
    """(wall seconds, problem or None) for one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    problem = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # an op failure, not a benchmark failure
        rc, problem = None, f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if problem is None and rc != 0:
        problem = f"exit code {rc}: {err.getvalue().strip()[:300]}"
    elif problem is None and out.getvalue() != op.out + "\n":
        problem = f"stdout {out.getvalue()[:200]!r} does not name the report"
    return wall, problem


def peak_rss_mb() -> float:
    """This process image's peak RSS, from ``VmHWM``.

    Not ``ru_maxrss``: on Linux it keeps the high-water mark of the image
    that exec replaced, here the forked parent, so it reads at least the
    parent's RSS.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def provenance(sglab) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):  # older numpy: no dict mode
        pass
    return {
        "sglab": getattr(sglab, "__version__", "?"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


def run_ops(cli, ops, canary: Canary, starts: list | None = None) -> list:
    """(wall, problem) per op; appends each op's perf_counter() start to ``starts``."""
    out = []
    for op in ops:
        if starts is not None:
            starts.append(time.perf_counter())
        out.append(run_op(cli, op))
        canary.maybe_run()
    return out


def _timed_loop(cli, job, result, canary: Canary) -> None:
    """Whole cycles, at least ``min_cycles``, until ``seconds`` have passed;
    then op 0 once more."""
    ops, records, starts = [], [], []
    start = time.perf_counter()
    for done, cycle in enumerate(workloads.cycles(job["workload"], job["seed"], job["work"])):
        if done >= job["min_cycles"] and time.perf_counter() - start >= job["seconds"]:
            break
        records += run_ops(cli, cycle, canary, starts)
        ops += cycle
    first = _sha256(ops[0].out)
    wall, problem = run_op(cli, ops[0])
    if problem is None and _sha256(ops[0].out) != first:
        problem = "re-run of op 0 wrote other bytes"
    result["ops"] = records
    result["op_start_s"] = starts
    result["rerun"] = (wall, problem)


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    mode, name, work = job["mode"], job["workload"], job["work"]
    sglab, setup_s = _import_sglab(job["root"])
    result = {"setup_s": setup_s}
    if mode == "rss":
        # One CLI invocation, as a user makes it: no warm-up, no calibration loop.
        op = workloads.first_ops(name, job["seed"], work, 1)[job["rss_op"]]
        result["ops"] = [run_op(sglab.cli, op)]
        result["peak_rss_mb"] = peak_rss_mb()
        _write(work, mode, result)
        return 0
    canary = Canary()
    if mode == "setup":
        for _ in range(SETUP_CANARIES - 1):
            canary.run()
    else:
        cli = sglab.cli
        result["warmup"] = run_op(cli, workloads.warmup(name, work))
        if mode == "time":
            result["provenance"] = provenance(sglab)
            _timed_loop(cli, job, result, canary)
        else:
            prefix = workloads.first_ops(name, job["seed"], work, workloads.TRACE_CYCLES[name])
            if mode == "trace":
                tracer = spans.Tracer()
                spans.install(tracer)
                result["ops"] = run_ops(cli, prefix, canary)
                result["trace"] = spans.summarize(tracer.spans, sum(wall for wall, _ in result["ops"]))
                result["trace"]["counts"] = dict(tracer.counts)
            else:
                op = prefix[job["alloc_op"]]
                tracer = spans.AllocTracer()
                spans.install(tracer, only=ALLOC_SPANS)
                tracemalloc.start()
                result["ops"] = [run_op(cli, op)]
                tracemalloc.stop()
                result["alloc_peak_bytes"] = dict(tracer.peak_bytes)
    result["canary_s"] = canary.samples
    result["canary_t"] = canary.times
    _write(work, mode, result)
    return 0


def _write(work: str, mode: str, result: dict) -> None:
    with open(os.path.join(work, f"result-{mode}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
