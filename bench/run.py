"""sglab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the sglab source in ``src/`` of this checkout.
Every op is one call of the public CLI entry ``sglab.cli.main(argv)`` in a
fresh child process, closed loop with one client; the argv comes from the
seed (see workloads.py).  After the child exits, every report is checked
against closed-form references (see checks.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: an untraced child and a traced child run the same fixed
op prefix.  Times are scaled by a calibration loop that runs between ops
(see README.md).  The last stdout line is the result object; the line
before it carries provenance, raw times, the tail percentile and sample
count, error_frac, and (traced) the full span table.  Exit code 0 means a result was printed; 1 means the benchmark
itself failed; 2 means bad arguments or no sglab source.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import CheckFailed, SweepPool, check_report

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# One child at a time, single-threaded BLAS: fits a 2-core machine and is
# the same on every commit.
BLAS_THREADS = 1
# Times are reported at the machine speed where the calibration loop
# (canary.Canary) takes this long; see README.md.
CANARY_REF_S = 0.009
# Op-time quantiles use the calibration-loop runs this close to each op.
LOCAL_WINDOW_S = 1.0
SETUP_PROBES = 6
DEADLINE_S = 170.0

# Metric names and units come from BENCHMARK.json, the one place they are defined.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

MIN_COVERAGE = 0.95


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def haar_flops(d: int) -> float:
    """Real flops of one complex d x d Householder QR with explicit Q.

    Computed from d, not counted: (4/3) d^3 real flops for R and as many
    for Q, times 4 for complex arithmetic.
    """
    return 32.0 / 3.0 * d ** 3


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("SGLAB_OUT_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = _child_env()

    def spawn(self, mode: str, **extra) -> dict:
        job = {"mode": mode, "workload": self.args.workload, "seed": self.args.seed,
               "seconds": self.args.seconds, "work": str(self.work), "root": str(ROOT), **extra}
        job_path = self.work / f"job-{mode}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left for the {mode} child")
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(job_path)],
                                  env=self.env, cwd=str(ROOT), capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child killed after {exc.timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result_path = self.work / f"result-{mode}.json"
        return json.loads(result_path.read_text(encoding="utf-8"))

    def check(self, pairs, pool=None) -> list[str]:
        """Check each (op, [wall, problem]) report; returns failure messages."""
        failures = []
        for op, (_, problem) in pairs:
            if problem is None:
                try:
                    with open(op.out, encoding="utf-8") as fh:
                        text = fh.read()
                    check_report(op.spec, text, pool)
                except OSError as exc:
                    problem = f"cannot read report: {exc}"
                except CheckFailed as exc:
                    problem = str(exc)
            if problem is not None:
                failures.append(f"{' '.join(op.argv[:2])} seed={op.spec['seed']}: {problem}")
            if os.path.exists(op.out):
                os.remove(op.out)
        return failures


def speed_factor(child_result: dict) -> float:
    """CANARY_REF_S over the child's mean calibration-loop duration."""
    return CANARY_REF_S / statistics.fmean(child_result["canary_s"])


def op_factors(timed: dict) -> list[float]:
    """Per op: CANARY_REF_S over the mean calibration-loop duration within
    LOCAL_WINDOW_S of the op's middle, or of the nearest loop run if none."""
    samples, times = timed["canary_s"], timed["canary_t"]
    factors = []
    for start, (wall, _) in zip(timed["op_start_s"], timed["ops"]):
        mid = start + wall / 2
        lo = bisect.bisect_left(times, mid - LOCAL_WINDOW_S)
        hi = bisect.bisect_right(times, mid + LOCAL_WINDOW_S)
        if lo == hi:
            nearest = min(range(len(times)), key=lambda i: abs(times[i] - mid))
            lo, hi = nearest, nearest + 1
        factors.append(CANARY_REF_S / statistics.fmean(samples[lo:hi]))
    return factors


def canary_drift(timed: dict, probes: list) -> dict:
    """The timing child's mean calibration loop against the set-up probes'.

    The probes run no sglab op, so a ratio outside the probes' own spread
    means that the ops changed the loop's speed (for example, with threads
    left running) or that the machine's speed changed more during the
    timing child than across the probes.  Such a run is flagged, not
    failed: its scaled times are suspect, its raw times are not.
    """
    probe_means = [statistics.fmean(probe["canary_s"]) for probe in probes]
    ref = statistics.median(probe_means)
    ratio = statistics.fmean(timed["canary_s"]) / ref
    spread = (max(probe_means) - min(probe_means)) / ref
    return {"ratio": ratio, "probe_spread": spread, "flagged": abs(ratio - 1.0) > spread}


def _end_to_end(runner: Runner, timed: dict, ops: list, probes: list, rss: list, info: dict) -> dict:
    raw = [wall for wall, _ in timed["ops"]]
    factor = speed_factor(timed)
    # The mean speed is linear in the time the machine spent in each of its
    # speed states, so one factor per run corrects it best.  A quantile is
    # not, so for quantiles each op is scaled by the state it ran in.
    scaled = [wall * f for wall, f in zip(raw, op_factors(timed))]
    tail_pct = workloads.TAIL_PCT[runner.args.workload]
    tail = percentile(scaled, tail_pct)
    items = sum(op.items for op in ops)
    setup = [child["setup_s"] * speed_factor(child) for child in probes + [timed]]
    info.update(tail_pct=tail_pct, ops_beyond_tail=sum(t > tail for t in scaled),
                speed_factor=factor, canary_drift=canary_drift(timed, probes), setup_samples_s=setup,
                rss_samples_mb=[child["peak_rss_mb"] for child in rss],
                raw={"items_per_s": items / sum(raw), "op_s.p50": statistics.median(raw),
                     "op_s.tail": percentile(raw, tail_pct)})
    return {
        "items_per_s": items / (factor * sum(raw)),
        "op_s.p50": statistics.median(scaled),
        "op_s.tail": tail,
        "peak_rss_mb": max(child["peak_rss_mb"] for child in rss),
        "setup_s": statistics.median(setup),
    }


def _per_layer(runner: Runner, timed: dict, info: dict, failures: list) -> tuple[dict, int]:
    name, seed = runner.args.workload, runner.args.seed
    prefix = workloads.first_ops(name, seed, str(runner.work), workloads.TRACE_CYCLES[name])
    traced = runner.spawn("trace")
    failures += runner.check(zip(prefix, traced["ops"]))
    biggest = max(range(len(prefix)), key=lambda i: prefix[i].items)
    alloc = runner.spawn("alloc", alloc_op=biggest)
    failures += runner.check(zip([prefix[biggest]], alloc["ops"]))

    trace = traced["trace"]
    table = trace["spans"]
    n = min(len(prefix), len(timed["ops"]))
    untraced_s = speed_factor(timed) * sum(wall for wall, _ in timed["ops"][:n])
    traced_s = speed_factor(traced) * sum(wall for wall, _ in traced["ops"][:n])
    factor = speed_factor(traced)
    values = {f"{m}.self_share": share for m, share in trace["module_self_share"].items()}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field in ("calls", "errors"):
            values[metric] = table.get(span, {}).get(field, 0)
        elif field == "self_s":
            values[metric] = table.get(span, {}).get(field, 0.0) * factor
    peaks = alloc["alloc_peak_bytes"]
    flops = 0.0
    for op in prefix:
        spec = op.spec
        if spec["pipeline"] == "sweep":
            flops += 2 * spec["trials"] * sum(haar_flops(d) for d in spec["d"])
        elif spec["pipeline"] in ("blindness", "absorbing") and spec["env_model"] == "haar":
            flops += 2 * haar_flops(spec["d"][0])
    values.update({
        "reports.emit_report.write_s": table.get("reports.emit_report", {}).get("self_s", 0.0) * factor,
        "reports.rows": trace["counts"].get("reports.rows", 0),
        "reports.bytes": trace["counts"].get("reports.bytes", 0),
        "experiment.alloc_peak_mb": peaks.get("experiment.run_local_mode", 0) / 2**20,
        "reports.alloc_peak_mb": peaks.get("reports.render_report", 0) / 2**20,
        "tensor.haar_unitary.flop_computed": flops,
        "trace.overhead_frac": 1.0 - untraced_s / traced_s,
        "trace.coverage_frac": trace["coverage_frac"],
        "trace.spans": trace["span_count"],
    })
    if trace["coverage_frac"] < MIN_COVERAGE:
        failures.append(f"cli.main spans cover {trace['coverage_frac']:.3f} of op wall time, "
                        f"below {MIN_COVERAGE}")
    info.update(traced_ops=len(prefix), speed_factor=factor, alloc_op=" ".join(prefix[biggest].argv[:2]),
                alloc_op_items=prefix[biggest].items, spans=table)
    return values, len(prefix) + 1


def run(args) -> int:
    if not (ROOT / "src" / "sglab" / "__init__.py").is_file():
        print(f"run.py: no sglab source at {ROOT / 'src' / 'sglab'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args, work)
        # Set-up probes before and after the timing child, so the median
        # samples the machine at both ends of the run.
        n_probes = 0 if args.trace else SETUP_PROBES // 2
        probes = [runner.spawn("setup") for _ in range(n_probes)]
        # A traced run times only the ops it will trace, untraced, for
        # trace.overhead_frac.
        timed = (runner.spawn("time", seconds=0, min_cycles=workloads.TRACE_CYCLES[args.workload])
                 if args.trace else runner.spawn("time", min_cycles=1))
        probes += [runner.spawn("setup") for _ in range(n_probes)]
        n_ops = len(timed["ops"])
        ops = []
        for cycle in workloads.cycles(args.workload, args.seed, str(work)):
            ops += cycle
            if len(ops) >= n_ops:
                break
        ops = ops[:n_ops]
        pool = SweepPool()
        failures = runner.check([(workloads.warmup(args.workload, str(work)), timed["warmup"])])
        failures += runner.check(zip(ops, timed["ops"]), pool)
        # The re-run overwrote op 0's report, so the check above read its bytes.
        if timed["rerun"][1] is not None:
            failures.append(f"re-run of op 0: {timed['rerun'][1]}")
        attempted = n_ops + 2
        run_problems = pool.problems()
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "provenance": timed["provenance"], "item_unit": workloads.ITEM_UNIT[args.workload],
                "ops": n_ops, "op_wall_s": sum(wall for wall, _ in timed["ops"])}
        if args.trace:
            metrics, extra = _per_layer(runner, timed, info, failures)
            attempted += extra
            units = PER_LAYER
        else:
            # After the checks above: these ops rewrite cycle 0's reports.
            cycle = workloads.first_ops(args.workload, args.seed, str(work), 1)
            rss_ops = workloads.rss_ops(args.workload, cycle)
            rss = [runner.spawn("rss", rss_op=i) for i in rss_ops]
            failures += runner.check(zip([cycle[i] for i in rss_ops], [child["ops"][0] for child in rss]))
            attempted += len(rss_ops)
            metrics = _end_to_end(runner, timed, ops, probes, rss, info)
            units = END_TO_END
        failed = len(failures)
        info.update(error_frac=failed / attempted, failures=failures[:10], run_problems=run_problems)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never empty
    for message in failures[:10] + run_problems:
        print(f"run.py: check failed: {message}", file=sys.stderr)
    if info.get("canary_drift", {}).get("flagged"):
        print(f"run.py: calibration loop drifted: {info['canary_drift']}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
