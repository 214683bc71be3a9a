"""Tests of the benchmark itself: python3 -m pytest bench -q"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import canary  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, SweepPool, check_report, parse_report  # noqa: E402


# --- workload generator -----------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    def argvs(seed):
        return [op.argv for op in workloads.first_ops(name, seed, "w", 2)]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_cycle_composition_does_not_depend_on_seed(name):
    def fixed_d(spec):
        # The seed draws a sweep's small d values, not how many or its large d.
        d = spec.get("d", [])
        if spec["pipeline"] == "sweep":
            return len(d), [x for x in d if x not in workloads.SWEEP_SMALL_D]
        return d

    def shape(seed):
        ops = workloads.first_ops(name, seed, "w", 1)
        return sorted((op.spec["pipeline"], op.spec.get("shots", 0), op.spec.get("trials", 0),
                       fixed_d(op.spec)) for op in ops)

    assert shape(1) == shape(2)


def test_preps_are_normalized():
    rng = workloads._rng("test", 0)
    for make in (workloads.local_prep, workloads.random_prep):
        for _ in range(200):
            a, b = make(rng)
            assert abs(abs(a) ** 2 + abs(b) ** 2 - 1) < 1e-15


# --- span self time ----------------------------------------------------------

def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping, so the
    # union [1, 6] counts once); a has child c [2, 3]; d [12, 13] is a
    # second root.
    tree = [
        ["cli.main", 0.0, 10.0, -1, False],
        ["tensor.a", 1.0, 4.0, 0, False],
        ["tensor.b", 3.0, 6.0, 0, True],
        ["observables.c", 2.0, 3.0, 1, False],
        ["cli.main", 12.0, 13.0, -1, False],
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 3.0, 1.0, 1.0]
    summary = spans.summarize(tree, op_wall_s=12.0)
    assert summary["spans"]["cli.main"] == {"calls": 2, "self_s": 6.0, "errors": 0}
    assert summary["spans"]["tensor.b"]["errors"] == 1
    assert summary["module_self_share"]["tensor"] == pytest.approx(5.0 / 12.0)
    assert summary["module_self_share"]["observables"] == pytest.approx(1.0 / 12.0)
    assert summary["coverage_frac"] == pytest.approx(11.0 / 12.0)


def test_child_span_clipped_to_parent():
    tree = [["cli.main", 0.0, 2.0, -1, False], ["tensor.a", 1.0, 5.0, 0, False]]
    assert spans.self_times(tree) == [1.0, 4.0]


def test_install_traces_by_name_imports_and_validators(tmp_path):
    # In a subprocess: install() rebinds sglab's modules for the process.
    code = f"""
import io, json, contextlib, sys
sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]
import sglab, sglab.cli, spans
from sglab import experiment, tensor, decoherence
tracer = spans.Tracer()
spans.install(tracer)
assert experiment.apply_operator is tensor.apply_operator is sglab.apply_operator
assert decoherence.haar_unitary is tensor.haar_unitary
assert experiment.apply_operator.__wrapped__ is not None
out = {str(tmp_path / 'b.jsonl')!r}
with contextlib.redirect_stdout(io.StringIO()):
    assert sglab.cli.main(["run", "blindness", "--d=2", "--seed=3", "--out=" + out]) == 0
    assert sglab.cli.main(["run", "joint", "--observables=IZZ,XXX", "--seed=3", "--out=" + out]) == 0
print(json.dumps(spans.summarize(tracer.spans, 1.0)["spans"]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    table = json.loads(proc.stdout)
    for name in ("cli.main", "tensor.apply_operator", "tensor.haar_unitary", "tensor.factor_out",
                 "tensor.PureState.init", "tensor.DensityMatrix.init",
                 "decoherence.DetectorModel.init", "decoherence.DetectorModel.sample",
                 "decoherence.rho_t4_full", "observables.measure_projective",
                 "observables.joint_circuit_izz", "observables.joint_circuit_xxx",
                 "reports.render_report.json-lines", "reports.emit_report", "sampling.split"):
        assert table[name]["calls"] >= 1, name
    assert table["cli.main"]["calls"] == 2
    assert "reports.format_value" not in table


# --- output checks -----------------------------------------------------------

def _run_op(op):
    import contextlib
    import io

    import sglab.cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert sglab.cli.main(op.argv) == 0
    return Path(op.out).read_text(encoding="utf-8")


def _ops(work: str) -> dict:
    rng = workloads._rng("test", 1)
    return {
        "local-json": workloads.local_op(rng, work, "lj", 2000, "Z", False, "json-lines"),
        "local-csv": workloads.local_op(rng, work, "lc", 2000, "X", True, "csv"),
        "sweep": workloads.sweep_op(rng, work, "sw", [4, 8], 5, "geometric", "csv"),
        "joint": workloads.joint_op(rng, work, "jo", ["IZZ", "XXX", "ZIZ", "ZZI"], "json-lines"),
        "condition": workloads.simple_op(rng, work, "co", "condition", "json-lines"),
        "ordinary": workloads.simple_op(rng, work, "or", "ordinary", "csv"),
        "blindness": workloads.detector_op(rng, work, "bl", "blindness", 2, "haar", "uniform"),
        "absorbing": workloads.detector_op(rng, work, "ab", "absorbing", 4, "phases", "geometric"),
    }


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("reports"))
    return {key: (op, _run_op(op)) for key, op in _ops(work).items()}


def _render(config: dict, columns: dict, summary: dict, fmt: str) -> str:
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    if fmt == "json-lines":
        lines = [json.dumps({"record": "config", **config})]
        lines += [json.dumps({"record": "row", **row}) for row in rows]
        lines.append(json.dumps({"record": "summary", **summary}))
    else:
        lines = ["# config=" + json.dumps(config), ",".join(columns)]
        lines += [",".join(str(v) for v in row.values()) for row in rows]
        lines.append("# summary=" + json.dumps(summary))
    return "\n".join(lines) + "\n"


def _mutated(op, text, mutate) -> str:
    config, columns, summary = parse_report(text, op.spec["format"], op.spec["pipeline"])
    mutate(config, columns, summary)
    return _render(config, columns, summary, op.spec["format"])


def test_pristine_reports_pass(reports):
    for op, text in reports.values():
        check_report(op.spec, text)


def test_rerendered_reports_pass(reports):
    # The corruption tests below re-render reports; unmutated, they pass.
    for op, text in reports.values():
        check_report(op.spec, _mutated(op, text, lambda *_: None))


def _all_words(word, product):
    def mutate(config, columns, summary):
        n = len(columns["word"])
        columns["word"] = [word] * n
        columns["product"] = [product] * n
        summary.update(word_counts={word: n}, product_mean=float(product),
                       mean_s=float(2 * int(word[0]) - 1), mean_a_up=float(2 * int(word[1]) - 1),
                       mean_a_dn=float(2 * int(word[2]) - 1), product_always_plus_one=product == 1)
    return mutate


def _set_summary(key, value):
    return lambda config, columns, summary: summary.__setitem__(key, value)


def _set_cell(column, index, value):
    return lambda config, columns, summary: columns[column].__setitem__(index, value)


def _set_row0(key, value):
    return lambda config, columns, summary: columns[key].__setitem__(0, value)


CORRUPTIONS = [
    ("local-json", "word/product mismatch", _set_cell("product", 3, 7)),
    ("local-json", "shot index gap", _set_cell("shot", 5, 99)),
    ("local-json", "counts differ from rows", _set_summary("word_counts", {"001": 1})),
    ("local-json", "consistent but off the Born statistics", _all_words("110", -1)),
    ("local-json", "config echo seed", lambda c, cols, s: c.__setitem__("seed", 1)),
    ("local-csv", "summary mean inconsistent", _set_summary("mean_s", 0.5)),
    ("sweep", "offdiag inconsistent", _set_cell("offdiag_abs", 2, "0.5")),
    ("sweep", "|f|^2 above 1", _set_cell("f_abs2_up", 0, "1.5")),
    ("sweep", "row order", _set_cell("trial", 1, "0")),
    ("joint", "readout off the eigenvalue",
     lambda c, cols, s: (cols["readout"].__setitem__(1, -cols["readout"][1]),
                         s["readouts"].__setitem__(1, -s["readouts"][1]))),
    ("joint", "final fidelity", _set_summary("final_fidelity", 0.9)),
    ("condition", "bell fidelity", lambda c, cols, s: cols["bell_fidelity"].__setitem__(0, 0.25)),
    ("ordinary", "eigenvalue", _set_cell("z_s_z_pup", 0, "-1")),
    ("blindness", "full vs analytic", lambda c, cols, s: cols["demon_full"].__setitem__(0, cols["demon_full"][0] + 1e-6)),
    ("blindness", "z correlation", _set_row0("z_s_z_rdn", 1.0)),
    ("absorbing", "pointer diagonal", _set_row0("pointer_diag", [0.0, 0.5, 0.5, 0.0])),
]


@pytest.mark.parametrize("key,what,mutate", CORRUPTIONS, ids=[f"{k}:{w}" for k, w, _ in CORRUPTIONS])
def test_check_rejects_corrupted_report(reports, key, what, mutate):
    op, text = reports[key]
    with pytest.raises(CheckFailed):
        check_report(op.spec, _mutated(op, text, mutate))


@pytest.mark.parametrize("key", ["local-json", "local-csv", "joint"])
def test_check_rejects_broken_text(reports, key):
    op, text = reports[key]
    lines = text.splitlines(keepends=True)
    for broken in (text[:-1],                                   # no final newline
                   "".join(lines[:1] + lines[2:]),              # a row dropped
                   "".join(lines[:-1]),                         # summary dropped
                   text.replace("1", "NaN", 1) if key != "local-csv" else text.replace(",", ";", 3),
                   "".join(lines[:1] + [lines[1][:-5] + "\n"] + lines[2:])):  # truncated row
        with pytest.raises(CheckFailed):
            check_report(op.spec, broken)


def test_csv_rows_with_nested_values_are_rejected(tmp_path):
    # sglab writes complex and list cells unquoted, so such csv rows have
    # more cells than the header; the workloads use json-lines for them.
    rng = workloads._rng("test", 2)
    op = workloads.detector_op(rng, str(tmp_path), "b", "blindness", 2, "haar", "uniform")
    op.spec["format"] = "csv"
    op.argv = [a for a in op.argv if not a.startswith(("--format", "--out"))]
    op.out = op.spec["out"] = str(tmp_path / "b.csv")
    op.argv += ["--format=csv", f"--out={op.out}"]
    with pytest.raises(CheckFailed):
        check_report(op.spec, _run_op(op))


def test_sweep_pool_rejects_wrong_mean():
    pool = SweepPool()
    mean, var = checks.haar_f_moments(16, "uniform")
    pool.add(16, "uniform", [mean] * 100)
    assert pool.problems() == []
    pool.add(32, "uniform", [0.5] * 100)
    assert len(pool.problems()) == 1


@pytest.mark.parametrize("d,model", [(4, "uniform"), (4, "geometric"), (12, "geometric")])
def test_haar_moments_match_monte_carlo(d, model):
    rng = np.random.default_rng(5)
    n = 20000
    z = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    v_diag = np.diagonal(q, axis1=1, axis2=2) * (diag / np.abs(diag))
    f2 = np.abs(v_diag @ np.array(checks.weights(d, model))) ** 2
    mean, var = checks.haar_f_moments(d, model)
    assert f2.mean() == pytest.approx(mean, abs=5 * math.sqrt(var / n))
    assert f2.var() == pytest.approx(var, rel=0.1)
    if model == "uniform":
        assert (mean, var) == pytest.approx((1 / d**2, 1 / d**4))


# --- metrics ------------------------------------------------------------------

def test_percentile_matches_numpy():
    values = [0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.5]
    for pct in (0, 50, 75, 98, 100):
        assert run.percentile(values, pct) == pytest.approx(np.percentile(values, pct))


# --- calibration loop ---------------------------------------------------------

def test_canary_allocates_nothing():
    loop = canary.Canary()
    tracemalloc.start()
    try:
        loop.run()
        loop.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096


def test_canary_drift_is_flagged_outside_probe_spread():
    probes = [{"canary_s": [x]} for x in (0.010, 0.011, 0.012)]
    assert not run.canary_drift({"canary_s": [0.0115]}, probes)["flagged"]
    drift = run.canary_drift({"canary_s": [0.014]}, probes)
    assert drift["flagged"] and drift["ratio"] == pytest.approx(14 / 11)


def test_op_factors_use_nearby_loop_runs():
    timed = {"canary_s": [0.009, 0.018, 0.018], "canary_t": [0.0, 10.0, 10.5],
             "op_start_s": [0.1, 10.1, 30.0], "ops": [[0.2, None], [0.2, None], [1.0, None]]}
    assert run.op_factors(timed) == pytest.approx([1.0, 0.5, 0.5])
