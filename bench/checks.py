"""Output checks against closed-form references the benchmark computes itself.

Nothing here calls sglab.  ``check_report`` raises ``CheckFailed`` with the
first problem it finds in one report; ``SweepPool`` gathers |f|^2 samples
across a run's sweep reports and checks their means at the end, because
one op's few dozen samples make a per-op 5-SE check false-alarm too often
(|f|^2 is near-exponential, so its sample mean has a long right tail).
"""
from __future__ import annotations

import json
import math
from collections import Counter, defaultdict

from workloads import GEOMETRIC_RATIO

ABS_TOL = 1e-12
FULL_TOL = 1e-9
FIDELITY_TOL = 1e-9
Z_SIGMA = 5.0

CSV_HEADERS = {
    "local": ["shot", "word", "product"],
    "sweep": ["d", "trial", "f_abs2_up", "f_abs2_dn", "offdiag_abs"],
    "joint": ["step", "observable", "readout"],
    "ordinary": ["stage", "z_pup_z_pdn", "z_s_z_pup", "z_s_z_pdn"],
}

WORDS = tuple(format(i, "03b") for i in range(8))
PRODUCT = {w: (-1) ** w.count("0") for w in WORDS}  # Z eigenvalue is -1 on |0>
Z_SUPPORT = {"110", "001"}  # the two t4 branches


class CheckFailed(Exception):
    """A report does not match what the benchmark asked for."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, tol: float, what: str) -> None:
    # Written so that NaN fails.
    _require(abs(a - b) <= tol, f"{what}: {a!r} differs from {b!r} by more than {tol}")


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def _json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _complex(value) -> complex:
    return complex(float(value["re"]), float(value["im"]))


def parse_report(text: str, fmt: str, pipeline: str) -> tuple[dict, dict, dict]:
    """(config, columns, summary); columns maps each row field to its values.

    json-lines values keep their JSON types; csv values are cell strings.
    """
    _require(text.endswith("\n"), "report does not end with a newline")
    lines = text[:-1].split("\n")
    _require(len(lines) >= 2, "report needs a config and a summary line")
    if fmt == "json-lines":
        config, summary = _json(lines[0]), _json(lines[-1])
        _require(config.pop("record", None) == "config", "first record is not the config")
        _require(summary.pop("record", None) == "summary", "last record is not the summary")
        # One parse of the row block as a JSON array: every line must be one value.
        rows = _json("[" + ",".join(lines[1:-1]) + "]")
        _require(len(rows) == len(lines) - 2, "a row line holds more than one JSON value")
        if not rows:
            return config, {}, summary
        keys = list(rows[0])
        _require(keys[0] == "record" and all(r.get("record") == "row" and list(r) == keys for r in rows),
                 "row records do not share one field list")
        return config, {k: [r[k] for r in rows] for k in keys[1:]}, summary
    _require(lines[0].startswith("# config=") and lines[-1].startswith("# summary="),
             "csv lacks its # config= / # summary= comment lines")
    config = _json(lines[0][len("# config="):])
    summary = _json(lines[-1][len("# summary="):])
    body = lines[1:-1]
    if not body:
        return config, {}, summary
    header = body[0].split(",")
    _require(header == CSV_HEADERS[pipeline], f"csv header {header} is not {CSV_HEADERS[pipeline]}")
    cells = [line.split(",") for line in body[1:]]
    _require(all(len(row) == len(header) for row in cells), "a csv row's cell count differs from the header")
    columns = list(zip(*cells)) if cells else [()] * len(header)
    return config, dict(zip(header, map(list, columns))), summary


def _check_config(spec: dict, config: dict) -> None:
    expected = {
        "pipeline": spec["pipeline"], "seed": spec["seed"], "out": spec["out"],
        "format": spec["format"],
        "alpha_re": spec["alpha"].real, "alpha_im": spec["alpha"].imag,
        "beta_re": spec["beta"].real, "beta_im": spec["beta"].imag,
    }
    for key in ("basis", "mixture", "shots", "d", "trials", "weights", "env_model", "observables"):
        if key in spec:
            expected[key] = spec[key]
    for key, value in expected.items():
        _require(config.get(key) == value, f"config echo {key}={config.get(key)!r}, asked {value!r}")


def _rows(columns: dict) -> list[dict]:
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def _check_local(spec, columns, summary) -> None:
    shots, basis = spec["shots"], spec["basis"]
    alpha, beta = spec["alpha"], spec["beta"]
    words = columns["word"]
    _require(list(map(int, columns["shot"])) == list(range(shots)), f"shot column is not 0..{shots - 1}")
    counts = Counter(words)
    _require(set(counts) <= set(WORDS), f"words outside {WORDS}: {set(counts) - set(WORDS)}")
    _require(list(map(int, columns["product"])) == [PRODUCT[w] for w in words],
             "a product differs from its word's eigenvalue product")
    _require(dict(counts) == summary["word_counts"], "word_counts differ from rows")
    _require(sum(summary["word_counts"].values()) == shots, "word counts do not sum to --shots")
    if basis == "Z":
        _require(set(counts) <= Z_SUPPORT, f"Z-basis words outside the t4 support: {set(counts)}")
    means = [sum((2 * int(w[k]) - 1) * n for w, n in counts.items()) / shots for k in range(3)]
    product = sum(PRODUCT[w] * n for w, n in counts.items()) / shots
    for key, value in zip(("mean_s", "mean_a_up", "mean_a_dn"), means):
        _close(summary[key], value, ABS_TOL, key)
    _close(summary["product_mean"], product, ABS_TOL, "product_mean vs rows")
    _require(summary["product_always_plus_one"] == all(PRODUCT[w] == 1 for w in counts),
             "product_always_plus_one")
    # Exact <XXX> = 2 Re(alpha conj(beta)) (0 for the branch mixture),
    # exact <ZZZ> = |beta|^2 - |alpha|^2.
    if basis == "X":
        exact = 0.0 if spec["mixture"] else 2 * (alpha * beta.conjugate()).real
    else:
        exact = abs(beta) ** 2 - abs(alpha) ** 2
    se = math.sqrt(max(1.0 - exact * exact, 0.0) / shots)
    _close(summary["product_mean"], exact, Z_SIGMA * se + ABS_TOL, "product_mean vs exact")


def _check_sweep(spec, columns, summary, pool) -> None:
    trials, d_values = spec["trials"], spec["d"]
    ab = abs(spec["alpha"]) * abs(spec["beta"])
    _require(list(map(int, columns["d"])) == [d for d in d_values for _ in range(trials)]
             and list(map(int, columns["trial"])) == list(range(trials)) * len(d_values),
             f"rows are not {trials} trials for each d in {d_values}")
    f_up = list(map(float, columns["f_abs2_up"]))
    f_dn = list(map(float, columns["f_abs2_dn"]))
    offdiag = list(map(float, columns["offdiag_abs"]))
    for i, (up, dn, off) in enumerate(zip(f_up, f_dn, offdiag)):
        _require(0.0 <= up <= 1.0 + ABS_TOL and 0.0 <= dn <= 1.0 + ABS_TOL, f"row {i} |f|^2 range")
        _close(off, ab * math.sqrt(up * dn), ABS_TOL, f"row {i} offdiag_abs")
    _require(sorted(summary) == sorted(str(d) for d in d_values), "summary keys differ from --d")
    for k, d in enumerate(d_values):
        block = slice(k * trials, (k + 1) * trials)
        _close(summary[str(d)]["mean_f_abs2"], sum(f_up[block]) / trials, ABS_TOL, f"d={d} mean_f_abs2")
        if pool is not None:
            pool.add(d, spec["weights"], f_up[block] + f_dn[block])


def _check_joint(spec, columns, summary) -> None:
    readouts = spec["readouts"]
    rows = _rows(columns)
    _require(len(rows) == len(readouts), "one row per observable")
    for i, (row, word, expected) in enumerate(zip(rows, spec["observables"], readouts)):
        _require(int(row["step"]) == i and row["observable"] == word, f"row {i} step/observable")
        _require(int(row["readout"]) == expected, f"step {i} {word} read {row['readout']}, eigenvalue {expected}")
    _require(summary["readouts"] == readouts, "summary readouts")
    _require(1.0 - FIDELITY_TOL <= summary["final_fidelity"] <= 1.0 + FIDELITY_TOL,
             f"final_fidelity {summary['final_fidelity']!r}")


def _check_condition(spec, columns, summary) -> None:
    rows = _rows(columns)
    alpha, beta = spec["alpha"], spec["beta"]
    # Spin-X outcome +-1 leaves alpha|10> +- beta|01>; fidelity with the
    # Bell state (|10> +- |01>)/sqrt 2 is |alpha + beta|^2 / 2 for both.
    fidelity = abs(alpha + beta) ** 2 / 2
    _require([int(r["spin_x_outcome"]) for r in rows] == [1, -1], "outcomes +1, -1")
    for row in rows:
        amps = [_complex(a) for a in row["amplitudes"]]
        _require(len(amps) == 4, "four amplitudes")
        for k, magnitude in ((0b00, 0.0), (0b01, abs(beta)), (0b10, abs(alpha)), (0b11, 0.0)):
            _close(abs(amps[k]), magnitude, FULL_TOL, f"|amplitude[{k}]|")
        _close(row["bell_fidelity"], fidelity, FULL_TOL, "bell_fidelity")
        _close(row["zz_anticorrelation"], -1.0, ABS_TOL, "zz_anticorrelation")
    _require(summary["bell_fidelities"] == [r["bell_fidelity"] for r in rows], "summary fidelities")


def _check_ordinary(spec, columns, summary) -> None:
    rows = _rows(columns)
    _require(len(rows) == 1, "one row")
    row = rows[0]
    _require(row["stage"] == "t2", "stage t2")
    # alpha|110> + beta|001> on (s, p_up, p_dn) is an eigenstate of all three.
    for key, value in (("z_pup_z_pdn", -1.0), ("z_s_z_pup", 1.0), ("z_s_z_pdn", -1.0)):
        _close(float(row[key]), value, ABS_TOL, key)
        _close(float(summary[key]), value, ABS_TOL, f"summary {key}")


def _check_detector(spec, columns, summary) -> None:
    rows = _rows(columns)
    alpha, beta, d = spec["alpha"], spec["beta"], spec["d"][0]
    absorbing = spec["pipeline"] == "absorbing"
    _require(len(rows) == 1, "one row")
    row = rows[0]
    _require(row["mode"] == ("absorbing" if absorbing else "transmitting"), "mode")
    _require(row["d_up"] == d and row["d_dn"] == d, "detector dimensions")
    f_up, f_dn = _complex(row["f_up"]), _complex(row["f_dn"])
    _require(abs(f_up) <= 1 + ABS_TOL and abs(f_dn) <= 1 + ABS_TOL, "|f| <= 1")
    if spec["env_model"] == "identity":
        _close(abs(f_up - 1), 0.0, ABS_TOL, "identity-model f_up")
        _close(abs(f_dn - 1), 0.0, ABS_TOL, "identity-model f_dn")
    ab = alpha * beta.conjugate()
    _close(row["demon_analytic"], 2 * ab.real, ABS_TOL, "demon_analytic")
    _close(row["readout_only_analytic"], 2 * (ab * f_up * f_dn.conjugate()).real, ABS_TOL,
           "readout_only_analytic")
    _close(row["demon_full"], row["demon_analytic"], FULL_TOL, "demon_full")
    _close(row["readout_only_full"], row["readout_only_analytic"], FULL_TOL, "readout_only_full")
    # The up branch fires r_up, the down branch fires r_dn.
    zz = {"z_rup_z_rdn": -1.0} if absorbing else {
        "z_s_z_rup": 1.0, "z_s_z_rdn": -1.0, "z_rup_z_rdn": -1.0}
    for key, value in zz.items():
        _close(row[key], value, ABS_TOL, key)
    if absorbing:
        diag = [0.0, abs(beta) ** 2, abs(alpha) ** 2, 0.0]  # (r_up, r_dn) = 01, 10
        _require(len(row["pointer_diag"]) == 4, "pointer_diag length")
        for k in range(4):
            _close(row["pointer_diag"][k], diag[k], ABS_TOL, f"pointer_diag[{k}]")
        _close(row["pointer_offdiag_abs"], abs(ab * f_up * f_dn.conjugate()), ABS_TOL,
               "pointer_offdiag_abs")
    else:
        _require(row["seed"] == spec["seed"], "row seed")
    _require(summary == {"demon_analytic": row["demon_analytic"],
                         "readout_only_analytic": row["readout_only_analytic"]}, "summary")


_CHECKS = {"local": _check_local, "joint": _check_joint, "condition": _check_condition,
           "ordinary": _check_ordinary, "blindness": _check_detector,
           "absorbing": _check_detector}


def check_report(spec: dict, text: str, pool: "SweepPool | None" = None) -> None:
    """Raise CheckFailed unless ``text`` is a correct report for ``spec``."""
    pipeline = spec["pipeline"]
    try:
        config, columns, summary = parse_report(text, spec["format"], pipeline)
        _check_config(spec, config)
        if pipeline in CSV_HEADERS:
            _require(list(columns) == CSV_HEADERS[pipeline], f"row fields {list(columns)}")
        if pipeline == "sweep":
            _check_sweep(spec, columns, summary, pool)
        else:
            _CHECKS[pipeline](spec, columns, summary)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise CheckFailed(f"malformed {pipeline} report: {exc!r}") from exc


def weights(d: int, model: str) -> list[float]:
    if model == "uniform":
        return [1.0 / d] * d
    w = [GEOMETRIC_RATIO ** k for k in range(d)]
    total = sum(w)
    return [x / total for x in w]


def haar_f_moments(d: int, model: str) -> tuple[float, float]:
    """(E|f|^2, Var|f|^2) for f = sum_i p_i V_ii with V Haar on U(d).

    Weingarten calculus: E|V_ii|^2 = 1/d, E|V_ii|^4 = 2/(d(d+1)) and
    E|V_ii|^2 |V_jj|^2 = 1/(d^2-1) for i != j; other diagonal moments of
    order 4 vanish.  So E|f|^2 = sum p^2 / d and
    E|f|^4 = 2 sum p^4 / (d(d+1)) + 2 sum_{i!=j} p_i^2 p_j^2 / (d^2-1).
    """
    p = weights(d, model)
    s2 = sum(x * x for x in p)
    if d == 1:
        return s2, 0.0
    s4 = sum(x ** 4 for x in p)
    m2 = s2 / d
    m4 = 2 * s4 / (d * (d + 1)) + 2 * (s2 * s2 - s4) / (d * d - 1)
    return m2, m4 - m2 * m2


class SweepPool:
    """|f|^2 samples of both detectors, pooled per (d, weights) over a run."""

    def __init__(self):
        self.samples = defaultdict(list)

    def add(self, d: int, model: str, values) -> None:
        self.samples[(d, model)].extend(values)

    def problems(self) -> list[str]:
        out = []
        for (d, model), vals in sorted(self.samples.items()):
            mean, var = haar_f_moments(d, model)
            se = math.sqrt(var / len(vals))
            got = sum(vals) / len(vals)
            if not abs(got - mean) <= Z_SIGMA * se + ABS_TOL:
                out.append(f"sweep d={d} {model}: mean |f|^2 {got:.6g} over {len(vals)} samples, "
                           f"exact {mean:.6g}, SE {se:.3g}")
        return out
