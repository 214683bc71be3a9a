"""Command-line front end.

    sglab run local|joint|condition|ordinary|blindness|absorbing|sweep [flags]

Configuration precedence: built-in defaults < --config file (JSON, keys
named like the flags with underscores) < command-line flags.  Unknown keys
in a config file are rejected.  An unseeded run draws a seed from system
entropy and records it in the report, so every emitted file is exactly
reproducible from its own config echo.

Exit codes: 0 success, 2 malformed config, 3 dimension cap exceeded,
4 I/O failure.  SGLAB_OUT_DIR sets the default output directory.  A
successful run prints the report path, unless the report itself went to
stdout (``--out /dev/stdout``).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import secrets
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from . import decoherence, experiment
from .observables import PauliString, pauli_expectation
from .reports import RunReport, emit_report
from .sampling import split
from .tensor import DimensionCapError, qubits, PureState

FORMATS = ("json-lines", "csv")
AMPLITUDES = ("alpha_re", "alpha_im", "beta_re", "beta_im")
# Pipelines that draw a single detector pair, so take exactly one d.
SINGLE_D = ("blindness", "absorbing")

OUT_DIR_ENV = "SGLAB_OUT_DIR"


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    pipeline: str
    alpha_re: float = 1.0 / np.sqrt(2)
    alpha_im: float = 0.0
    beta_re: float = 1.0 / np.sqrt(2)
    beta_im: float = 0.0
    basis: str = "Z"
    observables: list[str] = field(default_factory=lambda: ["IZZ", "ZZI", "XXX"])
    shots: int = 1000
    d: list[int] = field(default_factory=lambda: [3])
    env_model: str = "haar"
    weights: str = "uniform"
    mixture: bool = False
    trials: int = 100
    seed: int | None = None
    out: str | None = None
    format: str = "json-lines"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.pipeline not in PIPELINES:
            raise ConfigError(f"unknown pipeline {self.pipeline!r}")
        for name in AMPLITUDES:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or abs(value) > 1:
                raise ConfigError(f"prep amplitude {name} must be a number in [-1, 1]")
            setattr(self, name, float(value))
        norm2 = sum(getattr(self, name) ** 2 for name in AMPLITUDES)
        if not abs(norm2 - 1.0) <= 1e-12:
            got = repr(norm2) if math.isfinite(norm2) else "a non-finite value"
            raise ConfigError(f"prep amplitudes must satisfy |alpha|^2 + |beta|^2 = 1, got {got}")
        if self.basis not in ("Z", "X"):
            raise ConfigError("basis must be Z or X")
        unknown = set(self.observables) - set(experiment.JOINT_OBSERVABLES)
        if unknown:
            raise ConfigError(f"unknown joint observables {sorted(unknown)}")
        if not _is_int(self.shots) or self.shots < 1:
            raise ConfigError("shots must be an integer >= 1")
        if not isinstance(self.d, (list, tuple)) or not self.d \
                or not all(_is_int(x) and x >= 1 for x in self.d):
            raise ConfigError("d must be a non-empty list of integers >= 1")
        if len(set(self.d)) != len(self.d):
            raise ConfigError(f"d values must be distinct, got {self.d}")
        if self.pipeline in SINGLE_D and len(self.d) != 1:
            raise ConfigError(f"{self.pipeline} takes exactly one d, got {self.d}")
        if self.env_model not in decoherence.ENV_MODELS:
            raise ConfigError(f"env-model must be one of {decoherence.ENV_MODELS}")
        if self.weights not in decoherence.WEIGHT_MODELS:
            raise ConfigError(f"weights must be one of {decoherence.WEIGHT_MODELS}")
        if not isinstance(self.mixture, bool):
            raise ConfigError("mixture must be true or false")
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError("trials must be an integer >= 1")
        if self.seed is not None and not _is_int(self.seed):
            raise ConfigError("seed must be an integer")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out must be a path string")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        if "pipeline" not in data:
            raise ConfigError("config must name a pipeline")
        return cls(**data)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def prep(self) -> experiment.SpinPrep:
        return experiment.SpinPrep(complex(self.alpha_re, self.alpha_im),
                                   complex(self.beta_re, self.beta_im))


def _bell_target(sign: int) -> PureState:
    amps = np.zeros(4, dtype=complex)
    amps[0b10] = 1 / np.sqrt(2)
    amps[0b01] = sign / np.sqrt(2)
    return PureState(qubits("a_up", "a_dn"), amps)


def _run_condition(config: ExperimentConfig) -> RunReport:
    zz = PauliString({"a_up": "Z", "a_dn": "Z"})
    rows = []
    for outcome in (+1, -1):
        conditional = experiment.condition_on_spin_x(config.prep(), outcome)
        rows.append({
            "spin_x_outcome": outcome,
            "amplitudes": [complex(a) for a in conditional.amplitudes],
            "bell_fidelity": float(conditional.fidelity(_bell_target(outcome))),
            "zz_anticorrelation": pauli_expectation(conditional, zz),
        })
    return RunReport(rows, {"bell_fidelities": [r["bell_fidelity"] for r in rows]})


def _run_ordinary(config: ExperimentConfig) -> RunReport:
    stage = experiment.ordinary_premeasurement(config.prep())
    row = {"stage": stage.stage}
    for key, word in (("z_pup_z_pdn", "IZZ"), ("z_s_z_pup", "ZZI"), ("z_s_z_pdn", "ZIZ")):
        row[key] = pauli_expectation(stage.state, PauliString.from_word(word, stage.state.register))
    return RunReport([row], dict(row))


def _run_detectors(config: ExperimentConfig, seed: int, mode: str) -> RunReport:
    """Demon vs readout-only contrast for one detector pair of dimension ``d[0]``."""
    up_rng, dn_rng = split(seed, 2)
    det_up = decoherence.DetectorModel.sample(
        config.d[0], up_rng, config.env_model, config.weights, mode=mode)
    det_dn = decoherence.DetectorModel.sample(
        config.d[0], dn_rng, config.env_model, config.weights, mode=mode)
    if mode == "absorbing":
        row = decoherence.absorbing_variant(config.prep(), det_up, det_dn)
    else:
        row = decoherence.blindness_contrast(config.prep(), det_up, det_dn, seed=seed)
    summary = {key: row[key] for key in ("demon_analytic", "readout_only_analytic")}
    return RunReport([row], summary)


# Every entry looks its callee up when it is called, so a wrapper later
# installed on a module attribute (a tracer, a test double) sees the call.
PIPELINES: dict[str, Callable[[ExperimentConfig, int], RunReport]] = {
    "local": lambda c, seed: experiment.run_local_mode(
        c.prep(), c.basis, c.shots, seed, mixture=c.mixture),
    "joint": lambda c, seed: experiment.run_joint_mode(c.prep(), c.observables, seed),
    "condition": lambda c, seed: _run_condition(c),
    "ordinary": lambda c, seed: _run_ordinary(c),
    "blindness": lambda c, seed: _run_detectors(c, seed, "transmitting"),
    "absorbing": lambda c, seed: _run_detectors(c, seed, "absorbing"),
    "sweep": lambda c, seed: RunReport(*decoherence.sweep_suppression(
        c.prep(), c.d, c.trials, seed, env_model=c.env_model, weights_model=c.weights)),
}


def run(config: ExperimentConfig) -> str:
    """Execute one pipeline and write its report; returns the output path."""
    if config.seed is None:
        config.seed = secrets.randbits(63)
    report = PIPELINES[config.pipeline](config, config.seed)
    if config.out is None:
        ext = "jsonl" if config.format == "json-lines" else "csv"
        out_dir = os.environ.get(OUT_DIR_ENV, ".")
        config.out = os.path.join(out_dir, f"{config.pipeline}.{ext}")
    report.config = config.to_dict()
    emit_report(report, config.out, config.format)
    return config.out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="sglab",
        description="Ancilla-aided Stern-Gerlach measurement laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment pipeline")
    run_p.add_argument("pipeline", choices=PIPELINES)
    run_p.add_argument("--config", help="JSON config file; flags override its values")
    run_p.add_argument("--alpha-re", type=float, dest="alpha_re")
    run_p.add_argument("--alpha-im", type=float, dest="alpha_im")
    run_p.add_argument("--beta-re", type=float, dest="beta_re")
    run_p.add_argument("--beta-im", type=float, dest="beta_im")
    run_p.add_argument("--basis", choices=("Z", "X"))
    run_p.add_argument("--observables", help="comma-separated, e.g. IZZ,ZZI,XXX")
    run_p.add_argument("--shots", type=int)
    run_p.add_argument("--d", help="comma-separated environment dimensions")
    run_p.add_argument("--env-model", choices=decoherence.ENV_MODELS, dest="env_model")
    run_p.add_argument("--weights", choices=decoherence.WEIGHT_MODELS)
    run_p.add_argument("--mixture", action="store_const", const=True, default=None,
                       help="replace t4 by the classical branch mixture (local mode)")
    run_p.add_argument("--trials", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out")
    run_p.add_argument("--format", choices=FORMATS)
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        data.update(loaded)
    data["pipeline"] = args.pipeline
    overrides = {
        f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
        if f.name not in ("pipeline", "observables", "d") and getattr(args, f.name) is not None
    }
    if args.observables is not None:
        overrides["observables"] = [w.strip() for w in args.observables.split(",") if w.strip()]
    if args.d is not None:
        try:
            overrides["d"] = [int(w) for w in args.d.split(",") if w.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --d list: {exc}") from exc
    data.update(overrides)
    try:
        return ExperimentConfig.from_dict(data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        path = run(config)
    except (ConfigError, ValueError) as exc:
        print(f"sglab: config error: {exc}", file=sys.stderr)
        return 2
    except DimensionCapError as exc:
        print(f"sglab: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"sglab: i/o error: {exc}", file=sys.stderr)
        return 4
    try:  # fd 1, not sys.stdout, which may be replaced in-process
        report_on_stdout = os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        report_on_stdout = False
    if not report_on_stdout:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
