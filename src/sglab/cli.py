"""Command-line front end: parses a run, calls its library entry, writes the report.

    sglab run local|joint|condition|ordinary|blindness|absorbing|sweep [flags]

Configuration precedence: built-in defaults < --config file (JSON, keys
named like the flags with underscores) < command-line flags.  Unknown keys
in a config file are rejected.  An unseeded run draws a seed from system
entropy and records it in the report, so every emitted file is exactly
reproducible from its own config echo under the same numpy version and
BLAS build, and for haar at d >= 99 the same BLAS thread count.

Exit codes: 0 success, 2 malformed config, 3 dimension cap exceeded,
4 I/O failure.  SGLAB_OUT_DIR sets the default output directory.  A
successful run prints the report path, unless the report itself went to
stdout (``--out /dev/stdout``).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import secrets
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from . import decoherence, experiment
from .reports import RunReport, emit_report
from .sampling import check_int, check_seed
from .tensor import DimensionCapError

FORMATS = ("json-lines", "csv")
AMPLITUDES = ("alpha_re", "alpha_im", "beta_re", "beta_im")
# Pipelines that draw a single detector pair, so take exactly one d.
SINGLE_D = ("blindness", "absorbing")

OUT_DIR_ENV = "SGLAB_OUT_DIR"


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


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
        for name in AMPLITUDES:  # the range keeps the norm from overflowing
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or abs(value) > 1:
                raise ConfigError(f"prep amplitude {name} must be a number in [-1, 1]")
            setattr(self, name, float(value))
        for name in ("observables", "d"):  # a JSON string or object would iterate
            if not isinstance(getattr(self, name), list):
                raise ConfigError(f"{name} must be a list, got {getattr(self, name)!r}")
        # The library's gates, for every field whatever the pipeline.  Its caps
        # stay in the entries: a field a pipeline ignores is not refused for size.
        try:
            self.prep()
            experiment.check_basis(self.basis)
            experiment.check_observables(self.observables)
            check_int("shots", self.shots)
            check_int("trials", self.trials)
            decoherence.check_sampling(self.env_model, self.weights, self.d)
            if self.seed is not None:
                check_seed(self.seed)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if self.pipeline in SINGLE_D and len(self.d) != 1:
            raise ConfigError(f"{self.pipeline} takes exactly one d, got {self.d}")
        if not isinstance(self.mixture, bool):
            raise ConfigError("mixture must be true or false")
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


# Every entry looks its callee up when it is called, so a wrapper later
# installed on a module attribute (a tracer, a test double) sees the call.
PIPELINES: dict[str, Callable[[ExperimentConfig, int], RunReport]] = {
    "local": lambda c, seed: experiment.run_local_mode(
        c.prep(), c.basis, c.shots, seed, mixture=c.mixture),
    "joint": lambda c, seed: experiment.run_joint_mode(c.prep(), c.observables, seed),
    "condition": lambda c, seed: experiment.run_condition_mode(c.prep()),
    "ordinary": lambda c, seed: experiment.run_ordinary_mode(c.prep()),
    "blindness": lambda c, seed: decoherence.run_detector_mode(
        c.prep(), c.d[0], seed, c.env_model, c.weights, "transmitting"),
    "absorbing": lambda c, seed: decoherence.run_detector_mode(
        c.prep(), c.d[0], seed, c.env_model, c.weights, "absorbing"),
    "sweep": lambda c, seed: decoherence.sweep_suppression(
        c.prep(), c.d, c.trials, seed, env_model=c.env_model, weights_model=c.weights),
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
    run_p.add_argument("--basis", help="Z or X")
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
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        path = run(config)
    except ValueError as exc:  # a ConfigError too
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
