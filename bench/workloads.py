"""Workload generators: every sglab argv of a run, derived from one seed.

An op is one ``sglab run ...`` invocation.  Each workload yields its ops in
cycles.  A cycle's composition (which pipelines, shot rungs, d shapes) is
fixed by the workload, and the seed draws everything else: preps, op
seeds, observable sequences, d lists and the order inside the cycle.  Runs
of different seeds therefore measure the same mix of work, and the same
seed gives the same argv byte for byte.

The benchmark, not sglab, records what it asked for in ``Op.spec``; the
output checks compare reports against that record.
"""
from __future__ import annotations

import cmath
import math
import os
import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

WORKLOADS = ("local-shots", "sweep-haar", "exact-mix")

# Work unit counted by items_per_s.
ITEM_UNIT = {"local-shots": "shots", "sweep-haar": "detector samples", "exact-mix": "ops"}

# Tail percentile of op time, fixed per workload so that two commits
# compare the same percentile.  Each is the highest percentile that leaves
# at least 10 ops beyond it in a 20-second run of the current code
# (local-shots 60-90 ops, sweep-haar 60-80, exact-mix ~1000) and that falls
# inside, not between, the op-size groups of the cycle.
TAIL_PCT = {"local-shots": 83.0, "sweep-haar": 83.0, "exact-mix": 98.0}

# Whole cycles replayed under tracing; a fixed op list makes the per-layer
# counts repeat exactly for a seed.
TRACE_CYCLES = {"local-shots": 1, "sweep-haar": 2, "exact-mix": 1}

FORMATS = ("json-lines", "csv")
EXT = {"json-lines": "jsonl", "csv": "csv"}

# local-shots cycle: (shots, basis, mixture, format), 30 ops, every basis x
# mixture combination in each of the first four groups.  Op times form plateaus, so that the
# median and the tail percentile fall inside a group of similar ops, not
# in a gap between groups: 20 ~0.13 s ops (1e4 json-lines, 1.5e4 csv),
# 8 ~0.4 s ops (2.5e4 json-lines, 4e4 csv), then 1e5 and 2e5 json-lines.
# The 2e5 op sets peak RSS.
_LOCAL_COMBOS = [(basis, mixture) for basis in "XZ" for mixture in (False, True)]
LOCAL_CYCLE = tuple(
    [(10_000, b, m, "json-lines") for b, m in _LOCAL_COMBOS] * 3
    + [(15_000, b, m, "csv") for b, m in _LOCAL_COMBOS] * 2
    + [(25_000, b, m, "json-lines") for b, m in _LOCAL_COMBOS]
    + [(40_000, b, m, "csv") for b, m in _LOCAL_COMBOS]
    + [(100_000, "Z", True, "json-lines"), (200_000, "X", False, "json-lines")]
)

# sweep-haar cycle: (how many d values the seed draws from SWEEP_SMALL_D,
# largest d or None, trials).  Two kinds of op, as the CLI is used:
# - few trials up to a large d (64..256), 0.1-0.25 s and 32-128 rows each
#   on the current code; the QR size dominates;
# - 200 trials, as in ``--trials 200``, over five d values of at most 48,
#   1000 rows and about 0.55 s each; the per-trial work and the report
#   dominate, and batching the QR across trials pays most here.
# The d=256 op comes twice, so that the median op, at three quarters of
# the few-trial ops, falls in the middle of its plateau.
SWEEP_CYCLE = ((3, 256, 8), (3, 256, 8), (3, 128, 16), (3, 64, 48), (5, None, 200), (5, None, 200))
SWEEP_SMALL_D = (4, 6, 8, 12, 16, 24, 32, 48)
GEOMETRIC_RATIO = 0.5  # sglab's DetectorModel.sample default

# exact-mix cycle.  Every (mode, d, env-model) detector op appears once:
# the six d=8 ops run the 256/512-dimensional rho_t4_full + DensityMatrix
# path (~60 % of op time), the rest are small-register ops (~40 %).
JOINT_WORDS = ("IZZ", "ZZI", "ZIZ", "XXX")
JOINT_PER_CYCLE = 60
CONDITION_PER_CYCLE = 6
ORDINARY_PER_CYCLE = 6
DETECTOR_MODES = ("blindness", "absorbing")
DETECTOR_D = (1, 2, 4, 8)
ENV_MODELS = ("haar", "phases", "identity")
WEIGHTS = ("uniform", "geometric")


@dataclass
class Op:
    """One sglab invocation and the benchmark's own record of it."""

    argv: list[str]
    out: str
    items: int
    spec: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, stream: str = "ops") -> random.Random:
    # String seeding is hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}/{stream}/{int(seed)}")


def _num(flag: str, value) -> str:
    # "--flag=value" keeps argparse from reading "-1e-05" as an option.
    return f"--{flag}={value!r}"


def _op(pipeline: str, spec: dict, flags: list[str], work: str, tag: str,
        items: int, rng: random.Random) -> Op:
    fmt = spec["format"]
    seed = rng.getrandbits(63)
    out = os.path.join(work, f"{tag}.{EXT[fmt]}")
    alpha, beta = spec["alpha"], spec["beta"]
    argv = ["run", pipeline,
            _num("alpha-re", alpha.real), _num("alpha-im", alpha.imag),
            _num("beta-re", beta.real), _num("beta-im", beta.imag),
            *flags, f"--seed={seed}", f"--format={fmt}", f"--out={out}"]
    spec = dict(spec, pipeline=pipeline, seed=seed, out=out)
    return Op(argv=argv, out=out, items=items, spec=spec)


def local_prep(rng: random.Random) -> tuple[complex, complex]:
    """Prep with |alpha|^2 in [0.15, 0.85] and |<XXX>| <= 0.9.

    Keeping both readout probabilities of every basis >= 0.05 keeps the
    product-mean check's binomial close to normal, so its 5-SE bound has
    the normal false-alarm rate.
    """
    u = rng.uniform(0.15, 0.85)
    while True:
        phi = rng.uniform(0.0, 2 * math.pi)
        if abs(2 * math.sqrt(u * (1 - u)) * math.cos(phi)) <= 0.9:
            break
    theta = rng.uniform(0.0, 2 * math.pi)
    return (math.sqrt(u) * cmath.exp(1j * theta),
            math.sqrt(1 - u) * cmath.exp(1j * (theta - phi)))


def random_prep(rng: random.Random) -> tuple[complex, complex]:
    """Haar-random normalized prep."""
    g = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(x * x for x in g))
    return complex(g[0], g[1]) / n, complex(g[2], g[3]) / n


def xxx_eigen_prep(rng: random.Random) -> tuple[complex, complex, int]:
    """Balanced prep with beta = sign * alpha: an XXX eigenstate."""
    sign = rng.choice((1, -1))
    alpha = cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)) / math.sqrt(2)
    return alpha, sign * alpha, sign


def local_op(rng, work, tag, shots, basis, mixture, fmt) -> Op:
    alpha, beta = local_prep(rng)
    spec = {"format": fmt, "alpha": alpha, "beta": beta,
            "basis": basis, "mixture": mixture, "shots": shots}
    flags = [f"--basis={basis}", f"--shots={shots}"] + (["--mixture"] if mixture else [])
    return _op("local", spec, flags, work, tag, shots, rng)


def sweep_op(rng, work, tag, d_values, trials, weights, fmt) -> Op:
    alpha, beta = random_prep(rng)
    spec = {"format": fmt, "alpha": alpha, "beta": beta, "d": list(d_values),
            "trials": trials, "weights": weights, "env_model": "haar"}
    flags = ["--d=" + ",".join(str(d) for d in d_values), f"--trials={trials}",
             "--env-model=haar", f"--weights={weights}"]
    return _op("sweep", spec, flags, work, tag, 2 * trials * len(d_values), rng)


def joint_op(rng, work, tag, words, fmt) -> Op:
    if "XXX" in words:
        alpha, beta, sign = xxx_eigen_prep(rng)
    else:
        (alpha, beta), sign = random_prep(rng), None
    # t4 = alpha|110> + beta|001> is a -1, +1, -1 eigenstate of IZZ, ZZI,
    # ZIZ for every prep, and of XXX with eigenvalue sign when beta = sign*alpha.
    eigen = {"IZZ": -1, "ZZI": 1, "ZIZ": -1, "XXX": sign}
    spec = {"format": fmt, "alpha": alpha, "beta": beta, "observables": list(words),
            "readouts": [eigen[w] for w in words]}
    return _op("joint", spec, ["--observables=" + ",".join(words)], work, tag, 1, rng)


def simple_op(rng, work, tag, pipeline, fmt) -> Op:
    alpha, beta = random_prep(rng)
    return _op(pipeline, {"format": fmt, "alpha": alpha, "beta": beta}, [], work, tag, 1, rng)


def detector_op(rng, work, tag, mode, d, env_model, weights) -> Op:
    alpha, beta = random_prep(rng)
    # json-lines only: these rows hold complex numbers and lists, which the
    # csv writer emits unquoted, so such csv rows do not parse.
    spec = {"format": "json-lines", "alpha": alpha, "beta": beta, "d": [d],
            "env_model": env_model, "weights": weights}
    flags = [f"--d={d}", f"--env-model={env_model}", f"--weights={weights}"]
    return _op(mode, spec, flags, work, tag, 1, rng)


def _local_cycle(rng, work, c):
    rows = list(LOCAL_CYCLE)
    rng.shuffle(rows)
    return [local_op(rng, work, f"op{c}-{k}", shots, basis, mixture, fmt)
            for k, (shots, basis, mixture, fmt) in enumerate(rows)]


def _sweep_cycle(rng, work, c):
    shapes = list(SWEEP_CYCLE)
    rng.shuffle(shapes)
    ops = []
    for k, (n_small, d_max, trials) in enumerate(shapes):
        d_values = sorted(rng.sample(SWEEP_SMALL_D, n_small)) + ([d_max] if d_max else [])
        weights = WEIGHTS[(c + k) % 2]
        ops.append(sweep_op(rng, work, f"op{c}-{k}", d_values, trials, weights,
                            rng.choice(FORMATS)))
    return ops


def _exact_cycle(rng, work, c):
    kinds = (["joint"] * JOINT_PER_CYCLE + ["condition"] * CONDITION_PER_CYCLE
             + ["ordinary"] * ORDINARY_PER_CYCLE
             + [(m, d, e) for m in DETECTOR_MODES for d in DETECTOR_D for e in ENV_MODELS])
    rng.shuffle(kinds)
    ops = []
    for k, kind in enumerate(kinds):
        tag = f"op{c}-{k}"
        if kind == "joint":
            words = [rng.choice(JOINT_WORDS) for _ in range(rng.randint(3, 12))]
            ops.append(joint_op(rng, work, tag, words, rng.choice(FORMATS)))
        elif kind == "condition":
            ops.append(simple_op(rng, work, tag, "condition", "json-lines"))
        elif kind == "ordinary":
            ops.append(simple_op(rng, work, tag, "ordinary", rng.choice(FORMATS)))
        else:
            mode, d, env_model = kind
            ops.append(detector_op(rng, work, tag, mode, d, env_model, rng.choice(WEIGHTS)))
    return ops


_CYCLES = {"local-shots": _local_cycle, "sweep-haar": _sweep_cycle, "exact-mix": _exact_cycle}


def cycles(workload: str, seed: int, work: str) -> Iterator[list[Op]]:
    """Endless sequence of op cycles for one workload and seed."""
    make = _CYCLES[workload]
    rng = _rng(workload, seed)
    c = 0
    while True:
        yield make(rng, work, c)
        c += 1


def first_ops(workload: str, seed: int, work: str, n_cycles: int) -> list[Op]:
    """The ops of the first ``n_cycles`` cycles."""
    return [op for cycle in islice(cycles(workload, seed, work), n_cycles) for op in cycle]


def rss_ops(workload: str, cycle: list[Op]) -> list[int]:
    """Indices of the ops of a cycle that each run alone in a fresh process
    for ``peak_rss_mb``: the largest op of each kind that could set it."""
    def largest(key):
        return max(range(len(cycle)), key=lambda i: key(cycle[i]))
    if workload == "local-shots":
        return [largest(lambda op: op.items)]
    if workload == "sweep-haar":
        return [largest(lambda op: op.items), largest(lambda op: max(op.spec["d"]))]
    # The d=8 detector ops, whose 256/512-dimensional density matrices set
    # the peak; the haar one of each mode, so that the seed does not choose.
    return [largest(lambda op: (op.spec["pipeline"] == mode, op.spec.get("d", [0])[0],
                                op.spec.get("env_model") == "haar"))
            for mode in DETECTOR_MODES]


def warmup(workload: str, work: str) -> Op:
    """Small untimed op of the workload's kind, run once per process."""
    rng = _rng(workload, 0, "warmup")
    if workload == "local-shots":
        return local_op(rng, work, "warmup", 1000, "X", False, "json-lines")
    if workload == "sweep-haar":
        return sweep_op(rng, work, "warmup", [4, 64], 2, "uniform", "json-lines")
    return detector_op(rng, work, "warmup", "blindness", 4, "haar", "uniform")
