"""Every validation gate refuses NaN, and every malformed value is refused
by its library entry and by the CLI before any work.

Each gate compares a deviation with its tolerance as ``not dev <= tol``,
which is True for NaN, where ``dev > tol`` would let NaN through.
"""
import contextlib
import io
import json
import re

import numpy as np
import pytest

from sglab import (
    CoherenceFactor,
    DensityMatrix,
    DetectorModel,
    DimensionCapError,
    EnsembleState,
    PureState,
    SpinPrep,
    basis_state,
    decoherence,
    experiment,
    factor_out,
    qubits,
    run_detector_mode,
    run_joint_mode,
    run_local_mode,
    sampling,
    sweep_suppression,
)
from sglab.cli import PIPELINES, ConfigError, ExperimentConfig, main
from sglab.decoherence import ENV_DIM_CAP
from sglab.sampling import split

NAN = float("nan")
ONE = qubits("q")
PREP = SpinPrep(0.6, 0.8j)


def _ensemble():
    zero, one = basis_state(ONE, "0"), basis_state(ONE, "1")
    return EnsembleState(((NAN, zero), (0.5, one)))


def _unchecked(value):
    return PureState._adopt(qubits("q", "r"), np.array([value, 0.0, 0.0, 0.0], dtype=complex))


GATES = {
    "ExperimentConfig amplitudes": (lambda: ExperimentConfig(pipeline="local", alpha_re=NAN),
                                    ConfigError, "prep amplitudes"),
    "SpinPrep": (lambda: SpinPrep(complex(NAN, 0.0), 0.0), ValueError, "alpha"),
    "PureState norm": (lambda: PureState(ONE, [NAN, 0.0]), ValueError, "norm"),
    "EnsembleState weights": (_ensemble, ValueError, "weights"),
    "DensityMatrix hermiticity": (lambda: DensityMatrix(ONE, [[0.5, NAN], [0.0, 0.5]]),
                                  ValueError, "Hermitian"),
    # A NaN on the diagonal is caught by the hermiticity test (NaN != NaN)
    # before the trace test sees it.
    "DensityMatrix diagonal": (lambda: DensityMatrix(ONE, [[NAN, 0.0], [0.0, 0.5]]),
                               ValueError, "Hermitian"),
    "DetectorModel weights": (lambda: DetectorModel(2, [NAN, 0.5], np.eye(2)),
                              ValueError, "weights"),
    "DetectorModel unitarity": (lambda: DetectorModel(2, [0.5, 0.5], [[NAN, 0.0], [0.0, 1.0]]),
                                ValueError, "unitary"),
    "CoherenceFactor": (lambda: CoherenceFactor(complex(NAN, 0.0)), ValueError, "magnitude"),
    # Public construction refuses a non-finite state, so one can arise only
    # inside an operation, as a derived state; factor_out names the slot:
    # a NaN stops the SVD, and an infinity gives NaN Schmidt values.
    "factor_out SVD": (lambda: factor_out(_unchecked(NAN), "r"), ValueError, "slot 'r'"),
    "factor_out Schmidt value": (lambda: factor_out(_unchecked(float("inf")), "r"),
                                 ValueError, "slot 'r'"),
}


@pytest.mark.parametrize("gate", GATES)
def test_gate_refuses_nan(gate):
    build, error, message = GATES[gate]
    with pytest.raises(error, match=message):
        build()


# One malformed value per row: its library call, the error and message that
# call raises, and a CLI argv carrying the same value (a dict stands for a
# --config file holding it; None where the CLI has no such value) with its
# exit code.  The CLI passes the library's message through.
BAD_VALUES = {
    "joint word after two good ones": (
        lambda: run_joint_mode(PREP, ["IZZ", "ZZI", "bogus"], 1), ValueError,
        "unknown joint observables ['bogus']", ["joint", "--observables", "IZZ,ZZI,bogus"], 2),
    "local seed 1.5": (
        lambda: run_local_mode(PREP, "Z", 10, 1.5), ValueError,
        "seed must be an integer >= 0, got 1.5", ["local", {"seed": 1.5}], 2),
    "local seed True": (
        lambda: run_local_mode(PREP, "X", 10, True), ValueError,
        "seed must be an integer >= 0, got True", ["local", {"seed": True}], 2),
    "joint seed -1": (
        lambda: run_joint_mode(PREP, ["IZZ"], -1), ValueError,
        "seed must be an integer >= 0, got -1", ["joint", "--seed", "-1"], 2),
    "sweep seed 1.5": (
        lambda: sweep_suppression(PREP, [2], 3, 1.5), ValueError,
        "seed must be an integer >= 0, got 1.5", ["sweep", {"seed": 1.5}], 2),
    "sweep seed True": (
        lambda: sweep_suppression(PREP, [2], 3, True), ValueError,
        "seed must be an integer >= 0, got True", ["sweep", {"seed": True}], 2),
    "local shots 2.5": (
        lambda: run_local_mode(PREP, "Z", 2.5, 1), ValueError,
        "shots must be an integer >= 1, got 2.5", ["local", {"shots": 2.5}], 2),
    "local basis Y": (
        lambda: run_local_mode(PREP, "Y", 10, 1), ValueError,
        "basis must be Z or X, got 'Y'", ["local", "--basis", "Y"], 2),
    "prep norm": (
        lambda: SpinPrep(1.0, 1.0), ValueError,
        "prep amplitudes must satisfy |alpha|^2 + |beta|^2 = 1, got 2.0",
        ["ordinary", "--alpha-re", "1", "--beta-re", "1"], 2),
    "DetectorModel d 2.0": (
        lambda: DetectorModel(d=2.0, weights=[0.5, 0.5], V=np.eye(2)), ValueError,
        "d must be an integer >= 1, got 2.0", ["blindness", {"d": [2.0]}], 2),
    "sample d 2.7": (
        lambda: DetectorModel.sample(2.7, 1), ValueError,
        "d must be an integer >= 1, got 2.7", ["blindness", {"d": [2.7]}], 2),
    "sample d True": (
        lambda: DetectorModel.sample(True, 1), ValueError,
        "d must be an integer >= 1, got True", ["absorbing", {"d": [True]}], 2),
    "sample phases d 2.0": (
        lambda: DetectorModel.sample(2.0, 1, "phases"), ValueError,
        "d must be an integer >= 1, got 2.0",
        ["blindness", {"d": [2.0], "env_model": "phases"}], 2),
    "sweep empty d": (
        lambda: sweep_suppression(PREP, [], 3, 1), ValueError,
        "d must be a non-empty list of distinct integers, got []", ["sweep", "--d", ""], 2),
    "sweep trials True": (
        lambda: sweep_suppression(PREP, [2], True, 1), ValueError,
        "trials must be an integer >= 1, got True", ["sweep", {"trials": True}], 2),
    "sweep d over cap": (
        lambda: sweep_suppression(PREP, [ENV_DIM_CAP + 1], 3, 1), DimensionCapError,
        f"environment dimension {ENV_DIM_CAP + 1} exceeds", ["sweep", "--d", str(ENV_DIM_CAP + 1)],
        3),
    "sample identity seed -1": (
        lambda: DetectorModel.sample(2, -1, "identity"), ValueError,
        "seed must be an integer >= 0, got -1",
        ["blindness", "--env-model", "identity", "--seed", "-1"], 2),
    "run_detector_mode seed 1.5": (
        lambda: run_detector_mode(PREP, 2, 1.5, "haar", "uniform", "transmitting"), ValueError,
        "seed must be an integer >= 0, got 1.5", ["blindness", {"seed": 1.5}], 2),
    "sample mode": (
        lambda: DetectorModel.sample(2, 1, mode="bogus"), ValueError,
        "mode must be one of ('transmitting', 'absorbing'), got 'bogus'", None, None),
    "run_detector_mode mode": (
        lambda: run_detector_mode(PREP, 2, 1, "haar", "uniform", "bogus"), ValueError,
        "mode must be one of ('transmitting', 'absorbing'), got 'bogus'", None, None),
    "blindness d over cap": (
        lambda: run_detector_mode(PREP, ENV_DIM_CAP + 1, 1, "haar", "uniform", "transmitting"),
        DimensionCapError, f"environment dimension {ENV_DIM_CAP + 1} exceeds",
        ["blindness", "--d", str(ENV_DIM_CAP + 1)], 3),
    "absorbing d over cap": (
        lambda: run_detector_mode(PREP, ENV_DIM_CAP + 1, 1, "phases", "uniform", "absorbing"),
        DimensionCapError, f"environment dimension {ENV_DIM_CAP + 1} exceeds",
        ["absorbing", "--d", str(ENV_DIM_CAP + 1), "--env-model", "phases"], 3),
    "split n 2.5": (
        lambda: split(1, 2.5), ValueError, "n must be an integer >= 1, got 2.5", None, None),
}

# Where streams are made, and the joint step: a refusal reaches none of them.
STREAM_MAKERS = [(experiment, "stream"), (sampling, "stream"),
                 (decoherence, "stream"), (decoherence, "spawn"), (decoherence, "split")]


@pytest.fixture
def reached(monkeypatch):
    """Names of the streams made and the joint steps started during the test."""
    reached = []

    def spy(module, name):
        original = getattr(module, name)

        def made(*args, **kwargs):
            out = original(*args, **kwargs)  # a refused seed raises here, making none
            reached.append(f"{module.__name__}.{name}")
            return out
        monkeypatch.setattr(module, name, made)

    for module, name in STREAM_MAKERS:
        spy(module, name)
    step = experiment._joint_step
    monkeypatch.setattr(experiment, "_joint_step",
                        lambda *args: reached.append("_joint_step") or step(*args))
    return reached


@pytest.mark.parametrize("case", BAD_VALUES)
def test_library_refuses_before_any_stream(case, reached):
    call, error, message, _, _ = BAD_VALUES[case]
    with pytest.raises(error, match=re.escape(message)):
        call()
    assert reached == []


@pytest.mark.parametrize("case", [case for case, row in BAD_VALUES.items() if row[3]])
def test_cli_refuses_before_any_stream(case, reached, tmp_path, capsys):
    _, _, message, argv, code = BAD_VALUES[case]
    args = []
    for arg in argv:
        if isinstance(arg, dict):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(arg))
            args += ["--config", str(config)]
        else:
            args.append(arg)
    out = tmp_path / "report"
    assert main(["run", *args, "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert reached == [] and not out.exists()


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_negative_seed_exits_2_for_every_pipeline(pipeline, tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["run", pipeline, "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


# Seeds above 2**64 stay accepted, and the caps apply only to the values a
# pipeline uses.
@pytest.mark.parametrize("argv", [
    ["ordinary", "--seed", str(2**65)],
    ["local", "--observables", ",", "--shots", "5"],
    ["local", "--d", "100000", "--shots", "5"],
    ["condition", "--trials", str(10**9)],
])
def test_large_seeds_and_unused_fields_run(argv, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", *argv, "--out", str(tmp_path / "report")]) == 0
