"""Every validation gate refuses NaN.

Each gate compares a deviation with its tolerance as ``not dev <= tol``,
which is True for NaN, where ``dev > tol`` would let NaN through.
"""
import numpy as np
import pytest

from sglab import (
    CoherenceFactor,
    DensityMatrix,
    DetectorModel,
    EnsembleState,
    PureState,
    SpinPrep,
    basis_state,
    qubits,
)
from sglab.cli import ConfigError, ExperimentConfig

NAN = float("nan")
ONE = qubits("q")


def _ensemble():
    zero, one = basis_state(ONE, "0"), basis_state(ONE, "1")
    return EnsembleState(((NAN, zero), (0.5, one)))


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
}


@pytest.mark.parametrize("gate", GATES)
def test_gate_refuses_nan(gate):
    build, error, message = GATES[gate]
    with pytest.raises(error, match=message):
        build()
