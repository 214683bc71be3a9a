"""sglab: numerical laboratory for an ancilla-aided Stern-Gerlach
measurement model, with exact and Monte Carlo verification of its
entanglement, correlation, and decoherence-suppression claims."""

from .tensor import (
    DIM_CAP,
    DensityMatrix,
    DimensionCapError,
    EnsembleState,
    PureState,
    Register,
    RegisterError,
    apply_operator,
    basis_state,
    factor_out,
    haar_unitary,
    qubits,
    tensor_product,
)
from .observables import (
    CNOT,
    HADAMARD,
    PAULI,
    MeasurementOutcome,
    PauliString,
    apply_pauli,
    joint_circuit_izz,
    joint_circuit_xxx,
    measure_projective,
    pauli_expectation,
)
from .experiment import (
    SpinPrep,
    branch_mixture,
    condition_on_spin_x,
    ordinary_premeasurement,
    premeasurement_state,
    run_condition_mode,
    run_joint_mode,
    run_local_mode,
    run_ordinary_mode,
)
from .decoherence import (
    CoherenceFactor,
    DetectorModel,
    blindness_contrast,
    coherence_factor,
    reduced_rho_analytic,
    rho_t4_full,
    run_detector_mode,
    sweep_suppression,
)
from .reports import Coded, RowTable, RunReport, emit_report, parse_config_echo, render_report
from .sampling import split, stream

__version__ = "0.1.0"
