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
    expectation,
    factor_out,
    haar_unitary,
    partial_trace,
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
    measure_joint_spectral,
    measure_projective,
    pauli_matrix,
)
from .experiment import (
    SpinPrep,
    StageState,
    branch_mixture,
    condition_on_spin_x,
    evolve_stages,
    expectation_t4,
    ordinary_premeasurement,
    premeasurement_state,
    run_joint_mode,
    run_local_mode,
)
from .decoherence import (
    CoherenceFactor,
    DetectorModel,
    absorbing_variant,
    blindness_contrast,
    coherence_factor,
    demon_x_operator,
    detector_passage_unitary,
    reduced_rho_analytic,
    rho_t4_full,
    sweep_suppression,
)
from .reports import RowTable, RunReport, emit_report, parse_config_echo, render_report
from .sampling import split, stream

__version__ = "0.1.0"
