"""Pauli-string algebra and measurement.

Sign conventions, fixed once and used everywhere:

* Single-qubit action on kets (|1>, |0>):  Z|1> = |1>, Z|0> = -|0>,
  X swaps them, Y|1> = i|0>, Y|0> = -i|1>.  In the (|0>, |1>) index
  ordering this makes Z = diag(-1, +1), so the readout value +1
  corresponds to the |1> state.
* Hadamard is (X + Z)/sqrt(2) for that Z, mapping Z eigenstates to X
  eigenstates with the same eigenvalue: H|1> = |+>, H|0> = |->.
* Parity-circuit readout: the coupling ancilla is read in the Z basis.
  With two controls, ancilla |1> (odd flip count) reports eigenvalue -1;
  with three controls the mapping inverts, so ancilla |1> reports +1.
  Both cases are the single rule ``(-1)**(n_controls + flips)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .tensor import (
    EnsembleState,
    PureState,
    Register,
    RegisterError,
    _slot_first,
    apply_operator,
)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, 1j], [-1j, 0]], dtype=complex),
    "Z": np.array([[-1, 0], [0, 1]], dtype=complex),
}

HADAMARD = (PAULI["X"] + PAULI["Z"]) / np.sqrt(2)

# Control slot first (big-endian): flips the target when the control is |1>.
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)

# Branch probabilities below this threshold are never sampled.
BRANCH_EPS = 1e-14


@dataclass
class PauliString:
    """Word over {I, X, Y, Z} addressed to named qubit slots.

    Labels omitted from ``letters`` act as identity.  The induced operator
    is Hermitian with eigenvalues +-1.
    """

    letters: dict[str, str]

    def __post_init__(self):
        clean = {}
        for label, letter in self.letters.items():
            letter = letter.upper()
            if letter not in PAULI:
                raise ValueError(f"unknown Pauli letter {letter!r}")
            clean[str(label)] = letter
        self.letters = clean

    @classmethod
    def from_word(cls, word: str, register: Register) -> "PauliString":
        """Letters assigned to register slots in order, e.g. "ZZI"."""
        if len(word) != len(register.labels):
            raise RegisterError("word length does not match register slot count")
        return cls(dict(zip(register.labels, word)))

    def support(self) -> list[str]:
        return [l for l, p in self.letters.items() if p != "I"]

    def is_identity(self) -> bool:
        return not self.support()

    def validate_against(self, register: Register) -> None:
        for label in self.letters:
            register.axis(label)
            if register.dim_of(label) != 2:
                raise RegisterError(f"Pauli letter addressed to non-qubit slot {label!r}")


def pauli_matrix(obs: PauliString, register: Register) -> np.ndarray:
    """Dense operator of a Pauli string on the full register."""
    obs.validate_against(register)
    factors = []
    for label, dim in register.slots:
        letter = obs.letters.get(label, "I")
        factors.append(PAULI[letter] if dim == 2 else np.eye(dim, dtype=complex))
    return reduce(np.kron, factors)


def apply_pauli(state: PureState, obs: PauliString) -> PureState:
    """O|psi> applied slot by slot (cheap: one 2x2 per non-identity letter)."""
    obs.validate_against(state.register)
    out = state
    for label in obs.support():
        out = apply_operator(out, PAULI[obs.letters[label]], [label])
    return out


def pauli_expectation(state: PureState, obs: PauliString) -> float:
    """<psi|O|psi> of a Pauli string, through ``apply_pauli``."""
    return float(np.real(np.vdot(state.amplitudes, apply_pauli(state, obs).amplitudes)))


@dataclass(frozen=True)
class MeasurementOutcome:
    eigenvalue: int
    probability: float
    post_state: PureState


def _sample_member(state: EnsembleState, rng: np.random.Generator) -> PureState:
    idx = rng.choice(len(state.members), p=state.weights)
    return state.members[idx][1]


def _measure(state, obs: PauliString, rng: np.random.Generator) -> MeasurementOutcome:
    if isinstance(state, EnsembleState):
        state = _sample_member(state, rng)
    if obs.is_identity():
        raise ValueError("observable is identically I; nothing to measure")
    obs.validate_against(state.register)
    applied = apply_pauli(state, obs)
    mean = float(np.real(np.vdot(state.amplitudes, applied.amplitudes)))
    p_plus = min(max((1.0 + mean) / 2.0, 0.0), 1.0)
    if p_plus < BRANCH_EPS:
        eigenvalue = -1
    elif 1.0 - p_plus < BRANCH_EPS:
        eigenvalue = +1
    else:
        eigenvalue = +1 if rng.random() < p_plus else -1
    probability = p_plus if eigenvalue == +1 else 1.0 - p_plus
    projected = (state.amplitudes + eigenvalue * applied.amplitudes) / 2.0
    post = PureState(state.register, projected / np.linalg.norm(projected))
    return MeasurementOutcome(eigenvalue, probability, post)


def measure_projective(state, obs: PauliString, rng: np.random.Generator) -> MeasurementOutcome:
    """Projective measurement with Born sampling and collapse.

    Samples eigenvalue lam with probability ||P_lam psi||^2 where
    P_lam = (I + lam O)/2 and returns the normalized projected state.
    Deterministic given the generator state.  EnsembleState input is
    handled by first sampling a member by weight.
    """
    return _measure(state, obs, rng)


def measure_joint_spectral(state, obs: PauliString, rng: np.random.Generator) -> MeasurementOutcome:
    """Idealized joint measurement via spectral projection.

    Same sampling contract as measure_projective; the point of the separate
    name is the reading: when the input is an eigenstate, the post-state
    equals the input (fidelity 1), so nothing about the state is destroyed.
    """
    return _measure(state, obs, rng)


def _check_ancilla_ready(state: PureState, ancilla: str) -> None:
    marginal = _slot_first(state, ancilla)
    weight_outside_zero = float(np.sum(np.abs(marginal[1:]) ** 2))
    if weight_outside_zero > 1e-12:
        raise ValueError(f"coupling ancilla {ancilla!r} must start in |0>")


def _parity_readout(state: PureState, controls, ancilla: str,
                    rng: np.random.Generator, x_basis: bool) -> tuple[int, PureState]:
    _check_ancilla_ready(state, ancilla)
    work = state
    for c in controls:
        if x_basis:
            work = apply_operator(work, HADAMARD, [c])
        work = apply_operator(work, CNOT, [c, ancilla])
        if x_basis:
            work = apply_operator(work, HADAMARD, [c])
    outcome = measure_projective(work, PauliString({ancilla: "Z"}), rng)
    flips = 1 if outcome.eigenvalue == +1 else 0  # Z readout +1 <-> ancilla |1>
    readout = int((-1) ** (len(list(controls)) + flips))
    return readout, outcome.post_state


def joint_circuit_izz(state: PureState, rng: np.random.Generator,
                      controls=("a_up", "a_dn"), ancilla: str = "b") -> tuple[int, PureState]:
    """Nondestructive two-qubit Z-parity readout via a coupling ancilla.

    CNOTs from both controls onto the ancilla, then a projective Z readout
    of the ancilla.  Ancilla |1> (flipped once) reports eigenvalue -1, i.e.
    opposite Z values on the controls, without revealing either value.
    The returned state keeps the ancilla slot (collapsed).
    """
    return _parity_readout(state, controls, ancilla, rng, x_basis=False)


def joint_circuit_xxx(state: PureState, rng: np.random.Generator,
                      controls=("a_up", "a_dn", "c"), ancilla: str = "b") -> tuple[int, PureState]:
    """Nondestructive three-qubit X-parity readout via a coupling ancilla.

    Each control is conjugated by Hadamards around its CNOT onto the
    ancilla, accumulating X-basis parity.  The third control slot is
    expected to carry the downstream spin X information (prepared by the
    experiment pipeline).  Readout +1 reports product of X values = +1.
    """
    return _parity_readout(state, controls, ancilla, rng, x_basis=True)
