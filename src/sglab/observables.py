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

import numpy as np

from .tensor import PureState, Register, RegisterError, _slot_first, apply_operator

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


def apply_pauli(state: PureState, obs: PauliString) -> PureState:
    """O|psi> applied slot by slot (cheap: one 2x2 per non-identity letter)."""
    obs.validate_against(state.register)
    out = state
    for label in obs.support():
        out = apply_operator(out, PAULI[obs.letters[label]], [label])
    return out


def _mean(state: PureState, applied: PureState) -> float:
    """<psi|O psi> from psi and ``applied`` = O psi."""
    return float(np.real(np.vdot(state.amplitudes, applied.amplitudes)))


def pauli_expectation(state: PureState, obs: PauliString) -> float:
    """<psi|O|psi> of a Pauli string, through ``apply_pauli``."""
    return _mean(state, apply_pauli(state, obs))


@dataclass(frozen=True)
class MeasurementOutcome:
    eigenvalue: int
    probability: float
    post_state: PureState


def measure_projective(state: PureState, obs: PauliString,
                       rng: np.random.Generator) -> MeasurementOutcome:
    """Projective measurement with Born sampling and collapse.

    Samples eigenvalue lam with probability ||P_lam psi||^2 where
    P_lam = (I + lam O)/2 and returns the normalized projected state.
    Deterministic given the generator state.  On an eigenstate of ``obs``
    the post-state equals the input (fidelity 1).
    """
    if obs.is_identity():
        raise ValueError("observable is identically I; nothing to measure")
    applied = apply_pauli(state, obs)  # refuses labels the register lacks
    p_plus = min(max((1.0 + _mean(state, applied)) / 2.0, 0.0), 1.0)
    if p_plus < BRANCH_EPS:
        eigenvalue = -1
    elif 1.0 - p_plus < BRANCH_EPS:
        eigenvalue = +1
    else:
        eigenvalue = +1 if rng.random() < p_plus else -1
    probability = p_plus if eigenvalue == +1 else 1.0 - p_plus
    projected = (state.amplitudes + eigenvalue * applied.amplitudes) / 2.0
    post = PureState._adopt(state.register, projected).normalize()
    return MeasurementOutcome(eigenvalue, probability, post)


def _parity_readout(state: PureState, controls, rng: np.random.Generator,
                    x_basis: bool) -> tuple[int, PureState]:
    ancilla = "b"  # the coupling ancilla
    if float(np.sum(np.abs(_slot_first(state, ancilla)[1:]) ** 2)) > 1e-12:
        raise ValueError(f"coupling ancilla {ancilla!r} must start in |0>")
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
                      controls=("a_up", "a_dn")) -> tuple[int, PureState]:
    """Nondestructive two-qubit Z-parity readout via the coupling ancilla b.

    CNOTs from both controls onto the ancilla, then a projective Z readout
    of the ancilla.  Ancilla |1> (flipped once) reports eigenvalue -1, i.e.
    opposite Z values on the controls, without revealing either value.
    The returned state keeps the ancilla slot (collapsed).
    """
    return _parity_readout(state, controls, rng, x_basis=False)


def joint_circuit_xxx(state: PureState, rng: np.random.Generator) -> tuple[int, PureState]:
    """Nondestructive X-parity readout of (a_up, a_dn, c) via the coupling ancilla b.

    Each control is conjugated by Hadamards around its CNOT onto the
    ancilla, accumulating X-basis parity.  The copy slot c is expected to
    carry the downstream spin X information (prepared by the experiment
    pipeline).  Readout +1 reports product of X values = +1.
    """
    return _parity_readout(state, ("a_up", "a_dn", "c"), rng, x_basis=True)
