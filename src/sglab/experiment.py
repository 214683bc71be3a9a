"""Stern-Gerlach pipelines over the spin + two-ancilla register.

Stage picture: the spin state (alpha, beta) enters at t1 with both path
ancillae in |0>; by t2 the two spin components occupy separated paths
(represented by a path-occupation qubit pair, overlap exactly zero); by t3
each path ancilla has flipped conditioned on the atom's passage; at t4 the
paths are recombined with zero relative phase (a knob adds exp(i*chi) to
the second branch) and the spatial factor is dropped, leaving

    alpha |1 1 0> + beta |0 0 1>   on slots (s, a_up, a_dn).

Local mode reads the three factors slot by slot; joint mode runs the
coupling-ancilla parity circuits nondestructively on one state instance;
condition mode reads the ancillae after a spin X readout, ordinary mode an
unaided apparatus.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observables import (
    CNOT,
    HADAMARD,
    PauliString,
    joint_circuit_izz,
    joint_circuit_xxx,
    pauli_expectation,
)
from .reports import Coded, RowTable, RunReport
from .sampling import check_int, stream
from .tensor import (
    DimensionCapError,
    EnsembleState,
    PureState,
    Register,
    apply_operator,
    basis_state,
    factor_out,
    qubits,
    tensor_product,
)

ANCILLA_REGISTER = qubits("s", "a_up", "a_dn")
PATH_REGISTER = qubits("s", "p_up", "p_dn")

PROJECT_ONE = np.array([[0, 0], [0, 1]], dtype=complex)
PROJECT_ZERO = np.array([[1, 0], [0, 0]], dtype=complex)

JOINT_OBSERVABLES = ("IZZ", "ZZI", "ZIZ", "XXX")

# A local run's peak memory grows by about 16 B per shot, 19 B with the
# mixture (process RSS at 1e6 and 4e6 shots), so 2**24 shots need about
# 0.3 GB; refuse more.
SHOTS_CAP = 2**24

# Outcome words of the three slots, indexed by amplitude index (big-endian).
_WORDS = tuple(format(w, "03b") for w in range(8))
# Readout eigenvalue of each slot per word (+1 for 1, -1 for 0) and their product.
_SLOT_EIGENVALUES = 2 * ((np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1) - 1
_WORD_PRODUCTS = _SLOT_EIGENVALUES.prod(axis=1).astype(np.int8)


@dataclass(frozen=True)
class SpinPrep:
    """Incoming spin amplitudes (alpha on |1> = up, beta on |0> = down)."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        norm2 = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm2 - 1.0) <= 1e-12:
            got = repr(norm2) if np.isfinite(norm2) else "a non-finite value"
            raise ValueError(f"prep amplitudes must satisfy |alpha|^2 + |beta|^2 = 1, got {got}")

    @classmethod
    def balanced(cls) -> "SpinPrep":
        return cls(1 / np.sqrt(2), 1 / np.sqrt(2))


def _two_branch_state(register: Register, alpha: complex, beta: complex,
                      upper_word: str, lower_word: str) -> PureState:
    upper = basis_state(register, upper_word)
    lower = basis_state(register, lower_word)
    return PureState(register, alpha * upper.amplitudes + beta * lower.amplitudes)


def premeasurement_state(prep: SpinPrep, phase: float = 0.0) -> PureState:
    """The t4 state on (s, a_up, a_dn); ``phase`` multiplies the second
    branch at recombination."""
    return _two_branch_state(ANCILLA_REGISTER, prep.alpha, prep.beta * np.exp(1j * phase),
                             "110", "001")


def branch_mixture(prep: SpinPrep) -> EnsembleState:
    """Classical mixture of the two t4 branches with Born weights.

    This is the contrast state: it duplicates every Z-mode statistic of t4
    while destroying the XXX definiteness.
    """
    upper = basis_state(ANCILLA_REGISTER, "110")
    lower = basis_state(ANCILLA_REGISTER, "001")
    return EnsembleState(((abs(prep.alpha) ** 2, upper), (abs(prep.beta) ** 2, lower)))


def ordinary_premeasurement(prep: SpinPrep) -> PureState:
    """Path-occupation premeasurement of an unaided apparatus (the t2 state).

    The state on (s, p_up, p_dn) is an exact eigenstate of the joint words
    Z_pup Z_pdn = -1, Z_s Z_pup = +1, Z_s Z_pdn = -1 for every prep.
    """
    return _two_branch_state(PATH_REGISTER, prep.alpha, prep.beta, "110", "001")


def condition_on_spin_x(prep: SpinPrep, outcome: int, phase: float = 0.0) -> PureState:
    """Two-ancilla state conditioned on a spin X readout of +-1.

    For balanced prep the results are the Bell states
    (|10> + |01>)/sqrt(2) and (|10> - |01>)/sqrt(2).
    """
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    state = premeasurement_state(prep, phase=phase)
    rotated = apply_operator(state, HADAMARD, ["s"])
    projector = PROJECT_ONE if outcome == +1 else PROJECT_ZERO
    projected = apply_operator(rotated, projector, ["s"])
    if projected.norm() ** 2 < 1e-14:
        raise ValueError(f"spin X outcome {outcome:+d} has vanishing probability")
    _, conditional = factor_out(projected.normalize(), "s")
    return conditional


def run_condition_mode(prep: SpinPrep) -> RunReport:
    """Per spin X readout (+1, then -1): the conditional (a_up, a_dn) amplitudes,
    their fidelity with (|10> + outcome |01>)/sqrt(2) and <Z_up Z_dn>."""
    zz = PauliString({"a_up": "Z", "a_dn": "Z"})
    rows = []
    for outcome in (+1, -1):
        conditional = condition_on_spin_x(prep, outcome)
        bell = _two_branch_state(conditional.register, 1 / np.sqrt(2), outcome / np.sqrt(2),
                                 "10", "01")
        rows.append({
            "spin_x_outcome": outcome,
            "amplitudes": [complex(a) for a in conditional.amplitudes],
            "bell_fidelity": float(conditional.fidelity(bell)),
            "zz_anticorrelation": pauli_expectation(conditional, zz),
        })
    return RunReport(rows, {"bell_fidelities": [r["bell_fidelity"] for r in rows]})


def run_ordinary_mode(prep: SpinPrep) -> RunReport:
    """The joint Z words of ``ordinary_premeasurement``, as one row and its summary."""
    state = ordinary_premeasurement(prep)
    row = {"stage": "t2"}
    for key, word in (("z_pup_z_pdn", "IZZ"), ("z_s_z_pup", "ZZI"), ("z_s_z_pdn", "ZIZ")):
        row[key] = pauli_expectation(state, PauliString.from_word(word, state.register))
    return RunReport([row], dict(row))


def check_basis(basis) -> None:
    """Refuse a local readout basis other than Z or X."""
    if basis not in ("Z", "X"):
        raise ValueError(f"basis must be Z or X, got {basis!r}")


def check_observables(observables) -> list:
    """The joint words as a list; refuses any word outside ``JOINT_OBSERVABLES``."""
    observables = list(observables)
    unknown = [name for name in observables if name not in JOINT_OBSERVABLES]
    if unknown:
        raise ValueError(f"unknown joint observables {unknown} (choose from {JOINT_OBSERVABLES})")
    return observables


def _sample_words(prob_sets, weights, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Word indices (uint8) for each shot, mixing members by weight."""
    if len(prob_sets) == 1:
        return rng.choice(len(prob_sets[0]), size=shots, p=prob_sets[0]).astype(np.uint8)
    members = rng.choice(len(prob_sets), size=shots, p=weights)
    words = np.empty(shots, dtype=np.uint8)
    for k, probs in enumerate(prob_sets):
        mask = members == k
        count = int(mask.sum())
        if count:
            words[mask] = rng.choice(len(probs), size=count, p=probs)
    return words


def run_local_mode(prep: SpinPrep, basis: str, shots: int, seed: int,
                   mixture: bool = False) -> RunReport:
    """Local factor-by-factor readout of the t4 state (recombination phase 0).

    Each shot measures the three slots in the chosen basis (X readout is a
    Hadamard on every slot followed by a Z readout).  The three slot
    measurements commute and act in a product basis, so a shot's outcome
    word is drawn exactly from the joint Born distribution; sampling the
    word directly is the same experiment without the per-shot rebuild.

    The rows are columns (a ``RowTable``): ``shot``, then the ``word``
    label and the eigenvalue ``product`` of each shot as two ``Coded``
    columns on the one uint8 array of sampled word indices.  The summary
    comes from the word counts alone (``np.bincount``), so no per-shot
    Python objects are made.
    """
    if check_int("shots", shots) > SHOTS_CAP:
        raise DimensionCapError(f"{shots} shots exceed cap {SHOTS_CAP}")
    check_basis(basis)
    rng = stream(seed)
    if mixture:
        members = branch_mixture(prep)
        states = [s for _, s in members.members]
        weights = members.weights
    else:
        states = [premeasurement_state(prep)]
        weights = np.array([1.0])
    if basis == "X":
        h3 = np.kron(np.kron(HADAMARD, HADAMARD), HADAMARD)
        states = [apply_operator(s, h3, ["s", "a_up", "a_dn"]) for s in states]
    prob_sets = []
    for s in states:
        p = s.probabilities()
        prob_sets.append(p / p.sum())
    words = _sample_words(prob_sets, weights, shots, rng)

    counts = np.bincount(words, minlength=len(_WORDS))
    means = (counts @ _SLOT_EIGENVALUES) / shots
    summary = {
        "word_counts": {_WORDS[w]: n for w, n in enumerate(counts.tolist()) if n},
        "mean_s": float(means[0]),
        "mean_a_up": float(means[1]),
        "mean_a_dn": float(means[2]),
        "product_mean": float((counts @ _WORD_PRODUCTS) / shots),
        "product_always_plus_one": bool(np.all(_WORD_PRODUCTS[counts > 0] == 1)),
    }
    rows = RowTable({
        "shot": np.arange(shots),
        "word": Coded(words, _WORDS),
        "product": Coded(words, tuple(_WORD_PRODUCTS.tolist())),
    })
    return RunReport(rows, summary)


# The |0> ancillae a joint step appends, built once: states are immutable.
_FRESH_ANCILLAE = {labels: basis_state(qubits(*labels), "0" * len(labels))
                   for labels in (("b",), ("c", "b"))}

_Z_COPY = ((CNOT, ("s", "c")),)
# X-basis copy of the spin onto c, then c rotated so X_c carries X_s.
_X_COPY = ((HADAMARD, ("s",)), (CNOT, ("s", "c")), (HADAMARD, ("s",)), (HADAMARD, ("c",)))
# Per joint word: the gates that copy the spin onto the copy ancilla c (the
# downstream re-measurement leg), and the Z-parity controls of
# joint_circuit_izz, or None for joint_circuit_xxx on (a_up, a_dn, c).
_JOINT_STEPS = {
    "IZZ": ((), ("a_up", "a_dn")),
    "ZZI": (_Z_COPY, ("a_up", "c")),
    "ZIZ": (_Z_COPY, ("a_dn", "c")),
    "XXX": (_X_COPY, None),
}


def _joint_step(state: PureState, name: str, rng: np.random.Generator) -> tuple[int, PureState]:
    """One nondestructive joint readout; returns (readout, state on s/a_up/a_dn).

    The copy gates run, the coupling ancilla b is read, and the gates run
    again in reverse order, which uncomputes the copy (H and CNOT are
    self-inverse); the ancillae are then factored out, last appended first.
    """
    gates, controls = _JOINT_STEPS[name]
    ancillae = ("c", "b") if gates else ("b",)
    work = tensor_product(state, _FRESH_ANCILLAE[ancillae])
    for op, slots in gates:
        work = apply_operator(work, op, slots)
    if controls is None:
        readout, post = joint_circuit_xxx(work, rng)
    else:
        readout, post = joint_circuit_izz(work, rng, controls=controls)
    for op, slots in reversed(gates):
        post = apply_operator(post, op, slots)
    for label in reversed(ancillae):
        _, post = factor_out(post, label)
    return readout, post


def run_joint_mode(prep: SpinPrep, observables, seed: int) -> RunReport:
    """Sequence of nondestructive joint readouts on one state instance.

    Repeated observables are allowed and reproduce their readout.  The
    report carries each readout and the fidelity of the surviving
    (s, a_up, a_dn) state with the initial t4 state (recombination phase 0).
    """
    observables = check_observables(observables)
    if not observables:
        raise ValueError("need at least one observable")
    rng = stream(seed)
    initial = premeasurement_state(prep)
    state = initial
    rows = []
    for i, name in enumerate(observables):
        readout, state = _joint_step(state, name, rng)
        rows.append({"step": i, "observable": name, "readout": int(readout)})
    fidelity = state.fidelity(initial)
    summary = {
        "readouts": [r["readout"] for r in rows],
        "final_fidelity": float(fidelity),
    }
    return RunReport(rows, summary)
