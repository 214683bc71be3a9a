"""Stern-Gerlach pipelines over the spin + two-ancilla register.

Stage picture: the spin state (alpha, beta) enters at t1 with both path
ancillae in |0>; by t2 the two spin components occupy separated paths
(represented by a path-occupation qubit pair, overlap exactly zero); by t3
each path ancilla has flipped conditioned on the atom's passage; at t4 the
paths are recombined with zero relative phase (a knob adds exp(i*chi) to
the second branch) and the spatial factor is dropped, leaving

    alpha |1 1 0> + beta |0 0 1>   on slots (s, a_up, a_dn).

Local mode reads the three factors slot by slot; joint mode runs the
coupling-ancilla parity circuits nondestructively on one state instance.
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
from .reports import RowTable, RunReport
from .sampling import stream
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

# A local run's peak memory grows by about 80 B per shot (measured at 1e6
# shots), so 2**24 shots need about 1.3 GB; refuse more.
SHOTS_CAP = 2**24

# Outcome words of the three slots, indexed by amplitude index (big-endian).
_WORDS = tuple(format(w, "03b") for w in range(8))
_WORD_LABELS = np.array(_WORDS)
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
        if not abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0) <= 1e-12:
            raise ValueError("spin prep must satisfy |alpha|^2 + |beta|^2 = 1")

    @classmethod
    def balanced(cls) -> "SpinPrep":
        return cls(1 / np.sqrt(2), 1 / np.sqrt(2))


@dataclass(frozen=True)
class StageState:
    stage: str  # one of t1..t4
    state: PureState


def _two_branch_state(register: Register, alpha: complex, beta: complex,
                      upper_word: str, lower_word: str) -> PureState:
    upper = basis_state(register, upper_word)
    lower = basis_state(register, lower_word)
    return PureState(register, alpha * upper.amplitudes + beta * lower.amplitudes)


def evolve_stages(prep: SpinPrep, phase: float = 0.0) -> list[StageState]:
    """The four-stage evolution t1 -> t4.

    t2 lives on the path register (the spatial separation is the
    re-labeling); t3/t4 live on the ancilla register with the ancilla word
    perfectly correlated with the spin.  ``phase`` multiplies the second
    branch at recombination.
    """
    a, b = prep.alpha, prep.beta
    t1 = _two_branch_state(ANCILLA_REGISTER, a, b, "100", "000")
    t2 = _two_branch_state(PATH_REGISTER, a, b, "110", "001")
    t3 = _two_branch_state(ANCILLA_REGISTER, a, b, "110", "001")
    t4 = _two_branch_state(ANCILLA_REGISTER, a, b * np.exp(1j * phase), "110", "001")
    return [StageState("t1", t1), StageState("t2", t2),
            StageState("t3", t3), StageState("t4", t4)]


def premeasurement_state(prep: SpinPrep, phase: float = 0.0) -> PureState:
    """The t4 state on (s, a_up, a_dn)."""
    return evolve_stages(prep, phase=phase)[3].state


def branch_mixture(prep: SpinPrep) -> EnsembleState:
    """Classical mixture of the two t4 branches with Born weights.

    This is the contrast state: it duplicates every Z-mode statistic of t4
    while destroying the XXX definiteness.
    """
    upper = basis_state(ANCILLA_REGISTER, "110")
    lower = basis_state(ANCILLA_REGISTER, "001")
    return EnsembleState(((abs(prep.alpha) ** 2, upper), (abs(prep.beta) ** 2, lower)))


def ordinary_premeasurement(prep: SpinPrep) -> StageState:
    """Path-occupation premeasurement of an unaided apparatus (t2 form).

    The state on (s, p_up, p_dn) is an exact eigenstate of the joint words
    Z_pup Z_pdn = -1, Z_s Z_pup = +1, Z_s Z_pdn = -1 for every prep.
    """
    return evolve_stages(prep)[1]


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


def _sample_words(prob_sets, weights, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Word indices for each shot, mixing members by weight."""
    if len(prob_sets) == 1:
        return rng.choice(len(prob_sets[0]), size=shots, p=prob_sets[0])
    members = rng.choice(len(prob_sets), size=shots, p=weights)
    words = np.empty(shots, dtype=np.int64)
    for k, probs in enumerate(prob_sets):
        mask = members == k
        count = int(mask.sum())
        if count:
            words[mask] = rng.choice(len(probs), size=count, p=probs)
    return words


def run_local_mode(prep: SpinPrep, basis: str, shots: int, seed: int,
                   mixture: bool = False, phase: float = 0.0) -> RunReport:
    """Local factor-by-factor readout of the t4 state.

    Each shot measures the three slots in the chosen basis (X readout is a
    Hadamard on every slot followed by a Z readout).  The three slot
    measurements commute and act in a product basis, so a shot's outcome
    word is drawn exactly from the joint Born distribution; sampling the
    word directly is the same experiment without the per-shot rebuild.

    The rows are columns (a ``RowTable``) gathered from per-word tables:
    ``shot``, the ``word`` label and the eigenvalue ``product`` of each
    shot.  The summary comes from the word counts alone
    (``np.bincount``), so no per-shot Python objects are made.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > SHOTS_CAP:
        raise DimensionCapError(f"{shots} shots exceed cap {SHOTS_CAP}")
    if basis not in ("Z", "X"):
        raise ValueError("basis must be Z or X")
    if mixture:
        members = branch_mixture(prep)
        states = [s for _, s in members.members]
        weights = members.weights
    else:
        states = [premeasurement_state(prep, phase=phase)]
        weights = np.array([1.0])
    if basis == "X":
        h3 = np.kron(np.kron(HADAMARD, HADAMARD), HADAMARD)
        states = [apply_operator(s, h3, ["s", "a_up", "a_dn"]) for s in states]
    prob_sets = []
    for s in states:
        p = s.probabilities()
        prob_sets.append(p / p.sum())
    rng = stream(seed)
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
        "word": _WORD_LABELS[words],
        "product": _WORD_PRODUCTS[words],
    })
    return RunReport(rows, summary)


# The |0> ancillae a joint step appends, built once: states are immutable.
_FRESH_ANCILLAE = {labels: basis_state(qubits(*labels), "0" * len(labels))
                   for labels in (("b",), ("c", "b"))}


def _extend(state: PureState, labels: tuple[str, ...]) -> PureState:
    return tensor_product(state, _FRESH_ANCILLAE[labels])


def _drop(state: PureState, labels) -> PureState:
    for label in labels:
        _, state = factor_out(state, label)
    return state


def _joint_step(state: PureState, name: str, rng: np.random.Generator) -> tuple[int, PureState]:
    """One nondestructive joint readout; returns (readout, state on s/a_up/a_dn).

    The spin's contribution to ZZI, ZIZ and XXX is routed through a copy
    ancilla c (the downstream re-measurement leg), which is uncomputed
    after the coupling ancilla b is read, so both helpers leave exactly.
    """
    if name == "IZZ":
        work = _extend(state, ("b",))
        readout, post = joint_circuit_izz(work, rng)
        return readout, _drop(post, ["b"])
    if name in ("ZZI", "ZIZ"):
        work = _extend(state, ("c", "b"))
        work = apply_operator(work, CNOT, ["s", "c"])  # Z copy of the spin onto c
        partner = "a_up" if name == "ZZI" else "a_dn"
        readout, post = joint_circuit_izz(work, rng, controls=(partner, "c"))
        post = apply_operator(post, CNOT, ["s", "c"])
        return readout, _drop(post, ["b", "c"])
    if name == "XXX":
        work = _extend(state, ("c", "b"))
        # X-basis copy of the spin onto c, then rotate c so X_c carries X_s.
        work = apply_operator(work, HADAMARD, ["s"])
        work = apply_operator(work, CNOT, ["s", "c"])
        work = apply_operator(work, HADAMARD, ["s"])
        work = apply_operator(work, HADAMARD, ["c"])
        readout, post = joint_circuit_xxx(work, rng)
        post = apply_operator(post, HADAMARD, ["c"])
        post = apply_operator(post, HADAMARD, ["s"])
        post = apply_operator(post, CNOT, ["s", "c"])
        post = apply_operator(post, HADAMARD, ["s"])
        return readout, _drop(post, ["b", "c"])
    raise ValueError(f"unknown joint observable {name!r} (choose from {JOINT_OBSERVABLES})")


def run_joint_mode(prep: SpinPrep, observables, seed: int, phase: float = 0.0) -> RunReport:
    """Sequence of nondestructive joint readouts on one state instance.

    Repeated observables are allowed and reproduce their readout.  The
    report carries each readout and the fidelity of the surviving
    (s, a_up, a_dn) state with the initial t4 state.
    """
    observables = list(observables)
    if not observables:
        raise ValueError("need at least one observable")
    initial = premeasurement_state(prep, phase=phase)
    state = initial
    rng = stream(seed)
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


def expectation_t4(prep: SpinPrep, word: str, phase: float = 0.0) -> float:
    """Exact expectation of a three-letter Pauli word at t4."""
    state = premeasurement_state(prep, phase=phase)
    return pauli_expectation(state, PauliString.from_word(word, ANCILLA_REGISTER))
