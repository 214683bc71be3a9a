"""Independent reference implementations used only by the tests.

Most of them are deliberately slow and dumb: explicit index loops and a
third-party Haar sampler, so agreement with the package's vectorized code
is meaningful.  The rest are the reference algebra that no pipeline runs:
dense Pauli matrices and expectations, density matrices of pure states
and mixtures, the partial trace, the exact t4 expectation, the full
detector register's branch layout, and the detector passage and demon
operators.  They build on the package's value types and Pauli algebra,
and the tests compare the pipelines' results against them.
"""
from functools import reduce

import numpy as np

from sglab import DensityMatrix, PauliString, Register, pauli_expectation, premeasurement_state
from sglab.experiment import ANCILLA_REGISTER
from sglab.observables import PAULI
from sglab.tensor import RegisterError


def brute_partial_trace(entries: np.ndarray, dims, keep_axes) -> np.ndarray:
    """Partial trace by explicit summation over multi-indices."""
    dims = list(dims)
    n = len(dims)
    keep_axes = list(keep_axes)
    trace_axes = [i for i in range(n) if i not in keep_axes]
    keep_dims = [dims[a] for a in keep_axes]
    d_keep = int(np.prod(keep_dims, dtype=int))
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def flat(multi):
        idx = 0
        for v, d in zip(multi, dims):
            idx = idx * d + v
        return idx

    def keep_flat(multi):
        idx = 0
        for a in keep_axes:
            idx = idx * dims[a] + multi[a]
        return idx

    all_multi = np.indices(dims).reshape(n, -1).T
    for row_multi in all_multi:
        for col_multi in all_multi:
            if any(row_multi[a] != col_multi[a] for a in trace_axes):
                continue
            out[keep_flat(row_multi), keep_flat(col_multi)] += \
                entries[flat(row_multi), flat(col_multi)]
    return out


def pauli_word_matrix(word: str) -> np.ndarray:
    """Dense matrix of a Pauli word in the package's sign convention."""
    single = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, 1j], [-1j, 0]], dtype=complex),
        "Z": np.array([[-1, 0], [0, 1]], dtype=complex),
    }
    out = np.array([[1.0]], dtype=complex)
    for letter in word:
        out = np.kron(out, single[letter])
    return out


def pauli_matrix(obs: PauliString, register: Register) -> np.ndarray:
    """Dense operator of a Pauli string on the full register."""
    obs.validate_against(register)
    factors = []
    for label, dim in register.slots:
        letter = obs.letters.get(label, "I")
        factors.append(PAULI[letter] if dim == 2 else np.eye(dim, dtype=complex))
    return reduce(np.kron, factors)


def projective_probability(amplitudes: np.ndarray, op: np.ndarray, eigenvalue: int) -> float:
    """Born probability ||(I + lam O) psi / 2||^2 computed directly."""
    proj = (np.eye(op.shape[0]) + eigenvalue * op) / 2.0
    return float(np.linalg.norm(proj @ amplitudes) ** 2)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized complex Gaussian vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def scipy_haar(d: int, seed: int) -> np.ndarray:
    """Third-party Haar sample for cross-checking moments."""
    from scipy.stats import unitary_group

    return unitary_group.rvs(d, random_state=seed)


def moveaxis_apply(amps: np.ndarray, dims, op: np.ndarray, axes) -> np.ndarray:
    """op on the listed axes, identity on the rest, through two np.moveaxis.

    The reference for the package's gather-index kernel: same matrix, same
    ``op @ matrix`` product, so the two must agree bit for bit.
    """
    dims = list(dims)
    axes = list(axes)
    psi = np.moveaxis(amps.reshape(dims), axes, range(len(axes)))
    target_dims = [dims[a] for a in axes]
    rest_dims = [dims[i] for i in range(len(dims)) if i not in axes]
    d_t = int(np.prod(target_dims, dtype=int))
    out = op @ psi.reshape(d_t, -1)
    out = np.moveaxis(out.reshape(target_dims + rest_dims), range(len(axes)), axes)
    return out.reshape(-1)


def moveaxis_factor_out(amps: np.ndarray, dims, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(slot, remainder) amplitudes of a product state, slot moved first by np.moveaxis."""
    dims = list(dims)
    mat = np.moveaxis(amps.reshape(dims), axis, 0).reshape(dims[axis], -1)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    slot = u[:, 0] * s[0]
    rest = u[:, 0].conj() @ mat
    return slot / np.linalg.norm(slot), rest / np.linalg.norm(rest)


def dense_expectation(amplitudes: np.ndarray, op: np.ndarray) -> complex:
    """<psi|O|psi> of a dense operator on the whole register."""
    return complex(np.vdot(amplitudes, op @ amplitudes))


def density_matrix(state) -> DensityMatrix:
    """|psi><psi| of a PureState."""
    return DensityMatrix(state.register, np.outer(state.amplitudes, state.amplitudes.conj()))


def to_density_matrix(ensemble) -> DensityMatrix:
    """Weighted sum of member projectors of an EnsembleState."""
    reg = ensemble.members[0][1].register
    rho = np.zeros((reg.dim, reg.dim), dtype=complex)
    for w, s in ensemble.members:
        rho += w * np.outer(s.amplitudes, s.amplitudes.conj())
    return DensityMatrix(reg, rho)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on the ``keep`` labels, in the order given."""
    reg = rho.register
    keep = list(keep)
    if not keep:
        raise RegisterError("keep must name at least one slot")
    keep_axes = [reg.axis(l) for l in keep]
    if len(set(keep_axes)) != len(keep_axes):
        raise RegisterError(f"repeated label in keep list {keep}")
    dims = reg.dims
    n = len(dims)
    tensor = rho.entries.reshape(dims + dims)
    row = list(range(n))
    col = [n + i if i in keep_axes else i for i in range(n)]
    out_idx = [a for a in keep_axes] + [n + a for a in keep_axes]
    reduced = np.einsum(tensor, row + col, out_idx)
    d_keep = int(np.prod([dims[a] for a in keep_axes], dtype=int))
    return DensityMatrix(reg.subregister(keep), reduced.reshape(d_keep, d_keep))


def branch_support(mode: str, d_up: int, d_dn: int) -> np.ndarray:
    """Full-register indices of the down branch (s, r_up, r_dn) = (0, 0, 1),
    then the up branch (1, 1, 0), each over (e_up, e_dn) in increasing order."""
    ready = 2 * d_dn * np.arange(d_up)[:, None] + np.arange(d_dn)
    fired_up = (6 if mode == "transmitting" else 2) * d_up * d_dn
    return np.concatenate([(ready + d_dn).ravel(), (ready + fired_up).ravel()])


def embed_full(rho: DensityMatrix, mode: str) -> DensityMatrix:
    """The (branch, e_up, e_dn) matrix of ``rho_t4_full`` scattered into zeros
    on the full register (s, r_up, e_up, r_dn, e_dn), without s in absorbing
    mode, at ``branch_support``."""
    _, d_up, d_dn = rho.register.dims
    slots = (("r_up", 2), ("e_up", d_up), ("r_dn", 2), ("e_dn", d_dn))
    reg = Register(((("s", 2),) if mode == "transmitting" else ()) + slots)
    support = branch_support(mode, d_up, d_dn)
    full = np.zeros((reg.dim, reg.dim), dtype=complex)
    full[np.ix_(support, support)] = rho.entries
    return DensityMatrix(reg, full)


def expectation_t4(prep, word: str, phase: float = 0.0) -> float:
    """Exact expectation of a three-letter Pauli word at t4."""
    state = premeasurement_state(prep, phase=phase)
    return pauli_expectation(state, PauliString.from_word(word, ANCILLA_REGISTER))


def detector_passage_unitary(det) -> np.ndarray:
    """Passage map on (readout x environment): flip the readout, scramble
    the environment.  |0, mu> -> |1, V mu> and the inverse maps back."""
    return np.kron(PAULI["X"], det.V)


def demon_x_operator(det) -> np.ndarray:
    """Full detector X: P(1) U P(0) + P(0) U^-1 P(1) on (readout x env).

    Requires microscopic control of U and its inverse; Hermitian and
    squares to the identity.  In absorbing mode the emptied path mode
    factors out, so the operator takes the same form on this space.
    """
    d = det.d
    u = detector_passage_unitary(det)
    p0 = np.kron(np.diag([1.0, 0.0]), np.eye(d))
    p1 = np.kron(np.diag([0.0, 1.0]), np.eye(d))
    return p1 @ u @ p0 + p0 @ u.conj().T @ p1
