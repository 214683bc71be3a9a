"""Independent reference implementations used only by the tests.

Everything here is deliberately slow and dumb: explicit index loops and a
third-party Haar sampler, so agreement with the package's vectorized code
is meaningful.
"""
import numpy as np


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
