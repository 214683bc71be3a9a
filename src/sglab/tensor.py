"""Dense complex linear algebra over labeled tensor-product registers.

A register is an ordered list of named slots, each with its own dimension.
Slot ordering is big-endian: the leftmost slot is the most significant
index, so on a three-qubit register (s, a_up, a_dn) the basis word |110>
sits at amplitude index 6.  Everything downstream (gates, Pauli strings,
partial traces, detector models) relies on this one convention.

All values are immutable; operations return new objects.  Randomness never
enters this module except through an explicit seed or generator argument.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Registers above this total dimension are refused: the dense backend is
# meant for small exact computations, not large-scale simulation.
DIM_CAP = 2**16

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


class RegisterError(ValueError):
    """Unknown label, label collision, or dimension mismatch."""


class DimensionCapError(RuntimeError):
    """Requested register exceeds the dense-backend dimension cap."""


@dataclass(frozen=True)
class Register:
    """Ordered, labeled tensor-product structure.

    slots: tuple of (label, dimension) pairs, most significant first.
    """

    slots: tuple[tuple[str, int], ...]
    # Derived once per register in __post_init__; not compared, hashed or shown.
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slots = tuple((str(l), int(d)) for l, d in self.slots)
        labels = tuple(l for l, _ in slots)
        dims = tuple(d for _, d in slots)
        if len(set(labels)) != len(labels):
            raise RegisterError(f"duplicate slot labels in {list(labels)}")
        if any(d < 1 for d in dims):
            raise RegisterError("slot dimensions must be >= 1")
        dim = math.prod(dims)
        if dim > DIM_CAP:
            raise DimensionCapError(
                f"register dimension {dim} exceeds cap {DIM_CAP}"
            )
        for name, value in (("slots", slots), ("labels", labels), ("dims", dims), ("dim", dim)):
            object.__setattr__(self, name, value)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise RegisterError(f"unknown slot label {label!r} (have {self.labels})") from None

    def dim_of(self, label: str) -> int:
        return self.slots[self.axis(label)][1]

    def subregister(self, labels) -> "Register":
        return Register(tuple((l, self.dim_of(l)) for l in labels))


def qubits(*labels: str) -> Register:
    """Register of two-dimensional slots, one per label."""
    return Register(tuple((l, 2) for l in labels))


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over a register.

    Construction computes the norm once and validates it to 1e-12 unless
    ``normalized=False`` (used for intermediate projector output).  After
    construction ``normalized`` records whether the norm is within that
    tolerance of 1, and ``norm()`` returns the stored value.
    """

    register: Register
    amplitudes: np.ndarray
    normalized: bool = True
    _norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != self.register.dim:
            raise RegisterError(
                f"amplitude length {amps.shape[0]} != register dimension {self.register.dim}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        norm = float(np.linalg.norm(amps))
        unit = abs(norm - 1.0) <= NORM_TOL
        if self.normalized and not unit:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "_norm", norm)
        object.__setattr__(self, "normalized", unit)

    def norm(self) -> float:
        return self._norm

    def normalize(self) -> "PureState":
        n = self.norm()
        if n < 1e-14:
            raise ValueError("cannot normalize a (numerically) zero state")
        return PureState(self.register, self.amplitudes / n)

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.register, np.outer(self.amplitudes, self.amplitudes.conj()))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def overlap(self, other: "PureState") -> complex:
        if self.register != other.register:
            raise RegisterError("overlap requires identical registers")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "PureState") -> float:
        return abs(self.overlap(other)) ** 2


def basis_state(register: Register, word) -> PureState:
    """Computational basis state for a word of per-slot values.

    ``word`` is a sequence of slot values (e.g. "110" or (1, 1, 0)) in
    register order, most significant slot first.
    """
    values = [int(w) for w in word]
    if len(values) != len(register.slots):
        raise RegisterError("word length does not match slot count")
    index = 0
    for v, d in zip(values, register.dims):
        if not 0 <= v < d:
            raise RegisterError(f"slot value {v} out of range for dimension {d}")
        index = index * d + v
    amps = np.zeros(register.dim, dtype=complex)
    amps[index] = 1.0
    return PureState(register, amps)


@dataclass(frozen=True)
class EnsembleState:
    """Weighted classical mixture of pure states on one register."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        members = tuple((float(w), s) for w, s in self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        weights = np.array([w for w, _ in members])
        if np.any(weights < 0):
            raise ValueError("ensemble weights must be nonnegative")
        if not abs(weights.sum() - 1.0) <= NORM_TOL:
            raise ValueError(f"ensemble weights sum to {weights.sum()}, not 1")
        reg = members[0][1].register
        if any(s.register != reg for _, s in members):
            raise RegisterError("all ensemble members must share one register")

    @property
    def register(self) -> Register:
        return self.members[0][1].register

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.members])

    def to_density_matrix(self) -> "DensityMatrix":
        reg = self.register
        rho = np.zeros((reg.dim, reg.dim), dtype=complex)
        for w, s in self.members:
            rho += w * np.outer(s.amplitudes, s.amplitudes.conj())
        return DensityMatrix(reg, rho)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a register.

    The hermiticity and eigenvalue checks run on the principal block of the
    indices whose row or column holds a nonzero entry (a NaN counts as
    nonzero).  That is the same test as on the whole matrix: every entry
    outside the block is 0 in both the matrix and its adjoint, so the
    hermiticity maximum is unchanged, and the spectrum is the block's plus
    exact zeros, which never fall below ``EIGENVALUE_FLOOR``.  The trace
    check reads the whole matrix.
    """

    register: Register
    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        d = self.register.dim
        if mat.shape != (d, d):
            raise RegisterError(f"entries shape {mat.shape} != ({d}, {d})")
        nonzero = mat != 0
        support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        block = mat[np.ix_(support, support)]
        if not np.max(np.abs(block - block.conj().T), initial=0.0) <= HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        if float(np.linalg.eigvalsh(block).min()) < EIGENVALUE_FLOOR:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Kronecker product of two states on label-disjoint registers."""
    collision = set(a.register.labels) & set(b.register.labels)
    if collision:
        raise RegisterError(f"label collision in tensor product: {sorted(collision)}")
    reg = Register(a.register.slots + b.register.slots)
    # np.outer is np.kron's multiply on 1-D inputs without its shape handling.
    return PureState(reg, np.outer(a.amplitudes, b.amplitudes).reshape(-1),
                     normalized=a.normalized and b.normalized)


class _Plan(NamedTuple):
    gather: np.ndarray   # amplitude index of each entry of the targets-first matrix
    scatter: np.ndarray  # the inverse permutation


# Plans kept, keyed on (register dims, target axes).  A plan's two indices
# take 16 bytes per amplitude, as much as a state (1 MB at DIM_CAP); the
# pipelines use about a dozen plans on registers of at most 32 amplitudes.
PLAN_CACHE_SIZE = 64


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(dims: tuple[int, ...], axes: tuple[int, ...]) -> _Plan:
    """Contraction plan for the target ``axes`` of a register of ``dims``.

    ``amps[gather].reshape(d_t, -1)``, with d_t the product of the target
    dimensions, holds the values of
    ``np.moveaxis(amps.reshape(dims), axes, range(len(axes))).reshape(d_t, -1)``,
    targets first in the order given, as a C-contiguous copy;
    ``out.reshape(-1)[scatter]`` moves the axes back.  The indices are
    read-only, since every caller shares them.
    """
    rest = [i for i in range(len(dims)) if i not in axes]
    gather = np.arange(math.prod(dims), dtype=np.intp).reshape(dims)
    gather = gather.transpose(list(axes) + rest).reshape(-1)
    scatter = np.argsort(gather)
    gather.flags.writeable = False
    scatter.flags.writeable = False
    return _Plan(gather, scatter)


def _slot_first(state: PureState, label: str) -> np.ndarray:
    """The amplitudes as a (slot dim, rest) matrix with ``label``'s axis first.

    This is the array ``np.moveaxis(amps.reshape(dims), axis, 0).reshape(d, -1)``
    gives, a strided view where numpy can make one, without moveaxis'
    argument handling.  The layout matters: ``factor_out``'s vector-matrix
    product gives other bits on a C-contiguous copy of such a view.
    """
    reg = state.register
    axis = reg.axis(label)
    order = (axis, *(i for i in range(len(reg.dims)) if i != axis))
    return state.amplitudes.reshape(reg.dims).transpose(order).reshape(reg.dims[axis], -1)


def apply_operator(state: PureState, op: np.ndarray, targets,
                   renormalize: bool = False) -> PureState:
    """Apply a matrix to the named target slots (identity elsewhere).

    ``op`` need not be unitary; projectors are allowed.  The result is
    renormalized only when ``renormalize=True``; otherwise the output may
    carry a norm != 1 and is marked unnormalized when it does.

    The product is ``op @ matrix`` on the targets-first matrix of
    ``_plan``.  Where the ``np.moveaxis`` form made a strided view instead
    of a copy, the matrix product still gives the same bits; the tests
    check every amplitude against that form with ``==``.
    """
    reg = state.register
    targets = list(targets)
    axes = tuple(reg.axis(t) for t in targets)
    if len(set(axes)) != len(axes):
        raise RegisterError(f"repeated target label in {targets}")
    op = np.asarray(op, dtype=complex)
    d_t = math.prod(reg.dims[a] for a in axes)
    if op.shape != (d_t, d_t):
        raise RegisterError(
            f"operator shape {op.shape} does not match target dimension {d_t}"
        )
    plan = _plan(reg.dims, axes)
    out = (op @ state.amplitudes[plan.gather].reshape(d_t, -1)).reshape(-1)[plan.scatter]
    if renormalize:
        n = float(np.linalg.norm(out))
        if n < 1e-14:
            raise ValueError("operator annihilated the state; cannot renormalize")
        return PureState(reg, out / n)
    return PureState(reg, out, normalized=False)


def expectation(state, op: np.ndarray, targets) -> complex:
    """<psi|O|psi> for a PureState, Tr(rho O) for a DensityMatrix.

    The public contract assumes Hermitian ``op``; the imaginary part of the
    result is then below 1e-12 and the full complex value is returned for
    inspection.
    """
    targets = list(targets)
    if isinstance(state, PureState):
        applied = apply_operator(state, op, targets)
        return complex(np.vdot(state.amplitudes, applied.amplitudes))
    if isinstance(state, DensityMatrix):
        reduced = partial_trace(state, keep=targets)
        return complex(np.trace(np.asarray(op, dtype=complex) @ reduced.entries))
    if isinstance(state, EnsembleState):
        return complex(sum(w * expectation(s, op, targets) for w, s in state.members))
    raise TypeError(f"unsupported state type {type(state).__name__}")


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


def factor_out(state: PureState, label: str, tol: float = 1e-10) -> tuple[PureState, PureState]:
    """Split off a disentangled slot, returning (slot_state, remainder).

    Raises if the slot is entangled with the rest beyond ``tol`` (second
    singular value of the bipartite amplitude matrix).
    """
    reg = state.register
    mat = _slot_first(state, label)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if len(s) > 1 and s[1] > tol:
        raise ValueError(f"slot {label!r} is entangled (Schmidt value {s[1]:.3e})")
    slot_amps = u[:, 0] * s[0]
    rest_amps = u[:, 0].conj() @ mat
    rest_labels = [l for l in reg.labels if l != label]
    slot_state = PureState(reg.subregister([label]), slot_amps / np.linalg.norm(slot_amps))
    rest_state = PureState(reg.subregister(rest_labels),
                           rest_amps / np.linalg.norm(rest_amps))
    return slot_state, rest_state


def haar_unitaries(d: int, rngs) -> np.ndarray:
    """Stack of Haar-distributed d x d unitaries, one per generator in ``rngs``.

    Construction (Mezzadri 2007): each generator draws a complex-Gaussian
    (Ginibre) matrix, real parts first; one batched QR orthonormalizes the
    stack, then the R-diagonal phase correction makes each Q Haar.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    z = np.empty((len(rngs), d, d), dtype=complex)
    buf = np.empty((d, d))
    # Same bits as (a + 1j * b) / sqrt(2): numpy divides a complex array by
    # a real scalar as a multiply by its reciprocal (np.divide would not).
    scale = 1 / np.sqrt(2)
    for zk, rng in zip(z, rngs):
        rng.standard_normal(out=buf)
        np.multiply(buf, scale, out=zk.real)
        rng.standard_normal(out=buf)
        np.multiply(buf, scale, out=zk.imag)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[:, None, :]
    return q


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed d x d unitary: the one-matrix case of ``haar_unitaries``.

    ``seed`` may be an integer or a numpy Generator.
    """
    from .sampling import stream  # local import to avoid a cycle

    rng = seed if isinstance(seed, np.random.Generator) else stream(seed)
    return haar_unitaries(d, [rng])[0]
