"""Dense complex linear algebra over labeled tensor-product registers.

A register is an ordered list of named slots, each with its own dimension.
Slot ordering is big-endian: the leftmost slot is the most significant
index, so on a three-qubit register (s, a_up, a_dn) the basis word |110>
sits at amplitude index 6.  Everything downstream (gates, Pauli strings,
detector models) relies on this one convention.

All values are immutable; operations return new objects.  Randomness never
enters this module except through explicit numpy Generators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .sampling import check_int

# Registers above this total dimension are refused: the dense backend is
# meant for small exact computations, not large-scale simulation.
DIM_CAP = 2**16

NORM_TOL = 1e-12
# Bound of each register-lookup cache: subregisters, tensor-product
# registers and apply_operator's target axes.  An entry is a few small
# tuples; the pipelines use a few dozen.
LOOKUP_CACHE_SIZE = 128
# factor_out refuses a slot whose second Schmidt value exceeds this.
SCHMIDT_TOL = 1e-10
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
        slots = tuple((str(l), check_int("slot dimension", d)) for l, d in self.slots)
        labels = tuple(l for l, _ in slots)
        dims = tuple(d for _, d in slots)
        if len(set(labels)) != len(labels):
            raise RegisterError(f"duplicate slot labels in {list(labels)}")
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
        return _subregister(self, tuple(labels))


@lru_cache(maxsize=LOOKUP_CACHE_SIZE)
def _subregister(register: Register, labels: tuple[str, ...]) -> Register:
    return Register(tuple((l, register.dim_of(l)) for l in labels))


def qubits(*labels: str) -> Register:
    """Register of two-dimensional slots, one per label."""
    return Register(tuple((l, 2) for l in labels))


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector over a register.

    Public construction copies the amplitudes, computes their norm and
    refuses one more than 1e-12 from 1, NaN and infinities included.
    States this module derives itself (gate and projector output,
    products, factors and ``normalize()`` results) adopt their freshly made
    array without a copy and compute the norm on the first ``norm()`` or
    ``normalized``, with the same ``np.linalg.norm``.  Either way the
    amplitudes are read-only, ``norm()`` returns one stored value, and
    ``normalized`` records whether it is within the tolerance of 1.
    ``normalize()`` checks the norm of its result.  States compare and
    hash by identity; compare values with ``fidelity`` or the amplitudes.
    """

    register: Register
    amplitudes: np.ndarray
    _norm = None  # not yet computed

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != self.register.dim:
            raise RegisterError(
                f"amplitude length {amps.shape[0]} != register dimension {self.register.dim}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        if not self.normalized:
            raise _norm_error(self.norm())

    @classmethod
    def _adopt(cls, register: Register, amps: np.ndarray) -> "PureState":
        """A state on ``amps``, a fresh 1-D complex array of ``register.dim``
        entries that nothing else holds: no copy, no check, norm on demand."""
        amps.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "register", register)
        object.__setattr__(state, "amplitudes", amps)
        return state

    def norm(self) -> float:
        if self._norm is None:
            object.__setattr__(self, "_norm", float(np.linalg.norm(self.amplitudes)))
        return self._norm

    @property
    def normalized(self) -> bool:
        """Whether the norm is within NORM_TOL of 1."""
        return abs(self.norm() - 1.0) <= NORM_TOL

    def normalize(self) -> "PureState":
        n = self.norm()
        if n < 1e-14:
            raise ValueError("cannot normalize a (numerically) zero state")
        out = PureState._adopt(self.register, self.amplitudes / n)
        if not out.normalized:
            raise _norm_error(out.norm())
        return out

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def overlap(self, other: "PureState") -> complex:
        if self.register != other.register:
            raise RegisterError("overlap requires identical registers")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "PureState") -> float:
        return abs(self.overlap(other)) ** 2


def _norm_error(norm: float) -> ValueError:
    return ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")


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


@dataclass(frozen=True, eq=False)
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
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.members])


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a register.

    Each check reads the whole matrix, so a NaN entry anywhere is refused.
    """

    register: Register
    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        d = self.register.dim
        if mat.shape != (d, d):
            raise RegisterError(f"entries shape {mat.shape} != ({d}, {d})")
        if not np.max(np.abs(mat - mat.conj().T)) <= HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        if float(np.linalg.eigvalsh(mat).min()) < EIGENVALUE_FLOOR:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Kronecker product of two states on label-disjoint registers."""
    # np.outer is np.kron's multiply on 1-D inputs without its shape handling.
    return PureState._adopt(_joined(a.register, b.register),
                            np.outer(a.amplitudes, b.amplitudes).reshape(-1))


@lru_cache(maxsize=LOOKUP_CACHE_SIZE)
def _joined(a: Register, b: Register) -> Register:
    collision = set(a.labels) & set(b.labels)
    if collision:
        raise RegisterError(f"label collision in tensor product: {sorted(collision)}")
    return Register(a.slots + b.slots)


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


def apply_operator(state: PureState, op: np.ndarray, targets) -> PureState:
    """Apply a matrix to the named target slots (identity elsewhere).

    ``op`` need not be unitary; projectors are allowed.  The output may
    carry a norm != 1 and is marked unnormalized when it does; rescale it
    with ``PureState.normalize()``.

    The product is ``op @ matrix`` on the targets-first matrix of
    ``_plan``.  Where the ``np.moveaxis`` form made a strided view instead
    of a copy, the matrix product still gives the same bits; the tests
    check every amplitude against that form with ``==``.
    """
    reg = state.register
    axes, d_t = _target_axes(reg, tuple(targets))
    op = np.asarray(op, dtype=complex)
    if op.shape != (d_t, d_t):
        raise RegisterError(
            f"operator shape {op.shape} does not match target dimension {d_t}"
        )
    plan = _plan(reg.dims, axes)
    out = (op @ state.amplitudes[plan.gather].reshape(d_t, -1)).reshape(-1)[plan.scatter]
    return PureState._adopt(reg, out)


@lru_cache(maxsize=LOOKUP_CACHE_SIZE)
def _target_axes(register: Register, targets: tuple[str, ...]) -> tuple[tuple[int, ...], int]:
    """The axes of the ``targets`` and the product of their dimensions."""
    axes = tuple(register.axis(t) for t in targets)
    if len(set(axes)) != len(axes):
        raise RegisterError(f"repeated target label in {list(targets)}")
    return axes, math.prod(register.dims[a] for a in axes)


def factor_out(state: PureState, label: str) -> tuple[PureState, PureState]:
    """Split off a disentangled slot, returning (slot_state, remainder).

    Raises ``ValueError`` naming the slot if it is entangled with the rest
    beyond ``SCHMIDT_TOL`` (second singular value of the bipartite
    amplitude matrix; NaN counts as entangled), or if the SVD does not
    converge, as on a non-finite state.
    """
    reg = state.register
    mat = _slot_first(state, label)
    try:
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"cannot factor out slot {label!r}: {err}") from None
    if len(s) > 1 and not s[1] <= SCHMIDT_TOL:
        raise ValueError(f"slot {label!r} is entangled (Schmidt value {s[1]:.3e})")
    slot_amps = u[:, 0] * s[0]
    rest_amps = u[:, 0].conj() @ mat
    rest_labels = [l for l in reg.labels if l != label]
    return (PureState._adopt(reg.subregister([label]), slot_amps).normalize(),
            PureState._adopt(reg.subregister(rest_labels), rest_amps).normalize())


def haar_unitary(d: int, rngs) -> np.ndarray:
    """Stack of Haar-distributed d x d unitaries, one per generator in ``rngs``.

    Construction (Mezzadri 2007): each generator draws a complex-Gaussian
    (Ginibre) matrix, real parts first; one batched QR orthonormalizes the
    stack, then the R-diagonal phase correction makes each Q Haar.  A
    one-generator list gives one matrix, ``haar_unitary(d, [rng])[0]``, with
    the bits it has at any place in a longer stack.
    """
    check_int("d", d)
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
