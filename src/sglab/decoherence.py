"""Real-detector model: readout qubit times internal environment.

Each detector is a readout qubit (0 = ready, 1 = fired) tensored with an
environment of dimension d whose initial microstate mu is drawn with
weights p_mu.  The passage of the atom flips the readout and scrambles the
environment with a unitary V, so |0, mu> -> |1, V mu>.

Two modes:

* transmitting: the atom survives; the full state lives on
  (s, r_up, e_up, r_dn, e_dn).
* absorbing: the detector consumes the atom.  Absorption empties the path
  mode in every branch of the superposition, so that mode factors out and
  the detector algebra reduces to the same readout x environment space;
  the spin/path slot simply disappears from the register,
  leaving (r_up, e_up, r_dn, e_dn).

Tracing out both environments leaves the spin/pointer density matrix,
diagonal (|alpha|^2, |beta|^2) on the two collapse words with off-diagonal
alpha * conj(beta) * f_up * conj(f_dn), where f = sum_mu p_mu <mu|V|mu> is
the detector's coherence factor.  The demon operator
P(1) U P(0) + P(0) U^-1 P(1) restores full X access; the readout-only X
(identity on the environment) sees only the f-suppressed value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .experiment import SpinPrep
from .observables import PAULI, PauliString, pauli_matrix
from .reports import RowTable
from .sampling import random_phase_unitary, spawn, stream
from .tensor import (
    DensityMatrix,
    DimensionCapError,
    Register,
    haar_unitaries,
    haar_unitary,
)

# The brute-force full-density-matrix path is the validator, not the
# product; it is capped so the analytic path is the only one that scales.
FULL_DIM_CAP = 512

# Dense d x d environment sampling stops making sense well before the
# register cap; refuse clearly instead of thrashing memory.
ENV_DIM_CAP = 4096

UNITARITY_TOL = 1e-12

# A sweep summary's pooled mean this close to the exact moment gets z = 0.
MOMENT_TOL = 1e-12

# A sweep makes 2 * trials * len(d) detector draws, each from its own child
# stream (about 1 kB, made one stack at a time), and keeps a few Python
# objects per draw until its report is built; refuse more draws than this.
SWEEP_DRAW_CAP = 2**18

# The sweep samples its environment unitaries in stacks of about this many
# complex entries, so d >= 128 gets one matrix per stack.
SWEEP_CHUNK_ENTRIES = 2**14

ENV_MODELS = ("haar", "phases", "identity")
WEIGHT_MODELS = ("uniform", "geometric")
MODES = ("transmitting", "absorbing")


@dataclass(frozen=True)
class DetectorModel:
    """Environment dimension, microstate weights, scrambling unitary, mode."""

    d: int
    weights: np.ndarray
    V: np.ndarray
    mode: str = "transmitting"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("environment dimension must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != self.d or np.any(w < 0) or not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError("weights must be a length-d probability vector")
        v = np.asarray(self.V, dtype=complex)
        if v.shape != (self.d, self.d):
            raise ValueError("V must be d x d")
        _require_unitary(v)
        w = w.copy(); w.flags.writeable = False
        v = v.copy(); v.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "V", v)

    @classmethod
    def sample(cls, d: int, seed, env_model: str = "haar",
               weights_model: str = "uniform", mode: str = "transmitting",
               geometric_ratio: float = 0.5) -> "DetectorModel":
        """Seeded model with the chosen environment and weight classes."""
        _check_sampling(env_model, weights_model, [d])
        rng = seed if isinstance(seed, np.random.Generator) else stream(seed)
        if env_model == "haar":
            v = haar_unitary(d, rng)
        elif env_model == "phases":
            v = random_phase_unitary(d, rng)
        else:
            v = np.eye(d, dtype=complex)
        return cls(d=d, weights=_weights(d, weights_model, geometric_ratio), V=v, mode=mode)


def _require_unitary(v: np.ndarray) -> None:
    """Refuse a d x d V, or a stack of them, with any Gram-matrix entry more
    than UNITARITY_TOL off the identity (a NaN entry is refused too)."""
    gram = np.matmul(np.swapaxes(v, -1, -2).conj(), v)
    gram -= np.eye(v.shape[-1])
    if not np.max(np.abs(gram)) <= UNITARITY_TOL:
        raise ValueError("V is not unitary within 1e-12")


def _check_sampling(env_model: str, weights_model: str, d_values) -> None:
    """Refuse unknown model names and environment dimensions outside [1, cap]."""
    if env_model not in ENV_MODELS:
        raise ValueError(f"env_model must be one of {ENV_MODELS}")
    if weights_model not in WEIGHT_MODELS:
        raise ValueError(f"weights_model must be one of {WEIGHT_MODELS}")
    for d in d_values:
        if d < 1:
            raise ValueError("environment dimension must be >= 1")
        if d > ENV_DIM_CAP:
            raise DimensionCapError(
                f"environment dimension {d} exceeds dense sampling cap {ENV_DIM_CAP}"
            )


def _weights(d: int, weights_model: str, geometric_ratio: float = 0.5) -> np.ndarray:
    """Microstate weights p_mu: uniform, or geometric in mu and normalized."""
    if weights_model == "uniform":
        return np.full(d, 1.0 / d)
    w = geometric_ratio ** np.arange(d)
    return w / w.sum()


def _env_unitaries(d: int, rngs, env_model: str) -> np.ndarray:
    """Stack of environment unitaries, one per generator in ``rngs``."""
    if env_model == "haar":
        return haar_unitaries(d, rngs)
    if env_model == "phases":
        return np.stack([random_phase_unitary(d, rng) for rng in rngs])
    return np.broadcast_to(np.eye(d, dtype=complex), (len(rngs), d, d))


@dataclass(frozen=True)
class CoherenceFactor:
    """Environment overlap sum multiplying the off-diagonal terms."""

    value: complex

    def __post_init__(self):
        if not abs(self.value) <= 1.0 + 1e-12:
            raise ValueError("coherence factor magnitude exceeds 1")


def coherence_factor(det: DetectorModel) -> CoherenceFactor:
    """f = sum_mu p_mu <mu|V|mu>, computed exactly."""
    return CoherenceFactor(complex(det.weights @ np.diagonal(det.V)))


def detector_passage_unitary(det: DetectorModel) -> np.ndarray:
    """Passage map on (readout x environment): flip the readout, scramble
    the environment.  |0, mu> -> |1, V mu> and the inverse maps back."""
    return np.kron(PAULI["X"], det.V)


def demon_x_operator(det: DetectorModel) -> np.ndarray:
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


def _full_slots(det_up: DetectorModel, det_dn: DetectorModel) -> tuple:
    slots = (("r_up", 2), ("e_up", det_up.d), ("r_dn", 2), ("e_dn", det_dn.d))
    if det_up.mode == "transmitting":
        slots = (("s", 2),) + slots
    return slots


def _check_modes(det_up: DetectorModel, det_dn: DetectorModel) -> str:
    if det_up.mode != det_dn.mode:
        raise ValueError("both detectors must share one mode")
    return det_up.mode


def _branch_support(mode: str, d_up: int, d_dn: int) -> np.ndarray:
    """Register indices of the down branch (s, r_up, r_dn) = (0, 0, 1), then
    the up branch (1, 1, 0), each over (e_up, e_dn) in increasing order."""
    ready = 2 * d_dn * np.arange(d_up)[:, None] + np.arange(d_dn)
    fired_up = (6 if mode == "transmitting" else 2) * d_up * d_dn
    return np.concatenate([(ready + d_dn).ravel(), (ready + fired_up).ravel()])


def rho_t4_full(prep: SpinPrep, det_up: DetectorModel, det_dn: DetectorModel) -> DensityMatrix:
    """Exact post-passage density matrix, mixed over environment microstates.

    Brute-force oracle path: weight p_mu_up * p_mu_dn on each basis pair of
    initial microstates, each evolved into the two-branch pure state.
    Capped at total dimension 512 (environments up to d=8 transmitting).

    rho lives on the principal block of ``_branch_support``: two d_up x d_dn
    arrays over (e_up, e_dn).  Each (mu, nu) vector is nonzero only on
    down-branch row mu, where it holds beta V_dn[:, nu], and on up-branch
    column nu, where it holds alpha V_up[:, mu].  Its weighted outer
    product is added on those d_dn + d_up rows and columns of the block, in
    (mu, nu) order, and the block is scattered into zeros.  Every entry has
    the bits of the dense sum over Kronecker-product vectors: the terms left
    out are +-0, and adding +-0 to a sum that starts at +0 changes none of
    its bits.
    """
    mode = _check_modes(det_up, det_dn)
    reg = Register(_full_slots(det_up, det_dn))
    if reg.dim > FULL_DIM_CAP:
        raise DimensionCapError(
            f"full density matrix dimension {reg.dim} exceeds cap {FULL_DIM_CAP}"
        )
    d_up, d_dn = det_up.d, det_dn.d
    n = d_up * d_dn
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    up_column = n + d_dn * np.arange(d_up)
    for mu in range(d_up):
        fired_up = prep.alpha * det_up.V[:, mu]
        dn_row = mu * d_dn + np.arange(d_dn)
        for nu in range(d_dn):
            rows = np.concatenate([dn_row, up_column + nu])
            vec = np.concatenate([prep.beta * det_dn.V[:, nu], fired_up])
            w = det_up.weights[mu] * det_dn.weights[nu]
            block[np.ix_(rows, rows)] += w * np.outer(vec, vec.conj())
    support = _branch_support(mode, d_up, d_dn)
    rho = np.zeros((reg.dim, reg.dim), dtype=complex)
    rho[np.ix_(support, support)] = block
    return DensityMatrix(reg, rho)


def reduced_rho_analytic(prep: SpinPrep, det_up: DetectorModel,
                         det_dn: DetectorModel) -> DensityMatrix:
    """Spin/pointer density matrix without materializing the environments.

    Transmitting mode: 8x8 on (s, r_up, r_dn), supported on |110> and
    |001>.  Absorbing mode: 4x4 on (r_up, r_dn), supported on |10> and
    |01>.  Diagonal (|alpha|^2, |beta|^2); off-diagonal
    alpha conj(beta) f_up conj(f_dn).
    """
    mode = _check_modes(det_up, det_dn)
    f_up = coherence_factor(det_up).value
    f_dn = coherence_factor(det_dn).value
    cross = prep.alpha * np.conj(prep.beta) * f_up * np.conj(f_dn)
    if mode == "transmitting":
        reg = Register((("s", 2), ("r_up", 2), ("r_dn", 2)))
        upper, lower = 0b110, 0b001
    else:
        reg = Register((("r_up", 2), ("r_dn", 2)))
        upper, lower = 0b10, 0b01
    rho = np.zeros((reg.dim, reg.dim), dtype=complex)
    rho[upper, upper] = abs(prep.alpha) ** 2
    rho[lower, lower] = abs(prep.beta) ** 2
    rho[upper, lower] = cross
    rho[lower, upper] = np.conj(cross)
    return DensityMatrix(reg, rho)


def _trace_op(rho: np.ndarray, op: np.ndarray) -> float:
    value = complex(np.einsum("ij,ji->", rho, op))
    return float(value.real)


def _pointer_z_correlations(prep: SpinPrep, det_up: DetectorModel,
                            det_dn: DetectorModel) -> dict:
    """Z-sector collapse correlations computed from the reduced matrix."""
    rho = reduced_rho_analytic(prep, det_up, det_dn)
    pairs = {"z_s_z_rup": ("s", "r_up"), "z_s_z_rdn": ("s", "r_dn"),
             "z_rup_z_rdn": ("r_up", "r_dn")}
    return {key: _trace_op(rho.entries, pauli_matrix(PauliString(dict.fromkeys(pair, "Z")),
                                                     rho.register))
            for key, pair in pairs.items() if set(pair) <= set(rho.register.labels)}


def blindness_contrast(prep: SpinPrep, det_up: DetectorModel,
                       det_dn: DetectorModel, seed: int | None = None) -> dict:
    """Demon vs readout-only X correlation on the post-passage state.

    With demon operators (full passage unitary known) the superposition
    correlation evaluates to 2 Re(alpha conj(beta)) for any environment,
    +1 for balanced prep.  With readout-only X (identity on environments)
    it collapses to 2 Re(alpha conj(beta) f_up conj(f_dn)).  The Z-sector
    collapse correlations are unsuppressed either way.  Full-matrix values
    are included whenever the register fits the dimension cap; the
    analytic values have no cap.

    The full values are traces on the branch block of ``rho_t4_full``
    against mode-free operators that swap the branches: [[0, M^H], [M, 0]]
    with M = X_D_up[fired, ready] (x) X_D_dn[ready, fired] for the demon,
    X (x) I for readout-only.  They have the bits of dense register traces.
    """
    mode = _check_modes(det_up, det_dn)
    f_up = coherence_factor(det_up).value
    f_dn = coherence_factor(det_dn).value
    ab = prep.alpha * np.conj(prep.beta)
    report = {
        "mode": mode,
        "d_up": det_up.d,
        "d_dn": det_dn.d,
        "f_up": complex(f_up),
        "f_dn": complex(f_dn),
        "demon_analytic": float(2.0 * np.real(ab)),
        "readout_only_analytic": float(2.0 * np.real(ab * f_up * np.conj(f_dn))),
    }
    report.update(_pointer_z_correlations(prep, det_up, det_dn))
    # Sized from the slots: a Register refuses more than DIM_CAP entries,
    # and the analytic values have no cap.
    if math.prod(d for _, d in _full_slots(det_up, det_dn)) <= FULL_DIM_CAP:
        d_up, d_dn = det_up.d, det_dn.d
        support = _branch_support(mode, d_up, d_dn)
        block = rho_t4_full(prep, det_up, det_dn).entries[np.ix_(support, support)]
        m = np.kron(demon_x_operator(det_up)[d_up:, :d_up],
                    demon_x_operator(det_dn)[:d_dn, d_dn:])
        zero = np.zeros_like(m)
        report["demon_full"] = _trace_op(block, np.block([[zero, m.conj().T], [m, zero]]))
        report["readout_only_full"] = _trace_op(block, np.kron(PAULI["X"], np.eye(d_up * d_dn)))
    if seed is not None:
        report["seed"] = int(seed)
    return report


def absorbing_variant(prep: SpinPrep, det_up: DetectorModel,
                      det_dn: DetectorModel) -> dict:
    """Absorbing-detector contrast: 4x4 pointer matrix plus the demon and
    readout-only X correlations built from the absorbed-atom passage map."""
    if _check_modes(det_up, det_dn) != "absorbing":
        raise ValueError("absorbing_variant requires detectors in absorbing mode")
    report = blindness_contrast(prep, det_up, det_dn)
    rho = reduced_rho_analytic(prep, det_up, det_dn)
    report["pointer_diag"] = [float(x) for x in np.real(np.diagonal(rho.entries))]
    report["pointer_offdiag_abs"] = float(abs(rho.entries[0b10, 0b01]))
    return report


def sweep_suppression(prep: SpinPrep, d_values, trials: int, seed: int,
                      env_model: str = "haar", weights_model: str = "uniform",
                      mode: str = "transmitting") -> tuple[RowTable, dict]:
    """Monte Carlo sweep of coherence-factor suppression over d.

    For each (d, trial) a fresh detector pair is drawn from child streams
    of the root seed: stream 2k for the up detector and 2k + 1 for the down
    detector of row k.  The environment unitaries of each d are sampled
    and checked for unitarity in stacks, with the same draws, bits and
    1e-12 rule as ``DetectorModel.sample``.  Each stack's streams are
    spawned just before it is drawn, so only one stack of generators is
    alive at a time.  The rows are columns (a ``RowTable``), one entry per
    trial: ``d``, ``trial``, |f|^2 for both detectors and the off-diagonal
    magnitude of the reduced matrix.

    The d values must be distinct.  The summary has one entry per d with:

    * ``mean_f_abs2``: the sample mean of the up detector's |f|^2;
    * ``expected_uniform_haar``: 1/d^2, the moment for uniform p and Haar V
      only, kept for existing readers;
    * ``expected_f_abs2``: the exact E|f|^2 of the model run (see
      ``_f_abs2_moment``);
    * ``pooled_mean_f_abs2``: the mean over both detectors, its sample
      standard error ``stderr`` and ``z`` = (pooled - expected) / stderr.
      ``z`` is 0 when the pooled mean is within 1e-12 of the expected
      value, as for ``identity`` or d = 1, where every sample is exact.
    """
    d_values = [int(d) for d in d_values]
    if len(set(d_values)) != len(d_values):
        raise ValueError(f"d values must be distinct, got {d_values}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    _check_sampling(env_model, weights_model, d_values)
    draws = 2 * len(d_values) * trials
    if draws > SWEEP_DRAW_CAP:
        raise DimensionCapError(
            f"sweep of {draws} detector draws (2 x trials x d values) exceeds cap {SWEEP_DRAW_CAP}"
        )
    root = np.random.SeedSequence(int(seed))
    f = np.empty(draws, dtype=complex)  # f[2k] up, f[2k + 1] down
    for i, d in enumerate(d_values):
        w = _weights(d, weights_model)
        step = max(1, SWEEP_CHUNK_ENTRIES // (d * d))
        block_end = 2 * trials * (i + 1)
        for lo in range(2 * trials * i, block_end, step):
            v = _env_unitaries(d, spawn(root, min(step, block_end - lo)), env_model)
            _require_unitary(v)
            for j, vj in enumerate(v, lo):
                f[j] = w @ np.diagonal(vj)
    # Per-trial Python scalars, not array ufuncs: numpy's array abs, complex
    # multiply and square round differently from these scalar forms.
    ab = prep.alpha * np.conj(prep.beta)
    f_up, f_dn = f[0::2].tolist(), f[1::2].tolist()
    d_col = np.repeat(d_values, trials)
    f_abs2_up = np.array([abs(x) ** 2 for x in f_up])
    f_abs2_dn = np.array([abs(x) ** 2 for x in f_dn])
    rows = RowTable({
        "d": d_col,
        "trial": np.tile(np.arange(trials), len(d_values)),
        "f_abs2_up": f_abs2_up,
        "f_abs2_dn": f_abs2_dn,
        "offdiag_abs": np.array([abs(ab * up * np.conj(dn)) for up, dn in zip(f_up, f_dn)]),
    })
    summary = {}
    for d in d_values:
        mask = d_col == d
        pooled = np.concatenate([f_abs2_up[mask], f_abs2_dn[mask]])
        expected = _f_abs2_moment(d, env_model, weights_model)
        mean = float(pooled.mean())
        stderr = float(pooled.std(ddof=1) / np.sqrt(pooled.size))
        summary[str(d)] = {
            "mean_f_abs2": float(f_abs2_up[mask].mean()),
            "expected_uniform_haar": 1.0 / d**2,
            "expected_f_abs2": expected,
            "pooled_mean_f_abs2": mean,
            "stderr": stderr,
            "z": 0.0 if abs(mean - expected) <= MOMENT_TOL else (mean - expected) / stderr,
        }
    return rows, summary


def _f_abs2_moment(d: int, env_model: str, weights_model: str) -> float:
    """Exact E|f|^2 for f = sum_mu p_mu V_mu,mu.

    Haar V: sum p^2 / d, from the Weingarten rule
    E[V_ij conj(V_kl)] = delta_ik delta_jl / d (Collins & Sniady 2006).
    Independent uniform phases: sum p^2.  Identity: (sum p)^2 = 1.
    """
    if env_model == "identity":
        return 1.0
    w = _weights(d, weights_model)
    s2 = float(w @ w)
    return s2 / d if env_model == "haar" else s2
