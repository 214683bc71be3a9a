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
the detector's coherence factor.  A demon, who knows the passage
unitaries, reads the full X correlation: ``blindness_contrast`` traces the
two-branch block against [[0, M^H], [M, 0]] with M = V_up (x) V_dn^H.  The
readout-only X (identity on the environment) sees only the f-suppressed
value.

``blindness_contrast`` serves both modes.  It reads the Z-sector
correlations from the diagonal of the one reduced matrix, and in absorbing
mode it adds that matrix's diagonal and off-diagonal magnitude as the
pointer fields.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .experiment import SpinPrep
from .observables import PAULI
from .reports import RowTable, RunReport
from .sampling import check_int, check_seed, spawn, split, stream
from .tensor import DensityMatrix, DimensionCapError, Register, haar_unitary

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

# Geometric microstate weights: p_mu proportional to GEOMETRIC_RATIO ** mu.
GEOMETRIC_RATIO = 0.5
MODES = ("transmitting", "absorbing")
# Slots of the spin/pointer register in each mode, and its up and down
# branch words.
_POINTER = {"transmitting": ((("s", 2), ("r_up", 2), ("r_dn", 2)), 0b110, 0b001),
            "absorbing": ((("r_up", 2), ("r_dn", 2)), 0b10, 0b01)}


@dataclass(frozen=True, eq=False)
class DetectorModel:
    """Environment dimension, microstate weights, scrambling unitary, mode."""

    d: int
    weights: np.ndarray
    V: np.ndarray
    mode: str = "transmitting"

    def __post_init__(self):
        check_int("d", self.d)
        _check_mode(self.mode)
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
               weights_model: str = "uniform", mode: str = "transmitting") -> "DetectorModel":
        """Seeded model of the chosen classes; ``seed`` as in ``sampling.stream``.

        V is the one-matrix stack of the ``_ENV`` draw the sweep samples with,
        so a detector drawn here has the bits of the same stream's sweep draw.
        """
        _under_cap(check_sampling(env_model, weights_model, [d]))
        _check_mode(mode)
        rng = stream(seed)  # made for every model, so every model checks the seed
        return cls(d=d, weights=_WEIGHTS[weights_model](d),
                   V=_ENV[env_model].draw(d, [rng])[0], mode=mode)


def _require_unitary(v: np.ndarray) -> None:
    """Refuse a d x d V, or a stack of them, with any Gram-matrix entry more
    than UNITARITY_TOL off the identity (a NaN entry is refused too)."""
    gram = np.matmul(np.swapaxes(v, -1, -2).conj(), v)
    gram -= np.eye(v.shape[-1])
    if not np.max(np.abs(gram)) <= UNITARITY_TOL:
        raise ValueError("V is not unitary within 1e-12")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def check_sampling(env_model: str, weights_model: str, d_values) -> list[int]:
    """The environment dimensions as ints, if both model names are known and
    ``d_values`` is a non-empty list of distinct integers >= 1."""
    if env_model not in ENV_MODELS:
        raise ValueError(f"env_model must be one of {ENV_MODELS}, got {env_model!r}")
    if weights_model not in WEIGHT_MODELS:
        raise ValueError(f"weights_model must be one of {WEIGHT_MODELS}, got {weights_model!r}")
    d_values = [check_int("d", d) for d in d_values]
    if not d_values or len(set(d_values)) != len(d_values):
        raise ValueError(f"d must be a non-empty list of distinct integers, got {d_values}")
    return d_values


def _under_cap(d_values: list[int]) -> list[int]:
    """``d_values``, unless one exceeds the dense sampling cap."""
    if max(d_values) > ENV_DIM_CAP:
        raise DimensionCapError(
            f"environment dimension {max(d_values)} exceeds dense sampling cap {ENV_DIM_CAP}")
    return d_values


def _geometric_weights(d: int) -> np.ndarray:
    w = GEOMETRIC_RATIO ** np.arange(d)
    return w / w.sum()


# Each weight model's microstate weights p_mu, from d.
_WEIGHTS = {
    "uniform": lambda d: np.full(d, 1.0 / d),
    "geometric": _geometric_weights,
}
# Each environment model's draw, (d, rngs) -> one unitary per generator, and
# its exact E|f|^2, (d, w) -> float: sum p^2 / d for Haar V, by the Weingarten
# rule E[V_ij conj(V_kl)] = delta_ik delta_jl / d (Collins & Sniady 2006), sum
# p^2 for uniform phases, and (sum p)^2, the literal 1.0, for the identity.
# The haar draw reads the module's ``haar_unitary`` at each call, not import.
_EnvModel = namedtuple("_EnvModel", "draw f_abs2_moment")
_ENV = {
    "haar": _EnvModel(lambda d, rngs: haar_unitary(d, rngs), lambda d, w: float(w @ w) / d),
    "phases": _EnvModel(
        lambda d, rngs: np.stack([np.diag(np.exp(2j * np.pi * rng.random(d))) for rng in rngs]),
        lambda d, w: float(w @ w)),
    "identity": _EnvModel(
        lambda d, rngs: np.broadcast_to(np.eye(d, dtype=complex), (len(rngs), d, d)),
        lambda d, w: 1.0),
}
ENV_MODELS = tuple(_ENV)
WEIGHT_MODELS = tuple(_WEIGHTS)


def _f(w: np.ndarray, v: np.ndarray) -> complex:
    """f = sum_mu p_mu <mu|V|mu>: a dot over the strided diagonal of V."""
    return w @ np.diagonal(v)


@dataclass(frozen=True)
class CoherenceFactor:
    """Environment overlap sum multiplying the off-diagonal terms."""

    value: complex

    def __post_init__(self):
        if not abs(self.value) <= 1.0 + 1e-12:
            raise ValueError("coherence factor magnitude exceeds 1")


def coherence_factor(det: DetectorModel) -> CoherenceFactor:
    """f = sum_mu p_mu <mu|V|mu>, computed exactly."""
    return CoherenceFactor(complex(_f(det.weights, det.V)))


def _check_modes(det_up: DetectorModel, det_dn: DetectorModel) -> str:
    if det_up.mode != det_dn.mode:
        raise ValueError("both detectors must share one mode")
    return det_up.mode


def _over_full_cap(det_up: DetectorModel, det_dn: DetectorModel) -> int:
    """0 when the full path runs, else the dimension that stops it: the
    spin/pointer register's times d_up * d_dn, when that exceeds
    FULL_DIM_CAP (d > 8 transmitting, d > 11 absorbing)."""
    dim = math.prod(n for _, n in _POINTER[det_up.mode][0]) * det_up.d * det_dn.d
    return dim if dim > FULL_DIM_CAP else 0


def rho_t4_full(prep: SpinPrep, det_up: DetectorModel, det_dn: DetectorModel) -> DensityMatrix:
    """Exact post-passage density matrix, mixed over environment microstates.

    Brute-force oracle path: weight p_mu_up * p_mu_dn on each basis pair of
    initial microstates, each evolved into the two-branch pure state.
    Refused where the full register it stands for, the spin/pointer slots
    times both environments, exceeds dimension 512.

    The passage leaves the pointer in one of two words, so the matrix is
    given on the register (branch, e_up, e_dn): branch 0 is the down word
    (s, r_up, r_dn) = (0, 0, 1), branch 1 the up word (1, 1, 0), with s
    absent in absorbing mode.  Each (mu, nu) vector is nonzero only on
    down-branch row mu, where it holds beta V_dn[:, nu], and on up-branch
    column nu, where it holds alpha V_up[:, mu].  Its weighted outer
    product is added on those d_dn + d_up rows and columns, in (mu, nu)
    order.  Every entry has the bits of the dense sum over
    Kronecker-product vectors on the full register, whose entries off the
    two words are exact zeros: the terms left out are +-0, and adding +-0
    to a sum that starts at +0 changes none of its bits.
    """
    _check_modes(det_up, det_dn)
    if dim := _over_full_cap(det_up, det_dn):
        raise DimensionCapError(f"full density matrix dimension {dim} exceeds cap {FULL_DIM_CAP}")
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
    return DensityMatrix(Register((("branch", 2), ("e_up", d_up), ("e_dn", d_dn))), block)


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
    slots, upper, lower = _POINTER[mode]
    reg = Register(slots)
    rho = np.zeros((reg.dim, reg.dim), dtype=complex)
    rho[upper, upper] = abs(prep.alpha) ** 2
    rho[lower, lower] = abs(prep.beta) ** 2
    rho[upper, lower] = cross
    rho[lower, upper] = np.conj(cross)
    return DensityMatrix(reg, rho)


def _trace_op(rho: np.ndarray, op: np.ndarray) -> float:
    value = complex(np.einsum("ij,ji->", rho, op))
    return float(value.real)


def blindness_contrast(prep: SpinPrep, det_up: DetectorModel, det_dn: DetectorModel) -> dict:
    """Demon vs readout-only X correlation on the post-passage state.

    With demon operators (full passage unitary known) the superposition
    correlation evaluates to 2 Re(alpha conj(beta)) for any environment,
    +1 for balanced prep.  With readout-only X (identity on environments)
    it collapses to 2 Re(alpha conj(beta) f_up conj(f_dn)).  The Z-sector
    collapse correlations are unsuppressed either way.  Full-matrix values
    are included whenever the register fits the dimension cap; the
    analytic values have no cap.

    Both modes read every analytic field after ``demon_analytic`` from one
    ``reduced_rho_analytic`` matrix.  ``readout_only_analytic`` is 2 Re of
    its upper-lower entry.  Z_a Z_b is +1 on both branch words for
    (s, r_up) and -1 for the other pairs, so each Z correlation is that sign
    times the two diagonal entries' sum; absorbing rows end with the pointer
    fields.

    The full values are traces of the (branch, e_up, e_dn) matrix of
    ``rho_t4_full`` against mode-free operators that swap the branches:
    [[0, M^H], [M, 0]] for the demon, with M = V_up (x) V_dn^H read from
    the detectors, and X (x) I for readout-only.  They have the bits of
    dense traces on the full register.
    """
    mode = _check_modes(det_up, det_dn)
    f_up = coherence_factor(det_up).value
    f_dn = coherence_factor(det_dn).value
    rho = reduced_rho_analytic(prep, det_up, det_dn).entries
    _, upper, lower = _POINTER[mode]
    weight = float(rho[upper, upper].real + rho[lower, lower].real)
    report = {
        "mode": mode,
        "d_up": det_up.d,
        "d_dn": det_dn.d,
        "f_up": complex(f_up),
        "f_dn": complex(f_dn),
        "demon_analytic": float(2.0 * np.real(prep.alpha * np.conj(prep.beta))),
        "readout_only_analytic": float(2.0 * rho[upper, lower].real),
    }
    if mode == "transmitting":
        report["z_s_z_rup"] = weight
        report["z_s_z_rdn"] = -weight
    report["z_rup_z_rdn"] = -weight
    if not _over_full_cap(det_up, det_dn):
        block = rho_t4_full(prep, det_up, det_dn).entries
        m = np.kron(det_up.V, det_dn.V.conj().T)
        zero = np.zeros_like(m)
        report["demon_full"] = _trace_op(block, np.block([[zero, m.conj().T], [m, zero]]))
        report["readout_only_full"] = _trace_op(block, np.kron(PAULI["X"], np.eye(len(m))))
    if mode == "absorbing":
        report["pointer_diag"] = [float(x) for x in np.real(np.diagonal(rho))]
        report["pointer_offdiag_abs"] = float(abs(rho[upper, lower]))
    return report


def run_detector_mode(prep: SpinPrep, d: int, seed: int, env_model: str,
                      weights_model: str, mode: str) -> RunReport:
    """Demon vs readout-only contrast of one detector pair of dimension d, drawn
    from child streams 0 (up) and 1 (down) of ``seed`` after every gate and the
    cap; the row ends with that ``seed`` in both modes."""
    _under_cap(check_sampling(env_model, weights_model, [d]))
    _check_mode(mode)
    det_up, det_dn = (DetectorModel.sample(d, rng, env_model, weights_model, mode)
                      for rng in split(seed, 2))
    row = blindness_contrast(prep, det_up, det_dn)
    row["seed"] = int(seed)
    return RunReport([row], {key: row[key] for key in ("demon_analytic", "readout_only_analytic")})


def sweep_suppression(prep: SpinPrep, d_values, trials: int, seed: int, env_model: str = "haar",
                      weights_model: str = "uniform") -> RunReport:
    """Monte Carlo sweep of coherence-factor suppression over d.

    For each (d, trial) a fresh detector pair is drawn from child streams
    of the root seed: stream 2k for the up detector and 2k + 1 for the down
    detector of row k.  The environment unitaries of each d are sampled
    in stacks by the env model's draw, which ``DetectorModel.sample``
    draws its one matrix from, so a row has the bits of detectors sampled
    from the same streams; each stack is checked for unitarity with
    ``DetectorModel``'s 1e-12 rule.  Each stack's streams are
    spawned just before it is drawn, so only one stack of generators is
    alive at a time.  The report's rows are columns (a ``RowTable``), one
    entry per trial: ``d``, ``trial``, |f|^2 for both detectors and the
    off-diagonal magnitude of the reduced matrix.

    ``trials``, ``seed`` and each d must be integers, not bools, and the d
    values distinct.  The summary has one entry per d with:

    * ``mean_f_abs2``: the sample mean of the up detector's |f|^2;
    * ``expected_uniform_haar``: 1/d^2, the moment for uniform p and Haar V
      only, kept for existing readers;
    * ``expected_f_abs2``: the exact E|f|^2 of the model run (see
      ``_ENV``);
    * ``pooled_mean_f_abs2``: the mean over both detectors, its sample
      standard error ``stderr`` and ``z`` = (pooled - expected) / stderr.
      ``z`` is 0 when the pooled mean is within 1e-12 of the expected
      value, as for ``identity`` or d = 1, where every sample is exact.
    """
    trials = check_int("trials", trials)
    d_values = _under_cap(check_sampling(env_model, weights_model, d_values))
    draws = 2 * len(d_values) * trials
    if draws > SWEEP_DRAW_CAP:
        raise DimensionCapError(
            f"sweep of {draws} detector draws (2 x trials x d values) exceeds cap {SWEEP_DRAW_CAP}"
        )
    root = np.random.SeedSequence(check_seed(seed))
    f = np.empty(draws, dtype=complex)  # f[2k] up, f[2k + 1] down
    weights = [_WEIGHTS[weights_model](d) for d in d_values]
    for i, (d, w) in enumerate(zip(d_values, weights)):
        step = max(1, SWEEP_CHUNK_ENTRIES // (d * d))
        block_end = 2 * trials * (i + 1)
        for lo in range(2 * trials * i, block_end, step):
            v = _ENV[env_model].draw(d, spawn(root, min(step, block_end - lo)))
            _require_unitary(v)
            for j, vj in enumerate(v, lo):
                f[j] = _f(w, vj)
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
    for d, w in zip(d_values, weights):
        mask = d_col == d
        pooled = np.concatenate([f_abs2_up[mask], f_abs2_dn[mask]])
        expected = _ENV[env_model].f_abs2_moment(d, w)
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
    return RunReport(rows, summary)
