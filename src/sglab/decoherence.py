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

from dataclasses import dataclass

import numpy as np

from .experiment import SpinPrep
from .observables import PAULI
from .reports import RowTable
from .sampling import random_phase_unitary, split, stream
from .tensor import (
    DensityMatrix,
    DimensionCapError,
    Register,
    haar_unitary,
    partial_trace,
)

# The brute-force full-density-matrix path is the validator, not the
# product; it is capped so the analytic path is the only one that scales.
FULL_DIM_CAP = 512

# Dense d x d environment sampling stops making sense well before the
# register cap; refuse clearly instead of thrashing memory.
ENV_DIM_CAP = 4096

UNITARITY_TOL = 1e-12

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
    label: str = "D"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("environment dimension must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != self.d or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a length-d probability vector")
        v = np.asarray(self.V, dtype=complex)
        if v.shape != (self.d, self.d):
            raise ValueError("V must be d x d")
        if np.max(np.abs(v.conj().T @ v - np.eye(self.d))) > UNITARITY_TOL:
            raise ValueError("V is not unitary within 1e-12")
        w = w.copy(); w.flags.writeable = False
        v = v.copy(); v.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "V", v)

    @classmethod
    def sample(cls, d: int, seed, env_model: str = "haar",
               weights_model: str = "uniform", mode: str = "transmitting",
               label: str = "D", geometric_ratio: float = 0.5) -> "DetectorModel":
        """Seeded model with the chosen environment and weight classes."""
        if env_model not in ENV_MODELS:
            raise ValueError(f"env_model must be one of {ENV_MODELS}")
        if weights_model not in WEIGHT_MODELS:
            raise ValueError(f"weights_model must be one of {WEIGHT_MODELS}")
        if d > ENV_DIM_CAP:
            raise DimensionCapError(
                f"environment dimension {d} exceeds dense sampling cap {ENV_DIM_CAP}"
            )
        rng = seed if isinstance(seed, np.random.Generator) else stream(seed)
        if env_model == "haar":
            v = haar_unitary(d, rng)
        elif env_model == "phases":
            v = random_phase_unitary(d, rng)
        else:
            v = np.eye(d, dtype=complex)
        if weights_model == "uniform":
            w = np.full(d, 1.0 / d)
        else:
            w = geometric_ratio ** np.arange(d)
            w = w / w.sum()
        return cls(d=d, weights=w, V=v, mode=mode, label=label)


@dataclass(frozen=True)
class CoherenceFactor:
    """Environment overlap sum multiplying the off-diagonal terms."""

    value: complex

    def __post_init__(self):
        if abs(self.value) > 1.0 + 1e-12:
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


def _full_register(det_up: DetectorModel, det_dn: DetectorModel) -> Register:
    slots = [("r_up", 2), ("e_up", det_up.d), ("r_dn", 2), ("e_dn", det_dn.d)]
    if det_up.mode == "transmitting":
        slots = [("s", 2)] + slots
    return Register(tuple(slots))


def _check_modes(det_up: DetectorModel, det_dn: DetectorModel) -> str:
    if det_up.mode != det_dn.mode:
        raise ValueError("both detectors must share one mode")
    return det_up.mode


def rho_t4_full(prep: SpinPrep, det_up: DetectorModel, det_dn: DetectorModel) -> DensityMatrix:
    """Exact post-passage density matrix, mixed over environment microstates.

    Brute-force oracle path: weight p_mu_up * p_mu_dn on each basis pair of
    initial microstates, each evolved into the two-branch pure state.
    Capped at total dimension 512 (environments up to d=8 transmitting).
    """
    mode = _check_modes(det_up, det_dn)
    reg = _full_register(det_up, det_dn)
    if reg.dim > FULL_DIM_CAP:
        raise DimensionCapError(
            f"full density matrix dimension {reg.dim} exceeds cap {FULL_DIM_CAP}"
        )
    e0, e1 = np.eye(2, dtype=complex)
    eye_up = np.eye(det_up.d, dtype=complex)
    eye_dn = np.eye(det_dn.d, dtype=complex)
    rho = np.zeros((reg.dim, reg.dim), dtype=complex)
    for mu in range(det_up.d):
        fired_up = det_up.V @ eye_up[mu]
        for nu in range(det_dn.d):
            fired_dn = det_dn.V @ eye_dn[nu]
            w = det_up.weights[mu] * det_dn.weights[nu]
            up_branch = [e1, fired_up, e0, eye_dn[nu]]
            dn_branch = [e0, eye_up[mu], e1, fired_dn]
            if mode == "transmitting":
                up_branch = [e1] + up_branch
                dn_branch = [e0] + dn_branch
            vec = prep.alpha * _kron_chain(up_branch) + prep.beta * _kron_chain(dn_branch)
            rho += w * np.outer(vec, vec.conj())
    return DensityMatrix(reg, rho)


def _kron_chain(factors) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


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


def _trace_op(rho: DensityMatrix, op: np.ndarray) -> float:
    value = complex(np.einsum("ij,ji->", rho.entries, op))
    return float(value.real)


def _pointer_z_correlations(prep: SpinPrep, det_up: DetectorModel,
                            det_dn: DetectorModel) -> dict:
    """Z-sector collapse correlations computed from the reduced matrix."""
    rho = reduced_rho_analytic(prep, det_up, det_dn)
    z, i2 = PAULI["Z"], PAULI["I"]
    if det_up.mode == "transmitting":
        return {
            "z_s_z_rup": _trace_op(rho, _kron_chain([z, z, i2])),
            "z_s_z_rdn": _trace_op(rho, _kron_chain([z, i2, z])),
            "z_rup_z_rdn": _trace_op(rho, _kron_chain([i2, z, z])),
        }
    return {"z_rup_z_rdn": _trace_op(rho, np.kron(z, z))}


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
    full_dim = (2 if mode == "transmitting" else 1) * 4 * det_up.d * det_dn.d
    if full_dim <= FULL_DIM_CAP:
        rho = rho_t4_full(prep, det_up, det_dn)
        x = PAULI["X"]
        demon_up = demon_x_operator(det_up)
        demon_dn = demon_x_operator(det_dn)
        readout_up = np.kron(x, np.eye(det_up.d))
        readout_dn = np.kron(x, np.eye(det_dn.d))
        if mode == "transmitting":
            demon_op = _kron_chain([x, demon_up, demon_dn])
            readout_op = _kron_chain([x, readout_up, readout_dn])
        else:
            demon_op = np.kron(demon_up, demon_dn)
            readout_op = np.kron(readout_up, readout_dn)
        report["demon_full"] = _trace_op(rho, demon_op)
        report["readout_only_full"] = _trace_op(rho, readout_op)
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
    of the root seed.  The rows are columns (a ``RowTable``), one entry per
    trial, filled in place: ``d``, ``trial``, |f|^2 for both detectors and
    the off-diagonal magnitude of the reduced matrix.  The summary holds
    the per-d sample mean of |f|^2 for comparison with 1/d^2 (the
    uniform-p, Haar-V moment).
    """
    d_values = [int(d) for d in d_values]
    if trials < 1:
        raise ValueError("trials must be >= 1")
    streams = split(seed, 2 * len(d_values) * trials)
    d_col = np.repeat(d_values, trials)
    f_abs2_up = np.empty(d_col.size)
    f_abs2_dn = np.empty(d_col.size)
    offdiag_abs = np.empty(d_col.size)
    for k, d in enumerate(d_col.tolist()):
        det_up = DetectorModel.sample(d, streams[2 * k], env_model, weights_model,
                                      mode=mode, label="D_up")
        det_dn = DetectorModel.sample(d, streams[2 * k + 1], env_model, weights_model,
                                      mode=mode, label="D_dn")
        f_up = coherence_factor(det_up).value
        f_dn = coherence_factor(det_dn).value
        f_abs2_up[k] = abs(f_up) ** 2
        f_abs2_dn[k] = abs(f_dn) ** 2
        offdiag_abs[k] = abs(prep.alpha * np.conj(prep.beta) * f_up * np.conj(f_dn))
    rows = RowTable({
        "d": d_col,
        "trial": np.tile(np.arange(trials), len(d_values)),
        "f_abs2_up": f_abs2_up,
        "f_abs2_dn": f_abs2_dn,
        "offdiag_abs": offdiag_abs,
    })
    summary = {}
    for d in d_values:
        summary[str(d)] = {
            "mean_f_abs2": float(f_abs2_up[d_col == d].mean()),
            "expected_uniform_haar": 1.0 / d**2,
        }
    return rows, summary
