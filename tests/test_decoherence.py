import functools

import numpy as np
import pytest

from sglab import (
    CoherenceFactor,
    DetectorModel,
    DimensionCapError,
    PauliString,
    SpinPrep,
    blindness_contrast,
    coherence_factor,
    reduced_rho_analytic,
    rho_t4_full,
    sweep_suppression,
)
from sglab.decoherence import ENV_DIM_CAP, FULL_DIM_CAP, MODES
from sglab.observables import PAULI
from sglab.sampling import split, stream
from sglab.tensor import DIM_CAP

from oracles import (
    branch_support,
    demon_x_operator,
    detector_passage_unitary,
    embed_full,
    partial_trace,
    pauli_matrix,
)


def dense_rho_t4_full(prep, det_up, det_dn):
    """The dense loop: one weighted outer product per (mu, nu) on the whole register."""
    e0, e1 = np.eye(2, dtype=complex)
    eye_up = np.eye(det_up.d, dtype=complex)
    eye_dn = np.eye(det_dn.d, dtype=complex)
    lead = ([e1], [e0]) if det_up.mode == "transmitting" else ([], [])
    dim = (2 if lead[0] else 1) * 4 * det_up.d * det_dn.d
    rho = np.zeros((dim, dim), dtype=complex)
    for mu in range(det_up.d):
        fired_up = det_up.V @ eye_up[mu]
        for nu in range(det_dn.d):
            fired_dn = det_dn.V @ eye_dn[nu]
            w = det_up.weights[mu] * det_dn.weights[nu]
            up_branch = lead[0] + [e1, fired_up, e0, eye_dn[nu]]
            dn_branch = lead[1] + [e0, eye_up[mu], e1, fired_dn]
            vec = (prep.alpha * functools.reduce(np.kron, up_branch)
                   + prep.beta * functools.reduce(np.kron, dn_branch))
            rho += w * np.outer(vec, vec.conj())
    return rho


def dense_pointer_fields(prep, det_up, det_dn):
    """Z correlations traced on the reduced matrix against dense Kronecker
    Pauli matrices and, in absorbing mode, its diagonal and |rho[10, 01]|."""
    rho = reduced_rho_analytic(prep, det_up, det_dn)
    pairs = {"z_s_z_rup": ("s", "r_up"), "z_s_z_rdn": ("s", "r_dn"),
             "z_rup_z_rdn": ("r_up", "r_dn")}
    out = {key: float(complex(np.einsum("ij,ji->", rho.entries, pauli_matrix(
               PauliString(dict.fromkeys(pair, "Z")), rho.register))).real)
           for key, pair in pairs.items() if set(pair) <= set(rho.register.labels)}
    if det_up.mode == "absorbing":
        out["pointer_diag"] = [float(x) for x in np.real(np.diagonal(rho.entries))]
        out["pointer_offdiag_abs"] = float(abs(rho.entries[0b10, 0b01]))
    return out


def dense_blindness_full(rho, det_up, det_dn):
    """Demon and readout-only X traced on the whole register, with dense
    Kronecker operators and one einsum over every entry."""
    x = PAULI["X"]
    lead = [x] if det_up.mode == "transmitting" else []
    ops = {
        "demon_full": lead + [demon_x_operator(det_up), demon_x_operator(det_dn)],
        "readout_only_full": lead + [np.kron(x, np.eye(det_up.d)), np.kron(x, np.eye(det_dn.d))],
    }
    return {key: float(complex(np.einsum("ij,ji->", rho, functools.reduce(np.kron, factors))).real)
            for key, factors in ops.items()}


BALANCED = SpinPrep.balanced()
GENERIC = SpinPrep(0.6, 0.8j)
COMPLEX = SpinPrep(complex(0.28, 0.6), complex(0.5, np.sqrt(1 - 0.28**2 - 0.36 - 0.25)))
ONLY_DOWN = SpinPrep(0.0, 1j)  # alpha = 0
ONLY_UP = SpinPrep(-1.0, 0.0)  # beta = 0

# The full path's (d_up, d_dn) grid, up to the cap in each mode.
FULL_D_PAIRS = {
    "transmitting": [(1, 1), (2, 3), (5, 2), (8, 8)],
    "absorbing": [(1, 1), (3, 2), (4, 9), (11, 11)],
}


def trivial_detector(mode="transmitting"):
    return DetectorModel(d=1, weights=np.array([1.0]), V=np.eye(1, dtype=complex),
                         mode=mode)


class TestDetectorModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(d=2, weights=np.array([0.7, 0.7]), V=np.eye(2))
        with pytest.raises(ValueError):
            DetectorModel(d=2, weights=np.array([0.5, 0.5]),
                          V=np.array([[1, 1], [0, 1]], dtype=complex))
        with pytest.raises(ValueError):
            DetectorModel(d=2, weights=np.array([0.5, 0.5]), V=np.eye(2),
                          mode="bouncing")

    def test_sample_classes(self):
        det = DetectorModel.sample(5, 1, env_model="identity", weights_model="uniform")
        assert np.allclose(det.V, np.eye(5))
        assert np.allclose(det.weights, 0.2)
        det = DetectorModel.sample(4, 2, env_model="phases", weights_model="geometric")
        assert np.allclose(np.abs(np.diagonal(det.V)), 1.0)
        assert np.allclose(det.V, np.diag(np.diagonal(det.V)))
        assert det.weights[0] > det.weights[1] > det.weights[2]
        det = DetectorModel.sample(3, 3, env_model="haar")
        assert np.max(np.abs(det.V.conj().T @ det.V - np.eye(3))) < 1e-12

    def test_sample_rejects_unknown_classes(self):
        with pytest.raises(ValueError):
            DetectorModel.sample(2, 0, env_model="thermal")
        with pytest.raises(ValueError):
            DetectorModel.sample(2, 0, weights_model="zipf")

    def test_sample_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            DetectorModel.sample(ENV_DIM_CAP + 1, 0)

    def test_sample_determinism(self):
        a = DetectorModel.sample(6, 11)
        b = DetectorModel.sample(6, 11)
        assert np.array_equal(a.V, b.V)


class TestCoherenceFactor:
    def test_identity_environment(self):
        assert coherence_factor(trivial_detector()).value == pytest.approx(1.0)
        det = DetectorModel.sample(7, 0, env_model="identity")
        assert coherence_factor(det).value == pytest.approx(1.0)

    def test_diagonal_phases(self):
        phases = np.array([0.0, np.pi / 3, np.pi])
        det = DetectorModel(d=3, weights=np.full(3, 1 / 3),
                            V=np.diag(np.exp(1j * phases)))
        want = np.mean(np.exp(1j * phases))
        assert coherence_factor(det).value == pytest.approx(want)

    def test_magnitude_bound(self):
        with pytest.raises(ValueError):
            CoherenceFactor(1.5 + 0j)
        rng = stream(0)
        for _ in range(20):
            det = DetectorModel.sample(8, rng)
            assert abs(coherence_factor(det).value) <= 1.0 + 1e-12

    def test_suppression_grows_with_dimension(self):
        medians = []
        for d in (4, 16, 64, 256):
            streams = split(1000 + d, 200)
            vals = [abs(coherence_factor(DetectorModel.sample(d, s)).value)
                    for s in streams]
            medians.append(np.median(vals))
        assert medians[0] > medians[1] > medians[2] > medians[3]


class TestPassageAndDemon:
    def test_passage_flips_readout_and_scrambles(self):
        det = DetectorModel.sample(3, 5)
        u = detector_passage_unitary(det)
        # |0, mu> -> |1, V mu>
        for mu in range(3):
            vec = np.zeros(6, dtype=complex)
            vec[mu] = 1.0  # readout 0 block is the first d entries
            out = u @ vec
            assert np.allclose(out[:3], 0)
            assert np.allclose(out[3:], det.V[:, mu])

    def test_trivial_demon_is_pauli_x(self):
        assert np.allclose(demon_x_operator(trivial_detector()), PAULI["X"])

    def test_demon_is_hermitian_involution(self):
        for d in (2, 3, 4):
            det = DetectorModel.sample(d, d)
            x_d = demon_x_operator(det)
            assert np.allclose(x_d, x_d.conj().T)
            assert np.allclose(x_d @ x_d, np.eye(2 * d))

    def test_demon_maps_branches(self):
        # X_D |0, mu> = |1, V mu> and X_D |1, V mu> = |0, mu>.
        det = DetectorModel.sample(3, 8)
        x_d = demon_x_operator(det)
        for mu in range(3):
            ready = np.zeros(6, dtype=complex)
            ready[mu] = 1.0
            fired = np.concatenate([np.zeros(3), det.V[:, mu]])
            assert np.allclose(x_d @ ready, fired)
            assert np.allclose(x_d @ fired, ready)


class TestDensityMatrices:
    def test_full_matrix_trace_and_cap(self):
        det = DetectorModel.sample(2, 1)
        rho = rho_t4_full(BALANCED, det, det)
        assert rho.register.dim == 2 * 2 * 2
        assert np.trace(rho.entries) == pytest.approx(1.0)
        big = DetectorModel.sample(16, 1)
        with pytest.raises(DimensionCapError):
            rho_t4_full(BALANCED, big, big)

    @pytest.mark.parametrize("env_model", ["haar", "phases", "identity"])
    @pytest.mark.parametrize("weights_model", ["uniform", "geometric"])
    @pytest.mark.parametrize("mode,d_pairs", [
        ("transmitting", [(1, 1), (2, 3), (5, 2), (8, 8)]),
        ("absorbing", [(1, 1), (3, 2), (8, 8), (11, 11)]),
    ], ids=["transmitting", "absorbing"])
    def test_full_matrix_is_bitwise_the_dense_loop(self, env_model, weights_model, mode, d_pairs):
        for k, (d_up, d_dn) in enumerate(d_pairs):
            streams = split(70 + k, 2)
            det_up = DetectorModel.sample(d_up, streams[0], env_model, weights_model, mode=mode)
            det_dn = DetectorModel.sample(d_dn, streams[1], env_model, weights_model, mode=mode)
            got = embed_full(rho_t4_full(COMPLEX, det_up, det_dn), mode).entries
            want = dense_rho_t4_full(COMPLEX, det_up, det_dn)
            assert got.tobytes() == want.tobytes(), (d_up, d_dn)

    @pytest.mark.parametrize("mode", MODES)
    def test_branch_support_is_the_dense_nonzero_columns(self, mode):
        for k, (d_up, d_dn) in enumerate(FULL_D_PAIRS[mode]):
            support = branch_support(mode, d_up, d_dn)
            assert support.size == 2 * d_up * d_dn
            assert np.all(np.diff(support) > 0)
            streams = split(80 + k, 2)
            det_up = DetectorModel.sample(d_up, streams[0], mode=mode)
            det_dn = DetectorModel.sample(d_dn, streams[1], mode=mode)
            dense = dense_rho_t4_full(COMPLEX, det_up, det_dn)
            assert np.array_equal(support, np.flatnonzero(dense.any(axis=0))), (d_up, d_dn)

    def test_mode_mismatch_rejected(self):
        t = DetectorModel.sample(2, 1)
        a = DetectorModel.sample(2, 1, mode="absorbing")
        with pytest.raises(ValueError):
            rho_t4_full(BALANCED, t, a)

    def test_analytic_trivial_environment(self):
        det = trivial_detector()
        rho = reduced_rho_analytic(GENERIC, det, det)
        assert rho.entries[0b110, 0b110] == pytest.approx(0.36)
        assert rho.entries[0b001, 0b001] == pytest.approx(0.64)
        # f = 1 on both sides: full coherence survives
        assert rho.entries[0b110, 0b001] == pytest.approx(0.6 * np.conj(0.8j))

    def test_analytic_absorbing_shape(self):
        det = trivial_detector("absorbing")
        rho = reduced_rho_analytic(GENERIC, det, det)
        assert rho.register.labels == ("r_up", "r_dn")
        assert rho.entries[0b10, 0b10] == pytest.approx(0.36)
        assert rho.entries[0b01, 0b01] == pytest.approx(0.64)

    @pytest.mark.parametrize("mode", ["transmitting", "absorbing"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_analytic_equals_traced_full(self, mode, d):
        streams = split(50 * d, 20)
        keep = ["s", "r_up", "r_dn"] if mode == "transmitting" else ["r_up", "r_dn"]
        for k in range(10):
            det_up = DetectorModel.sample(d, streams[2 * k], mode=mode)
            det_dn = DetectorModel.sample(d, streams[2 * k + 1], mode=mode)
            full = embed_full(rho_t4_full(GENERIC, det_up, det_dn), mode)
            reduced = partial_trace(full, keep)
            analytic = reduced_rho_analytic(GENERIC, det_up, det_dn)
            assert np.max(np.abs(reduced.entries - analytic.entries)) < 1e-10


class TestBlindnessContrast:
    @pytest.mark.parametrize("env_model", ["haar", "phases", "identity"])
    @pytest.mark.parametrize("weights_model", ["uniform", "geometric"])
    @pytest.mark.parametrize("mode", MODES)
    def test_block_traces_are_bitwise_the_dense_traces(self, env_model, weights_model, mode):
        for k, (d_up, d_dn) in enumerate(FULL_D_PAIRS[mode]):
            streams = split(90 + k, 2)
            det_up = DetectorModel.sample(d_up, streams[0], env_model, weights_model, mode=mode)
            det_dn = DetectorModel.sample(d_dn, streams[1], env_model, weights_model, mode=mode)
            for prep in (COMPLEX, ONLY_DOWN, ONLY_UP):
                report = blindness_contrast(prep, det_up, det_dn)
                rho = embed_full(rho_t4_full(prep, det_up, det_dn), mode).entries
                for key, want in dense_blindness_full(rho, det_up, det_dn).items():
                    assert report[key] == want, (d_up, d_dn, prep, key)
                for key, want in dense_pointer_fields(prep, det_up, det_dn).items():
                    assert report[key] == want, (d_up, d_dn, prep, key)
                    assert np.array_equal(np.signbit(report[key]), np.signbit(want)), key

    def test_trivial_environment_no_suppression(self):
        det = trivial_detector()
        report = blindness_contrast(BALANCED, det, det)
        assert report["demon_analytic"] == pytest.approx(1.0)
        assert report["readout_only_analytic"] == pytest.approx(1.0)
        assert report["demon_full"] == pytest.approx(1.0)

    def test_demon_restores_correlation(self):
        streams = split(60, 2)
        det_up = DetectorModel.sample(3, streams[0])
        det_dn = DetectorModel.sample(3, streams[1])
        report = blindness_contrast(BALANCED, det_up, det_dn)
        assert report["demon_analytic"] == pytest.approx(1.0)
        assert abs(report["demon_full"] - 1.0) < 1e-10
        f = report["f_up"] * np.conj(report["f_dn"])
        want = float(np.real(f))  # 2 Re(alpha conj(beta) f) with ab = 1/2
        assert abs(report["readout_only_full"] - want) < 1e-10
        assert abs(report["readout_only_analytic"] - want) < 1e-12
        assert abs(report["readout_only_full"]) < abs(report["demon_full"])

    def test_z_correlations_unsuppressed(self):
        streams = split(61, 2)
        det_up = DetectorModel.sample(4, streams[0])
        det_dn = DetectorModel.sample(4, streams[1])
        report = blindness_contrast(GENERIC, det_up, det_dn)
        assert report["z_s_z_rup"] == pytest.approx(1.0, abs=1e-12)
        assert report["z_s_z_rdn"] == pytest.approx(-1.0, abs=1e-12)
        assert report["z_rup_z_rdn"] == pytest.approx(-1.0, abs=1e-12)

    def test_full_values_skipped_above_cap(self):
        streams = split(62, 2)
        d = 12  # 2 * 4 * 144 = 1152 > 512
        det_up = DetectorModel.sample(d, streams[0])
        det_dn = DetectorModel.sample(d, streams[1])
        assert (2 * 4 * d * d) > FULL_DIM_CAP
        report = blindness_contrast(BALANCED, det_up, det_dn)
        assert "demon_full" not in report
        assert "demon_analytic" in report

    @pytest.mark.parametrize("mode,d,has_full", [
        ("transmitting", 8, True), ("transmitting", 9, False),
        ("absorbing", 11, True), ("absorbing", 12, False),
    ])
    def test_full_values_stop_at_the_cap_in_both_modes(self, mode, d, has_full):
        streams = split(66, 2)
        det_up = DetectorModel.sample(d, streams[0], mode=mode)
        det_dn = DetectorModel.sample(d, streams[1], mode=mode)
        report = blindness_contrast(GENERIC, det_up, det_dn)
        assert ("demon_full" in report) is has_full
        assert ("readout_only_full" in report) is has_full
        if has_full:
            rho = rho_t4_full(GENERIC, det_up, det_dn)
            assert rho.register.slots == (("branch", 2), ("e_up", d), ("e_dn", d))
            assert rho.register.dim == 2 * d * d
        else:
            with pytest.raises(DimensionCapError):
                rho_t4_full(GENERIC, det_up, det_dn)
        assert "demon_analytic" in report and "readout_only_analytic" in report

    def test_analytic_values_beyond_the_register_cap(self):
        d = 91  # 2 * 4 * 91**2 = 66248 > DIM_CAP: no Register of the full path exists
        assert 2 * 4 * d * d > DIM_CAP
        streams = split(67, 2)
        report = blindness_contrast(BALANCED, DetectorModel.sample(d, streams[0]),
                                    DetectorModel.sample(d, streams[1]))
        assert "demon_full" not in report
        assert report["demon_analytic"] == pytest.approx(1.0)

    def test_generic_prep_demon_value(self):
        det = trivial_detector()
        report = blindness_contrast(GENERIC, det, det)
        want = 2 * np.real(0.6 * np.conj(0.8j))
        assert report["demon_analytic"] == pytest.approx(want)
        assert report["demon_full"] == pytest.approx(want)


class TestAbsorbingVariant:
    """blindness_contrast on absorbing detectors: the pointer fields."""

    def test_requires_absorbing_mode(self):
        det = trivial_detector()
        assert "pointer_diag" not in blindness_contrast(BALANCED, det, det)
        with pytest.raises(ValueError):
            blindness_contrast(BALANCED, det, DetectorModel.sample(2, 1, mode="absorbing"))

    def test_pointer_structure(self):
        streams = split(63, 2)
        det_up = DetectorModel.sample(2, streams[0], mode="absorbing")
        det_dn = DetectorModel.sample(2, streams[1], mode="absorbing")
        report = blindness_contrast(GENERIC, det_up, det_dn)
        diag = report["pointer_diag"]
        assert diag[0b10] == pytest.approx(0.36)
        assert diag[0b01] == pytest.approx(0.64)
        assert diag[0b00] == pytest.approx(0.0)
        assert diag[0b11] == pytest.approx(0.0)
        f = report["f_up"] * np.conj(report["f_dn"])
        assert report["pointer_offdiag_abs"] == pytest.approx(0.48 * abs(f))
        assert abs(report["demon_full"] - report["demon_analytic"]) < 1e-10

    def test_z_correlation_survives(self):
        streams = split(64, 2)
        det_up = DetectorModel.sample(3, streams[0], mode="absorbing")
        det_dn = DetectorModel.sample(3, streams[1], mode="absorbing")
        report = blindness_contrast(BALANCED, det_up, det_dn)
        assert report["z_rup_z_rdn"] == pytest.approx(-1.0, abs=1e-12)


class TestSweep:
    def test_moment_matches_uniform_haar(self):
        report = sweep_suppression(BALANCED, [4, 8], 300, seed=7)
        rows, summary = report.rows, report.summary
        for d in (4, 8):
            vals = np.array([r["f_abs2_up"] for r in rows if r["d"] == d]
                            + [r["f_abs2_dn"] for r in rows if r["d"] == d])
            se = vals.std(ddof=1) / np.sqrt(len(vals))
            assert abs(vals.mean() - 1 / d**2) < 3 * se
            assert summary[str(d)]["expected_uniform_haar"] == pytest.approx(1 / d**2)

    def test_rows_shape_and_offdiag(self):
        rows = sweep_suppression(GENERIC, [2], 5, seed=1).rows
        assert len(rows) == 5
        for r in rows:
            want = 0.48 * np.sqrt(r["f_abs2_up"] * r["f_abs2_dn"])
            assert r["offdiag_abs"] == pytest.approx(want)

    def test_determinism(self):
        a = sweep_suppression(BALANCED, [2, 4], 10, seed=5)
        b = sweep_suppression(BALANCED, [2, 4], 10, seed=5)
        assert a == b

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            sweep_suppression(BALANCED, [2], 0, seed=0)
