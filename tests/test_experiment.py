from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sglab import (
    PureState,
    SpinPrep,
    basis_state,
    branch_mixture,
    condition_on_spin_x,
    evolve_stages,
    expectation_t4,
    ordinary_premeasurement,
    premeasurement_state,
    qubits,
    run_joint_mode,
    run_local_mode,
)
from sglab.experiment import ANCILLA_REGISTER, PATH_REGISTER

GENERIC = SpinPrep(0.6, 0.8j)


@st.composite
def preps(draw):
    """Normalized spin preps with any split and any phases."""
    theta = draw(st.floats(0.0, np.pi / 2))
    phase_a, phase_b = draw(st.floats(0.0, 2 * np.pi)), draw(st.floats(0.0, 2 * np.pi))
    return SpinPrep(np.cos(theta) * np.exp(1j * phase_a), np.sin(theta) * np.exp(1j * phase_b))


class TestPrepAndStages:
    def test_prep_normalization(self):
        with pytest.raises(ValueError):
            SpinPrep(0.9, 0.9)

    def test_stage_words(self):
        stages = evolve_stages(GENERIC)
        assert [s.stage for s in stages] == ["t1", "t2", "t3", "t4"]
        t1 = stages[0].state
        assert t1.amplitudes[0b100] == pytest.approx(0.6)
        assert t1.amplitudes[0b000] == pytest.approx(0.8j)
        t2 = stages[1].state
        assert t2.register == PATH_REGISTER
        assert t2.amplitudes[0b110] == pytest.approx(0.6)
        assert t2.amplitudes[0b001] == pytest.approx(0.8j)
        t4 = stages[3].state
        assert t4.register == ANCILLA_REGISTER
        assert t4.amplitudes[0b110] == pytest.approx(0.6)
        assert t4.amplitudes[0b001] == pytest.approx(0.8j)

    def test_path_overlap_is_zero(self):
        # The two t2 branches occupy orthogonal path words.
        t2 = evolve_stages(SpinPrep.balanced())[1].state
        support = np.flatnonzero(np.abs(t2.amplitudes) > 0)
        assert set(support) == {0b110, 0b001}

    def test_recombination_phase(self):
        chi = 0.7
        t4 = premeasurement_state(GENERIC, phase=chi)
        assert t4.amplitudes[0b001] == pytest.approx(0.8j * np.exp(1j * chi))

    def test_spin_z_expectation(self):
        assert expectation_t4(SpinPrep(0.6, 0.8), "ZII") == pytest.approx(-0.28)

    def test_t4_joint_words(self):
        for prep in (SpinPrep.balanced(), GENERIC, SpinPrep(1.0, 0.0)):
            assert expectation_t4(prep, "ZZI") == pytest.approx(1.0)
            assert expectation_t4(prep, "ZIZ") == pytest.approx(-1.0)
            assert expectation_t4(prep, "IZZ") == pytest.approx(-1.0)
        assert expectation_t4(SpinPrep.balanced(), "XXX") == pytest.approx(1.0)

    def test_xxx_tracks_interference_phase(self):
        prep = SpinPrep.balanced()
        for chi in (0.0, 0.5, np.pi / 2, np.pi, 2.2):
            assert expectation_t4(prep, "XXX", phase=chi) == pytest.approx(np.cos(chi))

    def test_unbalanced_xxx(self):
        # 2 Re(alpha conj(beta)) for real amplitudes 0.6, 0.8.
        assert expectation_t4(SpinPrep(0.6, 0.8), "XXX") == pytest.approx(0.96)

    def test_mixture_z_sector_matches_t4(self):
        mix = branch_mixture(GENERIC).to_density_matrix()
        t4 = premeasurement_state(GENERIC).density_matrix()
        assert np.allclose(np.diagonal(mix.entries), np.diagonal(t4.entries))
        # but the off-diagonal coherence is gone
        assert abs(mix.entries[0b110, 0b001]) < 1e-15
        assert abs(t4.entries[0b110, 0b001]) == pytest.approx(0.48)


class TestOrdinaryPremeasurement:
    def test_joint_z_words(self):
        from sglab.observables import PauliString, apply_pauli
        stage = ordinary_premeasurement(GENERIC)
        state = stage.state
        assert stage.stage == "t2"
        for word, value in (("IZZ", -1.0), ("ZZI", +1.0), ("ZIZ", -1.0)):
            obs = PauliString.from_word(word, state.register)
            got = np.real(np.vdot(state.amplitudes, apply_pauli(state, obs).amplitudes))
            assert got == pytest.approx(value, abs=1e-12)


class TestConditioning:
    def test_balanced_gives_bell_states(self):
        reg = qubits("a_up", "a_dn")
        for outcome, sign in ((+1, 1), (-1, -1)):
            got = condition_on_spin_x(SpinPrep.balanced(), outcome)
            amps = np.zeros(4, dtype=complex)
            amps[0b10], amps[0b01] = 1 / np.sqrt(2), sign / np.sqrt(2)
            assert got.fidelity(PureState(reg, amps)) == pytest.approx(1.0, abs=1e-12)

    def test_conditional_zz_anticorrelation(self):
        from sglab.observables import PAULI
        for outcome in (+1, -1):
            got = condition_on_spin_x(GENERIC, outcome)
            zz = np.kron(PAULI["Z"], PAULI["Z"])
            val = np.real(np.vdot(got.amplitudes, zz @ got.amplitudes))
            assert val == pytest.approx(-1.0, abs=1e-12)

    def test_bad_outcome(self):
        with pytest.raises(ValueError):
            condition_on_spin_x(SpinPrep.balanced(), 0)

    def test_phase_swaps_bell_states(self):
        reg = qubits("a_up", "a_dn")
        got = condition_on_spin_x(SpinPrep.balanced(), +1, phase=np.pi)
        amps = np.zeros(4, dtype=complex)
        amps[0b10], amps[0b01] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        assert got.fidelity(PureState(reg, amps)) == pytest.approx(1.0, abs=1e-12)


class TestLocalMode:
    def test_z_basis_words(self):
        report = run_local_mode(SpinPrep.balanced(), "Z", 20000, seed=1)
        assert set(report.summary["word_counts"]) <= {"110", "001"}
        freq = report.summary["word_counts"]["110"] / 20000
        assert abs(freq - 0.5) < 3 * np.sqrt(0.25 / 20000)
        # Z products track the word: (+1,+1,-1) for 110, (-1,-1,+1) for 001.
        assert all(r["product"] == (-1 if r["word"] == "110" else +1)
                   for r in report.rows)

    def test_z_basis_unbalanced(self):
        report = run_local_mode(SpinPrep(0.6, 0.8), "Z", 50000, seed=2)
        freq = report.summary["word_counts"]["110"] / 50000
        assert abs(freq - 0.36) < 3 * np.sqrt(0.36 * 0.64 / 50000)

    def test_deterministic_prep(self):
        report = run_local_mode(SpinPrep(1.0, 0.0), "Z", 100, seed=3)
        assert report.summary["word_counts"] == {"110": 100}

    def test_x_basis_product_definite(self):
        report = run_local_mode(SpinPrep.balanced(), "X", 20000, seed=4)
        assert report.summary["product_always_plus_one"]
        se = 1 / np.sqrt(20000)
        for key in ("mean_s", "mean_a_up", "mean_a_dn"):
            assert abs(report.summary[key]) < 3 * se

    def test_mixture_z_indistinguishable_x_distinguishable(self):
        mix_z = run_local_mode(SpinPrep.balanced(), "Z", 20000, seed=5, mixture=True)
        assert set(mix_z.summary["word_counts"]) <= {"110", "001"}
        mix_x = run_local_mode(SpinPrep.balanced(), "X", 20000, seed=5, mixture=True)
        assert not mix_x.summary["product_always_plus_one"]
        assert abs(mix_x.summary["product_mean"]) < 3 / np.sqrt(20000)

    def test_seed_reproducibility(self):
        a = run_local_mode(GENERIC, "Z", 500, seed=6)
        b = run_local_mode(GENERIC, "Z", 500, seed=6)
        assert a.rows == b.rows and a.summary == b.summary

    @settings(max_examples=60, deadline=None)
    @given(prep=preps(), basis=st.sampled_from(["Z", "X"]), mixture=st.booleans(),
           shots=st.integers(1, 300), seed=st.integers(0, 2**63 - 1))
    def test_rows_and_summary_agree(self, prep, basis, mixture, shots, seed):
        report = run_local_mode(prep, basis, shots, seed, mixture=mixture)
        rows = list(report.rows)
        assert len(report.rows) == shots
        assert [r["shot"] for r in rows] == list(range(shots))
        assert all(r["product"] == (-1) ** r["word"].count("0") for r in rows)
        counts = report.summary["word_counts"]
        assert sum(counts.values()) == shots
        assert list(counts.items()) == sorted(Counter(r["word"] for r in rows).items())
        for k, key in enumerate(("mean_s", "mean_a_up", "mean_a_dn")):
            assert report.summary[key] == sum(2 * int(r["word"][k]) - 1 for r in rows) / shots
        assert report.summary["product_mean"] == sum(r["product"] for r in rows) / shots
        assert report.summary["product_always_plus_one"] == all(r["product"] == 1 for r in rows)

    def test_arg_validation(self):
        with pytest.raises(ValueError):
            run_local_mode(GENERIC, "Y", 10, seed=0)
        with pytest.raises(ValueError):
            run_local_mode(GENERIC, "Z", 0, seed=0)


class TestJointMode:
    def test_eigenvalue_sequence(self):
        report = run_joint_mode(SpinPrep.balanced(), ["IZZ", "ZZI", "ZIZ", "XXX"], seed=1)
        assert report.summary["readouts"] == [-1, +1, -1, +1]
        assert report.summary["final_fidelity"] >= 1 - 1e-10

    def test_sequence_order_irrelevant_for_eigenstate(self):
        for order in (["XXX", "IZZ", "ZZI"], ["ZZI", "XXX", "IZZ"]):
            report = run_joint_mode(SpinPrep.balanced(), order, seed=2)
            want = {"XXX": +1, "IZZ": -1, "ZZI": +1}
            assert [r["readout"] for r in report.rows] == [want[o] for o in order]

    def test_repeats_reproduce(self):
        report = run_joint_mode(GENERIC, ["XXX", "XXX", "XXX", "IZZ", "IZZ"], seed=3)
        reads = report.summary["readouts"]
        assert reads[0] == reads[1] == reads[2]
        assert reads[3] == reads[4] == -1
        # <XXX> = 0 for this prep, so the first readout collapses the state
        # onto one XXX sector; overlap with the initial state is then 1/2.
        assert report.summary["final_fidelity"] == pytest.approx(0.5)

    def test_unbalanced_xxx_statistics(self):
        # <XXX> = 0.96 for (0.6, 0.8): readouts are +-1 samples of it.
        n = 2000
        vals = [run_joint_mode(SpinPrep(0.6, 0.8), ["XXX"], seed=100 + k)
                .summary["readouts"][0] for k in range(n)]
        se = np.sqrt((1 - 0.96**2) / n)
        assert abs(np.mean(vals) - 0.96) < 3 * se

    def test_xxx_readout_collapses_consistently(self):
        # After an XXX readout the state is an XXX eigenstate; a repeat of
        # the full sequence must reproduce every value.
        first = run_joint_mode(GENERIC, ["XXX", "IZZ", "XXX", "ZZI", "XXX"], seed=9)
        reads = first.summary["readouts"]
        assert reads[0] == reads[2] == reads[4]
        assert first.summary["final_fidelity"] <= 1.0 + 1e-12

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            run_joint_mode(GENERIC, [], seed=0)

    def test_unknown_observable(self):
        with pytest.raises(ValueError):
            run_joint_mode(GENERIC, ["ZZZ"], seed=0)

    def test_local_randomness_joint_definiteness(self):
        # The same balanced state gives 50/50 local X values per slot but a
        # perfectly definite joint XXX value.
        local = run_local_mode(SpinPrep.balanced(), "X", 10000, seed=7)
        assert abs(local.summary["mean_s"]) < 0.05
        joint = run_joint_mode(SpinPrep.balanced(), ["XXX"] * 5, seed=7)
        assert joint.summary["readouts"] == [+1] * 5
