import itertools
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
    ordinary_premeasurement,
    premeasurement_state,
    qubits,
    run_joint_mode,
    run_local_mode,
    run_ordinary_mode,
)
from sglab.experiment import ANCILLA_REGISTER, PATH_REGISTER, _sample_words
from sglab.reports import CHUNK_ROWS
from sglab.sampling import stream

from oracles import (
    density_matrix,
    expectation_t4,
    pauli_word_matrix,
    projective_probability,
    to_density_matrix,
)

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
        t2 = ordinary_premeasurement(GENERIC)
        assert t2.register == PATH_REGISTER
        assert t2.amplitudes[0b110] == pytest.approx(0.6)
        assert t2.amplitudes[0b001] == pytest.approx(0.8j)
        t4 = premeasurement_state(GENERIC)
        assert t4.register == ANCILLA_REGISTER
        assert t4.amplitudes[0b110] == pytest.approx(0.6)
        assert t4.amplitudes[0b001] == pytest.approx(0.8j)

    def test_path_overlap_is_zero(self):
        # The two t2 branches occupy orthogonal path words.
        t2 = ordinary_premeasurement(SpinPrep.balanced())
        support = np.flatnonzero(np.abs(t2.amplitudes) > 0)
        assert set(support) == {0b110, 0b001}

    def test_recombination_phase(self):
        chi = 0.7
        t4 = premeasurement_state(GENERIC, phase=chi)
        assert t4.amplitudes[0b001] == pytest.approx(0.8j * np.exp(1j * chi))

    @pytest.mark.parametrize("phase", [0.0, 0.7, -2.9])
    def test_stage_builders_are_bitwise_the_branch_sums(self, phase):
        prep = SpinPrep(0.6 * np.exp(0.3j), 0.8 * np.exp(-1.1j))
        t4 = premeasurement_state(prep, phase=phase)
        t2 = ordinary_premeasurement(prep)
        assert t4.register == ANCILLA_REGISTER and t2.register == PATH_REGISTER
        # The amplitudes, term by term as the stage builders form them.
        upper = basis_state(ANCILLA_REGISTER, "110").amplitudes
        lower = basis_state(ANCILLA_REGISTER, "001").amplitudes
        assert np.all(t4.amplitudes == prep.alpha * upper + prep.beta * np.exp(1j * phase) * lower)
        upper = basis_state(PATH_REGISTER, "110").amplitudes
        lower = basis_state(PATH_REGISTER, "001").amplitudes
        assert np.all(t2.amplitudes == prep.alpha * upper + prep.beta * lower)

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
        mix = to_density_matrix(branch_mixture(GENERIC))
        t4 = density_matrix(premeasurement_state(GENERIC))
        assert np.allclose(np.diagonal(mix.entries), np.diagonal(t4.entries))
        # but the off-diagonal coherence is gone
        assert abs(mix.entries[0b110, 0b001]) < 1e-15
        assert abs(t4.entries[0b110, 0b001]) == pytest.approx(0.48)


class TestOrdinaryPremeasurement:
    def test_joint_z_words(self):
        from sglab.observables import PauliString, apply_pauli
        state = ordinary_premeasurement(GENERIC)
        assert run_ordinary_mode(GENERIC).rows[0]["stage"] == "t2"
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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(prep=preps(), basis=st.sampled_from(["Z", "X"]), mixture=st.booleans(),
           shots=st.integers(200, 4000), seed=st.integers(0, 2**63 - 1))
    def test_born_frequencies(self, prep, basis, mixture, shots, seed):
        # The readout parities over every nonempty set of slots fix all
        # eight word frequencies (by their Walsh transform), and each has a
        # Born probability from one projective_probability call.
        e = np.eye(8)
        if mixture:
            members = [(abs(prep.alpha) ** 2, e[0b110]), (abs(prep.beta) ** 2, e[0b001])]
        else:
            members = [(1.0, prep.alpha * e[0b110] + prep.beta * e[0b001])]
        counts = run_local_mode(prep, basis, shots, seed, mixture=mixture).summary["word_counts"]
        for slots in itertools.product((False, True), repeat=3):
            if not any(slots):
                continue
            op = pauli_word_matrix("".join(basis if s else "I" for s in slots))
            p = sum(w * projective_probability(amps, op, +1) for w, amps in members)
            even = sum(n for word, n in counts.items()
                       if sum(s and b == "0" for s, b in zip(slots, word)) % 2 == 0)
            # A probability below 1/shots gets the spread of one count, so a
            # single stray count of a rare parity is not a 5 SE alarm.
            se = np.sqrt(max(p * (1 - p), 1 / shots) / shots)
            assert abs(even / shots - p) <= 5 * se, (slots, p, even, shots)

    def test_arg_validation(self):
        with pytest.raises(ValueError):
            run_local_mode(GENERIC, "Y", 10, seed=0)
        with pytest.raises(ValueError):
            run_local_mode(GENERIC, "Z", 0, seed=0)


def choice_words(prob_sets, weights, shots, rng):
    """The word sampler as one ``Generator.choice`` call per draw: the
    reference that the chunked sampler must match bit for bit."""
    if len(prob_sets) == 1:
        return rng.choice(len(prob_sets[0]), size=shots, p=prob_sets[0]).astype(np.uint8)
    members = rng.choice(len(prob_sets), size=shots, p=weights)
    words = np.empty(shots, dtype=np.uint8)
    for k, probs in enumerate(prob_sets):
        mask = members == k
        count = int(mask.sum())
        if count:
            words[mask] = rng.choice(len(probs), size=count, p=probs)
    return words


SAMPLER_SIZES = [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 7]
_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
_H3 = np.kron(np.kron(_H, _H), _H)
# Zero entries first, inside and last, a certain word, and the X-basis
# words of t4, half of which have probability 0.
WORD_PROBS = [
    np.array([0, 0.3, 0, 0, 0.7, 0, 0, 0]),
    np.array([0.25, 0.25, 0, 0, 0, 0, 0, 0.5]),
    np.eye(8)[6],
    np.eye(8)[0],
    np.abs(_H3 @ premeasurement_state(SpinPrep.balanced()).amplitudes) ** 2,
]


class TestWordSampler:
    @pytest.mark.parametrize("shots", SAMPLER_SIZES)
    @pytest.mark.parametrize("k", range(len(WORD_PROBS)))
    def test_one_state_is_bitwise_choice(self, shots, k):
        p = WORD_PROBS[k] / WORD_PROBS[k].sum()
        ours, theirs = stream(shots + k), stream(shots + k)
        assert np.array_equal(_sample_words([p], None, shots, ours),
                              choice_words([p], None, shots, theirs))
        assert ours.integers(2**63) == theirs.integers(2**63)  # the streams stand level

    @pytest.mark.parametrize("shots", SAMPLER_SIZES)
    @pytest.mark.parametrize("weights", [(0.3, 0.7), (0.0, 1.0), (1.0, 0.0)])
    def test_mixture_is_bitwise_choice(self, shots, weights):
        # A member of weight 0 has no shots and draws nothing.
        prob_sets = [WORD_PROBS[0], WORD_PROBS[1]]
        ours, theirs = stream(shots), stream(shots)
        words = _sample_words(prob_sets, np.array(weights), shots, ours)
        assert words.dtype == np.uint8
        assert np.array_equal(words, choice_words(prob_sets, np.array(weights), shots, theirs))
        assert ours.integers(2**63) == theirs.integers(2**63)  # the streams stand level

    @pytest.mark.parametrize("p", [
        [np.nan, 0.5, 0.5], [-0.1, 0.6, 0.5], [0.5, 0.4, 0.0], [0.5, 0.5, 1e-7],
    ], ids=["nan", "negative", "short", "long"])
    def test_refusals_are_choices(self, p):
        p = np.array(p)
        with pytest.raises(ValueError) as theirs:
            stream(0).choice(len(p), size=5, p=p)
        for prob_sets, weights in (([p], None), ([WORD_PROBS[0]] * 3, p)):
            with pytest.raises(ValueError) as ours:
                _sample_words(prob_sets, weights, 5, stream(0))
            assert str(theirs.value).startswith(str(ours.value))


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

    @settings(max_examples=40, deadline=None)
    @given(prep=preps(), data=st.data(), seed=st.integers(0, 2**63 - 1))
    def test_random_sequences_repeat_readouts(self, prep, data, seed):
        # The four words commute, so a word read again, with any words read
        # in between, gives its first readout back.
        words = data.draw(st.lists(st.sampled_from(["IZZ", "ZZI", "ZIZ", "XXX"]),
                                   min_size=1, max_size=8))
        repeated = data.draw(st.sampled_from(words))
        at = data.draw(st.integers(words.index(repeated) + 1, len(words)))
        words.insert(at, repeated)
        report = run_joint_mode(prep, words, seed)
        first = {}
        for word, readout in zip(words, report.summary["readouts"]):
            assert first.setdefault(word, readout) == readout, word
        assert report.summary["final_fidelity"] <= 1.0 + 1e-12

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
