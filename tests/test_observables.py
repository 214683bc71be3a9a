from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sglab import (
    PureState,
    apply_operator,
    basis_state,
    factor_out,
    qubits,
    tensor_product,
)
from sglab.observables import (
    CNOT,
    HADAMARD,
    PAULI,
    PauliString,
    apply_pauli,
    joint_circuit_izz,
    joint_circuit_xxx,
    measure_projective,
    pauli_expectation,
)
from sglab.sampling import stream
from sglab.tensor import RegisterError

from oracles import (
    dense_expectation,
    pauli_matrix,
    pauli_word_matrix,
    projective_probability,
    random_state,
)

REG3 = qubits("s", "a_up", "a_dn")


def ghz():
    amps = np.zeros(8, dtype=complex)
    amps[0b110] = amps[0b001] = 1 / np.sqrt(2)
    return PureState(REG3, amps)


class TestConventions:
    def test_z_eigenvalues(self):
        # |1> is the +1 eigenstate, |0> the -1 eigenstate.
        assert PAULI["Z"] @ [0, 1] == pytest.approx([0, 1])
        assert PAULI["Z"] @ [1, 0] == pytest.approx([-1, 0])

    def test_hadamard_maps_like_eigenvalues(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        assert np.allclose(HADAMARD @ [0, 1], plus)
        assert np.allclose(HADAMARD @ [1, 0], -minus)
        assert np.allclose(np.abs(HADAMARD @ [1, 0]), np.abs(minus))
        assert np.allclose(HADAMARD @ HADAMARD, np.eye(2))

    def test_pauli_algebra(self):
        x, y, z = PAULI["X"], PAULI["Y"], PAULI["Z"]
        for p in (x, y, z):
            assert np.allclose(p @ p, np.eye(2))
            assert np.allclose(p, p.conj().T)
        assert np.allclose(x @ y - y @ x, 2j * z) or np.allclose(x @ y - y @ x, -2j * z)

    def test_cnot_truth_table(self):
        reg = qubits("c", "t")
        for c_in, t_in, t_out in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)):
            state = basis_state(reg, (c_in, t_in))
            out = PureState(reg, CNOT @ state.amplitudes)
            assert out.fidelity(basis_state(reg, (c_in, t_out))) == pytest.approx(1.0)


class TestPauliString:
    def test_from_word_and_support(self):
        obs = PauliString.from_word("ZIX", REG3)
        assert obs.letters == {"s": "Z", "a_up": "I", "a_dn": "X"}
        assert obs.support() == ["s", "a_dn"]
        assert not obs.is_identity()
        assert PauliString.from_word("III", REG3).is_identity()

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            PauliString({"s": "Q"})

    def test_word_length_mismatch(self):
        with pytest.raises(RegisterError):
            PauliString.from_word("ZZ", REG3)

    def test_non_qubit_slot_rejected(self):
        from sglab.tensor import Register
        reg = Register((("q", 2), ("env", 3)))
        obs = PauliString({"env": "Z"})
        with pytest.raises(RegisterError):
            obs.validate_against(reg)

    def test_matrix_against_kron_oracle(self):
        for word in ("ZZI", "ZIZ", "IZZ", "XXX", "XYZ", "III"):
            got = pauli_matrix(PauliString.from_word(word, REG3), REG3)
            assert np.allclose(got, pauli_word_matrix(word))

    def test_zzi_diagonal(self):
        diag = np.real(np.diagonal(pauli_matrix(PauliString.from_word("ZZI", REG3), REG3)))
        assert np.allclose(diag, [1, 1, -1, -1, -1, -1, 1, 1])

    def test_word_operator_squares_to_identity(self):
        m = pauli_matrix(PauliString.from_word("XXX", REG3), REG3)
        assert np.allclose(m @ m, np.eye(8))

    def test_apply_pauli_matches_dense(self):
        rng = stream(3)
        state = PureState(REG3, random_state(8, rng))
        for word in ("ZZI", "XYZ", "IYI"):
            obs = PauliString.from_word(word, REG3)
            slotwise = apply_pauli(state, obs).amplitudes
            dense = pauli_matrix(obs, REG3) @ state.amplitudes
            assert np.allclose(slotwise, dense)

    @settings(max_examples=100, deadline=None)
    @given(parts=st.lists(st.floats(-1, 1), min_size=16, max_size=16)
           .filter(lambda v: np.linalg.norm(v) > 1e-3),
           word=st.sampled_from([w for w in map("".join, product("IXYZ", repeat=3)) if w != "III"]))
    def test_pauli_expectation_matches_dense_oracle(self, parts, word):
        amps = np.array(parts[:8]) + 1j * np.array(parts[8:])
        state = PureState(REG3, amps / np.linalg.norm(amps))
        obs = PauliString.from_word(word, REG3)
        dense = dense_expectation(state.amplitudes, pauli_matrix(obs, REG3)).real
        assert abs(pauli_expectation(state, obs) - dense) <= 1e-12


class TestProjectiveMeasurement:
    def test_eigenstate_is_deterministic(self):
        rng = stream(1)
        state = ghz()
        for word, value in (("ZZI", +1), ("ZIZ", -1), ("IZZ", -1), ("XXX", +1)):
            out = measure_projective(state, PauliString.from_word(word, REG3), rng)
            assert out.eigenvalue == value
            assert out.probability == pytest.approx(1.0)
            assert out.post_state.fidelity(state) == pytest.approx(1.0)

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            measure_projective(ghz(), PauliString.from_word("III", REG3), stream(0))

    @pytest.mark.parametrize("letters, error, match", [
        ({"q": "Z"}, RegisterError, "unknown slot label 'q'"),
        ({"q": "I"}, ValueError, "identically I"),  # checked before the labels
    ])
    def test_bad_labels_refused_before_sampling(self, letters, error, match):
        with pytest.raises(error, match=match):
            measure_projective(ghz(), PauliString(letters), stream(0))

    def test_collapse_to_projected_state(self):
        rng = stream(2)
        out = measure_projective(ghz(), PauliString.from_word("ZII", REG3), rng)
        # Either branch: post state is the corresponding basis word.
        word = "110" if out.eigenvalue == +1 else "001"
        assert out.post_state.fidelity(basis_state(REG3, word)) == pytest.approx(1.0)
        assert out.probability == pytest.approx(0.5)

    def test_born_statistics(self):
        # Z on the spin of alpha=0.6, beta=0.8: p(+1) = 0.36.
        amps = np.zeros(8, dtype=complex)
        amps[0b110], amps[0b001] = 0.6, 0.8
        state = PureState(REG3, amps)
        obs = PauliString.from_word("ZII", REG3)
        rng = stream(8)
        n = 100000
        hits = sum(measure_projective(state, obs, rng).eigenvalue == +1 for _ in range(n))
        sigma = np.sqrt(0.36 * 0.64 / n)
        assert abs(hits / n - 0.36) < 3 * sigma

    def test_probability_matches_oracle(self):
        rng = stream(77)
        for _ in range(50):
            state = PureState(REG3, random_state(8, rng))
            word = "".join(rng.choice(list("IXYZ"), size=3))
            if word == "III":
                continue
            obs = PauliString.from_word(word, REG3)
            out = measure_projective(state, obs, stream(5))
            want = projective_probability(state.amplitudes, pauli_word_matrix(word),
                                          out.eigenvalue)
            assert out.probability == pytest.approx(want, abs=1e-12)


class TestJointSpectral:
    def test_nondestructive_on_eigenstate(self):
        state = ghz()
        rng = stream(4)
        out = measure_projective(state, PauliString.from_word("IZZ", REG3), rng)
        assert out.eigenvalue == -1
        assert out.post_state.fidelity(state) == pytest.approx(1.0)


def with_coupler(state, extra="b"):
    labels = extra.split(",")
    fresh = basis_state(qubits(*labels), "0" * len(labels))
    return tensor_product(state, fresh)


class TestParityCircuits:
    def test_izz_on_collapse_words(self):
        rng = stream(1)
        for word, value in (("110", -1), ("001", -1), ("111", +1), ("100", +1)):
            readout, post = joint_circuit_izz(with_coupler(basis_state(REG3, word)), rng)
            assert readout == value
            _, rest = factor_out(post, "b")
            assert rest.fidelity(basis_state(REG3, word)) == pytest.approx(1.0)

    def test_izz_on_ghz(self):
        rng = stream(2)
        readout, post = joint_circuit_izz(with_coupler(ghz()), rng)
        assert readout == -1
        _, rest = factor_out(post, "b")
        assert rest.fidelity(ghz()) == pytest.approx(1.0)

    def test_izz_random_outcome_case(self):
        # (|11> + |10>)/sqrt(2) x |0>: equal-Z and opposite-Z branches mix.
        reg = qubits("a_up", "a_dn")
        state = PureState(reg, np.array([0, 0, 1, 1]) / np.sqrt(2))
        rng = stream(9)
        vals = [joint_circuit_izz(with_coupler(state), rng)[0] for _ in range(4000)]
        assert abs(np.mean(vals)) < 3 / np.sqrt(4000)

    def test_xxx_on_plus_states(self):
        reg = qubits("a_up", "a_dn", "c")
        plus3 = PureState(reg, np.full(8, 1 / np.sqrt(8), dtype=complex))
        rng = stream(3)
        readout, _ = joint_circuit_xxx(with_coupler(plus3), rng)
        assert readout == +1

    def test_xxx_on_minus_sector(self):
        reg = qubits("a_up", "a_dn", "c")
        h3 = np.kron(np.kron(HADAMARD, HADAMARD), HADAMARD)
        z_word = basis_state(reg, "110").amplitudes  # X-values (+1, +1, -1)
        state = PureState(reg, h3 @ z_word)
        rng = stream(4)
        readout, _ = joint_circuit_xxx(with_coupler(state), rng)
        assert readout == -1

    def test_ancilla_must_start_ready(self):
        dirty = tensor_product(ghz(), basis_state(qubits("b"), "1"))
        with pytest.raises(ValueError):
            joint_circuit_izz(dirty, stream(0))

    def test_circuit_probabilities_match_spectral(self):
        # The coupling-ancilla circuit realizes exactly the Born rule of the
        # joint word, for arbitrary (not just eigen-) inputs.
        rng = stream(55)
        reg = qubits("a_up", "a_dn")
        op = pauli_word_matrix("ZZ")
        for _ in range(200):
            state = PureState(reg, random_state(4, rng))
            p_minus_want = projective_probability(state.amplitudes, op, -1)
            # p(readout -1) = p(ancilla ends |1>) = || CNOTs |psi,0> restricted ||^2
            work = with_coupler(state)
            for c in ("a_up", "a_dn"):
                work = apply_operator(work, CNOT, [c, "b"])
            probs = work.probabilities().reshape(4, 2)
            p_minus_got = float(probs[:, 1].sum())
            assert p_minus_got == pytest.approx(p_minus_want, abs=1e-12)

    def test_circuit_sampling_matches_spectral_sampling(self):
        rng = stream(91)
        state = PureState(REG3, random_state(8, rng))
        obs = PauliString.from_word("IZZ", REG3)
        n = 3000
        circuit_vals = [joint_circuit_izz(with_coupler(state), rng)[0] for _ in range(n)]
        spectral_vals = [measure_projective(state, obs, rng).eigenvalue
                         for _ in range(n)]
        se = np.sqrt(2.0 / n)  # conservative for +-1 variables
        assert abs(np.mean(circuit_vals) - np.mean(spectral_vals)) < 3 * se
