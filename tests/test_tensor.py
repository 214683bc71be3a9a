import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sglab import (
    DIM_CAP,
    DensityMatrix,
    DimensionCapError,
    EnsembleState,
    PureState,
    Register,
    RegisterError,
    apply_operator,
    basis_state,
    expectation,
    factor_out,
    haar_unitary,
    partial_trace,
    qubits,
    tensor_product,
)
from sglab import tensor
from sglab.observables import PAULI
from sglab.sampling import stream

from oracles import (
    brute_partial_trace,
    moveaxis_apply,
    moveaxis_factor_out,
    random_state,
    scipy_haar,
)


def ghz_state():
    reg = qubits("s", "a_up", "a_dn")
    amps = np.zeros(8, dtype=complex)
    amps[0b110] = amps[0b001] = 1 / np.sqrt(2)
    return PureState(reg, amps)


class TestRegister:
    def test_big_endian_indexing(self):
        reg = qubits("a", "b")
        state = basis_state(reg, "10")
        assert np.allclose(state.amplitudes, [0, 0, 1, 0])

    def test_mixed_dimensions(self):
        reg = Register((("q", 2), ("env", 3)))
        assert reg.dim == 6
        assert reg.dim_of("env") == 3
        assert basis_state(reg, (1, 2)).amplitudes[5] == 1.0

    def test_duplicate_labels_rejected(self):
        with pytest.raises(RegisterError):
            qubits("a", "a")

    def test_unknown_label(self):
        with pytest.raises(RegisterError):
            qubits("a").axis("b")

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            Register((("big", DIM_CAP + 1),))

    def test_word_validation(self):
        reg = qubits("a", "b")
        with pytest.raises(RegisterError):
            basis_state(reg, "1")
        with pytest.raises(RegisterError):
            basis_state(reg, "12")


class TestPureState:
    def test_norm_enforced(self):
        reg = qubits("a")
        with pytest.raises(ValueError):
            PureState(reg, [1.0, 1.0])

    def test_amplitudes_read_only(self):
        state = basis_state(qubits("a"), "0")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_overlap_and_fidelity(self):
        reg = qubits("a")
        plus = PureState(reg, np.array([1, 1]) / np.sqrt(2))
        one = basis_state(reg, "1")
        assert abs(plus.overlap(one) - 1 / np.sqrt(2)) < 1e-12
        assert abs(plus.fidelity(one) - 0.5) < 1e-12

    def test_ensemble_weights_validated(self):
        s = basis_state(qubits("a"), "0")
        with pytest.raises(ValueError):
            EnsembleState(((0.4, s), (0.4, s)))
        with pytest.raises(ValueError):
            EnsembleState(((-0.5, s), (1.5, s)))


class TestTensorProduct:
    def test_two_qubit_product(self):
        one = basis_state(qubits("a"), "1")
        zero = basis_state(qubits("b"), "0")
        prod = tensor_product(one, zero)
        assert prod.register.labels == ("a", "b")
        assert np.allclose(prod.amplitudes, [0, 0, 1, 0])

    def test_bilinearity(self):
        rng = stream(11)
        a = PureState(qubits("a"), random_state(2, rng))
        b = PureState(qubits("b"), random_state(2, rng))
        prod = tensor_product(a, b)
        assert np.allclose(prod.amplitudes, np.kron(a.amplitudes, b.amplitudes))

    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_the_kronecker_product(self, d_a, d_b, seed):
        rng = stream(seed)
        a = PureState(Register((("a", d_a),)), random_state(d_a, rng))
        b = PureState(Register((("b", d_b),)), random_state(d_b, rng))
        prod = tensor_product(a, b).amplitudes
        assert prod.tobytes() == np.kron(a.amplitudes, b.amplitudes).tobytes()

    def test_label_collision(self):
        with pytest.raises(RegisterError):
            tensor_product(basis_state(qubits("a"), "0"), basis_state(qubits("a"), "0"))

    def test_branch_superposition(self):
        # alpha |1>|10> + beta |0>|01> assembled two ways must agree.
        alpha, beta = 0.6, 0.8j
        spin1 = basis_state(qubits("s"), "1")
        spin0 = basis_state(qubits("s"), "0")
        anc10 = basis_state(qubits("a_up", "a_dn"), "10")
        anc01 = basis_state(qubits("a_up", "a_dn"), "01")
        built = alpha * tensor_product(spin1, anc10).amplitudes \
            + beta * tensor_product(spin0, anc01).amplitudes
        direct = np.zeros(8, dtype=complex)
        direct[0b110] = alpha
        direct[0b001] = beta
        assert np.allclose(built, direct)


class TestApplyOperator:
    def test_pauli_x_flips(self):
        reg = qubits("a", "b")
        state = basis_state(reg, "00")
        flipped = apply_operator(state, PAULI["X"], ["a"])
        assert flipped.fidelity(basis_state(reg, "10")) == pytest.approx(1.0)

    def test_two_qubit_operator(self):
        reg = qubits("a", "b", "c")
        swap = np.eye(4)[[0, 2, 1, 3]]
        state = basis_state(reg, "100")
        out = apply_operator(state, swap, ["a", "b"])
        assert out.fidelity(basis_state(reg, "010")) == pytest.approx(1.0)

    def test_projector_leaves_unnormalized(self):
        plus = PureState(qubits("a"), np.array([1, 1]) / np.sqrt(2))
        p1 = np.diag([0.0, 1.0])
        projected = apply_operator(plus, p1, ["a"])
        assert not projected.normalized
        assert projected.norm() == pytest.approx(1 / np.sqrt(2))
        renorm = apply_operator(plus, p1, ["a"], renormalize=True)
        assert renorm.norm() == pytest.approx(1.0)

    def test_shape_mismatch(self):
        state = basis_state(qubits("a", "b"), "00")
        with pytest.raises(RegisterError):
            apply_operator(state, np.eye(4), ["a"])

    def test_repeated_target(self):
        state = basis_state(qubits("a", "b"), "00")
        with pytest.raises(RegisterError):
            apply_operator(state, np.eye(4), ["a", "a"])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_unitary_preserves_norm(self, seed):
        rng = stream(seed)
        reg = qubits("a", "b", "c")
        state = PureState(reg, random_state(8, rng))
        u = haar_unitary(4, rng)
        out = apply_operator(state, u, ["a", "c"])
        assert abs(out.norm() - 1.0) < 1e-12


def _mixed_register(dims) -> Register:
    return Register(tuple((f"q{i}", d) for i, d in enumerate(dims)))


DIMS = st.lists(st.integers(1, 3), min_size=1, max_size=5)


@st.composite
def dims_and_axes(draw):
    """1-5 slots of dims 1-3 and a target subset in random order."""
    dims = draw(DIMS)
    order = draw(st.permutations(range(len(dims))))
    return dims, order[:draw(st.integers(0, len(dims)))]


class TestContractionPlan:
    """apply_operator's plan and factor_out's slot-first matrix against the
    np.moveaxis reference, bit for bit."""

    @given(dims_and_axes(), st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    @example(case=([2, 2, 2, 2, 2], [4, 1]), seed=1)        # non-adjacent, reversed
    @example(case=([2, 3, 1, 2, 3], [4, 3, 2, 1, 0]), seed=2)  # every axis, reversed
    @example(case=([2, 2, 2], [0, 1, 2]), seed=3)           # already in place
    @example(case=([2, 3], []), seed=4)                     # no target: a 1x1 operator
    def test_apply_operator_is_bitwise_the_moveaxis_kernel(self, case, seed):
        dims, axes = case
        reg = _mixed_register(dims)
        rng = stream(seed)
        state = PureState(reg, random_state(reg.dim, rng))
        d_t = int(np.prod([dims[a] for a in axes], dtype=int))
        op = rng.standard_normal((d_t, d_t)) + 1j * rng.standard_normal((d_t, d_t))
        out = apply_operator(state, op, [reg.labels[a] for a in axes])
        ref = moveaxis_apply(state.amplitudes, dims, op, axes)
        assert np.array_equal(out.amplitudes, ref)
        assert out.amplitudes.tobytes() == ref.tobytes()

    @given(DIMS.flatmap(lambda dims: st.tuples(st.just(dims), st.integers(0, len(dims) - 1))),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    # np.moveaxis gives a strided view here; a C-contiguous copy changes the
    # bits of the remainder.
    @example(case=([1, 2, 2, 2], 3), seed=0)
    def test_factor_out_is_bitwise_the_moveaxis_kernel(self, case, seed):
        dims, axis = case
        reg = _mixed_register(dims)
        rng = stream(seed)
        rest_dims = [d for i, d in enumerate(dims) if i != axis]
        slot = random_state(dims[axis], rng)
        rest = random_state(int(np.prod(rest_dims, dtype=int)), rng)
        product = np.moveaxis(np.multiply.outer(slot, rest.reshape(rest_dims)), 0, axis)
        state = PureState(reg, product.reshape(-1), normalized=False).normalize()
        got_slot, got_rest = factor_out(state, reg.labels[axis])
        ref_slot, ref_rest = moveaxis_factor_out(state.amplitudes, dims, axis)
        assert got_slot.amplitudes.tobytes() == ref_slot.tobytes()
        assert got_rest.amplitudes.tobytes() == ref_rest.tobytes()

    def test_plan_indices_are_shared_read_only(self):
        plan = tensor._plan((2, 3, 2), (2, 0))
        assert plan is tensor._plan((2, 3, 2), (2, 0))
        with pytest.raises(ValueError):
            plan.gather[0] = 1
        with pytest.raises(ValueError):
            plan.scatter[0] = 1

    def test_cache_is_bounded(self):
        assert tensor._plan.cache_info().maxsize == tensor.PLAN_CACHE_SIZE
        assert tensor._plan.cache_info().maxsize is not None


class TestGatesThroughThePlan:
    def test_nan_operator_gives_an_unnormalized_state(self):
        state = basis_state(qubits("a", "b"), "00")
        out = apply_operator(state, np.full((2, 2), np.nan), ["b"])
        assert not out.normalized
        assert np.isnan(out.norm())

    def test_nan_operator_refused_on_renormalize(self):
        state = basis_state(qubits("a", "b"), "00")
        with pytest.raises(ValueError, match="norm"), np.errstate(invalid="ignore"):
            apply_operator(state, np.full((2, 2), np.nan), ["b"], renormalize=True)

    @pytest.mark.parametrize("op, targets", [
        (np.eye(4), ["q0"]),         # wrong shape
        (np.eye(3), ["q1", "q1"]),   # repeated target
        (np.eye(9), ["q1", "q1"]),   # repeated target whose square would fit
    ])
    def test_refused_before_a_plan_is_cached(self, op, targets):
        state = PureState(_mixed_register((2, 3, 2)), np.eye(12)[0])
        before = tensor._plan.cache_info()
        with pytest.raises(RegisterError):
            apply_operator(state, op, targets)
        assert tensor._plan.cache_info() == before

    def test_norm_is_computed_once_per_state(self, monkeypatch):
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda x: calls.append(1) or norm(x))
        state = basis_state(qubits("a", "b"), "00")
        calls.clear()
        apply_operator(state, PAULI["X"], ["b"])
        assert len(calls) == 1

    def test_unit_norm_marked_normalized_even_when_not_required(self):
        state = PureState(qubits("a"), [0.0, 1.0], normalized=False)
        assert state.normalized
        assert state.norm() == 1.0


class TestExpectation:
    def test_ghz_pauli_values(self):
        ghz = ghz_state()
        z, x, i2 = PAULI["Z"], PAULI["X"], PAULI["I"]
        assert expectation(ghz, np.kron(z, z), ["s", "a_up"]).real == pytest.approx(1.0)
        assert expectation(ghz, np.kron(z, z), ["s", "a_dn"]).real == pytest.approx(-1.0)
        assert expectation(ghz, np.kron(z, z), ["a_up", "a_dn"]).real == pytest.approx(-1.0)
        xxx = np.kron(np.kron(x, x), x)
        assert expectation(ghz, xxx, ["s", "a_up", "a_dn"]).real == pytest.approx(1.0)
        del i2

    def test_density_matrix_matches_pure(self):
        ghz = ghz_state()
        rho = ghz.density_matrix()
        op = np.kron(PAULI["Z"], PAULI["Z"])
        pure_val = expectation(ghz, op, ["s", "a_up"])
        rho_val = expectation(rho, op, ["s", "a_up"])
        assert abs(pure_val - rho_val) < 1e-12

    def test_ensemble_is_weighted_sum(self):
        reg = qubits("a")
        mix = EnsembleState(((0.25, basis_state(reg, "1")), (0.75, basis_state(reg, "0"))))
        val = expectation(mix, PAULI["Z"], ["a"]).real
        assert val == pytest.approx(0.25 - 0.75)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = stream(5)
        a = PureState(qubits("a"), random_state(2, rng))
        b = PureState(qubits("b"), random_state(2, rng))
        rho = tensor_product(a, b).density_matrix()
        reduced = partial_trace(rho, ["a"])
        assert np.allclose(reduced.entries, np.outer(a.amplitudes, a.amplitudes.conj()))

    def test_ghz_ancilla_marginal(self):
        rho = ghz_state().density_matrix()
        reduced = partial_trace(rho, ["a_up", "a_dn"])
        expected = np.zeros((4, 4), dtype=complex)
        expected[0b10, 0b10] = expected[0b01, 0b01] = 0.5
        assert np.allclose(reduced.entries, expected)

    def test_bell_marginal_is_maximally_mixed(self):
        reg = qubits("a", "b")
        bell = PureState(reg, np.array([0, 1, 1, 0]) / np.sqrt(2))
        reduced = partial_trace(bell.density_matrix(), ["a"])
        assert np.allclose(reduced.entries, np.eye(2) / 2)

    def test_keep_order_controls_output(self):
        rng = stream(17)
        reg = qubits("a", "b")
        rho = PureState(reg, random_state(4, rng)).density_matrix()
        ab = partial_trace(rho, ["a", "b"]).entries
        ba = partial_trace(rho, ["b", "a"]).entries
        swap = np.eye(4)[[0, 2, 1, 3]]
        assert np.allclose(ba, swap @ ab @ swap)

    def test_against_brute_force_oracle(self):
        rng = stream(23)
        reg = Register((("q", 2), ("r", 3), ("s", 2), ("t", 4)))
        rho = PureState(reg, random_state(reg.dim, rng)).density_matrix()
        for keep in (["q"], ["r", "t"], ["q", "s", "t"]):
            got = partial_trace(rho, keep).entries
            axes = [reg.axis(l) for l in keep]
            want = brute_partial_trace(rho.entries, reg.dims, axes)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_empty_keep_rejected(self):
        rho = ghz_state().density_matrix()
        with pytest.raises(RegisterError):
            partial_trace(rho, [])


class TestFactorOut:
    def test_product_state_splits(self):
        rng = stream(31)
        a = PureState(qubits("a"), random_state(2, rng))
        b = PureState(qubits("b"), random_state(2, rng))
        slot, rest = factor_out(tensor_product(a, b), "a")
        assert slot.fidelity(a) == pytest.approx(1.0)
        assert rest.fidelity(b) == pytest.approx(1.0)

    def test_entangled_slot_rejected(self):
        with pytest.raises(ValueError):
            factor_out(ghz_state(), "s")

    def test_roundtrip(self):
        rng = stream(37)
        rest = PureState(qubits("b", "c"), random_state(4, rng))
        full = tensor_product(PureState(qubits("a"), random_state(2, rng)), rest)
        _, recovered = factor_out(full, "a")
        assert recovered.fidelity(rest) == pytest.approx(1.0)


class TestDensityMatrix:
    def test_validation(self):
        reg = qubits("a")
        with pytest.raises(ValueError):
            DensityMatrix(reg, np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(reg, np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(reg, np.diag([1.5, -0.5]))  # negative eigenvalue


class TestDensityMatrixBlockCheck:
    """The checks run on the block of nonzero rows and columns only."""

    REG = qubits("a", "b", "c", "d")
    SUPPORT = [1, 4, 6, 11, 15]

    def scattered(self, block):
        mat = np.zeros((16, 16), dtype=complex)
        mat[np.ix_(self.SUPPORT, self.SUPPORT)] = block
        return mat

    def psd_block(self):
        rng = stream(3)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        block = g @ g.conj().T
        return block / np.trace(block).real

    def test_scattered_psd_block_accepted(self):
        mat = self.scattered(self.psd_block())
        rho = DensityMatrix(self.REG, mat)
        assert rho.entries.tobytes() == mat.tobytes()

    def test_negative_eigenvalue_inside_block_refused(self):
        u = haar_unitary(5, 4)
        block = u @ np.diag([0.6, 0.3, 0.2, 0.1, -0.2]) @ u.conj().T
        block = (block + block.conj().T) / 2
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(self.REG, self.scattered(block))

    @pytest.mark.parametrize("row,col", [(4, 9), (9, 4), (2, 9)])
    def test_lone_off_support_entry_fails_hermiticity(self, row, col):
        mat = self.scattered(self.psd_block())
        mat[row, col] = 1e-9
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(self.REG, mat)

    @pytest.mark.parametrize("row,col", [(3, 3), (4, 9), (0, 13)])
    def test_nan_outside_support_refused(self, row, col):
        mat = self.scattered(self.psd_block())
        mat[row, col] = np.nan
        with pytest.raises(ValueError):
            DensityMatrix(self.REG, mat)

    def test_all_zero_matrix_fails_on_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(self.REG, np.zeros((16, 16)))


class TestHaarUnitary:
    def test_unitarity(self):
        for d in (1, 2, 5, 16):
            u = haar_unitary(d, 42)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12

    def test_d1_is_pure_phase(self):
        u = haar_unitary(1, 7)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_trace_second_moment(self):
        # E |Tr U|^2 = 1 for Haar measure at any d.
        rng = stream(101)
        vals = [abs(np.trace(haar_unitary(8, rng))) ** 2 for _ in range(1000)]
        assert abs(np.mean(vals) - 1.0) < 0.15

    def test_moment_agrees_with_scipy_sampler(self):
        ours = np.mean([abs(np.trace(haar_unitary(6, s))) ** 2 for s in range(500)])
        theirs = np.mean([abs(np.trace(scipy_haar(6, s))) ** 2 for s in range(500)])
        assert abs(ours - 1.0) < 0.2
        assert abs(theirs - 1.0) < 0.2

    def test_seed_determinism(self):
        assert np.array_equal(haar_unitary(4, 9), haar_unitary(4, 9))
