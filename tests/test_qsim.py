"""Register layouts, dense states, measurement, and distance checks."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab.qsim import (
    DensityOnRegister,
    RegisterLayout,
    StateVector,
    apply_unitary,
    measure_register,
    partial_trace,
    swap_test,
    swap_test_circuit,
    trace_distance,
)

AB = RegisterLayout((("a", 2), ("b", 3)))


def random_density(rng: np.random.Generator, dim: int) -> DensityOnRegister:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return DensityOnRegister("r", rho / np.trace(rho).real)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestRegisterLayout:
    def test_little_endian_strides(self):
        assert AB.strides == (1, 2)
        assert AB.encode({"a": 1}) == 1
        assert AB.encode({"b": 2}) == 4
        assert AB.encode({"a": 1, "b": 2}) == 5

    def test_decode_digit_agree(self):
        for flat in range(AB.total_dim):
            a, b = AB.decode(flat)
            assert AB.digit(flat, "a") == a
            assert AB.digit(flat, "b") == b

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    def test_encode_decode_roundtrip(self, dims):
        layout = RegisterLayout(tuple((f"r{i}", d) for i, d in enumerate(dims)))
        for flat in range(layout.total_dim):
            assert layout.encode(layout.decode(flat)) == flat

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout((("a", 2), ("a", 3)))

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout((("a", 0),))

    def test_unknown_register(self):
        with pytest.raises(KeyError):
            AB.dim_of("c")

    def test_dim_one_register_is_allowed(self):
        layout = RegisterLayout((("a", 1), ("b", 2)))
        assert layout.total_dim == 2
        assert layout.encode({"b": 1}) == 1


class TestStateVector:
    def test_basis_state(self):
        s = StateVector.basis(AB, {"a": 1, "b": 2})
        assert s.amplitudes[5] == 1.0
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0)

    def test_from_product_matches_basis(self):
        s = StateVector.from_product(AB, {"a": (0, 1), "b": (0, 0, 1)})
        t = StateVector.basis(AB, {"a": 1, "b": 2})
        assert np.allclose(s.amplitudes, t.amplitudes)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            StateVector(AB, np.ones(6))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            StateVector(AB, np.zeros(5))

    def test_nan_amplitudes_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(AB, np.full(6, np.nan))


class TestApplyUnitary:
    def test_single_register_matches_kron(self):
        rng = np.random.default_rng(7)
        u = random_unitary(rng, 2)
        amps = rng.normal(size=6) + 1j * rng.normal(size=6)
        amps /= np.linalg.norm(amps)
        s = StateVector(AB, amps)
        out = apply_unitary(s, ("a",), u)
        # register a is fastest-varying, so the dense form is I_b (x) u_a
        full = np.kron(np.eye(3), u)
        assert np.allclose(out.amplitudes, full @ amps)

    def test_two_registers_full_dim(self):
        rng = np.random.default_rng(8)
        u = random_unitary(rng, 6)
        s = StateVector.basis(AB, 0)
        out = apply_unitary(s, ("a", "b"), u)
        assert np.allclose(out.amplitudes, u[:, 0])

    def test_non_unitary_rejected(self):
        s = StateVector.basis(AB, 0)
        with pytest.raises(ValueError):
            apply_unitary(s, ("a",), np.array([[1, 0], [1, 1]]))

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=6) + 1j * rng.normal(size=6)
        amps /= np.linalg.norm(amps)
        out = apply_unitary(StateVector(AB, amps), ("b",), random_unitary(rng, 3))
        assert np.linalg.norm(out.amplitudes) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestMeasureRegister:
    def test_exhaustive_branches_complete(self):
        amps = np.array([1, 1, 1, 1, 0, 0], dtype=complex) / 2.0
        s = StateVector(AB, amps)
        branches = measure_register(s, "b")
        assert [o for o, _, _ in branches] == [0, 1]
        assert sum(p for _, _, p in branches) == pytest.approx(1.0)
        for o, post, _ in branches:
            assert np.linalg.norm(post.amplitudes) == pytest.approx(1.0)
            # tensor axes run slowest-first, so register b is the first axis
            assert np.allclose(np.delete(post.tensor(), o, axis=0), 0)

    def test_zero_probability_branch_excluded(self):
        s = StateVector.basis(AB, {"b": 1})
        branches = measure_register(s, "b")
        assert [o for o, _, _ in branches] == [1]


class TestPartialTrace:
    def test_product_state_is_pure_factor(self):
        s = StateVector.from_product(AB, {"a": (0.6, 0.8), "b": (1, 0, 0)})
        rho = partial_trace(s, "a")
        want = np.outer([0.6, 0.8], [0.6, 0.8])
        assert np.allclose(rho.matrix, want)

    def test_bell_pair_is_maximally_mixed(self):
        layout = RegisterLayout((("a", 2), ("b", 2)))
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / np.sqrt(2)
        rho = partial_trace(StateVector(layout, amps), "a")
        assert np.allclose(rho.matrix, np.eye(2) / 2)


class TestDistances:
    def test_trace_distance_extremes(self):
        zero = DensityOnRegister.pure("r", (1, 0))
        one = DensityOnRegister.pure("r", (0, 1))
        plus = DensityOnRegister.pure("r", (1 / np.sqrt(2), 1 / np.sqrt(2)))
        assert trace_distance(zero, zero) == pytest.approx(0.0, abs=1e-12)
        assert trace_distance(zero, one) == pytest.approx(1.0)
        assert trace_distance(zero, plus) == pytest.approx(1 / np.sqrt(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(
                DensityOnRegister.pure("r", (1, 0)),
                DensityOnRegister.pure("r", (1, 0, 0)),
            )

    def test_swap_test_formula_extremes(self):
        zero = DensityOnRegister.pure("r", (1, 0))
        one = DensityOnRegister.pure("r", (0, 1))
        assert swap_test(zero, zero) == pytest.approx(1.0)
        assert swap_test(zero, one) == pytest.approx(0.5)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=2, max_value=4))
    def test_circuit_matches_formula(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho, sigma = random_density(rng, dim), random_density(rng, dim)
        assert swap_test_circuit(rho, sigma) == pytest.approx(
            swap_test(rho, sigma), abs=1e-10
        )

    def test_continuation_state_dephasing(self):
        # accepting continuation state at flag density 1/4 over two calls:
        # amplitudes (1, 1/4) normalized, so the density is
        # [[16/17, 4/17], [4/17, 1/17]]
        eps, k = Fraction(1, 4), 2
        amp = np.array([1.0, float(eps) ** (k // 2)])
        amp /= np.linalg.norm(amp)
        phi = DensityOnRegister.pure("Cont", amp)
        assert phi.matrix[0, 0].real == pytest.approx(16 / 17, abs=1e-12)
        dephased = DensityOnRegister("Cont", np.diag(np.diag(phi.matrix)))
        # distance equals the erased off-diagonal magnitude
        assert trace_distance(phi, dephased) == pytest.approx(4 / 17, abs=1e-12)
        # swap-test rejection rate (1 - Tr(rho sigma)) / 2 against the
        # dephased copy: Tr = (16/17)^2 + (1/17)^2 = 257/289
        accept = swap_test(phi, dephased)
        assert accept == pytest.approx((1 + 257 / 289) / 2, abs=1e-12)
        assert 1 - accept == pytest.approx(16 / 289, abs=1e-12)


class TestDensityValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            DensityOnRegister("r", np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            DensityOnRegister("r", np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            DensityOnRegister("r", np.diag([1.5, -0.5]))
