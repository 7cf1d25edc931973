"""Rank-1 densities: the certified factor and the trace distance that
uses it, checked against the dense eigenvalue route it replaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab.qsim import DensityOnRegister, _rank1_factor, trace_distance


def dense_trace_distance(a: DensityOnRegister, b: DensityOnRegister) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())


def hermitian_first_verdict(m) -> str | None:
    """The checks in their first order, the Hermitian pass first and a
    dense eigensolve for every matrix: the error message, or None when
    accepted."""
    m = np.array(m, dtype=complex)
    if not np.isfinite(m).all():
        return "density matrix has a non-finite entry"
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return "density matrix must be square"
    if np.abs(m - m.conj().T).max() > 1e-10:
        return "density matrix not Hermitian within 1e-10"
    if abs(np.trace(m).real - 1.0) > 1e-9:
        return f"density trace {np.trace(m).real} not 1"
    if np.linalg.eigvalsh(m).min() < -1e-10:
        return "density matrix has eigenvalue below -1e-10"
    return None


def unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def orthogonal_to(rng: np.random.Generator, v: np.ndarray) -> np.ndarray:
    p = unit(rng, v.size)
    p = p - np.vdot(v, p) * v
    return p / np.linalg.norm(p)


class TestFactoredRouteAgreesWithDense:
    @settings(max_examples=24, deadline=None)
    @given(
        st.sampled_from((3, 8, 64, 784)),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        st.booleans(),
    )
    def test_pure_pairs(self, dim, seed, mix, real):
        rng = np.random.default_rng(seed)
        v, p = unit(rng, dim), unit(rng, dim)
        if real:
            v, p = v.real / np.linalg.norm(v.real), p.real / np.linalg.norm(p.real)
        w = np.sqrt(1 - mix) * v + np.sqrt(mix) * p  # from equal to unrelated
        w = w / np.linalg.norm(w)
        a, b = DensityOnRegister.pure("r", v), DensityOnRegister.pure("r", w)
        assert a._factor is not None and b._factor is not None
        assert abs(trace_distance(a, b) - dense_trace_distance(a, b)) <= 1e-12

    def test_basis_states(self):
        a = DensityOnRegister.pure("r", np.eye(5)[1])
        b = DensityOnRegister.pure("r", np.eye(5)[3])
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-15)
        assert trace_distance(a, a) <= 1e-15

    @pytest.mark.parametrize("dim", [3, 784])
    def test_equal_states(self, dim):
        v = unit(np.random.default_rng(dim), dim)
        a, b = DensityOnRegister.pure("r", v), DensityOnRegister.pure("r", v.copy())
        assert trace_distance(a, b) <= 1e-14

    @pytest.mark.parametrize("dim", [3, 784])
    def test_nearly_equal_states(self, dim):
        rng = np.random.default_rng(dim)
        v = unit(rng, dim)
        delta = 1e-9
        w = (v + delta * orthogonal_to(rng, v)) / np.sqrt(1 + delta**2)
        a, b = DensityOnRegister.pure("r", v), DensityOnRegister.pure("r", w)
        got = trace_distance(a, b)
        want = delta / np.sqrt(1 + delta**2)
        assert abs(got - want) <= 1e-6 * want

    def test_two_dimensions_stay_dense(self):
        rng = np.random.default_rng(2)
        a = DensityOnRegister.pure("r", unit(rng, 2))
        b = DensityOnRegister.pure("r", unit(rng, 2))
        assert a._factor is not None
        assert trace_distance(a, b) == dense_trace_distance(a, b)


class TestCertification:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.v = unit(rng, 6)
        self.p = orthogonal_to(rng, self.v)

    def with_direction(self, weight: float) -> np.ndarray:
        v, p = self.v, self.p
        return np.outer(v, v.conj()) + weight * np.outer(p, p.conj())

    def test_factor_reproduces_the_matrix(self):
        rho = DensityOnRegister.pure("r", self.v)
        f = rho._factor
        assert np.linalg.norm(rho.matrix - np.outer(f, f.conj())) <= 1e-15
        assert abs(np.vdot(f, self.v)) == pytest.approx(1.0, abs=1e-15)

    def test_negative_direction_below_floor_raises(self):
        with pytest.raises(ValueError, match="eigenvalue below"):
            DensityOnRegister("r", self.with_direction(-2e-10))

    def test_negative_direction_within_floor_takes_dense_route(self):
        rho = DensityOnRegister("r", self.with_direction(-5e-11))
        assert rho._factor is None
        other = DensityOnRegister.pure("r", self.p)
        assert trace_distance(rho, other) == dense_trace_distance(rho, other)

    def test_mixed_state_keeps_no_factor(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = DensityOnRegister("r", m @ m.conj().T / np.trace(m @ m.conj().T).real)
        assert rho._factor is None
        pure = DensityOnRegister.pure("r", self.v)
        assert trace_distance(rho, pure) == dense_trace_distance(rho, pure)

    def test_rank_two_mixture_keeps_no_factor(self):
        rho = DensityOnRegister("r", 0.5 * self.with_direction(1.0))
        assert rho._factor is None

    def test_invalid_inputs_still_rejected(self):
        outer = np.outer(self.v, self.v.conj())
        skew = outer.copy()
        skew[0, 1] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityOnRegister("r", skew)
        with pytest.raises(ValueError, match="trace"):
            DensityOnRegister("r", 2 * outer)
        with pytest.raises(ValueError, match="square"):
            DensityOnRegister("r", outer[:, :5])
        with pytest.raises(ValueError, match="eigenvalue below"):
            DensityOnRegister("r", 1.5 * self.with_direction(-1 / 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)])
    def test_non_finite_entries_rejected(self, bad):
        # every comparison with NaN is False, so without an explicit
        # check I/3 with a NaN pair passes the Hermitian, trace and
        # eigenvalue checks
        m = np.eye(3, dtype=complex) / 3
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityOnRegister("r", m)
        with pytest.raises(ValueError, match="non-finite"):
            DensityOnRegister("r", np.full((3, 3), np.nan))

    def test_factor_is_internal(self):
        rho = DensityOnRegister.pure("r", self.v)
        assert "_factor" not in repr(rho)
        with pytest.raises(TypeError):
            DensityOnRegister("r", rho.matrix, _factor=self.v)


class TestCertificateBeforeHermitianPass:
    """The rank-1 certificate runs before the Hermitian pass and skips it
    when it certifies; every verdict and message stays as before."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(13)
        v, w = unit(rng, 6), unit(rng, 6)
        pure = np.outer(v, v.conj())
        skew = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        skew = (skew - skew.conj().T) / np.abs(skew - skew.conj().T).max()
        nan = pure.copy()
        nan[2, 3] = np.nan
        p = orthogonal_to(rng, v)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        return {
            "pure": pure,
            "outer-v-w": np.outer(v, w.conj()),
            "rank1-plus-antihermitian": pure + 1e-9 * skew,
            "rank1-plus-tiny-antihermitian": pure + 1e-14 * skew,
            "nan-entry": nan,
            "half-trace": pure / 2,
            "triple-trace": 3 * pure,
            "negative-eigenvalue": 1.5 * (pure - np.outer(p, p.conj()) / 3),
            "mixed": g @ g.conj().T / np.trace(g @ g.conj().T).real,
            "maximally-mixed": np.eye(6) / 6,
            "rank-two": 0.5 * (pure + np.outer(p, p.conj())),
        }

    @pytest.mark.parametrize("name", sorted(cases.__func__()))
    def test_same_verdict_and_message(self, name):
        m = self.cases()[name]
        want = hermitian_first_verdict(m)
        if want is None:
            DensityOnRegister("r", m)
        else:
            with pytest.raises(ValueError) as err:
                DensityOnRegister("r", m)
            assert str(err.value) == want

    def test_rejections_are_the_expected_ones(self):
        verdicts = {n: hermitian_first_verdict(m) for n, m in self.cases().items()}
        assert "Hermitian" in verdicts["outer-v-w"]
        assert "Hermitian" in verdicts["rank1-plus-antihermitian"]
        assert "non-finite" in verdicts["nan-entry"]
        assert "trace" in verdicts["half-trace"]
        assert "eigenvalue" in verdicts["negative-eigenvalue"]
        for name in ("pure", "rank1-plus-tiny-antihermitian", "mixed",
                     "maximally-mixed", "rank-two"):
            assert verdicts[name] is None, name

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from((2, 6, 64, 784)), st.integers(0, 2**32 - 1))
    def test_computed_outer_product_is_hermitian_to_rounding(self, dim, seed):
        # the skipped pass relies on this: m within RANK1_FTOL of v v^H,
        # with every |v_i|^2 at most about 2, is Hermitian within
        # 3 * RANK1_FTOL (a fused multiply-add can make it inexact)
        v = unit(np.random.default_rng(seed), dim) * np.sqrt(2)
        o = np.outer(v, v.conj())
        assert np.abs(o - o.conj().T).max() <= 4 * 2.0**-53 * np.abs(v).max() ** 2

    def test_large_diagonal_is_left_to_the_hermitian_pass(self):
        v = np.zeros(6)
        v[2] = 1.0
        assert _rank1_factor(2 * np.outer(v, v)) is not None
        assert _rank1_factor(2.5 * np.outer(v, v)) is None
