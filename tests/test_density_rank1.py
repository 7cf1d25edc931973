"""Rank-1 densities: the certified factor and the trace distance that
uses it, checked against the dense eigenvalue route it replaces."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import density_reference
from qromlab.qsim import RANK1_FTOL, DensityOnRegister, _rank1_factor, trace_distance


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


def pure_density(register: str, vector) -> DensityOnRegister:
    v = np.asarray(vector, dtype=complex)
    return DensityOnRegister(register, np.outer(v, v.conj()))


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
        a, b = pure_density("r", v), pure_density("r", w)
        assert a._factor is not None and b._factor is not None
        assert abs(trace_distance(a, b) - dense_trace_distance(a, b)) <= 1e-12

    def test_basis_states(self):
        a = pure_density("r", np.eye(5)[1])
        b = pure_density("r", np.eye(5)[3])
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-15)
        assert trace_distance(a, a) <= 1e-15

    @pytest.mark.parametrize("dim", [3, 784])
    def test_equal_states(self, dim):
        v = unit(np.random.default_rng(dim), dim)
        a, b = pure_density("r", v), pure_density("r", v.copy())
        assert trace_distance(a, b) <= 1e-14

    @pytest.mark.parametrize("dim", [3, 784])
    def test_nearly_equal_states(self, dim):
        rng = np.random.default_rng(dim)
        v = unit(rng, dim)
        delta = 1e-9
        w = (v + delta * orthogonal_to(rng, v)) / np.sqrt(1 + delta**2)
        a, b = pure_density("r", v), pure_density("r", w)
        got = trace_distance(a, b)
        want = delta / np.sqrt(1 + delta**2)
        assert abs(got - want) <= 1e-6 * want

    def test_two_dimensions_stay_dense(self):
        rng = np.random.default_rng(2)
        a = pure_density("r", unit(rng, 2))
        b = pure_density("r", unit(rng, 2))
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
        rho = pure_density("r", self.v)
        f = rho._factor
        assert np.linalg.norm(rho.matrix - np.outer(f, f.conj())) <= 1e-15
        assert abs(np.vdot(f, self.v)) == pytest.approx(1.0, abs=1e-15)

    def test_negative_direction_below_floor_raises(self):
        with pytest.raises(ValueError, match="eigenvalue below"):
            DensityOnRegister("r", self.with_direction(-2e-10))

    def test_negative_direction_within_floor_takes_dense_route(self):
        rho = DensityOnRegister("r", self.with_direction(-5e-11))
        assert rho._factor is None
        other = pure_density("r", self.p)
        assert trace_distance(rho, other) == dense_trace_distance(rho, other)

    def test_mixed_state_keeps_no_factor(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = DensityOnRegister("r", m @ m.conj().T / np.trace(m @ m.conj().T).real)
        assert rho._factor is None
        pure = pure_density("r", self.v)
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
        rho = pure_density("r", self.v)
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


def anti_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random anti-Hermitian matrix with largest entry 1 in modulus."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    k = g - g.conj().T
    return k / np.abs(k).max()


def square_cases(dim: int) -> dict[str, np.ndarray]:
    """Pure, noisy, mixed and non-finite dim x dim inputs."""
    rng = np.random.default_rng(dim)
    v = unit(rng, dim)
    real = v.real / np.linalg.norm(v.real)
    pure = np.outer(v, v.conj())
    skew = anti_hermitian(rng, dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    cases = {
        "pure-complex": pure,
        "pure-real": np.outer(real, real),
        "half-trace": pure / 2,
        "mixed": g @ g.conj().T / np.trace(g @ g.conj().T).real,
    }
    for e in range(-15, -8):
        cases[f"antihermitian-1e{e}"] = pure + 10.0**e * skew
    # the residual is linear in the noise scale: these two sit at 0.7
    # and 1.4 times the bound, which pins the bound from both sides
    per_scale = density_reference.rank1_residual(cases["antihermitian-1e-14"])[0] / 1e-14
    for f in (0.7, 1.4):
        cases[f"residual-{f}-ftol"] = pure + f * RANK1_FTOL / per_scale * skew
    if dim > 1:
        p = orthogonal_to(rng, v)
        cases["rank-two"] = 0.5 * (pure + np.outer(p, p.conj()))
    # j is the certificate's column; i and k are two other indices
    j = int(np.argmax(pure.diagonal().real))
    i, k = (j + 1) % dim, (j + 2) % dim
    places = {"j,j": (j, j), "i,j": (i, j), "j,i": (j, i), "i,i": (i, i), "i,k": (i, k)}
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.inf)):
        for where, at in places.items():
            m = pure.copy()
            m[at] = bad
            cases[f"{bad}-at-{where}"] = m
    return cases


class TestBlockedCertificateMatchesReference:
    """The blocked residual and the reordered checks against the whole
    d x d residual and the earlier check order: the same verdict, the
    same message, and the same stored matrix and factor bit for bit."""

    # far wider than the relative rounding of either residual sum (about
    # d^2 * 2^-53, under 1e-10 at d = 784): outside it, both routes
    # certify alike
    BAND = 1e-6 * RANK1_FTOL

    def check(self, m):
        want, ref_matrix, ref_factor = density_reference.verdict(m)
        with warnings.catch_warnings():
            # a non-finite input reaches the certificate first: it must
            # raise its one ValueError, not warn on the way
            warnings.simplefilter("error", RuntimeWarning)
            if want is not None:
                with pytest.raises(ValueError) as err:
                    DensityOnRegister("r", m)
                assert str(err.value) == want
                return
            rho = DensityOnRegister("r", m)
        assert np.array_equal(rho.matrix, ref_matrix)
        if ref_factor is None:
            assert rho._factor is None
        else:
            assert np.array_equal(rho._factor, ref_factor)

    @pytest.mark.parametrize("dim", [1, 2, 3, 31, 32, 33, 64, 784])
    def test_square_inputs(self, dim):
        for name, m in square_cases(dim).items():
            got = np.isfinite(m).all() and density_reference.rank1_residual(m)
            if got:
                assert abs(got[0] - RANK1_FTOL) > self.BAND, name
            self.check(m)

    def test_cases_reach_every_verdict(self):
        verdicts = {
            name: density_reference.verdict(m)
            for dim in (3, 33)
            for name, m in square_cases(dim).items()
        }
        certified = {n for n, (msg, _, f) in verdicts.items() if f is not None}
        messages = {msg for msg, _, _ in verdicts.values()}
        assert {"pure-complex", "pure-real", "antihermitian-1e-15",
                "residual-0.7-ftol"} <= certified
        assert not {"mixed", "antihermitian-1e-11", "residual-1.4-ftol"} & certified
        assert None in messages
        for part in ("non-finite", "not Hermitian", "density trace"):
            assert any(msg and part in msg for msg in messages), part

    @pytest.mark.parametrize(
        "m",
        [
            np.zeros((2, 3)),
            np.full((2, 3), np.nan),
            np.zeros(4),
            np.eye(4).reshape(2, 2, 4) / 4,
            np.full((2, 2, 2), np.inf),
            np.zeros((0, 3)),
        ],
        ids=["2x3", "2x3-nan", "vector", "3d", "3d-inf", "0x3"],
    )
    def test_non_square_inputs(self, m):
        self.check(m)


def test_empty_density_fails_the_trace_check():
    with pytest.raises(ValueError) as err:
        DensityOnRegister("r", np.zeros((0, 0)))
    assert str(err.value) == "density trace 0.0 not 1"


def test_pure_784_validation_stays_near_one_matrix():
    # the stored copy is d^2 * 16 bytes; the residual adds one block of
    # rows, where whole d x d v v^H and m - v v^H temporaries added two
    v = unit(np.random.default_rng(784), 784)
    m = np.outer(v, v.conj())
    tracemalloc.start()
    try:
        rho = DensityOnRegister("r", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho._factor is not None
    assert peak <= 1.25 * m.nbytes
