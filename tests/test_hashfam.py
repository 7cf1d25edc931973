"""Keyed families: uniformity, exactness checks, adjusting unitaries."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adjuster_reference import reference_efficient_adjuster
from family_reference import joint_is_uniform
from conftest import accept_all_zero
from qromlab.adversary import oracle_zoo
from qromlab.hashfam import (
    AdjustingUnitary,
    PolynomialFamily,
    TableFamily,
    TwoQWiseFamily,
    build_efficient_adjuster,
    build_exact_adjuster,
    family_exactness_check,
    flagged_table_superposition,
    random_function_vs_family,
    table_superposition,
)
from qromlab.oracle import SparseOracleDist, prefix_domain

DOM6 = prefix_domain((0, 1), 2)

# (m, family) pairs of the adjuster-eff demo, then acceptance criterion 5's
# 784-key families at b = 1 and 2 over every two-letter transcript
REFERENCE_ADJUSTERS = [
    ((0, 1), TwoQWiseFamily(TableFamily(DOM6, 2), 1, 2)),
    ((0,), TwoQWiseFamily(TableFamily(prefix_domain((0, 1), 1), 4), 1, 1)),
] + [
    (m, TwoQWiseFamily(PolynomialFamily(DOM6, 7, 1, 4), b, 2))
    for b in (1, 2)
    for m in itertools.product((0, 1), repeat=2)
]


class TestTableFamily:
    def test_key_count_and_eval(self):
        fam = TableFamily((0, 1, 2), 3)
        assert fam.key_count == 27
        key = 1 + 3 * 2 + 9 * 0
        assert [fam.eval(key, p) for p in fam.domain] == [1, 2, 0]

    def test_always_uniform(self):
        fam = TableFamily((0, 1), 4)
        assert fam.exactly_uniform
        assert joint_is_uniform(fam, (0, 1))

    def test_range_size_checked(self):
        with pytest.raises(ValueError):
            TableFamily((0,), 0)


class TestPolynomialFamily:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialFamily((0, 1), 6, 1, 2)
        with pytest.raises(ValueError):
            PolynomialFamily((0, 1, 2), 2, 1, 2)
        with pytest.raises(ValueError):
            PolynomialFamily((0, 1), 5, 1, 6)
        with pytest.raises(ValueError):
            PolynomialFamily((0, 1), 5, -1, 5)

    def test_eval_is_horner(self):
        fam = PolynomialFamily((0, 1, 2), 5, 2, 5)
        key = 3 + 5 * 1 + 25 * 4  # low digit first: 3x^2 + 1x + 4
        assert fam.eval(key, 2) == (3 * 4 + 1 * 2 + 4) % 5

    def test_uniform_iff_range_divides_field(self):
        assert PolynomialFamily(DOM6, 7, 1, 7).exactly_uniform
        assert not PolynomialFamily(DOM6, 7, 1, 4).exactly_uniform

    def test_pairwise_but_not_threewise(self):
        fam = PolynomialFamily((0, 1, 2), 5, 1, 5)
        assert joint_is_uniform(fam, (0, 1))
        assert joint_is_uniform(fam, (1, 2))
        assert not joint_is_uniform(fam, (0, 1, 2))

    def test_interpolation_order(self):
        # one degree-3 polynomial through any 4 prescribed values
        fam = PolynomialFamily((0, 1, 2, 3), 5, 3, 5)
        assert joint_is_uniform(fam, (0, 1, 2, 3))

    def test_nonuniform_reduction_detected(self):
        assert not joint_is_uniform(PolynomialFamily((0,), 5, 1, 2), (0,))


class TestTwoQWiseFamily:
    def test_validation(self):
        base = TableFamily(DOM6, 2)
        with pytest.raises(ValueError):
            TwoQWiseFamily(base, 3, 2)
        with pytest.raises(ValueError):
            TwoQWiseFamily(base, 1, 0)
        with pytest.raises(ValueError):
            TwoQWiseFamily(TableFamily(((0, 0, 0),), 2), 1, 2)

    def test_shape(self):
        fam = TwoQWiseFamily(TableFamily(DOM6, 3), 2, 2)
        assert fam.a == 3
        assert fam.epsilon == Fraction(2, 3)
        assert fam.key_count == 3**6 * 9

    @given(st.integers(min_value=0, max_value=3**6 * 9 - 1))
    def test_split_join_roundtrip(self, key):
        fam = TwoQWiseFamily(TableFamily(DOM6, 3), 2, 2)
        kp, shifts = fam.split_key(key)
        assert fam.join_key(kp, shifts) == key
        assert 0 <= kp < fam.base.key_count
        assert all(0 <= s < fam.a for s in shifts)

    def test_shifts_fix_the_marginal(self):
        # base values mod 3 over GF(7) are skewed, the shifted flag is not
        fam = TwoQWiseFamily(PolynomialFamily(DOM6, 7, 1, 3), 1, 2)
        for p in DOM6:
            hits = sum(fam.predicate(key, p) for key in range(fam.key_count))
            assert Fraction(hits, fam.key_count) == Fraction(1, 3)

    def test_flagged_keys_match_predicate(self):
        fam = TwoQWiseFamily(TableFamily(DOM6, 2), 1, 2)
        flagged = set(fam.flagged_keys((0, 1)))
        assert len(flagged) == fam.key_count // 4
        for key in range(fam.key_count):
            hit = fam.predicate(key, (0,)) and fam.predicate(key, (0, 1))
            assert (key in flagged) == bool(hit)

    def test_tilted_oracle_tabulates_predicate(self):
        fam = TwoQWiseFamily(TableFamily(DOM6, 2), 1, 2)
        h = fam.tilted_oracle(17)
        assert h.values == tuple(fam.predicate(17, p) for p in DOM6)


class TestExactnessChecks:
    def test_pairwise_family_fools_single_query(self):
        fam = TwoQWiseFamily(PolynomialFamily(DOM6, 7, 1, 7), 2, 2)
        zoo = {a.name: a for a in oracle_zoo(DOM6)}
        for name in ("oq-classical", "oq-uniform"):
            p_random, p_family = family_exactness_check(
                fam, accept_all_zero(zoo[name])
            )
            assert abs(p_random - p_family) <= 1e-10

    def test_nonuniform_base_rejected(self):
        fam = TwoQWiseFamily(PolynomialFamily(DOM6, 7, 1, 4), 2, 2)
        with pytest.raises(ValueError):
            family_exactness_check(fam, lambda h: 0)

    def test_linear_bits_exhaust_all_tables(self):
        # degree-1 keys over GF(2) hit each 2-point table exactly once,
        # so both averages coincide for every functional
        fam = PolynomialFamily((0, 1), 2, 1, 2)
        zoo = {a.name: a for a in oracle_zoo((0, 1))}
        p_random, p_family = random_function_vs_family(
            fam, accept_all_zero(zoo["oq-classical"])
        )
        assert p_random == p_family


class TestSuperpositions:
    def test_sparse_state_amplitudes(self):
        dist = SparseOracleDist((0, 1), Fraction(1, 4))
        amps = table_superposition(dist)
        assert np.isclose(np.linalg.norm(amps), 1.0)
        assert np.isclose(amps[0], 3 / 4)
        assert np.isclose(amps[1], np.sqrt(3) / 4)  # bit 0 = value at point 0
        assert np.isclose(amps[3], 1 / 4)

    def test_flagged_state_supports_only_flagging_tables(self):
        dist = SparseOracleDist(DOM6, Fraction(1, 2))
        amps = flagged_table_superposition((0, 1), dist)
        assert np.isclose(np.linalg.norm(amps), 1.0)
        i0 = DOM6.index((0,))
        i01 = DOM6.index((0, 1))
        for idx in range(amps.size):
            if not ((idx >> i0) & 1 and (idx >> i01) & 1):
                assert amps[idx] == 0

    def test_overlap_is_epsilon_for_two_prefixes(self):
        for eps in (Fraction(1, 4), Fraction(1, 2)):
            dist = SparseOracleDist(DOM6, eps)
            ov = table_superposition(dist) @ flagged_table_superposition((0, 1), dist)
            assert np.isclose(ov, float(eps))

    def test_flagged_state_needs_mass(self):
        with pytest.raises(ValueError):
            flagged_table_superposition((0,), SparseOracleDist((0,), Fraction(0)))


class TestExactAdjuster:
    @pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 2)])
    def test_rotates_sparse_onto_flagged(self, eps):
        dist = SparseOracleDist(DOM6, eps)
        adj = build_exact_adjuster((0, 1), dist)
        assert adj.variant == "exact"
        assert adj.dim == 64
        got = adj.matrix @ table_superposition(dist)
        want = flagged_table_superposition((0, 1), dist)
        assert np.abs(got - want).max() <= 1e-9

    def test_errors(self):
        dist = SparseOracleDist((0, 1), Fraction(1, 2))
        with pytest.raises(ValueError):
            build_exact_adjuster((0,), SparseOracleDist((0, 1), Fraction(0)))
        with pytest.raises(ValueError):
            build_exact_adjuster((5,), dist)
        with pytest.raises(ValueError):
            build_exact_adjuster((0,), SparseOracleDist(tuple(range(9)), Fraction(1, 2)))

    def test_nonunitary_matrix_rejected(self):
        with pytest.raises(ValueError):
            AdjustingUnitary((0,), "exact", np.ones((2, 2)))


class TestEfficientAdjuster:
    @pytest.mark.parametrize(
        "fam",
        [
            TwoQWiseFamily(TableFamily(DOM6, 2), 1, 2),
            TwoQWiseFamily(PolynomialFamily(DOM6, 7, 1, 4), 2, 2),
        ],
        ids=["table-base", "poly-base"],
    )
    def test_maps_uniform_onto_flagged_keys(self, fam):
        adj = build_efficient_adjuster((0, 1), fam)
        assert adj.variant == "efficient"
        kdim = fam.key_count
        got = adj.matrix @ (np.ones(kdim) / np.sqrt(kdim))
        keys = fam.flagged_keys((0, 1))
        want = np.zeros(kdim)
        want[keys] = 1.0 / np.sqrt(len(keys))
        assert np.abs(got - want).max() <= 1e-9

    @pytest.mark.parametrize("m, fam", REFERENCE_ADJUSTERS)
    def test_structured_build_equals_dense_reference(self, m, fam):
        got = build_efficient_adjuster(m, fam).matrix
        assert np.array_equal(got, reference_efficient_adjuster(m, fam))

    def test_key_cap(self):
        fam = TwoQWiseFamily(TableFamily(DOM6, 8), 1, 2)
        with pytest.raises(ValueError):
            build_efficient_adjuster((0, 1), fam)
