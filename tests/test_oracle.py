"""Classical tables, reprogramming, quantum queries, sparse distributions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import accept_all_zero, accept_register_one
from qromlab.adversary import _table_masses, oracle_zoo
from qromlab.oracle import (
    ClassicalOracle,
    SparseOracleDist,
    prefix_domain,
    prefixes,
    quantum_query,
    sparse_advantage,
    sparse_vs_zero_bound,
)
from qromlab.qsim import RegisterLayout, StateVector

small_tables = st.builds(
    lambda vals: ClassicalOracle(tuple(range(len(vals))), (0, 1), tuple(vals)),
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=5),
)


class TestClassicalOracle:
    def test_call_and_value_index(self):
        # a point's value index, the range position of f(point), is what
        # quantum_query adds: ``_shift`` holds it in domain order, then
        # the 0 a surplus in-digit reads
        h = ClassicalOracle(("x", "y", "z"), ("a", "b", "c"), ("b", "a", "c"))
        assert (h("x"), h("y"), h("z")) == ("b", "a", "c")
        assert h._shift.tolist() == [1, 0, 2, 0]
        assert not h._shift.flags.writeable

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassicalOracle((0, 0), (0, 1), (0, 0))
        with pytest.raises(ValueError):
            ClassicalOracle((0, 1), (0, 1), (0,))
        with pytest.raises(ValueError):
            ClassicalOracle((0, 1), (0, 1), (0, 2))

    @given(small_tables, st.data())
    def test_reprogram_changes_exactly_one_point(self, h, data):
        p = data.draw(st.sampled_from(h.domain))
        v = data.draw(st.sampled_from(h.range_values))
        g = h.reprogram(p, v)
        assert g(p) == v
        assert all(g(q) == h(q) for q in h.domain if q != p)

    @given(small_tables, st.data())
    def test_reprogram_roundtrip(self, h, data):
        p = data.draw(st.sampled_from(h.domain))
        v = data.draw(st.sampled_from(h.range_values))
        assert h.reprogram(p, v).reprogram(p, h(p)) == h

    def test_reprogram_outside_domain(self):
        h = ClassicalOracle.constant((0, 1), (0, 1), 0)
        with pytest.raises(KeyError):
            h.reprogram(2, 1)
        with pytest.raises(ValueError):
            h.reprogram(0, 7)


    def test_a_table_built_from_lists_is_the_tuple_built_one(self):
        listed = ClassicalOracle([0, 1, 2], [0, 1], [0, 1, 0])
        tupled = ClassicalOracle((0, 1, 2), (0, 1), (0, 1, 0))
        assert listed == tupled
        assert hash(listed) == hash(tupled)
        assert isinstance(listed.values, tuple)
        alg = {a.name: a for a in oracle_zoo((0, 1, 2))}["oq-uniform"]

        def mass(table):
            (m,) = _table_masses(alg, [table], ("Q",), lambda digits: digits == (1,))
            return m

        assert 0 < mass(listed) == mass(tupled) < 1


class TestPrefixes:
    def test_prefix_domain_layout(self):
        dom = prefix_domain((0, 1), 2)
        assert dom == ((0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1))

    def test_prefixes_of_message(self):
        assert prefixes((0, 1, 1)) == ((0,), (0, 1), (0, 1, 1))


class TestQuantumQuery:
    def test_basis_xor(self):
        layout = RegisterLayout((("Q", 2), ("A", 2)))
        h = ClassicalOracle((0, 1), (0, 1), (1, 0))
        s = quantum_query(StateVector.basis(layout, {"Q": 0}), h, "Q", "A")
        assert s.amplitudes[layout.encode({"Q": 0, "A": 1})] == 1.0

    def test_self_inverse_for_bits(self):
        layout = RegisterLayout((("Q", 2), ("A", 2)))
        h = ClassicalOracle((0, 1), (0, 1), (1, 1))
        amps = np.ones(4, dtype=complex) / 2.0
        s = StateVector(layout, amps)
        twice = quantum_query(quantum_query(s, h, "Q", "A"), h, "Q", "A")
        assert np.allclose(twice.amplitudes, amps)

    def test_surplus_basis_states_pass_through(self):
        layout = RegisterLayout((("Q", 3), ("A", 2)))
        h = ClassicalOracle((0, 1), (0, 1), (1, 1))
        s = quantum_query(StateVector.basis(layout, {"Q": 2}), h, "Q", "A")
        assert s.amplitudes[layout.encode({"Q": 2, "A": 0})] == 1.0

    def test_encoding_overflow_rejected(self):
        layout = RegisterLayout((("Q", 2), ("A", 1)))
        h = ClassicalOracle((0, 1), (0, 1), (0, 0))
        with pytest.raises(ValueError):
            quantum_query(StateVector.basis(layout, 0), h, "Q", "A")

    def test_mod_addition_on_larger_range(self):
        layout = RegisterLayout((("Q", 2), ("A", 3)))
        h = ClassicalOracle((0, 1), (0, 1, 2), (2, 0))
        s = quantum_query(StateVector.basis(layout, {"Q": 0, "A": 2}), h, "Q", "A")
        # 2 + 2 mod 3 = 1
        assert s.amplitudes[layout.encode({"Q": 0, "A": 1})] == 1.0


class TestSparseOracleDist:
    @given(st.fractions(min_value=0, max_value=1), st.integers(min_value=1, max_value=5))
    def test_weights_sum_to_one(self, eps, n):
        dist = SparseOracleDist(tuple(range(n)), eps)
        assert sum(w for _, w in dist.enumerate_weighted()) == 1

    def test_weight_of_specific_table(self):
        dist = SparseOracleDist((0, 1, 2), Fraction(1, 4))
        weights = dict(dist.enumerate_weighted())
        h = ClassicalOracle((0, 1, 2), (0, 1), (1, 0, 1))
        assert weights[h] == Fraction(1, 4) ** 2 * Fraction(3, 4)

    def test_degenerate_densities_enumerate_once(self):
        for eps, vals in ((Fraction(0), (0, 0)), (Fraction(1), (1, 1))):
            tables = list(SparseOracleDist((0, 1), eps).enumerate_weighted())
            assert len(tables) == 1
            assert tables[0][0].values == vals
            assert tables[0][1] == 1

    def test_zero_oracle(self):
        dist = SparseOracleDist((0, 1), Fraction(1, 2))
        assert dist.zero_oracle().values == (0, 0)

    def test_epsilon_range_checked(self):
        with pytest.raises(ValueError):
            SparseOracleDist((0,), Fraction(3, 2))

    def test_domain_cap(self):
        with pytest.raises(ValueError):
            SparseOracleDist(tuple(range(25)), Fraction(1, 2))


class TestSparseAdvantage:
    def test_bound_formula(self):
        assert sparse_vs_zero_bound(3, Fraction(1, 4)) == 18
        with pytest.raises(ValueError):
            sparse_vs_zero_bound(-1, Fraction(1, 2))

    def test_classical_query_is_tight(self):
        # reading h(0) into a register and outputting it separates H_eps
        # from H_0 by exactly eps
        zoo = {a.name: a for a in oracle_zoo((0, 1, 2))}
        accept = accept_register_one(zoo["oq-classical"], "A")
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 16)):
            dist = SparseOracleDist((0, 1, 2), eps)
            p_eps, p_zero, adv = sparse_advantage(accept, dist)
            assert p_zero == 0
            assert adv == eps

    def test_no_queries_no_advantage(self):
        zoo = {a.name: a for a in oracle_zoo((0, 1, 2))}
        accept = accept_all_zero(zoo["oq-none"])
        _, _, adv = sparse_advantage(accept, SparseOracleDist((0, 1, 2), Fraction(1, 2)))
        assert adv == 0

    @settings(deadline=None)
    @given(st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1, 16),
                            Fraction(1, 256)]))
    def test_zoo_respects_bound(self, eps):
        dist = SparseOracleDist((0, 1, 2), eps)
        for alg in oracle_zoo((0, 1, 2)):
            _, _, adv = sparse_advantage(accept_all_zero(alg), dist)
            assert float(adv) <= float(sparse_vs_zero_bound(alg.budget, eps)) + 1e-12
