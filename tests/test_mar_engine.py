"""The one measure-and-reprogram engine in ``transforms`` against the
hand-written twins it replaced (``mar_reference``).

Every comparison is exact: distributions key by key in insertion order,
reports field by field, and every leaf compared together with its type,
so a Fraction that turned into a float, or a reordered key, fails.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mar_reference as ref
from conftest import counting_runs
from qromlab import adversary, transforms
from qromlab.adversary import oracle_zoo, ordered_zoo
from qromlab.oracle import ClassicalOracle, prefix_domain
from qromlab.transforms import (
    _ordered_outcome,
    mar_check_general,
    mar_check_ordered,
    mar_general,
    mar_ordered,
    o2h_corollary_C,
)


def typed(value):
    """A structure equal for two values only if their types agree too."""
    if isinstance(value, dict):
        return ("dict", [(typed(k), typed(v)) for k, v in value.items()])
    if isinstance(value, (tuple, list)):
        return (type(value), tuple(typed(v) for v in value))
    if hasattr(value, "__dataclass_fields__"):
        return (type(value), tuple(
            typed(getattr(value, f)) for f in value.__dataclass_fields__
        ))
    return (type(value), value)


def assert_same(new, old):
    assert typed(new) == typed(old)


def relation(x, z):
    return (hash(x) + sum(z)) % 3 != 0


def register_choices(alg, k, claim_dim):
    """(claim, z) register pairs: k distinct claim registers that fit the
    decode, then z either empty or one more register."""
    regs = [nm for nm, _ in alg.work_registers]
    dims = dict(alg.work_registers)
    fits = [nm for nm in regs if dims[nm] <= claim_dim]
    for claim in itertools.permutations(fits, k):
        rest = [nm for nm in regs if nm not in claim]
        yield claim, ()
        if rest:
            yield claim, (rest[-1],)


def general_cases():
    for dom in ((0, 1), (0, 1, 2)):
        for alg in oracle_zoo(dom):
            for k in (1, 2):
                for claim, z in register_choices(alg, k, len(dom)):
                    case_id = f"{alg.name}-{dom}-{claim}-{z}"
                    yield pytest.param(alg, dom, claim, z, id=case_id)


def ordered_cases():
    """The transcript registers as claim, for one round or both, with
    and without the first answer as side digits."""
    for alphabet in ((0, 1), (0, 1, 2)):
        for alg in ordered_zoo(alphabet):
            regs = {nm for nm, _ in alg.work_registers}
            for claim in (("O2",), ("O1", "O2")):
                for z in ((), ("A1",)):
                    if set(z) <= regs:
                        case_id = f"{alg.name}-{alphabet}-{claim}-{z}"
                        yield pytest.param(alg, alphabet, claim, z, id=case_id)


@pytest.mark.parametrize("alg,dom,claim,z", general_cases())
def test_general_engine_matches_reference(alg, dom, claim, z):
    zero = ClassicalOracle.constant(dom, (0, 1), 0)
    k = len(claim)
    for y in itertools.product((0, 1), repeat=k):
        dist = mar_general(alg, zero, y, claim, z_registers=z)
        assert_same(dist, ref.mar_general(alg, zero, y, claim, z_registers=z))
        for target in itertools.permutations(dom, k):
            for rel in (None, relation):
                new = mar_check_general(
                    alg, zero, target, y, claim, relation=rel, z_registers=z, dist=dist
                )
                old = ref.mar_check_general(
                    alg, zero, target, y, claim, relation=rel, z_registers=z, dist=dist
                )
                assert_same(new, old)
        target = dom[:k]
        assert_same(
            mar_check_general(alg, zero, target, y, claim, z_registers=z),
            ref.mar_check_general(alg, zero, target, y, claim, z_registers=z),
        )


@pytest.mark.parametrize("alg,alphabet,claim,z", ordered_cases())
def test_ordered_engine_matches_reference(alg, alphabet, claim, z):
    zero = ClassicalOracle.constant(prefix_domain(alphabet, 2), (0, 1), 0)
    k = len(claim)
    for y in itertools.product((0, 1), repeat=k):
        dist = mar_ordered(alg, zero, y, claim, z_registers=z)
        assert_same(dist, ref.mar_ordered(alg, zero, y, claim, z_registers=z))
        for target in itertools.product(alphabet, repeat=k):
            for rel in (None, relation):
                new = mar_check_ordered(
                    alg, zero, target, y, claim, relation=rel, z_registers=z, dist=dist
                )
                old = ref.mar_check_ordered(
                    alg, zero, target, y, claim, relation=rel, z_registers=z, dist=dist
                )
                assert_same(new, old)
        target = alphabet[:k]
        assert_same(
            mar_check_ordered(alg, zero, target, y, claim, z_registers=z),
            ref.mar_check_ordered(alg, zero, target, y, claim, z_registers=z),
        )


O2H_DOM = (0, 1, 2)


@pytest.mark.parametrize("alg", oracle_zoo(O2H_DOM), ids=lambda a: a.name)
@pytest.mark.parametrize("marked", [(), (0,), (1, 2), O2H_DOM])
def test_o2h_matches_reference(alg, marked):
    for out_reg in (None, *alg.output_registers):
        new = o2h_corollary_C(alg, O2H_DOM, marked, output_register=out_reg)
        old = ref.o2h_corollary_C(alg, O2H_DOM, marked, output_register=out_reg)
        assert_same(new, old)


def seam_cases():
    """(algorithm, engine call) pairs over lists of 3 to 17 schedules."""
    dom = (0, 1, 2)
    zero = ClassicalOracle.constant(dom, (0, 1), 0)
    for alg in oracle_zoo(dom):
        claim = tuple(nm for nm, _ in alg.work_registers)[:2]
        y = (1,) * len(claim)
        yield alg, lambda m, a=alg, c=claim, y=y: m.mar_general(a, zero, y, c)
        yield alg, lambda m, a=alg: m.o2h_corollary_C(a, dom, (0,))
    odom = prefix_domain((0, 1), 2)
    ozero = ClassicalOracle.constant(odom, (0, 1), 0)
    for alg in ordered_zoo((0, 1)):
        yield alg, lambda m, a=alg: m.mar_check_ordered(
            a, ozero, (0, 1), (1, 1), ("O1", "O2"))


@pytest.mark.parametrize("room", [1, 3])
def test_chunk_seams_inside_a_schedule_list(monkeypatch, room):
    """With room for 1 or 3 rows of state a run, a schedule list goes as
    runs of that many start rows, and every value is still the
    reference's."""
    cut = 0
    for alg, call in seam_cases():
        want = call(ref)
        dim = alg._work_start.layout.total_dim
        monkeypatch.setattr(adversary, "MAX_STATE_DIM", room * dim)
        runs = counting_runs(monkeypatch)
        assert_same(call(transforms), want)
        monkeypatch.undo()
        assert max(runs) <= room, alg.name
        cut += runs.count(room) > 1
    assert cut > 0


@st.composite
def measured_claims(draw):
    """A claim of k letters and measured prefixes on some of its slots."""
    k = draw(st.integers(1, 3))
    letters = st.sampled_from((0, 1, 2))
    claim = tuple(draw(st.lists(letters, min_size=k, max_size=k)))
    slots = draw(st.sets(st.integers(0, k - 1)))
    measured = {
        i: tuple(draw(st.lists(letters, min_size=1, max_size=k))) for i in slots
    }
    return measured, claim


@settings(max_examples=300, deadline=None)
@given(measured_claims())
def test_ordered_outcome_matches_both_old_rules(pair):
    measured, claim = pair
    k = len(claim)
    points, out = _ordered_outcome(measured, claim)
    xs, old_out, ok = ref.ordered_rule(measured, claim)
    assert_same((points, out), (xs, old_out))
    assert (out is not None) == ok
    got = out if out is not None and len(out) == k else None
    assert_same(got, ref.pipeline_ordered_outcome(measured, claim, k))
