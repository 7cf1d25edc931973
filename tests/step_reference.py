"""Reference routes for one verifier call.

``reference_step_perm`` builds the step permutation one basis index at a
time: the plain decode -> act -> encode loop, in which each flat index is
decoded into register digits, the call's count/swap/respond/decide
bookkeeping runs on those digits in Python, and the result is encoded
back. It is slow and obviously correct, and serves as the reference
route that the vectorized ``VerifierMachine._step_perm`` is tested against.

``fstar_oracle`` is the verifier's classical next-step function read off
the protocol spec for given control values, an independent route to what
the permutation writes into M and B. ``step_matrix`` and
``is_step_unitary`` are the dense test oracles of one call.
"""

import itertools

import numpy as np

from qromlab.adversary import _COHERENT, VerifierMachine
from qromlab.oracle import ClassicalOracle, prefixes
from qromlab.qsim import ATOL_UNITARY

MAX_MATRIX_DIM = 2**11


def reference_step_perm(machine) -> np.ndarray:
    """Basis permutation of one call: count, swap, respond, decide."""
    lay, spec, x, k = machine.layout, machine.spec, machine.x, machine.k
    n = len(spec.alphabet)
    aidx = {a: i for i, a in enumerate(spec.alphabet)}
    pos = {name: i for i, name in enumerate(lay.names)}
    i_count, i_b, i_m = pos["Count"], pos["B"], pos["M"]
    i_msg = [pos[f"M{i}"] for i in range(1, k + 1)]
    pos_cont = pos.get("Cont")
    kind = machine.kind

    # digit tuple -> (table position, labels) for every live prefix
    pref_info: dict[tuple, tuple[int, tuple]] = {}
    pidx = {p: i for i, p in enumerate(machine._prefix_points)}
    for i in range(1, len(machine._prefix_points[-1]) + 1):
        for digs in itertools.product(range(n), repeat=i):
            labels = tuple(spec.alphabet[d] for d in digs)
            pref_info[digs] = (pidx[labels], labels)

    if kind in ("random_aborting",) + _COHERENT:
        pos_r, pos_h, pos_k = pos.get("R"), pos.get("H"), pos.get("K")
        fixed_r, fixed_h = machine.fixed_value("R"), machine.fixed_value("H")
        rs = spec.randomness
        fixed_flags = None
        if pos_h is None and pos_k is None:
            fixed_flags = tuple(int(fixed_h(p)) for p in machine._prefix_points)
        kflags = machine._key_flags if pos_k is not None else None
        r_pool = [fixed_r] if pos_r is None else list(rs)
        resp_tab = {
            (r, digs): aidx[spec.next_message(x, r, labels)]
            for r in r_pool
            for digs, (_, labels) in pref_info.items()
            if len(digs) < k
        }
        acc_tab = {
            (r, digs): int(bool(spec.decide(x, r, pref_info[digs][1])))
            for r in r_pool
            for digs in itertools.product(range(n), repeat=k)
        }

        def flag(dg, pf):
            if pos_h is not None:
                return (dg[pos_h] >> pf) & 1
            if pos_k is not None:
                return int(kflags[dg[pos_k], pf])
            return fixed_flags[pf]

        def act(dg, j, final):
            r = fixed_r if pos_r is None else rs[dg[pos_r]]
            gated = pos_cont is None or dg[pos_cont] == 1
            if final:
                mdigs = tuple(dg[s] for s in i_msg)
                ok = acc_tab[(r, mdigs)]
                if ok and gated:
                    for i in range(1, k + 1):
                        if not flag(dg, pref_info[mdigs[:i]][0]):
                            ok = 0
                            break
                dg[i_b] ^= ok
            else:
                pdigs = tuple(dg[i_msg[t]] for t in range(j + 1))
                resp = resp_tab[(r, pdigs)]
                if gated and not flag(dg, pref_info[pdigs][0]):
                    resp = 0
                dg[i_m] = (dg[i_m] + resp) % n

    elif kind == "public_coin":
        challenges, chart = machine._challenges
        nc = len(challenges)
        cidx = {c: i for i, c in enumerate(challenges)}
        pos_h = pos.get("H")
        fixed_digits = None
        if pos_h is None:
            fixed_h = machine.fixed_value("H")
            fixed_digits = tuple(cidx[fixed_h(p)] for p in machine._prefix_points)

        def chal(dg, pf):
            if pos_h is None:
                return fixed_digits[pf]
            return (dg[pos_h] // nc**pf) % nc

        acc_memo: dict = {}

        def act(dg, j, final):
            if final:
                mdigs = tuple(dg[s] for s in i_msg)
                cs = tuple(
                    challenges[chal(dg, pref_info[mdigs[:i]][0])]
                    for i in range(1, k)
                )
                key = (cs, mdigs)
                ok = acc_memo.get(key)
                if ok is None:
                    labels = tuple(spec.alphabet[d] for d in mdigs)
                    ok = int(bool(spec.decide(x, chart[cs], labels)))
                    acc_memo[key] = ok
                dg[i_b] ^= ok
            else:
                pdigs = tuple(dg[i_msg[t]] for t in range(j + 1))
                c = challenges[chal(dg, pref_info[pdigs][0])]
                dg[i_m] = (dg[i_m] + aidx[c]) % n

    else:  # three_round: the table hashes the first message to randomness
        rs = spec.randomness
        nr = len(rs)
        pos_h = pos.get("H")
        fixed_digits = None
        if pos_h is None:
            fixed_h = machine.fixed_value("H")
            rpos = {r: i for i, r in enumerate(rs)}
            fixed_digits = tuple(rpos[fixed_h(a)] for a in spec.alphabet)

        def hdig(dg, m1d):
            if pos_h is None:
                return fixed_digits[m1d]
            return (dg[pos_h] // nr**m1d) % nr

        resp_tab = {
            (ri, m1d): aidx[spec.next_message(x, rs[ri], (spec.alphabet[m1d],))]
            for ri in range(nr)
            for m1d in range(n)
        }
        acc_tab = {
            (ri, digs): int(
                bool(spec.decide(x, rs[ri], tuple(spec.alphabet[d] for d in digs)))
            )
            for ri in range(nr)
            for digs in itertools.product(range(n), repeat=2)
        }

        def act(dg, j, final):
            m1d = dg[i_msg[0]]
            if final:
                dg[i_b] ^= acc_tab[(hdig(dg, m1d), (m1d, dg[i_msg[1]]))]
            else:
                dg[i_m] = (dg[i_m] + resp_tab[(hdig(dg, m1d), m1d)]) % n

    perm = np.empty(lay.total_dim, dtype=np.int64)
    for flat in range(lay.total_dim):
        dg = list(lay.decode(flat))
        j = dg[i_count]
        dg[i_count] = (j + 1) % k
        slot = i_msg[j]
        dg[i_m], dg[slot] = dg[slot], dg[i_m]
        act(dg, j, j == k - 1)
        perm[flat] = lay.encode(dg)
    return perm


def step_matrix(machine: VerifierMachine) -> np.ndarray:
    """Dense matrix of one verifier call (small machines only)."""
    mdim = machine.layout.total_dim
    if mdim > MAX_MATRIX_DIM:
        raise ValueError(f"dense step matrix capped at {MAX_MATRIX_DIM}")
    cols = np.zeros((mdim, mdim), dtype=complex)
    cols[machine._step_perm, np.arange(mdim)] = 1.0
    return machine._apply_adjusters(cols.T.copy(), forward=True).T.copy()


def is_step_unitary(machine: VerifierMachine, atol: float = ATOL_UNITARY) -> bool:
    """Unitarity certificate: permutation bijective, every adjuster unitary.

    Small machines additionally get the dense U*U check.
    """
    perm = machine._step_perm
    if not np.array_equal(np.sort(perm), np.arange(perm.size)):
        return False
    info = machine._adjuster_blocks
    if info is not None:
        for _, mat in info[4]:
            d = mat.shape[0]
            if np.abs(mat.conj().T @ mat - np.eye(d)).max() > atol:
                return False
    if machine.layout.total_dim <= MAX_MATRIX_DIM:
        u = step_matrix(machine)
        return bool(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= atol)
    return True


def fstar_oracle(
    machine: VerifierMachine, i_round: int, *, r=None, h=None
) -> ClassicalOracle:
    """The verifier's classical next-step function at one round.

    Rounds below k map message prefixes to the response added into M
    (the first alphabet letter doubles as the additive abort marker);
    round k maps full transcripts to the acceptance bit. Domains are
    ordered little-endian in the message digits, first message fastest,
    so tables line up with merged message registers under quantum_query.
    """
    spec, x, k = machine.spec, machine.x, machine.k
    n = len(spec.alphabet)
    if not 1 <= i_round <= k:
        raise ValueError(f"round {i_round} outside 1..{k}")
    r = machine.fixed_value("R") if r is None else r
    h = machine.fixed_value("H") if h is None else h
    if h is None:
        raise ValueError("need a pinned or supplied control table")
    dom = []
    for flat in range(n**i_round):
        digs = [(flat // n**j) % n for j in range(i_round)]
        dom.append(tuple(spec.alphabet[d] for d in digs))
    dom = tuple(dom)
    final = i_round == k
    kind = machine.kind

    def value(t: tuple):
        if kind in ("random_aborting",) + _COHERENT:
            if final:
                ok = all(h(p) for p in prefixes(t))
                return int(ok and bool(spec.decide(x, r, t)))
            return spec.next_message(x, r, t) if h(t) else spec.alphabet[0]
        if kind == "public_coin":
            if final:
                cs = tuple(h(t[:i]) for i in range(1, k))
                return int(bool(spec.decide(x, machine._challenges[1][cs], t)))
            return h(t)
        if final:
            return int(bool(spec.decide(x, h(t[0]), t)))
        return spec.next_message(x, h(t[0]), t)

    if kind in ("random_aborting",) + _COHERENT and r is None:
        raise ValueError("need pinned or supplied randomness")
    rng = (0, 1) if final else tuple(spec.alphabet)
    return ClassicalOracle(dom, rng, tuple(value(t) for t in dom))
