"""The verifier step permutation built one basis index at a time.

This is the plain decode -> act -> encode loop: each flat index is
decoded into register digits, the call's count/swap/respond/decide
bookkeeping runs on those digits in Python, and the result is encoded
back. It is slow and obviously correct, and serves as the reference
route that the vectorized ``VerifierMachine._step_perm`` is tested against.
"""

import itertools

import numpy as np

from qromlab.adversary import _COHERENT


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
