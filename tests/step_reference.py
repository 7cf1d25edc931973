"""Reference routes for one verifier call.

``reference_step_perm`` builds the step permutation one basis index at a
time, with a pinned machine's classical control values given as ``r``
and ``h``: the plain decode -> act -> encode loop, in which each flat index is
decoded into register digits, the call's count/swap/respond/decide
bookkeeping runs on those digits in Python, and the result is encoded
back. It is slow and obviously correct, and serves as the reference
route that the vectorized ``VerifierMachine._step_perm`` is tested against.

``fstar_oracle`` is the verifier's classical next-step function read off
the protocol spec for given control values ``r`` and ``h``, an independent route to what
the permutation writes into M and B. ``step_matrix`` and
``is_step_unitary`` are the dense test oracles of one call.

``apply_adjusters`` is the coherent kind's table rotation as it was
first written: one einsum over the whole Count = 0, Cont = 0 block,
all-zero columns included. It is the reference the column-gathering
``VerifierMachine._apply_adjusters`` is tested against, bit for bit.
"""

import itertools

import numpy as np

from qromlab.adversary import VerifierMachine
from qromlab.oracle import ClassicalOracle, prefixes
from qromlab.qsim import ATOL_UNITARY

MAX_MATRIX_DIM = 2**11


def decode(layout, flat: int) -> tuple[int, ...]:
    """The register digits of a flat basis index, first register least
    significant (the inverse of ``RegisterLayout.encode``)."""
    if not 0 <= flat < layout.total_dim:
        raise ValueError(f"index {flat} out of range")
    out = []
    for d in layout.dims:
        out.append(flat % d)
        flat //= d
    return tuple(out)


def reference_step_perm(machine, r=None, h=None) -> np.ndarray:
    """Basis permutation of one call: count, swap, respond, decide. A
    machine without an R or an H register reads ``r`` or ``h`` instead."""
    lay, spec, x, k = machine.layout, machine.spec, machine.x, machine.k
    n = len(spec.alphabet)
    aidx = {a: i for i, a in enumerate(spec.alphabet)}
    pos = {name: i for i, name in enumerate(lay.names)}
    i_count, i_b, i_m = pos["Count"], pos["B"], pos["M"]
    i_msg = [pos[f"M{i}"] for i in range(1, k + 1)]
    pos_cont = pos.get("Cont")

    # digit tuple -> (table position, labels) for every live prefix
    pref_info: dict[tuple, tuple[int, tuple]] = {}
    pidx = {p: i for i, p in enumerate(machine._prefix_points)}
    for i in range(1, k + 1):
        for digs in itertools.product(range(n), repeat=i):
            labels = tuple(spec.alphabet[d] for d in digs)
            pref_info[digs] = (pidx[labels], labels)

    pos_r, pos_h = pos.get("R"), pos.get("H")
    fixed_r, fixed_h = r, h
    rs = spec.randomness
    fixed_flags = None
    if pos_h is None:
        fixed_flags = tuple(int(fixed_h(p)) for p in machine._prefix_points)
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

    perm = np.empty(lay.total_dim, dtype=np.int64)
    for flat in range(lay.total_dim):
        dg = list(decode(lay, flat))
        j = dg[i_count]
        dg[i_count] = (j + 1) % k
        slot = i_msg[j]
        dg[i_m], dg[slot] = dg[slot], dg[i_m]
        act(dg, j, j == k - 1)
        perm[flat] = lay.encode(dg)
    return perm


def apply_adjusters(machine: VerifierMachine, rows: np.ndarray, forward: bool) -> np.ndarray:
    """Rotate the table axis of each just-finished Cont=0 block, in place."""
    u = machine._adjusters
    if u is None:
        return rows
    if not forward:
        u = u.conj().transpose(0, 2, 1)
    n, k = len(machine.spec.alphabet), machine.k
    t = rows.reshape(rows.shape[0], 2 * n, n**k, k, machine.layout.dim_of("H"), -1)
    block = t[:, :, :, 0, :, ::2]
    block[...] = np.einsum("fab,wsfbi->wsfai", u, block)
    return t.reshape(rows.shape[0], -1)


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
    stack = machine._adjusters
    if stack is not None:
        eye = np.eye(stack.shape[1])
        if np.abs(stack.conj().transpose(0, 2, 1) @ stack - eye).max() > atol:
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
    if h is None:
        raise ValueError("need a supplied control table")
    dom = []
    for flat in range(n**i_round):
        digs = [(flat // n**j) % n for j in range(i_round)]
        dom.append(tuple(spec.alphabet[d] for d in digs))
    dom = tuple(dom)
    final = i_round == k

    def value(t: tuple):
        if final:
            ok = all(h(p) for p in prefixes(t))
            return int(ok and bool(spec.decide(x, r, t)))
        return spec.next_message(x, r, t) if h(t) else spec.alphabet[0]

    if r is None:
        raise ValueError("need supplied randomness")
    rng = (0, 1) if final else tuple(spec.alphabet)
    return ClassicalOracle(dom, rng, tuple(value(t) for t in dom))
