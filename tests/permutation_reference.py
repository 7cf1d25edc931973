"""Dense-matrix routes of the basis permutations and the one-register split.

``quantum_query`` builds the oracle embedding |x, y> -> |x, y + f(x)> as a
dense 0/1 matrix over the (in, out) block in a Python double loop and
applies it with ``apply_unitary``; ``cswap_matrix`` is the SWAP test's
controlled swap written the same way; ``measure_register`` measures one
register by slicing each outcome out of the state tensor. They are slow
and obviously correct, and serve as the reference routes the index-vector
permutations and the row-batched measurement split in ``qsim`` are tested
against.

``permute_rows`` is the index-vector kernel as it was before it indexed
directly: ``np.take_along_axis`` gathers and ``np.put_along_axis``
scatters along the last axis, broadcasting one permutation over every
row. ``qsim._permute_rows`` is tested against it.
"""

import numpy as np

from qromlab.oracle import ClassicalOracle
from qromlab.qsim import PROB_FLOOR, StateVector, _register_probs, apply_unitary


def quantum_query(
    state: StateVector, oracle: ClassicalOracle, in_register: str, out_register: str
) -> StateVector:
    """|x, y> -> |x, y + f(x) mod |range|> as a dense matrix on (in, out)."""
    d_in = state.layout.dim_of(in_register)
    d_out = state.layout.dim_of(out_register)
    n_dom = len(oracle.domain)
    n_rng = len(oracle.range_values)
    if d_in < n_dom or d_out < n_rng:
        raise ValueError("encoding overflow")
    u = np.zeros((d_in * d_out, d_in * d_out))
    for ix in range(d_in):
        shift = oracle.range_values.index(oracle.values[ix]) if ix < n_dom else 0
        for iy in range(d_out):
            jy = (iy + shift) % n_rng if iy < n_rng else iy
            u[ix + d_in * jy, ix + d_in * iy] = 1.0
    return apply_unitary(state, [in_register, out_register], u)


def permute_rows(rows: np.ndarray, perms: np.ndarray, inverse: bool) -> np.ndarray:
    """``rows`` (rows, work, dim) moved by ``perms`` (rows or 1, dim):
    forward scatters amplitude i of a row to ``perm[i]``, inverse gathers."""
    idx = perms[:, None, :]
    if inverse:
        return np.take_along_axis(rows, idx, axis=2)
    out = np.empty_like(rows)
    np.put_along_axis(out, idx, rows, axis=2)
    return out


def cswap_matrix(dim: int) -> np.ndarray:
    """Controlled swap of a and b on (anc, a, b), anc fastest."""
    size = 2 * dim * dim
    u = np.zeros((size, size))
    for anc in range(2):
        for ia in range(dim):
            for ib in range(dim):
                src = anc + 2 * ia + 2 * dim * ib
                ja, jb = (ib, ia) if anc == 1 else (ia, ib)
                dst = anc + 2 * ja + 2 * dim * jb
                u[dst, src] = 1.0
    return u


def measure_register(state: StateVector, register: str):
    """Every (outcome, post_state, probability) above ``PROB_FLOOR``."""
    layout = state.layout
    axis = layout.axis_of(register)
    dim = layout.dim_of(register)
    t = state.tensor()
    probs = _register_probs(t, [axis])

    def branch(o: int):
        p = float(probs[o])
        sl = [slice(None)] * t.ndim
        sl[axis] = o
        post = np.zeros_like(t)
        post[tuple(sl)] = t[tuple(sl)] / np.sqrt(p)
        return (o, StateVector(layout, post.reshape(-1)), p)

    return [branch(o) for o in range(dim) if probs[o] > PROB_FLOOR]
