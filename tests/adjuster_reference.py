"""The adjusters built the way they were first written.

``reference_efficient_adjuster`` is the efficient adjuster as three
dense key-register matrices: a shift permutation matrix filled key by
key, and the two Householder maps expanded to ``kron(w, I)`` over the
whole key register, multiplied out at d^3. It is slow and obviously
correct, and serves as the reference route that the structured
``build_efficient_adjuster`` (a row permutation of ``(w_b w_a^T) (x) I``)
is tested against.

``reference_exact_adjuster`` is the exact adjuster as one complex
Kronecker product of per-point 2x2 rotations, checked unitary at full
size.

``kron_rows`` is how ``AdjustingUnitary`` first built its matrix from
the structured form: the whole ``kron(block, I_rest)``, then a copy of
it in row order.
"""

from functools import reduce

import numpy as np

from family_reference import join_key, split_key
from qromlab.hashfam import _householder_to
from qromlab.oracle import prefixes


def kron_rows(block, rows, rest) -> np.ndarray:
    """kron(block, I_rest)[rows], with both d x d arrays built."""
    return np.kron(block, np.eye(rest, dtype=block.dtype))[rows]


def reference_exact_adjuster(m, dist) -> np.ndarray:
    """Per-prefix inverse rotations (x) identity elsewhere, as complex."""
    eps = float(dist.epsilon)
    pres = set(prefixes(m))
    u_prime = np.array(
        [[np.sqrt(eps), np.sqrt(1 - eps)], [-np.sqrt(1 - eps), np.sqrt(eps)]]
    )
    mats = [u_prime.conj().T if p in pres else np.eye(2) for p in dist.domain]
    full = np.array(reduce(np.kron, reversed(mats)), dtype=complex)
    assert np.abs(full.conj().T @ full - np.eye(len(full))).max() <= 1e-9
    return full


def reference_efficient_adjuster(m, fam) -> np.ndarray:
    """(inverse shifts) . (expander (x) I) . (collapser (x) I)^T, densely."""
    kdim = fam.key_count
    a, b, k = fam.a, fam.b, fam.k
    nk, off_dim = fam.base.key_count, a**k

    def offset_block(limit: int) -> np.ndarray:
        amp = np.zeros(off_dim)
        for flat in range(off_dim):
            digits, rest = [], flat
            for _ in range(k):
                digits.append(rest % a)
                rest //= a
            if all(d < limit for d in digits):
                amp[flat] = 1.0
        return amp / np.sqrt(amp.sum())

    w_a = _householder_to(offset_block(a))
    w_b = _householder_to(offset_block(b))
    ident = np.eye(nk)
    u_le_a = np.kron(w_a, ident)  # offsets are the slow key digits
    u_le_b = np.kron(w_b, ident)

    shift = np.zeros((kdim, kdim))
    pres = prefixes(m)
    for key in range(kdim):
        kp, shifts = split_key(fam, key)
        new = list(shifts)
        for i, pre in enumerate(pres):
            new[i] = (new[i] + fam.base.eval(kp, pre)) % a
        shift[join_key(fam, kp, new), key] = 1.0

    return shift.T @ u_le_b @ u_le_a.T
