"""The efficient adjuster built as three dense key-register matrices.

This is the composition as first written: a dense shift permutation
matrix and the two Householder maps expanded to ``kron(w, I)`` over the
whole key register, multiplied out at d^3. It is slow and obviously
correct, and serves as the reference route that the structured
``build_efficient_adjuster`` (a row permutation of ``(w_b w_a^T) (x) I``)
is tested against.
"""

import numpy as np

from qromlab.hashfam import _householder_to
from qromlab.oracle import prefixes


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
        kp, shifts = fam.split_key(key)
        new = list(shifts)
        for i, pre in enumerate(pres):
            new[i] = (new[i] + fam.base.eval(kp, pre)) % a
        shift[fam.join_key(kp, new), key] = 1.0

    return shift.T @ u_le_b @ u_le_a.T
