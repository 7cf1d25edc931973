"""Reference density validation: the unblocked rank-1 certificate.

``rank1_factor`` forms v v^H and m - v v^H as whole d x d arrays and
takes their Frobenius norm with ``np.linalg.norm``. ``verdict`` runs the
checks in their earlier order: the finiteness pass first for every
input, then squareness, then the certificate, and the Hermitian pass
and the dense eigensolve for an uncertified matrix. It returns the
error message, the stored matrix and the factor, so the tests can
compare them with ``DensityOnRegister`` exactly.
"""

import numpy as np

from qromlab.qsim import RANK1_FTOL


def rank1_residual(m: np.ndarray) -> tuple[float, np.ndarray] | None:
    """(||m - v v^H||_F, v), or None when the diagonal rules v out."""
    diag = m.diagonal().real
    j = int(np.argmax(diag))
    if not 0 < diag[j] <= 2:
        return None
    v = m[:, j] / np.sqrt(diag[j])
    return float(np.linalg.norm(m - np.outer(v, v.conj()))), v


def rank1_factor(m: np.ndarray) -> np.ndarray | None:
    """v with ||m - v v^H||_F <= RANK1_FTOL, or None when there is none."""
    got = rank1_residual(m)
    if got is None or not got[0] <= RANK1_FTOL:
        return None
    return got[1]


def verdict(matrix) -> tuple[str | None, np.ndarray, np.ndarray | None]:
    """(error message or None, stored matrix, certified factor or None)."""
    m = np.array(matrix, dtype=complex)
    if not np.isfinite(m).all():
        return "density matrix has a non-finite entry", m, None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return "density matrix must be square", m, None
    factor = rank1_factor(m)
    if factor is None and np.abs(m - m.conj().T).max() > 1e-10:
        return "density matrix not Hermitian within 1e-10", m, None
    if abs(np.trace(m).real - 1.0) > 1e-9:
        return f"density trace {np.trace(m).real} not 1", m, None
    if factor is None and np.linalg.eigvalsh(m).min() < -1e-10:
        return "density matrix has eigenvalue below -1e-10", m, None
    return None, m, factor
