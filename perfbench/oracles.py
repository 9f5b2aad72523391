"""Correctness oracles that use numpy only, never ``conjpr``.

Each oracle recomputes a property of an answer from its definition:

* :func:`lift_kernel` - the lifted operator built from the outer products
  phi phi^T, its rank and the symmetric matrices in its kernel;
* :func:`class_distance` - the closed-form squared distance between the
  conjugate classes of two signals;
* :func:`measurement_gap` - |<x, phi_k>|^2 - |<y, phi_k>|^2 from inner
  products;
* :func:`inertia` - the eigenvalue-sign count of a symmetric matrix.
"""

from __future__ import annotations

import numpy as np

#: Relative singular values above this count toward the rank ...
RANK_TOL = 1e-9
#: ... and frames with a relative singular value in (AMBIGUOUS_LOW, RANK_TOL]
#: are redrawn by the input generators, so no verdict sits on a threshold.
AMBIGUOUS_LOW = 1e-13


def _symmetric_basis(m: int) -> np.ndarray:
    """Orthonormal basis of the symmetric m x m matrices, shape (L, m, m)."""
    mats = []
    for i in range(m):
        e = np.zeros((m, m))
        e[i, i] = 1.0
        mats.append(e)
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros((m, m))
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(e)
    return np.array(mats)


def lift_kernel(mat) -> tuple[int, list[np.ndarray], bool]:
    """Rank of S -> (phi_k^T S phi_k)_k on symmetric S, and its kernel.

    Row k of the operator is the outer product phi_k phi_k^T expressed in an
    orthonormal basis of symmetric matrices.  Returns (rank, kernel
    matrices with unit Frobenius norm, ambiguous) where ``ambiguous`` flags
    a singular value too close to the rank threshold to call.
    """
    mat = np.asarray(mat, dtype=np.float64)
    m = mat.shape[0]
    basis = _symmetric_basis(m)
    outer = np.einsum("ik,jk->kij", mat, mat)
    op = np.einsum("kij,aij->ka", outer, basis)
    _, s, vh = np.linalg.svd(op)
    rel = np.zeros(basis.shape[0])
    rel[: s.size] = s / s[0]
    ambiguous = bool(np.any((rel > AMBIGUOUS_LOW) & (rel <= RANK_TOL)))
    rank = int(np.sum(rel > RANK_TOL))
    kernel = [np.einsum("a,aij->ij", vh[a], basis) for a in range(rank, basis.shape[0])]
    return rank, kernel, ambiguous


def inertia(sym, tol: float = 1e-9) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts beyond tol * |sym|_F."""
    w = np.linalg.eigvalsh(np.asarray(sym, dtype=np.float64))
    cut = tol * float(np.linalg.norm(sym))
    return int(np.sum(w > cut)), int(np.sum(w < -cut))


def class_distance(x, y) -> float:
    """min over theta of |x - e^{i theta} y|^2 and |x - e^{i theta} conj(y)|^2."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    total = float(np.vdot(x, x).real + np.vdot(y, y).real)
    plain = abs(np.sum(x * y.conj()))
    conj = abs(np.sum(x * y))
    return max(total - 2.0 * max(plain, conj), 0.0)


def measurements(mat, x) -> np.ndarray:
    """|<x, phi_k>|^2 for every column phi_k of ``mat``."""
    mat = np.asarray(mat)
    return np.abs(mat.conj().T @ np.asarray(x, dtype=np.complex128)) ** 2


def measurement_gap(mat, x, y) -> np.ndarray:
    """|<x, phi_k>|^2 - |<y, phi_k>|^2 for every column phi_k."""
    return measurements(mat, x) - measurements(mat, y)


def is_phased_real(y, tol: float = 1e-9) -> bool:
    """y = e^{i theta} r with r real  <=>  |sum y_j^2| = sum |y_j|^2."""
    y = np.asarray(y, dtype=np.complex128)
    norm2 = float(np.vdot(y, y).real)
    return abs(np.sum(y * y)) >= (1.0 - tol) * norm2


def im_gram_rank(mat) -> int:
    """Rank of the rows (Im(conj(phi_jk) phi_lk))_{j<l}, one row per column k."""
    mat = np.asarray(mat, dtype=np.complex128)
    m = mat.shape[0]
    iu, ju = np.triu_indices(m, k=1)
    rows = (mat[iu, :].conj() * mat[ju, :]).imag.T
    s = np.linalg.svd(rows, compute_uv=False)
    scale = float(np.max(np.sum(np.abs(mat) ** 2, axis=0)))
    return int(np.sum(s > RANK_TOL * scale))
