"""Half-vectorization, the lifted frame operator, and the measurement map.

Column-order convention (used everywhere in this package): a symmetric
M x M matrix Q is flattened diagonal-first,

    v(Q) = (q_11, q_22, ..., q_MM, q_12, ..., q_1M, q_23, ..., q_(M-1)M),

and the lifted vector of a real measurement vector phi is

    omega(phi) = (phi_1^2, ..., phi_M^2, 2 phi_1 phi_2, ..., 2 phi_(M-1) phi_M),

so that <omega(phi), v(Q)> = phi^T Q phi for every symmetric Q.  Other
orderings of the same matrix (e.g. listing each diagonal entry next to its
row) only permute columns of the lifted operator; determinant vanishing and
kernels are unaffected, but raw determinant *signs* do depend on this
choice.
"""

from __future__ import annotations

import numpy as np

from .algebra import as_signal
from .errors import DimensionMismatchError, ValidationError
from .frames_io import Measurement

_EPS = float(np.finfo(np.float64).eps)


def lift_dim(m: int) -> int:
    """Length of the half-vectorization, m(m+1)/2."""
    return m * (m + 1) // 2


def _dim_from_lift(length: int) -> int:
    m = int((np.sqrt(8 * length + 1) - 1) / 2 + 0.5)
    if lift_dim(m) != length:
        raise ValidationError(f"length {length} is not of the form m(m+1)/2")
    return m


def _half_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of the diagonal-first layout: Q[index] is v(Q)."""
    iu, ju = np.triu_indices(m, k=1)
    diag = np.arange(m)
    return np.concatenate([diag, iu]), np.concatenate([diag, ju])


def _symmetric(v: np.ndarray, m: int, index) -> np.ndarray:
    """Symmetric m x m matrices Q with Q[..., rows, cols] = v, for index = _half_indices(m).

    ``v`` may stack lift vectors on leading axes; Q stacks the matrices alike.
    """
    rows, cols = index
    Q = np.empty(v.shape[:-1] + (m, m))
    Q[..., rows, cols] = v
    Q[..., cols, rows] = v
    return Q


def _frame_matrix(frame) -> np.ndarray:
    return frame.matrix if hasattr(frame, "matrix") else np.asarray(frame)


def omega(phi) -> np.ndarray:
    """Lifted vector of a real measurement vector."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 1:
        raise ValidationError("phi must be 1-D")
    if not np.all(np.isfinite(phi)):
        raise ValidationError("phi has non-finite entries")
    m = phi.shape[0]
    out = np.empty(lift_dim(m))
    out[:m] = phi * phi
    iu, ju = np.triu_indices(m, k=1)
    out[m:] = 2.0 * phi[iu] * phi[ju]
    return out


def vectorize(Q) -> np.ndarray:
    """Half-vectorize a symmetric matrix (diagonal first, then upper rows)."""
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {Q.shape}")
    return Q[_half_indices(Q.shape[0])]


def devectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize`; the result is exactly symmetric."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValidationError("lift vector must be 1-D")
    m = _dim_from_lift(v.shape[0])
    return _symmetric(v, m, _half_indices(m))


def omega_matrix(frame) -> np.ndarray:
    """N x m(m+1)/2 operator whose row k is omega of the k-th frame vector."""
    mat = _frame_matrix(frame)
    if np.iscomplexobj(mat):
        raise ValidationError("the lifted operator is defined for real frames")
    mat = np.asarray(mat, dtype=np.float64)
    if not np.all(np.isfinite(mat)):
        raise ValidationError("phi has non-finite entries")
    m, n = mat.shape
    rows, cols = _half_indices(m)
    # 1.0 * phi_i * phi_i on the diagonal entries, 2.0 * phi_i * phi_j off
    # it: the products of omega, in the same order, so the same bits
    coef = np.full(rows.shape[0], 2.0)
    coef[:m] = 1.0
    return np.multiply(coef * mat[rows].T, mat[cols].T, out=np.empty((n, rows.shape[0])))


def apply_lift(frame, Q) -> np.ndarray:
    """Quadratic-form measurements (phi_k^T Q phi_k) of a symmetric Q."""
    mat = _frame_matrix(frame)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape[0] != mat.shape[0]:
        raise DimensionMismatchError(
            f"lift is {Q.shape[0]}x{Q.shape[0]} but frame has m={mat.shape[0]}"
        )
    return np.einsum("jk,jl,lk->k", mat, Q, mat)


def measure(frame, x, noise_sigma: float | None = None, rng=None) -> Measurement:
    """Magnitude-squared measurements b_k = |<x, phi_k>|^2.

    With ``noise_sigma`` set, adds i.i.d. Gaussian noise of standard
    deviation noise_sigma * mean(b); pass ``rng`` (Generator or int seed)
    for a reproducible draw.
    """
    mat = _frame_matrix(frame)
    x = as_signal(x)
    if x.shape[0] != mat.shape[0]:
        raise DimensionMismatchError(
            f"signal has m={x.shape[0]} but frame has m={mat.shape[0]}"
        )
    # <x, phi> = sum_j x_j conj(phi_j)
    inner = mat.conj().T @ x if np.iscomplexobj(mat) else mat.T @ x
    values = np.abs(inner) ** 2
    if noise_sigma is None:
        return Measurement(values, None)
    if noise_sigma < 0:
        raise ValidationError("noise_sigma must be nonnegative")
    if noise_sigma > 0:
        if rng is None:
            rng = np.random.default_rng()
        elif isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=int(rng)))
        scale = noise_sigma * float(np.mean(values))
        values = values + rng.standard_normal(values.shape[0]) * scale
    return Measurement(values, float(noise_sigma))


def numeric_rank(Q, tol: float | None = None) -> int:
    """Number of singular values above tol * sigma_max.

    Default tol is m * eps * 64, sized so exact low-rank structure is never
    over-counted at double precision.
    """
    Q = np.atleast_2d(np.asarray(Q))
    sv = np.linalg.svd(Q, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    if tol is None:
        tol = max(Q.shape) * _EPS * 64
    return int(np.sum(sv > tol * sv[0]))
