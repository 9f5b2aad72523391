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

Its index arrays are built once per M (``_half_indices``); from position M on
they list the pairs j < k of ``algebra.im_products``.  The codec takes stacks.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import as_signal
from .errors import DimensionMismatchError, ValidationError
from .frames_io import Measurement, _check_tol, rng_stream

_EPS = float(np.finfo(np.float64).eps)


def lift_dim(m: int) -> int:
    """Length of the half-vectorization, m(m+1)/2."""
    return m * (m + 1) // 2


def _dim_from_lift(length: int) -> int:
    m = int((np.sqrt(8 * length + 1) - 1) / 2 + 0.5)
    if lift_dim(m) != length:
        raise ValidationError(f"length {length} is not of the form m(m+1)/2")
    return m


@functools.cache
def _half_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column index arrays of the layout: Q[..., rows, cols] is v(Q).

    Built once per m.  From position m on they list the pairs j < k row by row.
    """
    iu, ju = np.triu_indices(m, k=1)
    diag = np.arange(m)
    rows, cols = np.concatenate([diag, iu]), np.concatenate([diag, ju])
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _frame_matrix(frame) -> np.ndarray:
    return frame.matrix if hasattr(frame, "matrix") else np.asarray(frame)


def omega(phi) -> np.ndarray:
    """Lifted vector of a real measurement vector."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 1:
        raise ValidationError("phi must be 1-D")
    return omega_matrix(phi[:, None])[0]


def vectorize(Q) -> np.ndarray:
    """Half-vectorize symmetric matrices (..., m, m): diagonal first, then upper rows."""
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim < 2 or Q.shape[-1] != Q.shape[-2]:
        raise ValidationError(f"expected square matrices, got shape {Q.shape}")
    return Q[(..., *_half_indices(Q.shape[-1]))]


def devectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize` over the last axis; each result is exactly symmetric."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim < 1:
        raise ValidationError("lift vector must have at least one axis")
    m = _dim_from_lift(v.shape[-1])
    rows, cols = _half_indices(m)
    Q = np.empty(v.shape[:-1] + (m, m))
    Q[..., rows, cols] = v
    Q[..., cols, rows] = v
    return Q


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

    With ``noise_sigma`` set (a finite number >= 0, never a bool), adds
    i.i.d. Gaussian noise of standard deviation noise_sigma * mean(b); pass
    ``rng`` (a Generator, or an integer seed s >= 0 for the stream
    ``rng_stream(s, 0)`` that ``cpr measure --seed s`` draws from) for a
    reproducible draw.
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
    noise_sigma = _check_tol(noise_sigma, positive=False, name="noise_sigma")
    if noise_sigma > 0:
        if rng is None:
            rng = np.random.default_rng()
        elif not isinstance(rng, np.random.Generator):
            rng = rng_stream(rng, 0)
        scale = noise_sigma * float(np.mean(values))
        values = values + rng.standard_normal(values.shape[0]) * scale
    return Measurement(values, noise_sigma)


def numeric_rank(Q, tol: float | None = None) -> int:
    """Number of singular values above tol * sigma_max.

    Default tol is m * eps * 64, sized so exact low-rank structure is never
    over-counted at double precision.
    """
    tol = None if tol is None else _check_tol(tol, positive=False)
    Q = np.atleast_2d(np.asarray(Q))
    sv = np.linalg.svd(Q, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    if tol is None:
        tol = max(Q.shape) * _EPS * 64
    return int(np.sum(sv > tol * sv[0]))
