"""Signals, equivalence relations, and the real outer-product lift.

Two signals x, y in C^M are *phase equivalent* when x = e^{i theta} y, and
*conjugate equivalent* when additionally x may match the coordinate-wise
conjugate of y.  Phase equivalence is characterized exactly by equality of
the Hermitian outer products x x*, conjugate equivalence by equality of
their real parts Re(x x*).  All equivalence tests here therefore compare
lift matrices in Frobenius norm instead of searching over phases.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .frames_io import _check_tol

#: Default relative tolerance for equivalence and phase tests.
DEFAULT_TOL = 1e-9

_EPS = float(np.finfo(np.float64).eps)


def as_signal(x) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D complex128 vector."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValidationError(f"signal must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError("signal must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("signal has non-finite entries")
    return arr


def real_lift(x) -> np.ndarray:
    """Real part of x x*.

    Computed as a a^T + b b^T for x = a + i b, which makes the result
    exactly symmetric, positive semidefinite, and of rank at most 2.
    """
    x = as_signal(x)
    a, b = x.real, x.imag
    return np.outer(a, a) + np.outer(b, b)


def _scale(x: np.ndarray, y: np.ndarray) -> float:
    # Relative scale with a floor so the all-zero case compares as equal.
    nx = float(np.dot(x.real, x.real) + np.dot(x.imag, x.imag))
    ny = float(np.dot(y.real, y.real) + np.dot(y.imag, y.imag))
    return max(nx, ny, _EPS)


def _check_same_dim(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"signals have dimensions {x.shape[0]} and {y.shape[0]}"
        )


def phase_equivalent(x, y, tol: float = DEFAULT_TOL) -> bool:
    """True iff x = e^{i theta} y for some theta, i.e. x x* = y y*."""
    tol = _check_tol(tol, positive=True)
    x, y = as_signal(x), as_signal(y)
    _check_same_dim(x, y)
    gap = np.linalg.norm(np.outer(x, x.conj()) - np.outer(y, y.conj()))
    return bool(gap <= tol * _scale(x, y))


def conj_equivalent(x, y, tol: float = DEFAULT_TOL) -> bool:
    """True iff x matches y or its conjugate up to a global phase.

    Equivalent to Re(x x*) = Re(y y*), tested in Frobenius norm relative
    to max(|x|^2, |y|^2).
    """
    tol = _check_tol(tol, positive=True)
    x, y = as_signal(x), as_signal(y)
    _check_same_dim(x, y)
    gap = np.linalg.norm(real_lift(x) - real_lift(y))
    return bool(gap <= tol * _scale(x, y))


def conj_class_distance(x, y) -> float:
    """Frobenius distance between the real lifts of x and y.

    Vanishes exactly on conjugate-equivalent pairs; symmetric and obeys the
    triangle inequality (it is a pullback of a matrix norm).
    """
    x, y = as_signal(x), as_signal(y)
    _check_same_dim(x, y)
    return float(np.linalg.norm(real_lift(x) - real_lift(y)))


def im_products(z) -> np.ndarray:
    """Vector of Im(z_j conj(z_k)) over pairs j < k, row-wise order.

    Ordering is (1,2), (1,3), ..., (1,M), (2,3), ..., (M-1,M).  The vector
    is identically zero exactly when all entries of z share one phase mod pi.
    """
    z = as_signal(z)
    m = z.shape[0]
    outer = np.outer(z, z.conj()).imag
    iu, ju = np.triu_indices(m, k=1)
    return outer[iu, ju]


def is_phased_real(y, tol: float = DEFAULT_TOL) -> bool:
    """True iff y is a unimodular multiple of a real vector.

    Tested via max_{j<k} |Im(y_j conj(y_k))| <= tol * |y|^2; the zero vector
    counts as phased real.
    """
    tol = _check_tol(tol, positive=True)
    y = as_signal(y)
    if y.shape[0] == 1:
        return True
    scale = float(np.dot(y.real, y.real) + np.dot(y.imag, y.imag))
    if scale == 0.0:
        return True
    return bool(np.max(np.abs(im_products(y))) <= tol * scale)


def _anchor_index(moduli: np.ndarray) -> int:
    # Smallest index attaining the maximum modulus.
    return int(np.argmax(moduli))


def _first_significant_im(x: np.ndarray, thresh: float) -> int:
    for j in range(x.shape[0]):
        if abs(x[j].imag) > thresh:
            return j
    return -1


def _is_canonical(x: np.ndarray, thresh: float) -> bool:
    j = _anchor_index(np.abs(x))
    if x[j].imag != 0.0 or x[j].real < 0.0:
        return False
    k = _first_significant_im(x, thresh)
    return k < 0 or x[k].imag > 0.0


def canonical_rep(x, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Deterministic representative of the conjugate-equivalence class of x.

    The coordinate of maximal modulus (ties: smallest index) is rotated to be
    real nonnegative; then, scanning in index order, the first coordinate
    whose imaginary part exceeds tol*|x| in magnitude is made to have
    positive imaginary part by conjugating if needed.  Idempotent bit-for-bit;
    stability under perturbation holds only where the modulus maximum is
    strict (ties resolve by index and are almost-everywhere irrelevant).
    """
    tol = _check_tol(tol, positive=False)
    x = as_signal(x)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return x.copy()
    thresh = tol * norm
    if _is_canonical(x, thresh):
        return x.copy()
    out = x
    # Rare near-tie pathologies can need a second pass; cap defensively.
    for _ in range(5):
        moduli = np.abs(out)
        j = _anchor_index(moduli)
        if out[j].imag != 0.0 or out[j].real < 0.0:
            phase = out[j] / moduli[j]
            out = out * phase.conj()
            out[j] = complex(moduli[j], 0.0)  # kill round-off in the anchor
        k = _first_significant_im(out, thresh)
        if k >= 0 and out[k].imag < 0.0:
            out = out.conj()
        if _is_canonical(out, thresh):
            break
    return out
