"""Signal recovery from magnitude-squared measurements via the real lift.

With enough measurements the lifted system is linear: one thin SVD of the
lifted operator both decides its rank and solves for the half-vectorized
symmetric matrix, and the PSD rank-<=2 solution is factored back into a
signal (the two factorizations of a rank-2 Gram matrix differ by a 2x2
orthogonal mix, which is exactly a global phase or a phase plus
conjugation, i.e. one conjugate-equivalence class).  Below the
half-vectorization dimension the affine measurement set is searched by
alternating projection against the PSD rank-<=2 cone; that route carries
no guarantee and reports non-convergence honestly.  Both routes report the
misfit in measurement space, |(|phi_k^T xhat|^2)_k - b| / |b|, which is
``residual`` of the returned estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import canonical_rep
from .certify import KERNEL_TOL, _svd
from .errors import NotPSDError, UnderdeterminedError, ValidationError
from .frames_io import Measurement, _LazyStarts, _check_int, _check_tol
from .lift import _dim_from_lift, _frame_matrix, devectorize, measure, omega_matrix
from . import _kernels

_EPS = float(np.finfo(np.float64).eps)

#: Default relative tolerance for negative eigenvalues of a lift estimate.
PSD_TOL = 1e-8


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered class representative with fit diagnostics.

    ``lift_residual`` is the relative measurement misfit of the returned
    estimate, ``residual(frame, estimate, b)``; ``rank_excess`` the relative
    eigenvalue mass the rank-2 truncation discarded; ``iterations`` is 0 on
    the linear path and the returned restart's own count on the
    alternating-projection path.
    """

    estimate: np.ndarray
    lift_residual: float
    rank_excess: float
    iterations: int
    converged: bool


def _values(b) -> np.ndarray:
    if isinstance(b, Measurement):
        return b.values
    arr = np.asarray(b, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError("measurements must be a 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("measurements have non-finite entries")
    return arr


def _fix_sign(u: np.ndarray) -> np.ndarray:
    for val in u:
        if abs(val) > 1e-12:
            return -u if val < 0 else u
    return u


def _truncate_psd2(Q: np.ndarray, tol: float):
    """Split Q into a factored rank-<=2 PSD part plus discarded mass.

    Returns (xhat, discarded_abs, total_abs).  Eigenvalues
    below -tol*|Q|_F raise NotPSDError; negatives within tolerance are
    clamped to zero (and count as discarded mass).
    """
    w, V = np.linalg.eigh(Q)
    scale = float(np.linalg.norm(Q))
    if w.size and w[0] < -tol * scale:
        raise NotPSDError(
            f"lift estimate has eigenvalue {w[0]:.3e} below -tol*|Q| = {-tol * scale:.3e}"
        )
    m = Q.shape[0]
    lam1, lam2 = w[-1], w[-2] if m >= 2 else 0.0
    u1 = _fix_sign(V[:, -1])
    u2 = _fix_sign(V[:, -2]) if m >= 2 else np.zeros(m)
    lam1 = max(lam1, 0.0)
    lam2 = max(lam2, 0.0)
    xhat = np.sqrt(lam1) * u1 + 1j * np.sqrt(lam2) * u2
    rest = w[:-2] if m >= 2 else w[:0]
    discarded_abs = float(np.sum(np.abs(rest)))
    total_abs = float(np.sum(np.abs(w)))
    return xhat, discarded_abs, total_abs


def factor_rank2(Q, tol: float = PSD_TOL) -> np.ndarray:
    """Signal whose lift is the best PSD rank-<=2 approximation of Q.

    If Q is exactly some signal's lift, the result is conjugate equivalent
    to that signal.  Q must be exactly symmetric.
    """
    tol = _check_tol(tol, positive=False)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {Q.shape}")
    if not np.array_equal(Q, Q.T):
        raise ValidationError("lift matrix must be exactly symmetric")
    if not np.all(np.isfinite(Q)):
        raise ValidationError("lift matrix has non-finite entries")
    xhat, *_ = _truncate_psd2(Q, tol)
    return xhat


def _misfit(got: np.ndarray, bvals: np.ndarray) -> float:
    return float(np.linalg.norm(got - bvals) / max(np.linalg.norm(bvals), _EPS))


def _result(frame, estimate: np.ndarray, b: np.ndarray, rank_excess: float,
            iterations: int, converged: bool) -> ReconstructionResult:
    # the misfit in measurement space: for a real frame, omega v(Re(x x*))
    # is |phi^T x|^2, so the lift never needs rebuilding
    estimate = canonical_rep(estimate)
    mat = np.asarray(_frame_matrix(frame), dtype=np.float64)
    return ReconstructionResult(
        estimate=estimate,
        lift_residual=_misfit(np.abs(mat.T @ estimate) ** 2, b),
        rank_excess=rank_excess,
        iterations=iterations,
        converged=converged,
    )


def reconstruct_linear(frame, b, tol: float = PSD_TOL) -> ReconstructionResult:
    """Exact route: least-squares lift solve, then rank-2 factorization.

    Needs the lifted operator injective (N >= M(M+1)/2 and full column
    rank); raises UnderdeterminedError otherwise (use reconstruct_altproj).
    One thin SVD U diag(s) V^T of the operator serves both: its singular
    values give the rank rule s_min <= KERNEL_TOL * s_max, and since every
    s then lies above any rcond cut its factors give the least-squares
    solution V (U^T b / s).  The SVD is ``certify._svd``'s, so consecutive
    calls on one frame (or after ``certify`` or ``kernel_basis`` on it)
    factor the operator once; every result keeps the bits of a first call.
    ``tol`` bounds how negative an eigenvalue of the solved lift may be,
    relative to its norm, before the measurements are declared inconsistent
    (NotPSDError); with noisy data pass a tolerance matched to the noise.
    The bound is floored at kappa * eps, kappa = s_max / s_min the condition
    number of the operator: the solve's round-off alone moves the lift's
    eigenvalues by about that much, so exact data on an ill-conditioned
    lift is not refused.
    """
    tol = _check_tol(tol, positive=False)
    bvals = _values(b)
    om = omega_matrix(frame)
    n, L = om.shape
    if bvals.shape[0] != n:
        raise ValidationError(f"frame has {n} vectors but got {bvals.shape[0]} measurements")
    if n < L:
        raise UnderdeterminedError(
            f"{n} measurements cannot determine {L} lift coefficients; "
            "use reconstruct_altproj"
        )
    U, sv, Vt = _svd(om)
    if sv[0] == 0.0 or sv[-1] <= KERNEL_TOL * sv[0]:
        raise UnderdeterminedError("lifted operator is numerically rank deficient")
    Q = devectorize(Vt.T @ ((U.T @ bvals) / sv))
    xhat, discarded_abs, total_abs = _truncate_psd2(Q, max(tol, sv[0] / sv[-1] * _EPS))
    rank_excess = discarded_abs / max(total_abs, _EPS)
    return _result(frame, xhat, bvals, rank_excess, 0, True)


def reconstruct_altproj(
    frame,
    b,
    max_iter: int = 500,
    restarts: int = 50,
    seed: int = 0,
    tol: float = 1e-10,
) -> ReconstructionResult:
    """Alternating projection route for the underdetermined regime.

    Projects back and forth between the affine set of lifts matching the
    measurements (via the pseudoinverse; inconsistent measurements are
    first projected onto the attainable column space) and the PSD
    rank-<=2 cone.  Restart i starts from the (seed, i) stream; the first
    restart reaching relative residual ``tol`` wins, otherwise the best
    residual is returned with ``converged=False``.  A restart that has not
    converged stops early once its residual has stagnated: every 10
    iterations it must have moved by more than 1e-9 of itself, up or down.
    ``iterations`` is the returned restart's own count, so a non-converged
    result may report fewer than ``max_iter``.  Restart 0 runs alone and the
    others, if it fails, as one lockstep batch; the answer is the one
    restart-by-restart order gives.  The starts of restarts 1.. are drawn
    only when that batch runs.

    ``max_iter`` and ``restarts`` are integers >= 1, ``seed`` an integer
    >= 0 and ``tol`` a finite number >= 0.
    """
    max_iter = _check_int(max_iter, "max_iter", 1)
    restarts = _check_int(restarts, "restarts", 1)
    seed = _check_int(seed, "seed", 0)
    tol = _check_tol(tol, positive=False)
    bvals = _values(b)
    om = omega_matrix(frame)
    n, L = om.shape
    if bvals.shape[0] != n:
        raise ValidationError(f"frame has {n} vectors but got {bvals.shape[0]} measurements")
    m = _dim_from_lift(L)
    if np.linalg.norm(bvals) == 0.0:
        return _result(frame, np.zeros(m, dtype=np.complex128), bvals, 0.0, 0, True)
    pinv = np.linalg.pinv(om)
    # restart i's start is stream (seed, i), drawn only if restart i runs
    v0s = _LazyStarts(seed, restarts, L)
    v, _, iters, _, converged = _kernels.altproj(om, pinv, bvals, v0s, max_iter, tol)
    Q2 = devectorize(v)
    xhat, *_ = _truncate_psd2(Q2, 1.0)  # Q2 is PSD rank<=2 by construction
    # diagnose the rank mass the last affine point carried beyond rank 2
    v_aff = v - pinv @ (om @ v - bvals)
    w_aff = np.linalg.eigh(devectorize(v_aff))[0]
    tail = np.sum(np.abs(w_aff[:-2])) if m >= 2 else 0.0
    rank_excess = float(tail / max(np.sum(np.abs(w_aff)), _EPS))
    return _result(frame, xhat, bvals, rank_excess, int(iters), bool(converged))


def residual(frame, xhat, b) -> float:
    """Relative measurement misfit |measure(xhat) - b| / max(|b|, eps)."""
    bvals = _values(b)
    got = measure(frame, xhat).values
    if got.shape != bvals.shape:
        raise ValidationError("measurement length does not match the frame")
    return _misfit(got, bvals)
