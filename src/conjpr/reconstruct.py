"""Signal recovery from magnitude-squared measurements via the real lift.

With enough measurements the lifted system is linear: solve for the
half-vectorized symmetric matrix, then factor the PSD rank-<=2 solution
back into a signal (the two factorizations of a rank-2 Gram matrix differ
by a 2x2 orthogonal mix, which is exactly a global phase or a phase plus
conjugation, i.e. one conjugate-equivalence class).  Below the
half-vectorization dimension the affine measurement set is searched by
alternating projection against the PSD rank-<=2 cone; that route carries
no guarantee and reports non-convergence honestly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import canonical_rep, real_lift
from .errors import NotPSDError, UnderdeterminedError, ValidationError
from .frames_io import Measurement, _check_int, _restart_starts
from .lift import devectorize, measure, omega_matrix, vectorize
from . import _kernels
from ._kernels import rank2_psd_project  # noqa: F401 - public here, shared with altproj

_EPS = float(np.finfo(np.float64).eps)

#: Default relative tolerance for negative eigenvalues of a lift estimate.
PSD_TOL = 1e-8


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered class representative with fit diagnostics.

    ``lift_residual`` is the relative measurement misfit of the returned
    estimate's lift; ``rank_excess`` the relative eigenvalue mass the
    rank-2 truncation discarded; ``iterations`` is 0 on the linear path.
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
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {Q.shape}")
    if not np.array_equal(Q, Q.T):
        raise ValidationError("lift matrix must be exactly symmetric")
    if not np.all(np.isfinite(Q)):
        raise ValidationError("lift matrix has non-finite entries")
    xhat, *_ = _truncate_psd2(Q, tol)
    return xhat


def _result(om: np.ndarray, estimate: np.ndarray, b: np.ndarray, rank_excess: float,
            iterations: int, converged: bool) -> ReconstructionResult:
    fit = om @ vectorize(real_lift(estimate)) - b
    lift_residual = float(np.linalg.norm(fit) / max(np.linalg.norm(b), _EPS))
    return ReconstructionResult(
        estimate=canonical_rep(estimate),
        lift_residual=lift_residual,
        rank_excess=rank_excess,
        iterations=iterations,
        converged=converged,
    )


def reconstruct_linear(frame, b, tol: float = PSD_TOL) -> ReconstructionResult:
    """Exact route: least-squares lift solve, then rank-2 factorization.

    Needs the lifted operator injective (N >= M(M+1)/2 and full column
    rank); raises UnderdeterminedError otherwise (use reconstruct_altproj).
    ``tol`` bounds how negative an eigenvalue of the solved lift may be,
    relative to its norm, before the measurements are declared inconsistent
    (NotPSDError); with noisy data pass a tolerance matched to the noise.
    """
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
    sv = np.linalg.svd(om, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-10 * sv[0]:
        raise UnderdeterminedError("lifted operator is numerically rank deficient")
    v = np.linalg.lstsq(om, bvals, rcond=None)[0]
    Q = devectorize(v)
    xhat, discarded_abs, total_abs = _truncate_psd2(Q, tol)
    rank_excess = discarded_abs / max(total_abs, _EPS)
    return _result(om, xhat, bvals, rank_excess, 0, True)


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
    residual is returned with ``converged=False``.  Restart 0 runs alone and
    the others, if it fails, as one lockstep batch; the answer is the one
    restart-by-restart order gives.

    ``max_iter`` and ``restarts`` are integers >= 1, ``seed`` an integer
    >= 0 and ``tol`` a finite number >= 0.
    """
    max_iter = _check_int(max_iter, "max_iter", 1)
    restarts = _check_int(restarts, "restarts", 1)
    seed = _check_int(seed, "seed", 0)
    real = isinstance(tol, (int, float, np.integer, np.floating)) and not isinstance(tol, bool)
    if not (real and 0.0 <= tol < np.inf):
        raise ValidationError(f"tol must be a finite number of at least 0, got {tol!r}")
    bvals = _values(b)
    om = omega_matrix(frame)
    n, L = om.shape
    if bvals.shape[0] != n:
        raise ValidationError(f"frame has {n} vectors but got {bvals.shape[0]} measurements")
    m = (frame.matrix if hasattr(frame, "matrix") else np.asarray(frame)).shape[0]
    if np.linalg.norm(bvals) == 0.0:
        return _result(om, np.zeros(m, dtype=np.complex128), bvals, 0.0, 0, True)
    pinv = np.linalg.pinv(om)
    v0s = _restart_starts(seed, restarts, L)
    v, _, iters, _, converged = _kernels.altproj(om, pinv, bvals, v0s, max_iter, tol)
    Q2 = devectorize(v)
    xhat, *_ = _truncate_psd2(Q2, 1.0)  # Q2 is PSD rank<=2 by construction
    # diagnose the rank mass the last affine point carried beyond rank 2
    v_aff = v - pinv @ (om @ v - bvals)
    w_aff = np.linalg.eigh(devectorize(v_aff))[0]
    tail = np.sum(np.abs(w_aff[:-2])) if m >= 2 else 0.0
    rank_excess = float(tail / max(np.sum(np.abs(w_aff)), _EPS))
    return _result(om, xhat, bvals, rank_excess, int(iters), bool(converged))


def residual(frame, xhat, b) -> float:
    """Relative measurement misfit |measure(xhat) - b| / max(|b|, eps)."""
    bvals = _values(b)
    got = measure(frame, xhat).values
    if got.shape != bvals.shape:
        raise ValidationError("measurement length does not match the frame")
    return float(np.linalg.norm(got - bvals) / max(np.linalg.norm(bvals), _EPS))
