"""Constructive counterexample pairs: signals x, y with Re(xx* - yy*) = H.

A lift Re(zz*) = aa^T + bb^T (z = a + ib) is positive semidefinite of rank
at most 2, so a realizable target H has at most two positive and at most
two negative eigenvalues.  Conversely, every symmetric target with both
signs present and at most two eigenvalues of each sign is Re(xx*) - Re(yy*)
for some pair, and ``witness_general`` builds that pair at every dimension.

The construction is the spectral split: with eigenpairs (l_k, u_k) of H,
x = sqrt(l_1) u_1 + i sqrt(l_2) u_2 over the positive ones and y the same
over the negative ones, so Re(xx*) - Re(yy*) = H and
|x|^2 + |y|^2 = sum |l_k|, whatever the spread of the eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import real_lift
from .errors import DefiniteInputError, ValidationError
from .frames_io import RealFrame, _check_tol

_EPS = float(np.finfo(np.float64).eps)

#: Eigenvalues within this fraction of the target's Frobenius norm count as zero.
ZERO_EIG_TOL = 1e-10

_QUARTER_TURNS = np.array([1.0, 1.0j])


@dataclass(frozen=True)
class WitnessPair:
    """Non-equivalent pair (x, y) realizing a symmetric target matrix.

    ``residual`` is |Re(xx* - yy*) - target|_F / max(|target|_F, eps); a
    fresh synthesis keeps it below 1e-10.
    """

    x: np.ndarray
    y: np.ndarray
    target: np.ndarray
    residual: float


def _pair(x: np.ndarray, y: np.ndarray, target: np.ndarray) -> WitnessPair:
    achieved = real_lift(x) - real_lift(y)
    res = float(
        np.linalg.norm(achieved - target) / max(np.linalg.norm(target), _EPS)
    )
    return WitnessPair(x, y, np.asarray(target, dtype=np.float64), res)


def witness_general(H, tol: float = ZERO_EIG_TOL) -> WitnessPair:
    """Pair realizing a symmetric target with eigenvalues of both signs.

    Eigenvalues within tol * |H|_F of zero count as zero.  Raises
    DefiniteInputError when H has eigenvalues of only one sign (refused: the
    lift kernel of a spanning frame never holds such a matrix) or three or
    more of one sign (no pair realizes it).  The pair is the spectral split
    at every size, with the zeroed eigenvalues left out.
    """
    tol = _check_tol(tol, positive=False)
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValidationError(f"target must be square, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValidationError("target has non-finite entries")
    if not np.array_equal(H, H.T):
        raise ValidationError("target must be exactly symmetric")
    scale = np.linalg.norm(H)
    if scale == 0.0:
        raise DefiniteInputError("zero target has no non-equivalent realization")
    w, U = np.linalg.eigh(H)
    zero = tol * scale
    npos = int(np.sum(w > zero))
    nneg = int(np.sum(w < -zero))
    if npos == 0 or nneg == 0:
        raise DefiniteInputError(
            "target is positive or negative semidefinite up to tolerance"
        )
    if npos > 2 or nneg > 2:
        raise DefiniteInputError(
            f"target has inertia ({npos}, {nneg}): not a difference of two "
            "rank-<=2 PSD matrices"
        )
    return _spectral_pair(np.where(np.abs(w) > zero, w, 0.0), U, H)


def _spectral_pair(w: np.ndarray, U: np.ndarray, target) -> WitnessPair:
    """The spectral split: x = sqrt(l_1) u_1 + i sqrt(l_2) u_2 over the positive
    eigenpairs (w, U), y the same over the negative ones (at most two each)."""
    x, y = (
        U[:, sel] @ (np.sqrt(np.abs(w[sel])) * _QUARTER_TURNS[: np.count_nonzero(sel)])
        for sel in (w > 0.0, w < 0.0)
    )
    return _pair(x, y, target)


def cone_frame(n: int, angles=None) -> RealFrame:
    """Frame of vectors (cos t, sin t, 1) on the cone x1^2 + x2^2 = x3^2.

    Every column annihilates the quadratic form diag(1, 1, -1), so the pair
    realizing that target has identical measurements under this frame no
    matter how many vectors are taken; with n >= 5 the frame nevertheless
    has the complement property.  Default angles are equispaced, t_k = 2 pi k / n.
    """
    if n < 3:
        raise ValidationError("cone frame needs at least 3 vectors")
    if angles is None:
        t = 2.0 * np.pi * np.arange(n) / n
    else:
        t = np.asarray(angles, dtype=np.float64)
        if t.shape != (n,):
            raise ValidationError(f"expected {n} angles, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValidationError("angles must be finite")
        if np.unique(np.mod(t, 2.0 * np.pi)).size != n:
            raise ValidationError("angles must be distinct modulo 2 pi")
    mat = np.vstack([np.cos(t), np.sin(t), np.ones(n)])
    return RealFrame(mat)
