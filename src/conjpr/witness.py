"""Constructive counterexample pairs: signals x, y with Re(xx* - yy*) = H.

A lift Re(zz*) = aa^T + bb^T (z = a + ib) is positive semidefinite of rank
at most 2, so a realizable target H has at most two positive and at most
two negative eigenvalues; every such target with both signs present is
realized here.

In dimensions 2 and 3 the paper's closed forms are used.  In the eigenbasis
the problem reduces to a diagonal target diag(a, b, -c) with a, c > 0,
b >= 0, solved by putting a quarter turn between the first two coordinates
of both vectors so the (1,2) and (1,3) real cross terms vanish, then
matching moduli through

    |y1| / sqrt(a + |y1|^2) = |y2| / sqrt(b + |y2|^2) = |x3| / sqrt(c + |x3|^2),

with |x1| = sqrt(a + |y1|^2), |x2| = sqrt(b + |y2|^2), |y3| = sqrt(c + |x3|^2).
The free modulus |y1| is fixed at 1, which keeps conditioning mild over
several orders of magnitude of (a, b, c).  An orthogonal change of basis U
then transports diagonal pairs to general targets via
Re((Ux)(Ux)* - (Uy)(Uy)*) = U Re(xx* - yy*) U^T.

In dimension 4 and above the spectral split is used: with eigenpairs
(l_k, u_k) of H, x = sqrt(l_1) u_1 + i sqrt(l_2) u_2 over the positive ones
and y the same over the negative ones, so Re(xx*) - Re(yy*) = H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import real_lift
from .errors import DefiniteInputError, ValidationError
from .frames_io import RealFrame

_EPS = float(np.finfo(np.float64).eps)

#: Eigenvalues within this relative band of zero route to the degenerate case.
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


def _check_positive(**params: float) -> None:
    for name, val in params.items():
        if not np.isfinite(val) or val <= 0:
            raise ValidationError(f"{name} must be positive and finite, got {val}")


def witness_diag_m3(a: float, b: float, c: float) -> WitnessPair:
    """Pair in C^3 with Re(xx* - yy*) = diag(a, b, -c), all of a, b, c > 0."""
    _check_positive(a=a, b=b, c=c)
    # |y1| = 1; ratio^2 = r^2/(1-r^2) = 1/a for r = 1/sqrt(a+1)
    y2 = np.sqrt(b / a)
    x3 = np.sqrt(c / a)
    x1 = np.sqrt(a + 1.0)
    x2 = np.sqrt(b + y2 * y2)
    y3 = np.sqrt(c + x3 * x3)
    x = np.array([1j * x1, x2, x3], dtype=np.complex128)
    y = np.array([1j * 1.0, y2, y3], dtype=np.complex128)
    return _pair(x, y, np.diag([a, b, -c]))


def witness_diag_m3_degenerate(a: float, c: float) -> WitnessPair:
    """Pair in C^3 with Re(xx* - yy*) = diag(a, 0, -c), a, c > 0.

    Middle coordinate carries equal moduli and a quarter turn against both
    neighbours, so its row of the difference vanishes identically.
    """
    _check_positive(a=a, c=c)
    x3 = np.sqrt(c / a)
    x1 = np.sqrt(a + 1.0)
    y3 = np.sqrt(c + x3 * x3)
    # phases (pi, pi/2, 0) for both vectors
    x = np.array([-x1, 1j * 1.0, x3], dtype=np.complex128)
    y = np.array([-1.0, 1j * 1.0, y3], dtype=np.complex128)
    return _pair(x, y, np.diag([a, 0.0, -c]))


def witness_diag_m2(a: float, c: float) -> WitnessPair:
    """Pair in C^2 with Re(xx* - yy*) = diag(a, -c), a, c > 0."""
    _check_positive(a=a, c=c)
    x2 = np.sqrt(c / a)
    x1 = np.sqrt(a + 1.0)
    y2 = np.sqrt(c + x2 * x2)
    x = np.array([1j * x1, x2], dtype=np.complex128)
    y = np.array([1j * 1.0, y2], dtype=np.complex128)
    return _pair(x, y, np.diag([a, -c]))


def witness_general(H, tol: float = ZERO_EIG_TOL) -> WitnessPair:
    """Pair realizing a symmetric target with eigenvalues of both signs.

    Eigenvalues within tol * |H|_F of zero count as zero.  Raises
    DefiniteInputError when H has eigenvalues of only one sign (refused: the
    lift kernel of a spanning frame never holds such a matrix) or three or
    more of one sign (no pair realizes it).  Targets of size 2 and 3 use the closed forms, larger
    ones the spectral split.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValidationError(f"target must be square, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValidationError("target has non-finite entries")
    if not np.array_equal(H, H.T):
        raise ValidationError("target must be exactly symmetric")
    m = H.shape[0]
    scale = np.linalg.norm(H)
    if scale == 0.0:
        raise DefiniteInputError("zero target has no non-equivalent realization")
    w, U = np.linalg.eigh(H)
    w, U = w[::-1], U[:, ::-1]  # descending
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
    if m > 3:
        neg = slice(m - nneg, m)
        return _pair(_split(w[:npos], U[:, :npos]), _split(-w[neg], U[:, neg]), H)
    if m == 2:
        base = witness_diag_m2(w[0], -w[1])
    elif npos == 2:
        base = witness_diag_m3(w[0], w[1], -w[2])
    elif nneg == 2:
        # mirror: realize -H (two positive eigenvalues) and swap the pair
        mirrored = witness_general(-H, tol)
        return _pair(mirrored.y, mirrored.x, H)
    else:
        base = witness_diag_m3_degenerate(w[0], -w[2])
    return _pair(U @ base.x, U @ base.y, H)


def _split(lam: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """z = sqrt(l_1) u_1 + i sqrt(l_2) u_2 over one or two eigenpairs, so Re(zz*) = sum l_k u_k u_k^T."""
    return vecs @ (np.sqrt(lam) * _QUARTER_TURNS[: lam.shape[0]])


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
