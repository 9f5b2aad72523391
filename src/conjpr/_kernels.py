"""Hot numeric kernels, in numpy.

Two kernels live here:

* a multistart Gauss-Newton search over the unit sphere of the lift kernel
  for a matrix that a signal pair realizes, vectorized over all restarts;
* the alternating projection between the measurement-consistent affine set
  and the cone of PSD rank-<=2 lifts, run restart by restart.
"""

from __future__ import annotations

import numpy as np

from .lift import _dim_from_lift, _half_indices, _symmetric
from .witness import ZERO_EIG_TOL

#: A restart hits when every residual eigenvalue of its unit K is at most
#: ZERO_EIG_TOL; Gauss-Newton runs on below this until f < _DONE_F.
_HIT_F = ZERO_EIG_TOL**2
_DONE_F = 1e-22
#: Every _STALL_EVERY iterations a restart above _HIT_F must have halved f.
_STALL_EVERY = 10


def residual_mask(w):
    """Eigenvalues (ascending, last axis) that no pair realizes.

    Re(xx*) - Re(yy*) has at most two eigenvalues of each sign, so all but the
    two most negative and the two largest positive ones are residual.
    """
    index = np.arange(w.shape[-1])
    return ~(((index < 2) & (w < 0.0)) | ((index >= w.shape[-1] - 2) & (w > 0.0)))


def pair_search(phi, starts, delta, H, max_iter):
    """Multistart Gauss-Newton on the unit sphere of the lift kernel, batched over restarts.

    ``H`` stacks a Frobenius-orthonormal kernel basis (k, m, m).  Restart r
    moves c from starts[r] / |starts[r]| to shrink the block U_res^T K(c) U_res
    of K(c) = sum c_j H_j on the eigenvectors of the ``residual_mask``
    eigenvalues; the block's derivatives u_i^T H_j u_l couple eigenvalues that
    meet at zero.  Steps are projected onto the tangent space at c and
    renormalized; only live restarts are computed, each on its own.

    f is the squared norm of the block.  Splitting the kept eigenvalues into a
    pair at |x|^2 + |y|^2 = 2 gives its squared measurement gap fmeas and lift
    distance d = 2 |kept|_2 / |kept|_1 >= 1: the caller's ``delta`` <= 1 needs
    no steering.  Returns (c, f, fmeas, d, iters) arrays over restarts.

    A restart stops when f < 1e-22, when an accepted step is below 1e-13,
    when its damping passes 1e10, or at a stall checkpoint: every 10
    iterations, a restart whose f is above the hit tolerance ZERO_EIG_TOL**2
    and has not halved since the last checkpoint sits at a nonzero minimum
    (Gauss-Newton on a zero residual converges superlinearly) and stops.
    Checkpoints fall on a restart's own iteration count, so its result does
    not depend on the batch.  With k = 1 the tangent space is empty and the
    starting evaluation is returned with iters = 0.
    """
    R, k = starts.shape

    def spectrum(c):
        w, U = np.linalg.eigh(np.einsum("rj,jab->rab", c, H))
        mask = residual_mask(w)
        return w, U, mask, np.sum(np.where(mask, w, 0.0) ** 2, axis=1)

    c = starts / np.linalg.norm(starts, axis=1)[:, None]
    w, U, mask, f = spectrum(c)
    lam = np.full(R, 1e-3)
    iters = np.zeros(R, dtype=np.int64)
    active = (f >= _DONE_F) & (k > 1)
    checkpoint = f.copy()
    for it in range(1, max_iter + 1):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        iters[live] += 1
        cl, Ul, ml = c[live], U[live], mask[live]
        # G[r, j] = U^T H_j U on the residual block, projected onto c's tangent space
        G = Ul.transpose(0, 2, 1)[:, None] @ H @ Ul[:, None]
        G *= ml[:, None, :, None] & ml[:, None, None, :]
        G -= np.einsum("rjab,rj->rab", G, cl)[:, None] * cl[:, :, None, None]
        J = G.reshape(live.size, k, -1)
        A = J @ J.transpose(0, 2, 1) + lam[live, None, None] * np.eye(k)
        g = np.einsum("rjaa,ra->rj", G, np.where(ml, w[live], 0.0))
        p = np.linalg.solve(A, -g[..., None])[..., 0]
        cn = cl + p
        cn /= np.linalg.norm(cn, axis=1)[:, None]
        wn, Un, maskn, fn = spectrum(cn)
        accept = fn < f[live]
        took = live[accept]
        c[took], w[took], U[took], mask[took], f[took] = (
            cn[accept], wn[accept], Un[accept], maskn[accept], fn[accept]
        )
        lam[took] = np.maximum(lam[took] / 3.0, 1e-12)
        lam[live[~accept]] *= 4.0
        step = np.linalg.norm(p, axis=1)
        done = np.where(accept, (fn < _DONE_F) | (step < 1e-13), lam[live] > 1e10)
        active[live[done]] = False
        if it % _STALL_EVERY == 0:
            active &= (f <= checkpoint / 2.0) | (f <= _HIT_F)
            checkpoint = f.copy()
    kept = np.where(mask, 0.0, w)
    scale = 2.0 / np.sum(np.abs(kept), axis=1)
    d = scale * np.linalg.norm(kept, axis=1)
    proj = np.einsum("rai,an->rin", U, phi)
    gaps = scale[:, None] * np.einsum("ri,rin->rn", kept, proj * proj)
    return c, f, np.sum(gaps * gaps, axis=1), d, iters


def rank2_psd_project(Q) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix of rank at most 2; exactly symmetric."""
    w, V = np.linalg.eigh(Q)
    factor = V[:, -2:] * np.sqrt(np.maximum(w[-2:], 0.0))
    return factor @ factor.T


def altproj(omega, pinv, b, v0s, max_iter, tol):
    """Alternating projection from each start in turn.

    Each iteration steps onto the affine set {v : omega v = b} through
    ``pinv`` and then onto the PSD rank-<=2 cone.  The first restart whose
    residual |omega v - b| reaches tol*|b| wins; otherwise the restart with
    the lowest final residual (the lowest index on ties) is returned with
    ``max_iter`` iterations.

    Returns (v, residual, iterations, restart_index, converged).
    """
    omega = np.asarray(omega, dtype=np.float64)
    pinv = np.asarray(pinv, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m = _dim_from_lift(omega.shape[1])
    index = _half_indices(m)
    floor = np.linalg.norm(b) or 1.0
    best = (np.zeros(omega.shape[1]), np.inf, 0, -1)
    for r, v in enumerate(np.asarray(v0s, dtype=np.float64)):
        res = np.inf
        for it in range(max_iter):
            v = v - pinv @ (omega @ v - b)
            v = rank2_psd_project(_symmetric(v, m, index))[index]
            res = np.linalg.norm(omega @ v - b)
            if res <= tol * floor:
                return v, res, it + 1, r, True
        if res < best[1]:
            best = (v, res, max_iter, r)
    return (*best, False)
