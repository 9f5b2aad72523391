"""Hot numeric kernels, in numpy.

Two kernels live here:

* a multistart Levenberg-Marquardt search for measurement-equal,
  class-distinct signal pairs, vectorized over all restarts;
* the alternating projection between the measurement-consistent affine set
  and the cone of PSD rank-<=2 lifts, run restart by restart.
"""

from __future__ import annotations

import numpy as np

from .lift import _dim_from_lift, _half_indices, _symmetric


def pair_search(phi, starts, delta, wpen, max_iter):
    """Multistart pair search, batched over restarts.

    Each restart runs damped Gauss-Newton on the residuals
    r_n = |<x,phi_n>|^2 - |<y,phi_n>|^2 plus the penalty
    wpen*max(0, delta-d)^2 on the lift distance d of (x, y), retracted to the
    joint sphere |x|^2 + |y|^2 = 2 after every step.

    Returns (zs, f, fmeas, d, iters) arrays over restarts.
    """
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    starts = np.ascontiguousarray(starts, dtype=np.float64)
    m, n = phi.shape
    R, dim = starts.shape
    sw = np.sqrt(wpen)
    diag = np.arange(dim)
    upper, lower = np.triu_indices(dim, 1)
    signs = np.array([2.0, 2.0, -2.0, -2.0])[:, None]

    def objective(z):
        parts = z.reshape(R, 4, m)
        proj = parts @ phi  # (R, 4, n)
        r = (
            proj[:, 0] ** 2
            + proj[:, 1] ** 2
            - proj[:, 2] ** 2
            - proj[:, 3] ** 2
        )
        fmeas = np.sum(r * r, axis=1)
        D = (
            np.einsum("ri,rj->rij", parts[:, 0], parts[:, 0])
            + np.einsum("ri,rj->rij", parts[:, 1], parts[:, 1])
            - np.einsum("ri,rj->rij", parts[:, 2], parts[:, 2])
            - np.einsum("ri,rj->rij", parts[:, 3], parts[:, 3])
        )
        d = np.sqrt(np.einsum("rij,rij->r", D, D))
        h = np.maximum(delta - d, 0.0)
        return fmeas + wpen * h * h, fmeas, d, r, D, proj

    z = starts * (np.sqrt(2.0) / np.linalg.norm(starts, axis=1))[:, None]
    lam = np.full(R, 1e-3)
    # r, D and proj are kept for the current z, so each iteration evaluates
    # the objective once, at the trial point.
    f, fmeas, d, r, D, proj = objective(z)
    active = np.ones(R, dtype=bool)
    iters = np.zeros(R, dtype=np.int64)
    # Jacobian and normal matrix with the restart axis last, so every
    # elementwise step and reduction runs over contiguous restarts.
    J = np.empty((n + 1, dim, R))
    A = np.empty((dim, dim, R))
    for _ in range(max_iter):
        if not active.any():
            break
        iters[active] += 1
        # d r_k / d z_part = +-2 (phi_k . part) phi_k
        signed = signs * proj.transpose(2, 1, 0)  # (n, 4, R)
        np.multiply(
            signed[:, :, None, :], phi.T[:, None, :, None],
            out=J[:n].reshape(n, 4, m, R),
        )
        mask = d < delta
        rho_bar = np.where(mask, sw * (delta - d), 0.0)
        dd = np.maximum(d, 1e-12)
        parts = z.reshape(R, 4, m)
        for part, sign in enumerate((-1.0, -1.0, 1.0, 1.0)):
            Dpart = np.einsum("rij,rj->ri", D, parts[:, part])
            J[n, part * m : (part + 1) * m] = np.where(
                mask[:, None], sign * sw * 2.0 * Dpart / dd[:, None], 0.0
            ).T
        rho = np.concatenate([r, rho_bar[:, None]], axis=1).T  # (n + 1, R)
        # J^T J by blocks on and above the diagonal, then mirrored
        for part in range(4):
            block = slice(part * m, (part + 1) * m)
            np.einsum(
                "kir,kjr->ijr", J[:, block], J[:, part * m :],
                out=A[block, part * m :],
            )
        A[lower, upper] = A[upper, lower]
        A[diag, diag] += lam
        g = np.einsum("kir,kr->ri", J, rho)
        p = np.linalg.solve(A.transpose(2, 0, 1), -g[..., None])[..., 0]
        zn = z + p
        zn *= (np.sqrt(2.0) / np.linalg.norm(zn, axis=1))[:, None]
        fn, fmeasn, dn, rn, Dn, projn = objective(zn)
        accept = active & (fn < f)
        z[accept] = zn[accept]
        f[accept] = fn[accept]
        fmeas[accept] = fmeasn[accept]
        d[accept] = dn[accept]
        r[accept] = rn[accept]
        D[accept] = Dn[accept]
        proj[accept] = projn[accept]
        lam[accept] = np.maximum(lam[accept] / 3.0, 1e-12)
        reject = active & ~accept
        lam[reject] *= 4.0
        step = np.linalg.norm(p, axis=1)
        active = active & ~(
            (accept & ((f < 1e-16) | (step < 1e-13))) | (reject & (lam > 1e10))
        )
    return z, f, fmeas, d, iters


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
