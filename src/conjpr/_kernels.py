"""Hot numeric kernels, in numpy.

Three kernels live here:

* a multistart Gauss-Newton search over the unit sphere of the lift kernel
  for a matrix that a signal pair realizes, vectorized over all restarts.
  A restart that cannot hit stops at a first-order stationary point, where
  its Gauss-Newton step predicts f to fall by at most ``_FLAT_REL`` of it
  (MINPACK's predicted-reduction test; Moré, LNM 630, 1978), or else at a
  ``_STALL_EVERY`` checkpoint where f has not halved.  Below 4M-6 vectors
  (N <= 4M-7) ``certify`` first calls it on restart 0 alone for one stall
  window (``_STALL_EVERY`` iterations); a hit that stops inside the window
  is the stack's answer, and otherwise the stack of all restarts runs;
* the alternating projection between the measurement-consistent affine set
  and the cone of PSD rank-<=2 lifts, restart 0 alone and then the other
  restarts in lockstep as one stack.  A restart stops when it converges or
  when its residual r = |omega v - b| has stagnated: at the same
  ``_STALL_EVERY`` cadence as the search, a move of at most ``_STALL_REL`` * r
  in either direction since the last checkpoint.  The test is two-sided
  because neither r nor the affine distance |pinv (omega v - b)| is
  monotone: ``pinv`` projects in the half-vectorized Euclidean metric and
  ``rank2_psd_project`` in the Frobenius metric, so the textbook
  non-increase argument, which needs both steps nearest in one metric, does
  not apply, and r can rise for dozens of iterations before it converges;
* ``strict_report``'s alternating projection between the nullspace of the
  imaginary Gram matrix and the cone of rank-2 skew matrices, all restarts
  in lockstep as one stack.

Each alternating projection makes one stacked real symmetric eigh per
iteration (of the lift, or of S^T S for a skew S) and takes every other
product restart by restart, so a restart's iterates carry the same bits as
when it runs alone.
"""

from __future__ import annotations

import numpy as np

from .lift import _dim_from_lift, _half_indices, devectorize, vectorize
from .witness import ZERO_EIG_TOL

#: A restart hits when every residual eigenvalue of its unit K is at most
#: ZERO_EIG_TOL; Gauss-Newton runs on below this until f < _DONE_F.
_HIT_F = ZERO_EIG_TOL**2
_DONE_F = 1e-22
#: Every _STALL_EVERY iterations a restart above _HIT_F must have halved f,
#: and an alternating-projection restart above its goal must have moved its
#: residual by more than _STALL_REL of it.
_STALL_EVERY = 10
_STALL_REL = 1e-9
#: A search restart above _HIT_F stops once its Gauss-Newton step p predicts
#: a fall of f by at most _FLAT_REL * f: the residual is nearly orthogonal to
#: the Jacobian's range.
_FLAT_REL = 1e-6
_EPS = float(np.finfo(np.float64).eps)


def _row_dot(x, y):
    """Dot products over the last axis, one per leading index: np.dot's bits on each."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


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
    when its damping passes 1e10, or, while f is above the hit tolerance
    ZERO_EIG_TOL**2, at a nonzero minimum, which two tests detect:

    * first order: the iteration's damped step p = -(J J^T + lam I)^-1 g,
      with J the tangent Jacobian of the block r and g = J r, predicts f to
      fall by -g.p <= ``_FLAT_REL`` * f (1e-6); under small damping r is
      then nearly orthogonal to the range of J^T.  The restart takes that
      step and stops;
    * stall checkpoint: every 10 iterations, f has not halved since the
      last checkpoint (Gauss-Newton on a zero residual converges
      superlinearly).

    The first-order test compares the step's predicted fall with f, not
    |g| with |J|_F |r|: the latter also fires on a zero residual approached
    along J's small singular directions, as on a frame with rows scaled by
    1e3 and 1e-2.  Both tests read the restart's own state and iteration
    count, so its result does not depend on the batch.  With k = 1 the
    tangent space is empty and the starting evaluation is returned with
    iters = 0.
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
        # first-order stop: the step's model predicts f to fall by -g.p
        flat = (-_row_dot(g, p) <= _FLAT_REL * f[live]) & (f[live] > _HIT_F)
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
        done = np.where(accept, (fn < _DONE_F) | (step < 1e-13), lam[live] > 1e10) | flat
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
    """Nearest (Frobenius) PSD matrix of rank at most 2; exactly symmetric.

    ``Q`` may stack matrices on leading axes (..., m, m); each is projected
    with the same bits as on its own.
    """
    w, V = np.linalg.eigh(Q)
    factor = V[..., -2:] * np.sqrt(np.maximum(w[..., -2:], 0.0))[..., None, :]
    return factor @ np.swapaxes(factor, -1, -2)


def _lockstep(omega, pinv, b, V, max_iter, goal):
    """Alternating projection of a stack of starts V (restarts, L), in lockstep.

    Each iteration steps every live restart onto the affine set
    {v : omega v = b} through ``pinv``, then onto the PSD rank-<=2 cone with
    one stacked eigh.  A restart converges when its residual
    r = |omega v - b| reaches ``goal``; then every live restart above it stops
    (keeping its start, residual inf and 0 iterations), and the ones below it
    run on.  A restart stagnates when, at a stall checkpoint (every
    ``_STALL_EVERY`` iterations), r has moved by at most ``_STALL_REL`` * r
    since the last one (its start at the first); it stops there with its
    current v, residual and iteration count.  The test is two-sided because
    r may rise for a while before it converges.  Every live restart has run
    the same number of iterations, so checkpoints fall on a restart's own
    count, and products are taken restart by restart: a restart's iterates
    and its stop carry the same bits in any stack.

    Returns per-restart arrays (v, residual, iterations, converged).
    """
    out = V.copy()
    res = np.full(V.shape[0], np.inf)
    iters = np.zeros(V.shape[0], dtype=np.int64)
    converged = np.zeros(V.shape[0], dtype=bool)
    live, v = np.arange(V.shape[0]), out
    gap = (omega @ v[..., None])[..., 0] - b
    # a dot product per restart: the bits of np.linalg.norm on each row
    r = checkpoint = np.sqrt(_row_dot(gap, gap))
    for it in range(1, max_iter + 1):
        if live.size == 0:
            break
        v = v - (pinv @ gap[..., None])[..., 0]
        v = vectorize(rank2_psd_project(devectorize(v)))
        gap = (omega @ v[..., None])[..., 0] - b
        r = np.sqrt(_row_dot(gap, gap))
        hit = r <= goal
        stop = hit
        if it % _STALL_EVERY == 0:
            stop = hit | (np.abs(r - checkpoint) <= _STALL_REL * r)
            checkpoint = r
        if np.count_nonzero(stop):
            done = live[stop]
            out[done], res[done], iters[done], converged[done] = v[stop], r[stop], it, hit[stop]
            keep = ~stop
            if np.count_nonzero(hit):
                keep &= live < live[hit][0]
            live, v, gap, r, checkpoint = live[keep], v[keep], gap[keep], r[keep], checkpoint[keep]
    out[live], res[live], iters[live] = v, r, max_iter
    return out, res, iters, converged


def altproj(omega, pinv, b, v0s, max_iter, tol):
    """Alternating projection from the starts ``v0s`` (restarts, L).

    ``v0s`` is an array, or an object with an array's ``shape`` whose row
    slices are arrays (``frames_io._LazyStarts``); rows 1.. are sliced only
    when restart 0 fails.

    Each iteration steps onto the affine set {v : omega v = b} through
    ``pinv`` and then onto the PSD rank-<=2 cone.  The first restart whose
    residual |omega v - b| reaches tol*|b| wins; otherwise the restart with
    the lowest final residual (the lowest index on ties) is returned with its
    own iteration count: ``max_iter``, or fewer if its residual stagnated
    (``_lockstep``'s stall checkpoint).

    Restart 0 runs alone, since a clean problem converges there; if it
    fails, restarts 1.. run together as one ``_lockstep`` stack.  The answer
    is the one that running the restarts one by one in order gives.

    Returns (v, residual, iterations, restart_index, converged).
    """
    omega = np.asarray(omega, dtype=np.float64)
    pinv = np.asarray(pinv, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    goal = tol * (np.linalg.norm(b) or 1.0)

    def run(rows):
        return _lockstep(omega, pinv, b, np.asarray(v0s[rows], dtype=np.float64), max_iter, goal)

    runs = [run(slice(1))]
    if not runs[0][3][0] and v0s.shape[0] > 1:
        runs.append(run(slice(1, None)))
    V, res, iters, converged = (np.concatenate(parts) for parts in zip(*runs))
    hits = np.flatnonzero(converged)
    if hits.size:
        r = int(hits[0])
        return V[r], res[r], int(iters[r]), r, True
    r = int(np.argmin(res))
    return V[r], res[r], int(iters[r]), r, False


def _skew_from_pairs(s, m):
    """Skew matrices (..., m, m) whose pairs j < k (``_half_indices(m)`` from m on) are s."""
    rows, cols = _half_indices(m)
    S = np.zeros(s.shape[:-1] + (m, m))
    S[..., rows[m:], cols[m:]] = s
    S[..., cols[m:], rows[m:]] = -s
    return S


def _pairs_from_skew(S):
    m = S.shape[-1]
    rows, cols = _half_indices(m)
    return S[..., rows[m:], cols[m:]]


def _factor_rank2_skew(S):
    """Top rotation block of skew matrices (..., m, m): returns (a, b, S2).

    S2 = b a^T - a b^T is the nearest rank-2 skew matrix, so y = a + i b has
    Im(y_j conj(y_k)) equal to the entries of S2.  One real symmetric eigh of
    S^T S = -S^2 gives a unit u1 in the top eigenspace, whose top rotation
    plane is spanned by u1 and w = S^T u1, with |w| = sigma_1.  Taking the
    plane from u1 alone keeps S2 nearest when sigma_1 = sigma_2, where that
    eigenspace is 4-dimensional.  Leading axes stack matrices; each is
    factored with the same bits as on its own.
    """
    _, V = np.linalg.eigh(np.swapaxes(S, -1, -2) @ S)
    u1 = V[..., -1]
    w = (u1[..., None, :] @ S)[..., 0, :]
    root = np.sqrt(np.sqrt(_row_dot(w, w)))[..., None]
    a, b = w / root, u1 * root
    return a, b, b[..., :, None] * a[..., None, :] - a[..., :, None] * b[..., None, :]


def skew_altproj(basis, starts, max_iter, wins):
    """Alternating projection onto rank-2 skew matrices, all restarts in lockstep.

    ``basis`` (k, m(m-1)/2) has orthonormal rows; restart r starts at
    basis^T starts[r] (starts is (restarts, k)), normalized, and is skipped if
    that is zero.  Each iteration factors every live restart's skew matrix S
    into its nearest rank-2 skew matrix S2 = b a^T - a b^T, with one stacked
    real eigh of S^T S (``_factor_rank2_skew``), then projects S2 onto the
    row space of ``basis`` and normalizes.

    A restart stops when S is realized (|S - S2| <= 1e-11 |S|), when its
    projection collapses (norm <= 1e-12), or after ``max_iter``
    factorizations.  A realized restart wins when ``wins(a, b)`` holds; then
    every live restart above it stops, and the ones below it run on, so the
    lowest winning index is the one that running the restarts one by one in
    order finds first.

    Returns per-restart arrays (a, b, iterations, won) holding each restart's
    last factors.
    """
    R = starts.shape[0]
    m = _dim_from_lift(basis.shape[1]) + 1  # m(m-1)/2 pairs
    a, b = np.zeros((R, m)), np.zeros((R, m))
    iters = np.zeros(R, dtype=np.int64)
    won = np.zeros(R, dtype=bool)
    live = np.arange(R)
    s = (basis.T @ starts[..., None])[..., 0]
    norm = np.sqrt(_row_dot(s, s))
    keep = norm > _EPS
    for it in range(1, max_iter + 1):
        live, s = live[keep], s[keep] / norm[keep, None]
        if live.size == 0:
            break
        S = _skew_from_pairs(s, m)
        al, bl, S2 = _factor_rank2_skew(S)
        a[live], b[live], iters[live] = al, bl, it
        D, F = (S - S2).reshape(live.size, -1), S.reshape(live.size, -1)
        realized = np.sqrt(_row_dot(D, D)) <= 1e-11 * np.sqrt(_row_dot(F, F))
        s = (basis.T @ (basis @ _pairs_from_skew(S2)[..., None]))[..., 0]
        norm = np.sqrt(_row_dot(s, s))
        keep = ~realized & (norm > 1e-12)
        for r in np.flatnonzero(realized):
            if wins(al[r], bl[r]):
                won[live[r]] = True
                keep &= live < live[r]
                break
    return a, b, iters, won
