"""Retrievability certificates, falsification, and strictness analysis.

Everything is decided in the real lift: a pair (x, y) has equal
measurements exactly when Re(xx*) - Re(yy*) lies in the kernel of the
lifted operator Omega.  Such a difference has at most two eigenvalues of
each sign, and every symmetric matrix with both signs and at most two of
each is realized by a pair (see ``witness``).  So a frame is retrievable
exactly when ker Omega holds no nonzero matrix of inertia at most (2, 2).

One ladder, built on Omega and its SVD computed once per call, serves
``certify``, ``falsify_exact`` and ``falsify_search`` (which returns
``certify``'s pair).  Where the kernel decides, one eigendecomposition of
its first matrix answers every step:

* kernel dimension 0: retrievable at every M (Det2/Det3 name the square
  M = 2, 3 cases, KernelInjective the rest);
* M <= 3 with a kernel: not retrievable; a spanning frame forces every
  kernel matrix to be indefinite, hence realizable, and the spectral split
  builds the pair (KernelWitness).  At M = 2 the columns lie on the two
  isotropic lines of that matrix, which its eigenvectors tell apart, and
  the complement-property violating split is read off them;
* M >= 4 with a one-dimensional kernel: the inertia of its matrix decides.
  Three eigenvalues of one sign clear of round-off certify retrievability
  (KernelInertia); at most two of each sign give an exact pair by the
  spectral split (KernelWitness);
* otherwise (kernel dimension >= 2 at M >= 4, a kernel eigenvalue too close
  to zero to sign, or a kernel matrix that round-off leaves one-signed) the
  question stays open: Undecided, optionally refined by a randomized search
  on the unit sphere of the same kernel for a matrix that a pair realizes,
  which then gives the pair (SearchWitness).  Below 4M-6 vectors, where a
  generic frame has a pair, the search's restart 0 runs alone first.

Too few vectors (N <= 2M-2) never retrieve; a complement-property violating
split is attached.  Undecided is an honest verdict: search failure is never
converted into a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import is_phased_real
from .errors import (
    IndefinitenessViolationError,
    NoKernelError,
    ValidationError,
    WrongDimensionError,
)
from .frames_io import ComplexFrame, RealFrame, _check_int, _restart_starts, rng_stream
from .lift import lift_dim, devectorize, numeric_rank, omega_matrix
# witness_general is no longer called here (the ladder splits its own
# eigendecomposition) but stays a conjpr.certify attribute, which
# perfbench/tracing.py wraps.
from .witness import ZERO_EIG_TOL, WitnessPair, _spectral_pair, witness_general  # noqa: F401
from . import _kernels

_EPS = float(np.finfo(np.float64).eps)

CERT_VERDICTS = ("CertifiedCPR", "NotCPR", "Undecided")
CERT_METHODS = (
    "Det2",
    "Det3",
    "KernelInjective",
    "KernelInertia",
    "ComplementPropertyM2",  # no longer produced; older certificate files load
    "TooFewVectors",
    "KernelWitness",
    "SearchWitness",
    "MonteCarlo",
)
STRICT_VERDICTS = ("StrictlyCPR", "ComplexPRCandidate", "NotCPR", "Undecided")

#: Singular values below this fraction of sigma_max count as zero.
KERNEL_TOL = 1e-10

#: A kernel-matrix eigenvalue certifies as a third one of its sign only
#: beyond this fraction of the matrix's Frobenius norm.  Eigenvalues between
#: ZERO_EIG_TOL and this are too close to zero to sign, and leave the
#: question open.
INERTIA_MARGIN = 1e-6

#: Bound on the relative residual of a kernel witness.
_WITNESS_TOL = 1e-9

#: Minimum lift-space separation a searched pair must exhibit.
SEARCH_DISTANCE = 0.1
_SEARCH_MAX_ITER = 100
#: Bound on a hit's squared measurement gap over the unit columns (column k's
#: gap divided by |phi_k|^2, which it scales as); its spectral residual must be
#: at most ``_kernels._HIT_F`` = ZERO_EIG_TOL**2, and its kept eigenvalues
#: must have both signs beyond ZERO_EIG_TOL.
_SEARCH_GAP_TOL = 1e-12

_STRICT_SEED = 0x5C1C7  # fixed: strict_report is deterministic
#: strict_report's bound on a witness's relative conjugation gap, and its
#: restarts when the imaginary-Gram nullspace is not a line.
_STRICT_TOL = 1e-9
_STRICT_BUDGET = 16


@dataclass(frozen=True)
class Certificate:
    """Retrievability verdict plus the evidence that produced it."""

    verdict: str
    method: str
    det_value: float | None = None
    kernel_dim: int | None = None
    witness: WitnessPair | None = None
    trials: dict | None = None
    violating_subset: tuple | None = None


@dataclass(frozen=True)
class StrictReport:
    """Conjugation-blindness analysis of a (possibly complex) frame.

    StrictlyCPR means: *if* the frame retrieves conjugate classes, it cannot
    retrieve complex phases, witnessed by ``witness_y`` (a non-phased-real
    signal whose measurements cannot be told from its conjugate's).  The
    report never asserts retrievability itself; combine with certify.
    """

    verdict: str
    witness_y: np.ndarray | None = None
    im_gram_nullity: int = 0


def _require_real_frame(frame, who: str) -> RealFrame:
    if isinstance(frame, ComplexFrame):
        raise ValidationError(
            f"{who} requires a real frame; use strict_report for complex frames"
        )
    if not isinstance(frame, RealFrame):
        frame = RealFrame(np.asarray(frame, dtype=np.float64))
    return frame


def _spans(mat: np.ndarray, cols, m: int) -> bool:
    if len(cols) < m:
        return False
    return numeric_rank(mat[:, cols]) == m


def complement_property(frame, cap: int = 24):
    """Exhaustively check that one side of every index split spans.

    Returns (True, None) or (False, violating_indices).  A real matrix has
    the same rank over R and C, so one walk answers for both fields.
    Refuses N > cap outright: the check walks all 2^(N-1) splits.
    """
    mat = frame.matrix if hasattr(frame, "matrix") else np.asarray(frame)
    m, n = mat.shape
    if n > cap:
        raise ValidationError(
            f"complement property check over {n} vectors needs 2^{n - 1} splits; "
            f"refusing beyond cap={cap}"
        )
    # Each unordered split once: enumerate subsets containing index 0.
    rest = list(range(1, n))
    for bits in range(1 << (n - 1)):
        subset = [0] + [rest[j] for j in range(n - 1) if bits >> j & 1]
        if _spans(mat, subset, m):
            continue
        complement = [k for k in range(n) if k not in subset]
        if not _spans(mat, complement, m):
            return False, tuple(subset)
    return True, None


def _m2_violating_subset(mat: np.ndarray, U: np.ndarray) -> tuple | None:
    """The split ``complement_property`` returns first, for an M = 2 frame that fails it.

    Such a frame has its nonzero columns on the two isotropic lines of its
    kernel matrix, whose eigenvectors are the columns of ``U``; the sign of
    (u_1 . phi)(u_2 . phi) tells the lines apart and is 0 on a zero column.
    The walk stops at the subset containing 0 with the smallest bit pattern:
    the line of column 0 when that column is nonzero, else 0 with the line
    whose largest index is smaller.  O(N); None when ``numeric_rank`` does not
    confirm the split.
    """
    side = np.sign((U[:, 0] @ mat) * (U[:, 1] @ mat))
    if side[0]:
        subset = side == side[0]
    else:
        lines = [side == s for s in (-1.0, 1.0)]
        subset = min(lines, key=lambda line: np.flatnonzero(line).max(initial=-1))
        subset[0] = True
    if numeric_rank(mat[:, subset]) == 2 or numeric_rank(mat[:, ~subset]) == 2:
        return None
    return tuple(int(k) for k in np.flatnonzero(subset))


def _nullspace(mat: np.ndarray, tol: float, floor: float = 0.0) -> list[np.ndarray]:
    # Rows of Vh whose singular value is <= tol * max(sigma_max, floor);
    # the floor lets an all-round-off matrix count as entirely null.
    _, s, vh = np.linalg.svd(mat)
    cols = mat.shape[1]
    scale = max(s[0] if s.size else 0.0, floor)
    return [vh[i] for i in range(cols) if i >= s.size or s[i] <= tol * scale]


def kernel_basis(omega, tol: float = KERNEL_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical nullspace of the lifted operator."""
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim != 2:
        raise ValidationError("omega must be a matrix")
    return _nullspace(omega, tol)


def _det_certifies(om: np.ndarray, det: float) -> bool:
    # Hadamard bound: |det| of a matrix is at most the product of row norms.
    bound = float(np.prod(np.linalg.norm(om, axis=1)))
    return abs(det) > 1e-10 * bound


def _decide(frame: RealFrame) -> tuple[Certificate, list]:
    """The exact steps of the ladder: Undecided/MonteCarlo when they do not decide.

    Builds Omega and its SVD once and returns the kernel basis for the
    search.  One ``eigh`` of the first kernel matrix H answers every exact
    step with a kernel (M <= 3, or M >= 4 with a one-dimensional kernel):
    three eigenvalues of one sign beyond INERTIA_MARGIN |H|_F certify at
    M >= 4; otherwise the eigenvalues within ZERO_EIG_TOL |H|_F are zeroed and
    the rest, when they have both signs and at most two of each, give the
    pair by the spectral split.  At M <= 3 a spanning frame's H has both
    signs, so when zeroing leaves one sign (the e^2/4 eigenvalue of
    [[1, 1], [0, e]]) the unthresholded eigenvalues are split; at M >= 4 the
    signs decide whether a pair exists, and round-off does not sign one.  At
    M = 2 the same eigenvectors give the violating split.
    """
    m, n = frame.m, frame.n
    om = omega_matrix(frame)
    det_val = float(np.linalg.det(om)) if n == lift_dim(m) else None
    basis = kernel_basis(om)
    kdim = len(basis)

    def decided(*args, **kwargs):
        return Certificate(*args, det_value=det_val, kernel_dim=kdim, **kwargs), basis

    if kdim == 0:
        square = m in (2, 3) and det_val is not None and _det_certifies(om, det_val)
        return decided("CertifiedCPR", f"Det{m}" if square else "KernelInjective")
    if m >= 4 and kdim >= 2:
        return decided("Undecided", "MonteCarlo")
    H = devectorize(basis[0])
    w, U = np.linalg.eigh(H)
    scale = np.linalg.norm(H)
    margin = INERTIA_MARGIN * scale
    if m >= 4 and max(np.sum(w > margin), np.sum(w < -margin)) >= 3:
        return decided("CertifiedCPR", "KernelInertia")
    kept = np.where(np.abs(w) > ZERO_EIG_TOL * scale, w, 0.0)
    if m <= 3 and not kept.min() < 0.0 < kept.max():
        kept = w
    if not (0 < np.sum(kept > 0.0) <= 2 and 0 < np.sum(kept < 0.0) <= 2):
        return decided("Undecided", "MonteCarlo")
    pair = _spectral_pair(kept, U, H)
    if pair.residual > _WITNESS_TOL:
        raise IndefinitenessViolationError(
            f"witness synthesis residual {pair.residual:.2e} exceeds tol"
        )
    subset = _m2_violating_subset(frame.matrix, U) if m == 2 else None
    return decided("NotCPR", "KernelWitness", witness=pair, violating_subset=subset)


def falsify_exact(frame) -> WitnessPair:
    """Counterexample pair realizing a kernel matrix of the lifted operator.

    Exact wherever the kernel alone decides: at M in {2, 3} a spanning frame
    forces every kernel matrix to be indefinite, hence realizable, and at any
    M a one-dimensional kernel is realizable when its matrix has at most two
    eigenvalues of each sign.  The kernel vector is unit, so the pair's class
    distance equals |Q_v|_F >= 1.  Raises NoKernelError when the kernel
    proves no pair exists and WrongDimensionError when it leaves the
    question open (M >= 4 with kernel dimension >= 2).
    """
    frame = _require_real_frame(frame, "falsify_exact")
    cert, _ = _decide(frame)
    if cert.witness is not None:
        return cert.witness
    if cert.method == "KernelInertia":
        raise NoKernelError(
            "the lift kernel is spanned by a matrix with three eigenvalues of one "
            "sign; no pair realizes it"
        )
    if cert.verdict == "CertifiedCPR":
        raise NoKernelError("lifted operator is injective; no kernel to realize")
    raise WrongDimensionError(
        "exact falsification needs M in {2, 3} or a one-dimensional kernel whose "
        f"matrix the kernel test can sign; this frame has M={frame.m} and kernel "
        f"dimension {cert.kernel_dim}"
    )


def _kernel_matrices(basis: list, m: int) -> np.ndarray:
    """Frobenius-orthonormal kernel matrices (k, m, m), by QR weighing off-diagonals sqrt(2)."""
    weight = np.full(lift_dim(m), np.sqrt(2.0))
    weight[:m] = 1.0
    q, _ = np.linalg.qr(weight[:, None] * np.array(basis).T)
    return np.stack([devectorize(v) for v in (q / weight[:, None]).T])


def _search_with_stats(frame, basis: list, budget: int, seed: int):
    """Kernel-sphere search: the lowest-index hit's pair, or None, and the trial statistics.

    Below 4M-6 vectors (N <= 4M-7), where a generic frame has a pair, restart
    0 first runs alone for one stall window (``_kernels._STALL_EVERY``
    iterations).  A hit that stopped inside the window is finished and has
    the lowest index, so it is the stack's answer; otherwise all ``budget``
    restarts run as one stack, as they always do at N >= 4M-6.  The
    statistics come from the restarts that ran: on a probe hit,
    ``best_gap`` and ``best_distance`` are restart 0's, and ``restarts``
    reports the budget either way.  Gaps are taken over the unit columns
    phi_k / |phi_k| (zero columns stay zero), and so is ``best_gap``.
    """
    H = _kernel_matrices(basis, frame.m)
    stats = {"restarts": budget, "seed": seed}
    # column k's gap scales as |phi_k|^2: on unit columns one bound holds for
    # each column, whatever the norms of the others
    norms = np.linalg.norm(frame.matrix, axis=0)
    unit = frame.matrix / np.where(norms > 0.0, norms, 1.0)
    if frame.n <= 4 * frame.m - 7:
        probe = _kernels.pair_search(
            unit, _restart_starts(seed, 1, len(H)), SEARCH_DISTANCE, H,
            _kernels._STALL_EVERY,
        )
        if probe[4][0] < _kernels._STALL_EVERY:
            pair = _search_pair(probe, H, stats)
            if pair is not None:
                return pair, stats
    run = _kernels.pair_search(
        unit, _restart_starts(seed, budget, len(H)), SEARCH_DISTANCE, H,
        _SEARCH_MAX_ITER,
    )
    return _search_pair(run, H, stats), stats


def _search_pair(run, H: np.ndarray, stats: dict) -> WitnessPair | None:
    """The pair of a ``pair_search`` run's lowest-index hit, or None; fills ``stats``."""
    cs, fs, fmeas, ds, _ = run
    success = (fs <= _kernels._HIT_F) & (fmeas <= _SEARCH_GAP_TOL) & (ds >= SEARCH_DISTANCE)
    best = int(np.argmin(fs))
    stats["best_gap"] = float(np.sqrt(fmeas[best]))
    stats["best_distance"] = float(ds[best])
    for r in np.flatnonzero(success):
        # zero the residual eigenvalues and split the rest, at |x|^2 + |y|^2 = 2
        w, U = np.linalg.eigh(np.tensordot(cs[r], H, 1))
        kept = np.where(_kernels.residual_mask(w), 0.0, w)
        # one sign alone would be Re(xx*) with every measurement of x zero,
        # which no spanning frame has: only round-off put it in the kernel
        if kept.min() < -ZERO_EIG_TOL and kept.max() > ZERO_EIG_TOL:
            kept *= 2.0 / np.sum(np.abs(kept))
            target = (U * kept) @ U.T
            return _spectral_pair(kept, U, (target + target.T) / 2.0)
    return None


def falsify_search(frame, budget: int = 10_000, seed: int = 0) -> WitnessPair | None:
    """Measurement-equal distinct pair from ``certify``'s ladder, or None.

    The pair is the one ``certify(frame, budget=budget, seed=seed)``
    attaches: exact wherever the lift kernel decides, found by the
    kernel-sphere search (``budget`` restarts, restart i drawing its start
    from the (seed, i) stream) where the question is open.  None means no
    pair exists (the kernel proves it) or none was found; absence of a pair
    from a search is never a certificate.  budget >= 1 and seed >= 0 are
    integers.
    """
    frame = _require_real_frame(frame, "falsify_search")
    budget = _check_int(budget, "budget", 1)
    return _certify(frame, budget, _check_int(seed, "seed", 0)).witness


def certify(frame, *, budget: int = 0, seed: int = 0) -> Certificate:
    """Decide conjugate retrievability of a real frame.

    ``budget`` and ``seed`` are integers >= 0; a budget above 0 lets the open
    M >= 4 cases run the kernel-sphere search.  A found pair upgrades the
    verdict to NotCPR (SearchWitness), an exhausted budget reports Undecided
    with the trial statistics.
    """
    frame = _require_real_frame(frame, "certify")
    budget = _check_int(budget, "budget", 0)
    return _certify(frame, budget, _check_int(seed, "seed", 0))


def _certify(frame: RealFrame, budget: int, seed: int) -> Certificate:
    """The ladder behind ``certify`` and ``falsify_search``, on checked arguments."""
    m, n = frame.m, frame.n
    cert, basis = _decide(frame)

    if m >= 2 and n <= 2 * m - 2:
        # Both halves of this split have < m vectors, so neither spans.
        pair, trials = cert.witness, None
        if m >= 4 and budget > 0:
            pair, trials = _search_with_stats(frame, basis, budget, seed)
        return replace(
            cert,
            verdict="NotCPR",
            method="TooFewVectors",
            witness=pair,
            trials=trials,
            violating_subset=tuple(range((n + 1) // 2)),
        )
    if cert.verdict != "Undecided":
        return cert
    if budget == 0:
        return replace(cert, trials={"restarts": 0, "seed": seed})
    pair, trials = _search_with_stats(frame, basis, budget, seed)
    if pair is not None:
        return replace(
            cert, verdict="NotCPR", method="SearchWitness", witness=pair, trials=trials
        )
    return replace(cert, trials=trials)


# ---------------------------------------------------------------------------
# strict conjugate retrievability (complex frames)
# ---------------------------------------------------------------------------


def im_gram(frame) -> np.ndarray:
    """N x M(M-1)/2 matrix; row n lists Im(conj(phi_jn) phi_kn) over j < k.

    A signal y has conjugation-blind measurements under the frame exactly
    when the pair vector s_jk = Im(y_j conj(y_k)) lies in this matrix's
    nullspace.
    """
    mat = frame.matrix if hasattr(frame, "matrix") else np.asarray(frame)
    iu, ju = np.triu_indices(mat.shape[0], k=1)
    return np.imag(mat[iu].conj() * mat[ju]).T


def _skew_from_pairs(s: np.ndarray, m: int) -> np.ndarray:
    S = np.zeros((m, m))
    iu, ju = np.triu_indices(m, k=1)
    S[iu, ju] = s
    S[ju, iu] = -s
    return S


def _pairs_from_skew(S: np.ndarray) -> np.ndarray:
    iu, ju = np.triu_indices(S.shape[0], k=1)
    return S[iu, ju]


def _factor_rank2_skew(S: np.ndarray):
    """Top rotation block of a skew matrix: returns (a, b, S2).

    S2 = b a^T - a b^T is the nearest rank-2 skew matrix, so y = a + i b has
    Im(y_j conj(y_k)) equal to the entries of S2.
    """
    w, Z = np.linalg.eig(S)
    k = int(np.argmax(w.imag))
    z = Z[:, k]
    p, q = z.real, z.imag
    u1 = p / np.linalg.norm(p)
    q_perp = q - np.dot(q, u1) * u1
    u2 = q_perp / np.linalg.norm(q_perp)
    gamma = float(u1 @ S @ u2)
    if gamma < 0.0:
        u1, u2 = u2, u1
        gamma = -gamma
    a = u2 * np.sqrt(gamma)
    b = u1 * np.sqrt(gamma)
    S2 = np.outer(b, a) - np.outer(a, b)
    return a, b, S2


def _conjugation_gap_ok(frame_mat: np.ndarray, y: np.ndarray, tol: float) -> bool:
    inner = frame_mat.conj().T @ y
    inner_conj = frame_mat.conj().T @ y.conj()
    gaps = np.abs(np.abs(inner) ** 2 - np.abs(inner_conj) ** 2)
    scale = float(np.linalg.norm(y) ** 2) * np.linalg.norm(frame_mat, axis=0) ** 2
    return bool(np.all(gaps <= tol * np.maximum(scale, _EPS)))


def strict_report(frame) -> StrictReport:
    """Classify whether retrievability by this frame could be conjugation-blind.

    Real frames always are: measurements of y and its conjugate coincide
    identically, witnessed by (1, i, 0, ..., 0).  For complex frames the
    question reduces to whether the nullspace of the pairwise imaginary
    Gram matrix contains a vector realizable as Im(y_j conj(y_k)) for some
    non-phased-real y; such a matrix is skew of rank <= 2.  A realizable
    point is sought by alternating projection between the nullspace and the
    rank-2 skew cone (16 restarts; one projection when the nullspace is a
    line), with failure reported as Undecided.  For M <= 3 every nonzero
    nullspace vector is realizable, so each restart realizes at its first
    projection.
    """
    mat = frame.matrix if hasattr(frame, "matrix") else np.asarray(frame)
    m, n = mat.shape
    if m == 1:
        # every scalar is phased real; conjugation is invisible but harmless
        return StrictReport("ComplexPRCandidate", None, 0)
    pair_dim = m * (m - 1) // 2
    all_real = not np.iscomplexobj(mat) or bool(np.all(mat.imag == 0.0))
    if all_real:
        y = np.zeros(m, dtype=np.complex128)
        y[0] = 1.0
        y[1] = 1.0j
        return StrictReport("StrictlyCPR", witness_y=y, im_gram_nullity=pair_dim)

    G = im_gram(frame)
    # Entries of G are pairwise products of frame entries, so a row's natural
    # scale is |phi_n|^2; the floor makes an all-round-off G fully null.
    gscale = float(np.max(np.linalg.norm(mat, axis=0) ** 2))
    null_vecs = _nullspace(G, KERNEL_TOL, floor=gscale)
    nullity = len(null_vecs)
    if nullity == 0:
        return StrictReport("ComplexPRCandidate", None, 0)

    cmat = np.asarray(mat, dtype=np.complex128)

    # search null(G) for a rank-2 realizable point by alternating projection
    # between the nullspace and the rank-2 skew cone.  A null line is its own
    # projection: every restart starts on it up to sign and never leaves it,
    # so restart 0's first projection decides.  Every nonzero skew matrix of
    # size <= 3 has rank 2, so at M <= 3 every first projection realizes.
    basis = np.vstack(null_vecs)  # (k, pair_dim), orthonormal rows
    restarts, max_iter = (1, 1) if nullity == 1 else (_STRICT_BUDGET, 300)
    for restart in range(restarts):
        rng = rng_stream(_STRICT_SEED, restart)
        s = basis.T @ rng.standard_normal(basis.shape[0])
        norm = np.linalg.norm(s)
        if norm <= _EPS:
            continue
        s /= norm
        realizable = False
        for _ in range(max_iter):
            S = _skew_from_pairs(s, m)
            a, b, S2 = _factor_rank2_skew(S)
            if np.linalg.norm(S - S2) <= 1e-11 * np.linalg.norm(S):
                realizable = True
                break
            s3 = basis.T @ (basis @ _pairs_from_skew(S2))
            norm3 = np.linalg.norm(s3)
            if norm3 <= 1e-12:
                break  # collapsed toward zero; restart
            s = s3 / norm3
        if not realizable:
            continue
        y = a + 1j * b
        if not is_phased_real(y) and _conjugation_gap_ok(cmat, y, _STRICT_TOL):
            return StrictReport("StrictlyCPR", witness_y=y, im_gram_nullity=nullity)
    return StrictReport("Undecided", None, nullity)
