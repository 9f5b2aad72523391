"""Retrievability certificates, falsification, and strictness analysis.

Everything is decided in the real lift: a pair (x, y) has equal
measurements exactly when Re(xx*) - Re(yy*) lies in the kernel of the
lifted operator Omega.  Such a difference has at most two eigenvalues of
each sign, and every symmetric matrix with both signs and at most two of
each is realized by a pair (see ``witness``).  So a frame is retrievable
exactly when ker Omega holds no nonzero matrix of inertia at most (2, 2).

One ladder, built on Omega and its SVD computed once per call, serves
``certify``, ``falsify_exact`` and ``falsify_search``:

* kernel dimension 0: retrievable at every M (Det2/Det3 name the square
  M = 2, 3 cases, KernelInjective the rest);
* M <= 3 with a kernel: not retrievable; a spanning frame forces every
  kernel matrix to be indefinite, hence realizable, and the pair is built
  in closed form (KernelWitness);
* M >= 4 with a one-dimensional kernel: the inertia of its matrix decides.
  Three eigenvalues of one sign clear of round-off certify retrievability
  (KernelInertia); at most two of each sign give an exact pair by the
  spectral split (KernelWitness);
* otherwise (M >= 4 with kernel dimension >= 2, or a kernel eigenvalue too
  close to zero to sign) the question stays open: Undecided, optionally
  refined by a randomized search for an explicit pair (SearchWitness).

Too few vectors (N <= 2M-2) never retrieve; a complement-property violating
split is attached.  Undecided is an honest verdict: search failure is never
converted into a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import im_products, is_phased_real, real_lift
from .errors import (
    DefiniteInputError,
    IndefinitenessViolationError,
    NoKernelError,
    ValidationError,
    WrongDimensionError,
)
from .frames_io import ComplexFrame, RealFrame, rng_stream
from .lift import lift_dim, devectorize, numeric_rank, omega_matrix
from .witness import ZERO_EIG_TOL, WitnessPair, witness_general
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

#: Minimum lift-space separation a searched pair must exhibit.
SEARCH_DISTANCE = 0.1
_SEARCH_PENALTY = 1e3
_SEARCH_MAX_ITER = 100
_SEARCH_F_TOL = 1e-12

_STRICT_SEED = 0x5C1C7  # fixed: strict_report is deterministic


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


def complement_property(frame, field: str = "auto", cap: int = 24):
    """Exhaustively check that one side of every index split spans.

    Returns (True, None) or (False, violating_indices).  For real-valued
    frames the real and complex verdicts coincide (a real matrix has the
    same rank over both fields), so ``field`` only validates intent.
    Refuses N > cap outright: the check walks all 2^(N-1) splits.
    """
    if field not in ("auto", "real", "complex"):
        raise ValidationError("field must be auto|real|complex")
    mat = frame.matrix if hasattr(frame, "matrix") else np.asarray(frame)
    m, n = mat.shape
    if n > cap:
        raise ValidationError(
            f"complement property check over {n} vectors needs 2^{n - 1} splits; "
            f"refusing beyond cap={cap}"
        )
    if field == "real" and np.iscomplexobj(mat):
        raise ValidationError("field='real' but the frame has complex entries")
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


def _m2_violating_subset(mat: np.ndarray) -> tuple | None:
    """The split ``complement_property`` returns first, for an M = 2 frame that fails it.

    Such a frame has its nonzero columns on at most two lines.  The walk
    stops at the subset containing 0 with the smallest bit pattern: {0} when
    one line carries every nonzero column, else the line of column 0 when
    that column is nonzero, else 0 with the line whose largest index is
    smaller.  O(N); None when ``numeric_rank`` does not confirm the split.
    """
    n = mat.shape[1]
    norms = np.linalg.norm(mat, axis=0)
    lines, left = [], np.flatnonzero(norms > 0.0)
    while left.size and len(lines) < 3:
        k = left[0]
        cross = mat[0, k] * mat[1, left] - mat[1, k] * mat[0, left]
        on = np.abs(cross) <= 64 * n * _EPS * norms[k] * norms[left]
        lines.append(list(left[on]))
        left = left[~on]
    if len(lines) == 1:
        subset = [0]
    elif len(lines) > 2:
        return None  # a third line: the complement property holds
    elif lines[0][0] == 0:
        subset = lines[0]
    else:
        subset = [0] + min(lines, key=max)
    complement = [k for k in range(n) if k not in subset]
    if numeric_rank(mat[:, subset]) == 2 or numeric_rank(mat[:, complement]) == 2:
        return None
    return tuple(int(k) for k in subset)


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


def _kernel_pair(H: np.ndarray, tol: float) -> WitnessPair:
    try:
        pair = witness_general(H)
    except DefiniteInputError as exc:
        raise IndefinitenessViolationError(
            "kernel matrix is one-signed; the input cannot be a spanning frame"
        ) from exc
    if pair.residual > tol:
        raise IndefinitenessViolationError(
            f"witness synthesis residual {pair.residual:.2e} exceeds tol"
        )
    return pair


def _decide(frame: RealFrame, tol: float = 1e-9) -> Certificate:
    """The exact steps of the ladder: Undecided/MonteCarlo when they do not decide.

    Builds Omega and its SVD once.  ``tol`` bounds the residual of a kernel
    witness.
    """
    m, n = frame.m, frame.n
    om = omega_matrix(frame)
    det_val = float(np.linalg.det(om)) if n == lift_dim(m) else None
    basis = kernel_basis(om)
    kdim = len(basis)

    def decided(*args, **kwargs):
        return Certificate(*args, det_value=det_val, kernel_dim=kdim, **kwargs)

    if kdim == 0:
        square = m in (2, 3) and det_val is not None and _det_certifies(om, det_val)
        return decided("CertifiedCPR", f"Det{m}" if square else "KernelInjective")
    H = devectorize(basis[0])
    if m <= 3:
        return decided("NotCPR", "KernelWitness", witness=_kernel_pair(H, tol))
    if kdim == 1:
        w = np.linalg.eigvalsh(H)
        scale = np.linalg.norm(H)
        sure = max(np.sum(w > INERTIA_MARGIN * scale), np.sum(w < -INERTIA_MARGIN * scale))
        if sure >= 3:
            return decided("CertifiedCPR", "KernelInertia")
        signed = max(np.sum(w > ZERO_EIG_TOL * scale), np.sum(w < -ZERO_EIG_TOL * scale))
        if signed <= 2:
            return decided("NotCPR", "KernelWitness", witness=_kernel_pair(H, tol))
    return decided("Undecided", "MonteCarlo")


def falsify_exact(frame, tol: float = 1e-9) -> WitnessPair:
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
    cert = _decide(frame, tol)
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
        "exact falsification needs M in {2, 3} or a one-dimensional kernel; "
        f"this frame has M={frame.m} and kernel dimension {cert.kernel_dim}"
    )


def _search_starts(m: int, budget: int, seed: int) -> np.ndarray:
    children = np.random.SeedSequence(entropy=seed).spawn(budget)
    starts = np.empty((budget, 4 * m))
    for i, child in enumerate(children):
        starts[i] = np.random.default_rng(child).standard_normal(4 * m)
    return starts


def _search_with_stats(frame, budget: int, seed: int):
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    phi = frame.matrix
    m = phi.shape[0]
    starts = _search_starts(m, budget, seed)
    zs, fs, fmeas, ds, _ = _kernels.pair_search(
        phi, starts, SEARCH_DISTANCE, _SEARCH_PENALTY, _SEARCH_MAX_ITER
    )
    success = (fs <= _SEARCH_F_TOL) & (ds >= SEARCH_DISTANCE)
    best = int(np.argmin(fs))
    stats = {
        "restarts": int(budget),
        "seed": int(seed),
        "best_gap": float(np.sqrt(fmeas[best])),
        "best_distance": float(ds[best]),
    }
    hits = np.nonzero(success)[0]
    if hits.size == 0:
        return None, stats
    z = zs[int(hits[0])]
    x = z[:m] + 1j * z[m : 2 * m]
    y = z[2 * m : 3 * m] + 1j * z[3 * m :]
    target = real_lift(x) - real_lift(y)
    return WitnessPair(x, y, target, 0.0), stats


def falsify_search(frame, budget: int = 10_000, seed: int = 0) -> WitnessPair | None:
    """Randomized multistart search for a measurement-equal distinct pair.

    Minimizes the squared measurement gap plus a quadratic penalty keeping
    the pair's lift distance at least 0.1, over the joint sphere
    |x|^2 + |y|^2 = 2 (witness pairs generally have |x| != |y|; only joint
    scaling is quotiented out).  Returns a pair only when the gap objective
    falls below 1e-12 with the distance bound met; absence of a pair is
    never a certificate.  Deterministic in (budget, seed): restart i draws
    its start from the (seed, i) stream.  Returns None without running a
    restart when the lift kernel proves that no pair exists.
    """
    frame = _require_real_frame(frame, "falsify_search")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    if _decide(frame).verdict == "CertifiedCPR":
        return None
    pair, _ = _search_with_stats(frame, budget, seed)
    return pair


def certify(frame, *, budget: int = 0, seed: int = 0) -> Certificate:
    """Decide conjugate retrievability of a real frame.

    ``budget`` > 0 lets the open M >= 4 cases run falsify_search; a found
    pair upgrades the verdict to NotCPR (SearchWitness), an exhausted budget
    reports Undecided with the trial statistics.
    """
    frame = _require_real_frame(frame, "certify")
    m, n = frame.m, frame.n
    cert = _decide(frame)

    if m >= 2 and n <= 2 * m - 2:
        # Both halves of this split have < m vectors, so neither spans.
        pair, trials = cert.witness, None
        if m >= 4 and budget > 0:
            pair, trials = _search_with_stats(frame, budget, seed)
        return replace(
            cert,
            verdict="NotCPR",
            method="TooFewVectors",
            witness=pair,
            trials=trials,
            violating_subset=tuple(range((n + 1) // 2)),
        )
    if m == 2 and cert.verdict == "NotCPR":
        return replace(cert, violating_subset=_m2_violating_subset(frame.matrix))
    if cert.verdict != "Undecided":
        return cert
    if budget <= 0:
        return replace(cert, trials={"restarts": 0, "seed": int(seed)})
    pair, trials = _search_with_stats(frame, budget, seed)
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
    m, n = mat.shape
    rows = np.empty((n, m * (m - 1) // 2))
    col = np.empty(m, dtype=np.complex128)
    for k in range(n):
        col[:] = mat[:, k]
        rows[k] = -im_products(col)  # Im(conj(a) b) = -Im(a conj(b))
    return rows


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


def strict_report(frame, tol: float = 1e-9, budget: int = 16) -> StrictReport:
    """Classify whether retrievability by this frame could be conjugation-blind.

    Real frames always are: measurements of y and its conjugate coincide
    identically, witnessed by (1, i, 0, ..., 0).  For complex frames the
    question reduces to whether the nullspace of the pairwise imaginary
    Gram matrix contains a vector realizable as Im(y_j conj(y_k)) for some
    non-phased-real y; such a matrix is skew of rank <= 2.  For M <= 3 every
    nonzero nullspace vector qualifies; for M >= 4 a realizable point is
    sought by alternating projection between the nullspace and the rank-2
    skew cone (``budget`` restarts; one projection when the nullspace is a
    line), with failure reported as Undecided.
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

    if m == 2:
        # the pair space is one-dimensional: any nonzero s is realizable
        y = np.array([1.0, 1.0j])
        if _conjugation_gap_ok(cmat, y, tol):
            return StrictReport("StrictlyCPR", witness_y=y, im_gram_nullity=nullity)
        return StrictReport("Undecided", None, nullity)

    if m == 3:
        # every nonzero 3x3 skew matrix has rank exactly 2
        a, b, _ = _factor_rank2_skew(_skew_from_pairs(null_vecs[0], m))
        y = a + 1j * b
        if not is_phased_real(y) and _conjugation_gap_ok(cmat, y, tol):
            return StrictReport("StrictlyCPR", witness_y=y, im_gram_nullity=nullity)
        return StrictReport("Undecided", None, nullity)

    # m >= 4: search null(G) for a rank-2 realizable point by alternating
    # projection between the nullspace and the rank-2 skew cone.  A null
    # line is its own projection: every restart starts on it up to sign and
    # never leaves it, so restart 0's first projection decides.
    basis = np.vstack(null_vecs)  # (k, pair_dim), orthonormal rows
    restarts, max_iter = (1, 1) if nullity == 1 else (budget, 300)
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
        if not is_phased_real(y) and _conjugation_gap_ok(cmat, y, tol):
            return StrictReport("StrictlyCPR", witness_y=y, im_gram_nullity=nullity)
    return StrictReport("Undecided", None, nullity)
