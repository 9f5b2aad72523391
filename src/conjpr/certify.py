"""Retrievability certificates, falsification, and strictness analysis.

Everything is decided in the real lift: a pair (x, y) has equal
measurements exactly when Re(xx*) - Re(yy*) lies in the kernel of the
lifted operator Omega.  Such a difference has at most two eigenvalues of
each sign, and every symmetric matrix with both signs and at most two of
each is realized by a pair (see ``witness``).  So a frame is retrievable
exactly when ker Omega holds no nonzero matrix of inertia at most (2, 2).

One ladder, built on Omega and one SVD of it, serves ``certify``,
``falsify_exact`` and ``falsify_search`` (which returns ``certify``'s
pair).  Every SVD that reads a kernel or a least-squares lift, here and in
``reconstruct_linear``, is one ``_svd`` call: its Vh is square, its U thin
unless the matrix is wide, and the next call on the same entries reuses
it.  Where the kernel decides, every exact step starts from one
eigendecomposition of its first matrix H_1, as the SVD gives it:

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
* M in {4, 5} with a kernel of dimension >= 2: never retrievable.  On the
  pencil K(t) = cos t H_1 + sin t H_2 of the first two kernel matrices the
  count of one sign falls from >= 3 to <= 2 between H_1 and -H_1 while the
  other stays <= M - 3 <= 2, so a singular K(t) is realizable; H_1 itself
  when it is, else the pencil's eigenvalue problem, solved on the same
  eigenpairs of H_1, finds it, and the spectral split gives the pair
  (KernelPencil);
* otherwise (kernel dimension >= 2 at M >= 6, a kernel eigenvalue too close
  to zero to sign, a kernel matrix that round-off leaves one-signed, or a
  pair the measurement gate rejects) the question stays open: Undecided,
  optionally refined by a randomized search on the unit sphere of the same
  kernel, in a Frobenius-orthonormal basis, for a matrix that a pair
  realizes, which then gives the pair (SearchWitness).  Below 4M-6 vectors,
  where a generic frame has a pair, the search's restart 0 runs alone
  first.  A restart that cannot hit stops at a nonzero minimum: once its
  Gauss-Newton step predicts its squared residual to fall by at most 1e-6
  of it, or when that residual has not halved over a 10-iteration window.

At M >= 4 a pair is attached only when its measurements over the unit
columns phi_k / |phi_k| agree to PAIR_GAP_TOL of their size (the measurement
gate); a badly scaled kernel can hold round-off matrices whose pairs miss by
far more.  The search attaches the first hit, in restart order, that passes.
At M <= 3 exact pairs are not gated: there every kernel matrix is
realizable, and the gate would drop right pairs of badly scaled frames.
Too few vectors (N <= 2M-2) never retrieve; a complement-property violating
split is attached, and at M >= 4 a pair only when a budget above 0 is given.
Undecided is an honest verdict: search failure is never converted into a
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import is_phased_real
from .errors import (
    NoKernelError,
    ValidationError,
    WrongDimensionError,
)
from .frames_io import ComplexFrame, RealFrame, _check_int, _check_tol, _restart_starts
from .lift import _frame_matrix, _half_indices, devectorize, lift_dim, numeric_rank, omega_matrix
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
    "KernelPencil",
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

#: The ``delta`` passed to ``_kernels.pair_search``.  Every split it makes
#: has lift distance d = 2 |kept|_2 / |kept|_1 >= 1 (at most four kept
#: eigenvalues, Cauchy-Schwarz), so no hit is ever held to it.
SEARCH_DISTANCE = 0.1
_SEARCH_MAX_ITER = 100

#: A pair is attached at M >= 4 only when ``_pair_gap`` over the unit
#: columns is at most this.  Right pairs stay below 1e-10 and pairs read from
#: round-off or badly row-scaled kernels above 1e-5.
PAIR_GAP_TOL = 1e-8

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
    mat = _frame_matrix(frame)
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


#: The last ``_svd`` call as (key, result); None until the first call.
_svd_slot = None


def _svd(mat: np.ndarray):
    """(U, s, Vh) of ``mat``, read-only, with Vh square; reused while the entries repeat.

    U is full only when ``mat`` is wide (rows < cols), where Vh needs the
    rows beyond s; a tall matrix gets the thin U, never an N x N one.  There
    the thin SVD gives the full one's s bits, and its Vh bits except at 34
    to 42 columns and about four times as many rows, where OpenBLAS moves Vh
    by a few ulps.  One module-level slot keeps the last result, keyed on
    shape, dtype and bytes, so consecutive calls on one lifted operator (a
    frame measuring many signals) factor it once.
    """
    global _svd_slot
    key = (mat.shape, mat.dtype, mat.tobytes())
    slot = _svd_slot
    if slot is not None and slot[0] == key:
        return slot[1]
    result = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    for arr in result:
        arr.setflags(False)  # write=False, positional: half the call's cost
    _svd_slot = (key, result)
    return result


def _nullspace(mat: np.ndarray, tol: float, floor: float = 0.0) -> list[np.ndarray]:
    # Rows of Vh whose singular value is <= tol * max(sigma_max, floor), and
    # the rows beyond s of a wide matrix: s descends, so they are the tail
    # after the last larger value.  The floor lets an all-round-off matrix
    # count as entirely null.  The rows are copies the caller owns: ``_svd``
    # shares its arrays.
    _, s, vh = _svd(mat)
    sv = s.tolist()
    cut = tol * max(sv[0] if sv else 0.0, floor)
    rank = len(sv)
    while rank and sv[rank - 1] <= cut:
        rank -= 1
    return [row.copy() for row in vh[rank:]]


def kernel_basis(omega, tol: float = KERNEL_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical nullspace of the lifted operator."""
    tol = _check_tol(tol, positive=False)
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim != 2:
        raise ValidationError("omega must be a matrix")
    return _nullspace(omega, tol)


def _det_certifies(om: np.ndarray, det: float) -> bool:
    # Hadamard bound: |det| of a matrix is at most the product of row norms.
    bound = float(np.prod(np.linalg.norm(om, axis=1)))
    return abs(det) > 1e-10 * bound


def _decide(frame: RealFrame, *, pencil: bool = True) -> tuple[Certificate, list]:
    """The exact steps of the ladder: Undecided/MonteCarlo when they do not decide.

    Builds Omega and its SVD once and returns the kernel basis for the
    search.  One ``eigh`` of the first kernel matrix H answers every exact
    step with a kernel (M <= 3, M >= 4 with a one-dimensional kernel, and
    M in {4, 5} with a larger one): three eigenvalues of one sign beyond
    INERTIA_MARGIN |H|_F certify a one-dimensional kernel at M >= 4;
    otherwise the eigenvalues within ZERO_EIG_TOL |H|_F are zeroed and
    ``_kernel_pair`` splits H, or at M in {4, 5} a singular matrix of the
    pencil of H and the second kernel matrix.  At M <= 3 a spanning frame's
    H has both signs, so when zeroing leaves one sign (the e^2/4 eigenvalue
    of [[1, 1], [0, e]]) the unthresholded eigenvalues are split.  At M >= 4
    the signs decide whether a pair exists, round-off does not sign one, and
    the pair must pass the measurement gate.  At M = 2 the same eigenvectors
    give the violating split.  ``pencil=False`` leaves a kernel of dimension
    >= 2 at M in {4, 5} open.
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
    pencil = pencil and m in (4, 5) and kdim >= 2
    if m >= 4 and kdim >= 2 and not pencil:
        return decided("Undecided", "MonteCarlo")
    H = devectorize(basis[0])
    w, U = np.linalg.eigh(H)
    scale = np.linalg.norm(H)
    margin = INERTIA_MARGIN * scale
    if m >= 4 and kdim == 1 and max(np.sum(w > margin), np.sum(w < -margin)) >= 3:
        return decided("CertifiedCPR", "KernelInertia")
    kept = np.where(np.abs(w) > ZERO_EIG_TOL * scale, w, 0.0)
    if m <= 3 and not kept.min() < 0.0 < kept.max():
        kept = w
    pair = _kernel_pair(kept, U, H, devectorize(basis[1]) if pencil else None)
    if m >= 4:
        pair = _gated(pair, _unit_columns(frame.matrix))
    if pair is None:
        return decided("Undecided", "MonteCarlo")
    subset = _m2_violating_subset(frame.matrix, U) if m == 2 else None
    method = "KernelPencil" if pencil else "KernelWitness"
    return decided("NotCPR", method, witness=pair, violating_subset=subset)


def falsify_exact(frame) -> WitnessPair:
    """Counterexample pair realizing a kernel matrix of the lifted operator.

    Exact wherever the kernel alone decides: at M in {2, 3} a spanning frame
    forces every kernel matrix to be indefinite, hence realizable; at any M a
    one-dimensional kernel is realizable when its matrix has at most two
    eigenvalues of each sign; and at M in {4, 5} a kernel of dimension >= 2
    always holds a realizable matrix, which the kernel pencil finds
    (KernelPencil).  At M >= 4 the pair must pass the measurement gate.
    Raises NoKernelError when the kernel proves no pair exists and
    WrongDimensionError when it leaves the question open (M >= 6 with kernel
    dimension >= 2, an unsignable kernel eigenvalue, or a pair the gate
    rejects).
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
        "exact falsification needs M <= 5 or a one-dimensional kernel whose "
        "matrix the kernel test can sign, and at M >= 4 a pair that passes the "
        f"measurement gate; this frame has M={frame.m} and kernel dimension "
        f"{cert.kernel_dim}"
    )


def _kernel_matrices(basis: list, m: int) -> np.ndarray:
    """Frobenius-orthonormal kernel matrices (k, m, m), by QR weighing off-diagonals sqrt(2)."""
    weight = np.full(lift_dim(m), np.sqrt(2.0))
    weight[:m] = 1.0
    q, _ = np.linalg.qr(weight[:, None] * np.array(basis).T)
    return devectorize((q / weight[:, None]).T)


def _realizable(kept: np.ndarray) -> np.ndarray:
    """Whether eigenvalues (last axis) have both signs and at most two of each."""
    pos, neg = np.sum(kept > 0.0, axis=-1), np.sum(kept < 0.0, axis=-1)
    return (0 < pos) & (pos <= 2) & (0 < neg) & (neg <= 2)


def _kernel_pair(kept: np.ndarray, U: np.ndarray, H: np.ndarray, H2=None) -> WitnessPair | None:
    """The spectral split of H, or of a singular matrix of its pencil with H2, or None.

    ``kept`` holds the eigenvalues of H, with those that count as zero
    zeroed, and ``U`` its eigenvectors.  H is split when they have both
    signs and at most two of each.  Otherwise, given H2 and no zeroed
    eigenvalue, K(t) = cos t H + sin t H2 is singular exactly at
    tan t = -1/mu, t in (0, pi), for the real eigenvalues mu of H^-1 H2;
    there K(t) is a positive multiple of H2 - mu H, and t grows with mu.  One
    stacked ``eigh`` takes those matrices, each has its eigenvalue nearest 0
    zeroed, and the first (in t) that is left realizable is split.  At M in
    {4, 5}, for any two independent kernel matrices of a spanning frame, such
    a t exists: the sign counts of K(t) change only where it is singular, and
    walking from H to -H the count of one sign must fall from >= 3 to <= 2
    while the other stays <= M - 3 <= 2.  The pair's target is the matrix it
    splits, as given; a residual above _WITNESS_TOL leaves no pair.
    """
    if not _realizable(kept):
        if H2 is None or not kept.all():
            return None
        # H^-1 H2 = U diag(1/kept) U^T H2 is similar to diag(1/kept) U^T H2 U
        mu = np.linalg.eigvals((U.T @ H2 @ U) / kept[:, None])
        mu = np.sort(mu.real[mu.imag == 0.0])
        K = H2 - mu[:, None, None] * H
        w, V = np.linalg.eigh(K)
        mag = np.abs(w)
        w[mag == mag.min(axis=1, keepdims=True)] = 0.0
        ok = np.flatnonzero(_realizable(w))
        if not ok.size:
            return None
        kept, U, H = w[ok[0]], V[ok[0]], K[ok[0]]
    pair = _spectral_pair(kept, U, H)
    return pair if pair.residual <= _WITNESS_TOL else None


def _unit_columns(mat: np.ndarray) -> np.ndarray:
    """phi_k / |phi_k|, zero columns left zero.

    Column k's measurement gap scales as |phi_k|^2: on unit columns one
    bound holds for every column, whatever the norms of the others.
    """
    norms = np.linalg.norm(mat, axis=0)
    return mat / np.where(norms > 0.0, norms, 1.0)


def _pair_gap(unit: np.ndarray, pair: WitnessPair) -> float:
    """Relative measurement gap of a pair over the columns of ``unit``.

    |b_x - b_y| / max(|b_x|, |b_y|) with b_z = (|<u_k, z>|^2)_k.  On unit
    columns every vector counts alike, whatever the frame's column norms.
    """
    bx = np.abs(unit.T @ pair.x) ** 2
    by = np.abs(unit.T @ pair.y) ** 2
    scale = max(np.linalg.norm(bx), np.linalg.norm(by), np.finfo(np.float64).tiny)
    return float(np.linalg.norm(bx - by) / scale)


def _gated(pair: WitnessPair | None, unit: np.ndarray) -> WitnessPair | None:
    """``pair`` when its unit-column measurement gap is at most PAIR_GAP_TOL, else None."""
    return pair if pair is not None and _pair_gap(unit, pair) <= PAIR_GAP_TOL else None


def _open_pair(frame: RealFrame, basis: list, budget: int, seed: int):
    """(pair or None, trials) from the kernel-sphere search, for a question the exact steps leave open.

    At budget 0 no search runs and the trials record no restart.
    """
    if budget == 0:
        return None, {"restarts": 0, "seed": seed}
    H = _kernel_matrices(basis, frame.m)
    return _search_with_stats(_unit_columns(frame.matrix), H, budget, seed)


def _search_with_stats(unit: np.ndarray, H: np.ndarray, budget: int, seed: int):
    """Kernel-sphere search: the lowest-index hit's gated pair, or None, and the trial statistics.

    ``unit`` holds the frame's unit columns phi_k / |phi_k| (zero columns
    stay zero) and ``H`` its Frobenius-orthonormal kernel matrices.  Below
    4M-6 vectors (N <= 4M-7), where a generic frame has a pair, restart 0
    first runs alone for one stall window (``_kernels._STALL_EVERY``
    iterations).  A hit that stopped inside the window is finished and has
    the lowest index, so when its pair passes the gate it is the stack's
    answer; otherwise all ``budget`` restarts run as one stack, as they
    always do at N >= 4M-6.  The statistics come from the restarts that ran:
    on a probe hit, ``best_gap`` and ``best_distance`` are restart 0's, and
    ``restarts`` reports the budget either way.  Gaps are taken over the
    unit columns, and so is ``best_gap``.
    """
    stats = {"restarts": budget, "seed": seed}
    m, n = unit.shape
    if n <= 4 * m - 7:
        probe = _kernels.pair_search(
            unit, _restart_starts(seed, 1, len(H)), SEARCH_DISTANCE, H,
            _kernels._STALL_EVERY,
        )
        if probe[4][0] < _kernels._STALL_EVERY:
            pair = _search_pair(probe, H, unit, stats)
            if pair is not None:
                return pair, stats
    run = _kernels.pair_search(
        unit, _restart_starts(seed, budget, len(H)), SEARCH_DISTANCE, H,
        _SEARCH_MAX_ITER,
    )
    return _search_pair(run, H, unit, stats), stats


def _search_pair(run, H: np.ndarray, unit: np.ndarray, stats: dict) -> WitnessPair | None:
    """The first pair, in restart order, of a ``pair_search`` hit that passes the gate; fills ``stats``.

    A hit's spectral residual is at most ``_kernels._HIT_F`` = ZERO_EIG_TOL**2,
    and its kept eigenvalues must have both signs beyond ZERO_EIG_TOL.
    """
    cs, fs, fmeas, ds, _ = run
    best = int(np.argmin(fs))
    stats["best_gap"] = float(np.sqrt(fmeas[best]))
    stats["best_distance"] = float(ds[best])
    for r in np.flatnonzero(fs <= _kernels._HIT_F):
        # zero the residual eigenvalues and split the rest, at |x|^2 + |y|^2 = 2
        w, U = np.linalg.eigh(np.tensordot(cs[r], H, 1))
        kept = np.where(_kernels.residual_mask(w), 0.0, w)
        # one sign alone would be Re(xx*) with every measurement of x zero,
        # which no spanning frame has: only round-off put it in the kernel
        if kept.min() < -ZERO_EIG_TOL and kept.max() > ZERO_EIG_TOL:
            kept *= 2.0 / np.sum(np.abs(kept))
            target = (U * kept) @ U.T
            pair = _gated(_spectral_pair(kept, U, (target + target.T) / 2.0), unit)
            if pair is not None:
                return pair
    return None


def falsify_search(frame, budget: int = 10_000, seed: int = 0) -> WitnessPair | None:
    """Measurement-equal distinct pair from ``certify``'s ladder, or None.

    The pair is the one ``certify(frame, budget=budget, seed=seed)``
    attaches: exact wherever the lift kernel decides, the kernel pencil's at
    M in {4, 5} with kernel dimension >= 2, and found by the kernel-sphere
    search (``budget`` restarts, restart i drawing its start from the
    (seed, i) stream) where the question is still open.  At M >= 4 every
    pair's measurements over the unit columns agree to PAIR_GAP_TOL (the
    measurement gate).  None means no pair exists (the kernel proves it) or
    none was found; absence of a pair from a search is never a certificate.
    budget >= 1 and seed >= 0 are integers.
    """
    frame = _require_real_frame(frame, "falsify_search")
    budget = _check_int(budget, "budget", 1)
    return _certify(frame, budget, _check_int(seed, "seed", 0)).witness


def certify(frame, *, budget: int = 0, seed: int = 0) -> Certificate:
    """Decide conjugate retrievability of a real frame.

    ``budget`` and ``seed`` are integers >= 0.  At M in {4, 5} a kernel of
    dimension >= 2 is answered at any budget by the kernel pencil's pair
    (NotCPR, KernelPencil, trials None), except on frames of N <= 2M - 2
    vectors at budget 0, which stay TooFewVectors without a pair.  At
    M >= 4 every exact pair (KernelWitness or KernelPencil) and every search
    pair passes the measurement gate (relative gap <= PAIR_GAP_TOL over the
    unit columns) or is dropped, which leaves the question open.  A budget
    above 0 lets the cases still open run the kernel-sphere search: a found
    pair upgrades the verdict to NotCPR (SearchWitness), an exhausted budget
    reports Undecided with the trial statistics.
    """
    frame = _require_real_frame(frame, "certify")
    budget = _check_int(budget, "budget", 0)
    return _certify(frame, budget, _check_int(seed, "seed", 0))


def _certify(frame: RealFrame, budget: int, seed: int) -> Certificate:
    """The ladder behind ``certify`` and ``falsify_search``, on checked arguments."""
    m, n = frame.m, frame.n
    too_few = m >= 2 and n <= 2 * m - 2
    # counting decides a TooFewVectors frame; at budget 0 it gets no pair,
    # which spares every such call the pencil
    cert, basis = _decide(frame, pencil=budget > 0 or not too_few)

    if too_few:
        # Both halves of this split have < m vectors, so neither spans.
        pair, trials = cert.witness, None
        if pair is None and m >= 4 and budget > 0:
            pair, trials = _open_pair(frame, basis, budget, seed)
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
    pair, trials = _open_pair(frame, basis, budget, seed)
    if pair is None:
        return replace(cert, trials=trials)
    return replace(cert, verdict="NotCPR", method="SearchWitness", witness=pair, trials=trials)


# ---------------------------------------------------------------------------
# strict conjugate retrievability (complex frames)
# ---------------------------------------------------------------------------


def im_gram(frame) -> np.ndarray:
    """N x M(M-1)/2 matrix; row n lists Im(conj(phi_jn) phi_kn) over j < k.

    A signal y has conjugation-blind measurements under the frame exactly
    when the pair vector s_jk = Im(y_j conj(y_k)) lies in this matrix's
    nullspace.
    """
    mat = _frame_matrix(frame)
    if not np.all(np.isfinite(mat)):
        raise ValidationError("phi has non-finite entries")
    m = mat.shape[0]
    rows, cols = _half_indices(m)
    return np.imag(mat[rows[m:]].conj() * mat[cols[m:]]).T


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
    rank-2 skew cone (one projection when the nullspace is a line; otherwise
    16 restarts of up to 300 iterations, run in lockstep as one stack by
    ``_kernels.skew_altproj``), with failure reported as Undecided.  The
    witness is the lowest-index winning restart's, the one that running the
    restarts one by one in order returns.  For M <= 3 every nonzero
    nullspace vector is realizable, so each restart realizes at its first
    projection.  Anything but a frame is checked as one: a ComplexFrame, or a
    RealFrame when it is real.
    """
    if not isinstance(frame, (RealFrame, ComplexFrame)):
        mat = _frame_matrix(frame)
        frame = (ComplexFrame if np.iscomplexobj(mat) else RealFrame)(mat)
    mat = frame.matrix
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

    def wins(a, b):
        y = a + 1j * b
        return not is_phased_real(y) and _conjugation_gap_ok(cmat, y, _STRICT_TOL)

    starts = _restart_starts(_STRICT_SEED, restarts, nullity)
    a, b, _, won = _kernels.skew_altproj(basis, starts, max_iter, wins)
    if won.any():
        r = int(np.argmax(won))
        return StrictReport("StrictlyCPR", witness_y=a[r] + 1j * b[r], im_gram_nullity=nullity)
    return StrictReport("Undecided", None, nullity)
