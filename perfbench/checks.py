"""Output checks built on :mod:`oracles`.

Every check returns None when the answer is right, or a ``(kind, reason)``
pair: kind ``"failed"`` for an operation that did not deliver (a planted
witness the search missed), kind ``"wrong"`` for an answer that is false.
"""

from __future__ import annotations

import numpy as np

from oracles import (
    class_distance,
    im_gram_rank,
    inertia,
    is_phased_real,
    lift_kernel,
    measurement_gap,
    measurements,
)

#: The search accepts a pair when sum_k gap_k^2 <= 1e-12 at |x|^2 + |y|^2 = 2.
SEARCH_GAP2 = 1e-12
#: An exact witness matches every measurement to round-off, relative to
#: (|x|^2 + |y|^2) * max_k |phi_k|^2.
EXACT_GAP = 1e-9
#: A witness pair's squared class distance, relative to |x|^2 + |y|^2, stays
#: above this: far above the 1e-16 round-off of the closed form.  Exact M = 3
#: witnesses reach 1e-5 when the kernel matrix has a small eigenvalue, since
#: the construction then makes |x|^2 large against the target.
MIN_CLASS_DISTANCE = 1e-9
#: A converged reconstruction lies this close to the truth, relative to |x|^2.
RECOVERY_TOL = 1e-6


def wrong(reason: str):
    return ("wrong", reason)


def check_witness(mat, x, y, searched: bool):
    """Equal measurements and distinct classes, recomputed from scratch."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    total = float(np.vdot(x, x).real + np.vdot(y, y).real)
    if not total > 0.0:
        return wrong("witness pair is zero")
    gap = measurement_gap(mat, x, y)
    if searched:
        gap2 = float(np.sum((gap * (2.0 / total)) ** 2))
        if gap2 > SEARCH_GAP2 * (1.0 + 1e-6):
            return wrong(f"searched witness has squared gap {gap2:.3e}")
    else:
        scale = total * float(np.max(np.sum(np.abs(np.asarray(mat)) ** 2, axis=0)))
        worst = float(np.max(np.abs(gap)))
        if worst > EXACT_GAP * scale:
            return wrong(f"exact witness has gap {worst:.3e} at scale {scale:.3e}")
    dist = class_distance(x, y) / total
    if dist < MIN_CLASS_DISTANCE:
        return wrong(f"witness classes are {dist:.3e} apart")
    return None


def check_certificate(mat, verdict: str, method: str, witness):
    """A verdict against the lift oracle; ``witness`` is (x, y) or None."""
    mat = np.asarray(mat, dtype=np.float64)
    m, n = mat.shape
    full = m * (m + 1) // 2
    rank, kernel, _ = lift_kernel(mat)
    injective = rank == full
    if m in (2, 3):
        expected = "CertifiedCPR" if injective else "NotCPR"
        if verdict != expected:
            return wrong(f"M={m}: {verdict} but the lift has rank {rank} of {full}")
    if verdict == "CertifiedCPR":
        if injective:
            return None
        if m >= 4 and len(kernel) == 1 and max(inertia(kernel[0])) >= 3:
            return None
        return wrong(f"CertifiedCPR but the lift has rank {rank} of {full}")
    if verdict == "NotCPR":
        if injective:
            return wrong("NotCPR on an injective lift")
        if witness is None:
            if m >= 4 and method == "TooFewVectors" and n <= 2 * m - 2:
                return None
            return wrong(f"NotCPR ({method}) without a witness")
        if m >= 4 and len(kernel) == 1:
            pos, neg = inertia(kernel[0])
            if pos > 2 or neg > 2:
                return wrong(f"a pair cannot realize a kernel of inertia ({pos},{neg})")
        return check_witness(mat, witness[0], witness[1], method == "SearchWitness")
    if verdict == "Undecided":
        if m < 4 or injective:
            return wrong(f"Undecided at M={m} with lift rank {rank} of {full}")
        return None
    return wrong(f"unknown verdict {verdict!r}")


def check_strict(mat, verdict: str, witness_y):
    """Conjugation-blindness report against the imaginary-Gram oracle."""
    mat = np.asarray(mat)
    m = mat.shape[0]
    is_real = not np.iscomplexobj(mat) or not np.any(np.asarray(mat).imag)
    nullity = m * (m - 1) // 2 - im_gram_rank(mat)
    if verdict == "StrictlyCPR":
        if witness_y is None:
            return wrong("StrictlyCPR without a witness")
        y = np.asarray(witness_y, dtype=np.complex128)
        if is_phased_real(y):
            return wrong("StrictlyCPR witness is phased-real")
        gap = measurement_gap(mat, y, y.conj())
        scale = float(np.vdot(y, y).real) * float(np.max(np.sum(np.abs(mat) ** 2, axis=0)))
        if float(np.max(np.abs(gap))) > EXACT_GAP * scale:
            return wrong("StrictlyCPR witness is not conjugation-blind")
        return None
    if is_real:
        return wrong(f"{verdict} on a real frame, which is always conjugation-blind")
    if verdict == "ComplexPRCandidate":
        return None if nullity == 0 else wrong(f"candidate with Gram nullity {nullity}")
    if verdict == "Undecided":
        if m >= 4 and nullity > 0:
            return None
        return wrong(f"Undecided at M={m} with Gram nullity {nullity}")
    return wrong(f"unknown verdict {verdict!r}")


def check_search(mat, pair, planted: bool):
    """A planted frame must yield a pair; any pair must verify."""
    if pair is None:
        return ("failed", "no pair on a planted frame") if planted else None
    return check_witness(mat, pair[0], pair[1], searched=True)


def check_reconstruction(mat, x_true, b, estimate, lift_residual: float, converged: bool):
    """Reported residual recomputed; a converged estimate is the truth's class."""
    b = np.asarray(b, dtype=np.float64)
    own = float(np.linalg.norm(measurements(mat, estimate) - b) / np.linalg.norm(b))
    if abs(own - lift_residual) > 1e-9 + 1e-6 * own:
        return wrong(f"reported residual {lift_residual:.3e}, recomputed {own:.3e}")
    if converged:
        x_true = np.asarray(x_true, dtype=np.complex128)
        dist = class_distance(estimate, x_true)
        if dist > RECOVERY_TOL * float(np.vdot(x_true, x_true).real):
            return wrong(f"converged estimate is {dist:.3e} from the truth")
    return None
