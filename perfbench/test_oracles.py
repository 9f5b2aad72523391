"""The benchmark's checks accept right answers and reject wrong ones.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import (  # noqa: E402
    check_certificate,
    check_reconstruction,
    check_search,
    check_strict,
    check_witness,
)
from oracles import class_distance, inertia, lift_kernel, measurements  # noqa: E402
from workloads import gaussian_frame, planted_frame  # noqa: E402


def rng():
    return np.random.default_rng(2024)


def sphere_frame(n):
    """Vectors (u, 1), u on the unit sphere of R^3: kernel diag(1,1,1,-1)."""
    u = rng().standard_normal((3, n))
    return np.vstack([u / np.linalg.norm(u, axis=0), np.ones(n)])


def test_class_distance_closed_form():
    x = np.array([1.0 + 2.0j, -0.5j, 3.0])
    assert class_distance(x, np.exp(0.7j) * x) < 1e-12
    assert class_distance(x, np.exp(-1.1j) * x.conj()) < 1e-12
    y = x.copy()
    y[1] = 0.5j
    assert class_distance(x, y) > 0.1


def test_lift_rank_and_inertia():
    assert lift_kernel(gaussian_frame(rng(), 3, 6))[0] == 6
    rank, kernel, _ = lift_kernel(gaussian_frame(rng(), 3, 5))
    assert rank == 5 and len(kernel) == 1
    rank, kernel, _ = lift_kernel(sphere_frame(9))
    assert rank == 9 and sorted(inertia(kernel[0])) == [1, 3]


def test_planted_witness_accepted_and_perturbed_rejected():
    mat, (x, y) = planted_frame(rng(), 4, 8)
    assert check_witness(mat, x, y, searched=False) is None
    assert check_witness(mat, x + 1e-6, y, searched=False)[0] == "wrong"
    scale = np.sqrt(2.0 / (np.vdot(x, x).real + np.vdot(y, y).real))
    assert check_search(mat, (scale * x, scale * y), planted=True) is None
    assert check_search(mat, (scale * x * 1.001, scale * y), planted=True)[0] == "wrong"


def test_same_class_pair_rejected():
    mat = gaussian_frame(rng(), 3, 5)
    x = np.array([1.0 + 1.0j, 2.0, -1.0j])
    assert check_witness(mat, x, np.exp(0.3j) * x.conj(), searched=False)[0] == "wrong"


def test_search_miss_is_a_failure_only_on_planted_frames():
    mat = gaussian_frame(rng(), 6, 18)
    assert check_search(mat, None, planted=True)[0] == "failed"
    assert check_search(mat, None, planted=False) is None


def test_swapped_verdicts_rejected():
    cpr = gaussian_frame(rng(), 3, 6)
    assert check_certificate(cpr, "CertifiedCPR", "Det3", None) is None
    assert check_certificate(cpr, "NotCPR", "KernelWitness", None)[0] == "wrong"
    mat, (x, y) = planted_frame(rng(), 3, 4)
    assert check_certificate(mat, "NotCPR", "KernelWitness", (x, y)) is None
    assert check_certificate(mat, "CertifiedCPR", "KernelInjective", None)[0] == "wrong"
    assert check_certificate(mat, "Undecided", "MonteCarlo", None)[0] == "wrong"


def test_kernel_inertia_decides_m4_claims():
    sphere = sphere_frame(9)
    assert check_certificate(sphere, "CertifiedCPR", "Inertia", None) is None
    assert check_certificate(sphere, "Undecided", "MonteCarlo", None) is None
    mat, (x, y) = planted_frame(rng(), 4, 8)
    assert check_certificate(mat, "CertifiedCPR", "Inertia", None)[0] == "wrong"
    # a pair cannot realize a kernel with three eigenvalues of one sign
    assert check_certificate(sphere, "NotCPR", "SearchWitness", (x, y))[0] == "wrong"
    assert check_certificate(gaussian_frame(rng(), 4, 10), "Undecided", "MonteCarlo", None)[0] == "wrong"


def test_too_few_vectors_needs_no_witness_only_at_m4():
    few = gaussian_frame(rng(), 4, 6)
    assert check_certificate(few, "NotCPR", "TooFewVectors", None) is None
    assert check_certificate(gaussian_frame(rng(), 3, 4), "NotCPR", "TooFewVectors", None)[0] == "wrong"


def test_strict_report_checks():
    real = gaussian_frame(rng(), 3, 6)
    blind = np.array([1.0, 1.0j, 0.0])
    assert check_strict(real, "StrictlyCPR", blind) is None
    assert check_strict(real, "StrictlyCPR", np.exp(0.4j) * np.ones(3))[0] == "wrong"
    assert check_strict(real, "ComplexPRCandidate", None)[0] == "wrong"
    g = rng()
    cplx = g.standard_normal((4, 5)) + 1j * g.standard_normal((4, 5))
    assert check_strict(cplx, "Undecided", None) is None
    assert check_strict(cplx, "StrictlyCPR", blind[[0, 1, 2, 2]])[0] == "wrong"


def test_reconstruction_checks():
    mat = gaussian_frame(rng(), 3, 8)
    x = np.array([1.0 + 0.5j, -2.0, 0.25j])
    b = measurements(mat, x)
    est = np.exp(1.3j) * x.conj()
    assert check_reconstruction(mat, x, b, est, 0.0, True) is None
    assert check_reconstruction(mat, x, b, est, 0.5, True)[0] == "wrong"
    off = x + np.array([0.0, 0.0, 0.1])
    res = float(np.linalg.norm(measurements(mat, off) - b) / np.linalg.norm(b))
    assert check_reconstruction(mat, x, b, off, res, False) is None
    assert check_reconstruction(mat, x, b, off, res, True)[0] == "wrong"
