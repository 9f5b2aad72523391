import numpy as np
import pytest

from conftest import (
    measurement_gap,
    quadric_cone_frame_4d,
    random_orthogonal,
    random_signal,
    symmetrized,
)

import conjpr
from conjpr import _kernels
from conjpr import (
    ComplexFrame,
    RealFrame,
    certify,
    complement_property,
    conj_class_distance,
    falsify_exact,
    falsify_search,
    im_gram,
    im_products,
    is_phased_real,
    kernel_basis,
    numeric_rank,
    omega_matrix,
    random_frame,
    rng_stream,
)
from conjpr.errors import (
    NoKernelError,
    ValidationError,
    WrongDimensionError,
)

FRAME_2X3 = RealFrame([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


def frame_on_cone(h, n, seed):
    """n unit vectors phi with phi^T h phi = 0: the lift kernel contains h."""
    rng = rng_stream(seed, 0)
    m = h.shape[0]
    cols = []
    while len(cols) < n:
        p, d = rng.standard_normal((2, m))
        a, b, c = d @ h @ d, p @ h @ d, p @ h @ p
        disc = b * b - a * c
        if abs(a) < 1e-3 or disc < 0.0:
            continue
        phi = p + (-b + np.sqrt(disc)) / a * d
        cols.append(phi / np.linalg.norm(phi))
    return RealFrame(np.stack(cols, axis=1))


def rotated_diag(eigs, seed):
    u = random_orthogonal(rng_stream(seed, 1), len(eigs))
    return symmetrized(u @ np.diag(eigs) @ u.T)


def verify_witness(frame, pair, gap_tol=1e-9, dist_floor=0.05):
    gap, scale = measurement_gap(frame, pair.x, pair.y)
    assert gap <= gap_tol * max(scale, 1e-30)
    assert conj_class_distance(pair.x, pair.y) >= dist_floor


class TestComplementProperty:
    def test_three_vectors_in_r2(self):
        ok, viol = complement_property(RealFrame([[1.0, 0, 1], [0, 1, 1.0]]))
        assert ok and viol is None

    def test_two_vectors_fail(self):
        ok, viol = complement_property(RealFrame(np.eye(2)))
        assert not ok
        # re-check the returned split genuinely violates
        mat = np.eye(2)
        comp = [k for k in range(2) if k not in viol]
        assert numeric_rank(mat[:, list(viol)]) < 2
        assert numeric_rank(mat[:, comp]) < 2

    def test_pigeonhole_small_frames(self):
        for seed in range(20):
            m = 3
            f = random_frame(m, 2 * m - 2, seed=seed)
            ok, viol = complement_property(f)
            assert not ok
            assert viol is not None

    def test_cap_refusal(self):
        f = random_frame(2, 25, seed=0)
        with pytest.raises(ValidationError, match="cap"):
            complement_property(f)

    def test_real_complex_verdicts_coincide(self):
        for seed in range(20):
            f = random_frame(2, 4, seed=seed)
            assert complement_property(f, field="real")[0] == complement_property(
                f, field="complex"
            )[0]

    def test_field_validation(self):
        with pytest.raises(ValidationError):
            complement_property(FRAME_2X3, field="rational")


class TestKernelBasis:
    def test_reference_frame_injective(self):
        assert kernel_basis(omega_matrix(FRAME_2X3)) == []

    def test_underdetermined_always_kernel(self):
        for seed in range(10):
            om = omega_matrix(random_frame(3, 5, seed=seed))
            assert len(kernel_basis(om)) >= 1

    def test_generic_square_injective(self):
        for seed in range(10):
            om = omega_matrix(random_frame(3, 6, seed=seed))
            assert kernel_basis(om) == []

    def test_kernel_vectors_annihilate(self):
        om = omega_matrix(random_frame(3, 5, seed=3))
        for v in kernel_basis(om):
            assert np.linalg.norm(om @ v) <= 1e-10 * np.linalg.norm(om)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestCertify:
    def test_reference_frame_det2(self):
        cert = certify(FRAME_2X3)
        assert cert.verdict == "CertifiedCPR"
        assert cert.method == "Det2"
        assert abs(cert.det_value) == pytest.approx(2.0, abs=1e-12)
        assert cert.kernel_dim == 0

    def test_parallel_columns_not_retrievable(self):
        cert = certify(RealFrame([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]))
        assert cert.verdict == "NotCPR"
        assert cert.witness is not None
        verify_witness(RealFrame([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]), cert.witness)
        assert abs(cert.det_value) <= 1e-12

    def test_two_by_two(self):
        cert = certify(random_frame(2, 2, seed=9))
        assert cert.verdict == "NotCPR"
        assert cert.method == "TooFewVectors"
        assert cert.violating_subset is not None
        assert cert.witness is not None

    def test_m2_matches_complement_property(self):
        for seed in range(125):
            for k in (2, 3, 4, 5):
                f = random_frame(2, k, seed=seed)
                cert = certify(f)
                ok, _ = complement_property(f)
                assert (cert.verdict == "CertifiedCPR") == ok
                if cert.verdict == "NotCPR":
                    verify_witness(f, cert.witness)

    def test_m3_matches_kernel(self):
        for seed in range(100):
            for k in (4, 5, 6, 7, 8):
                f = random_frame(3, k, seed=seed)
                cert = certify(f)
                empty = kernel_basis(omega_matrix(f)) == []
                assert (cert.verdict == "CertifiedCPR") == empty
                if cert.verdict == "NotCPR":
                    verify_witness(f, cert.witness)

    def test_m4_square_certified(self):
        cert = certify(random_frame(4, 10, seed=4))
        assert cert.verdict == "CertifiedCPR"
        assert cert.method == "KernelInjective"
        assert cert.det_value is not None

    def test_m4_below_generic_search_refines_to_notcpr(self):
        # 8 < 4*4-6 measurements: the searcher finds a genuine pair here
        f = random_frame(4, 8, seed=4)
        cert = certify(f, budget=50, seed=1)
        assert cert.verdict == "NotCPR"
        assert cert.method == "SearchWitness"
        verify_witness(f, cert.witness, gap_tol=1e-6, dist_floor=0.05)
        assert cert.trials["restarts"] == 50

    def test_m4_undecided_with_stats(self):
        # vectors on the quadric cone x1^2+x2^2+x3^2 = x4^2: the lifted kernel
        # is one line spanned by a matrix with three eigenvalues of one sign,
        # which no pair can realize, so the kernel certifies without a search
        f = quadric_cone_frame_4d(9, seed=777)
        cert = certify(f, budget=200, seed=0)
        assert cert.verdict == "CertifiedCPR"
        assert cert.method == "KernelInertia"
        assert cert.kernel_dim == 1
        assert cert.trials is None

    def test_m4_no_budget(self):
        f = quadric_cone_frame_4d(9, seed=778)
        cert = certify(f)
        assert cert.verdict == "CertifiedCPR"
        assert cert.method == "KernelInertia"
        assert cert.kernel_dim == 1

    def test_undecided_search_stats(self):
        # 6x18 has kernel dimension 3, where only the search can go on; a
        # generic frame of 4M-6 vectors retrieves, so it finds nothing
        f = random_frame(6, 18, seed=3)
        cert = certify(f, budget=20, seed=0)
        assert cert.verdict == "Undecided"
        assert cert.method == "MonteCarlo"
        assert cert.kernel_dim == 3
        assert cert.trials["restarts"] == 20
        assert cert.trials["best_gap"] > 1e-6
        idle = certify(f)
        assert idle.verdict == "Undecided"
        assert idle.trials == {"restarts": 0, "seed": 0}

    @pytest.mark.parametrize(
        "eigs", [(2.0, 0.5, -1.0, -3.0), (1.5, 0.7, -0.4, -2.0, 0.0)]
    )
    def test_kdim1_inertia_22_exact_witness(self, eigs):
        h = rotated_diag(eigs, seed=len(eigs))
        m = len(eigs)
        f = frame_on_cone(h, m * (m + 1) // 2 - 1, seed=m)
        cert = certify(f, budget=50, seed=0)
        assert cert.verdict == "NotCPR"
        assert cert.method == "KernelWitness"
        assert cert.kernel_dim == 1
        assert cert.trials is None
        verify_witness(f, cert.witness, dist_floor=0.1)
        assert cert.witness.residual <= 1e-10
        verify_witness(f, falsify_exact(f), dist_floor=0.1)

    def test_kdim1_inertia_decides_generic_5x14(self):
        for seed in range(5):
            cert = certify(random_frame(5, 14, seed=seed), budget=10, seed=seed)
            assert cert.verdict == "CertifiedCPR"
            assert cert.method == "KernelInertia"
            assert cert.kernel_dim == 1

    def test_in_band_eigenvalue_falls_through(self):
        # the eigenvalue that would make (2, 1) into (3, 1) sits between
        # ZERO_EIG_TOL and INERTIA_MARGIN: too close to zero to sign
        f = frame_on_cone(rotated_diag((1.0, 0.8, 1e-8, -1.2), seed=9), 9, seed=9)
        cert = certify(f)
        assert cert.kernel_dim == 1
        assert cert.verdict == "Undecided"
        assert cert.method == "MonteCarlo"
        assert cert.trials == {"restarts": 0, "seed": 0}
        with pytest.raises(WrongDimensionError):
            falsify_exact(f)
        # the same frame shape with a clear third eigenvalue certifies, and
        # one inside ZERO_EIG_TOL counts as zero and is realized
        clear = frame_on_cone(rotated_diag((1.0, 0.8, 1e-3, -1.2), seed=9), 9, seed=9)
        assert certify(clear).method == "KernelInertia"
        zero = frame_on_cone(rotated_diag((1.0, 0.8, 1e-13, -1.2), seed=9), 9, seed=9)
        cert = certify(zero)
        assert cert.method == "KernelWitness"
        verify_witness(zero, cert.witness, dist_floor=0.1)

    def test_m2_violating_subset_matches_walk(self):
        rng = rng_stream(507, 0)
        for n in range(2, 15):
            for _ in range(40 if n <= 10 else 3):
                u, v = rng.standard_normal((2, 2))
                side = rng.integers(0, 3, size=n)  # 0: line u, 1: line v, 2: zero
                side[rng.permutation(n)[:2]] = (0, 1)  # both lines present
                scale = rng.uniform(0.5, 2.0, n) * rng.choice((-1.0, 1.0), n)
                mat = np.where(side == 0, u[:, None], v[:, None]) * scale
                mat[:, side == 2] = 0.0
                f = RealFrame(mat)
                cert = certify(f)
                ok, walk = complement_property(f)
                assert not ok and cert.verdict == "NotCPR"
                assert cert.violating_subset == walk

    def test_m1_always_certified(self):
        cert = certify(RealFrame([[1.0, 2.0]]))
        assert cert.verdict == "CertifiedCPR"

    def test_rejects_complex(self):
        cf = ComplexFrame(np.array([[1.0, 1j, 0.5], [0.0, 1.0, 1j]]))
        with pytest.raises(ValidationError, match="strict"):
            certify(cf)


class TestDet2Factorization:
    def test_signed_identity_in_lift_order(self):
        # det of the diagonal-first lifted operator equals
        # -2 (a1 b2 - a2 b1)(a1 c2 - a2 c1)(b1 c2 - b2 c1) including sign
        rng = rng_stream(501, 0)
        for _ in range(1000):
            mat = rng.standard_normal((2, 3))
            (a1, b1, c1), (a2, b2, c2) = mat
            factored = -2 * (a1 * b2 - a2 * b1) * (a1 * c2 - a2 * c1) * (b1 * c2 - b2 * c1)
            det = np.linalg.det(omega_matrix(mat))
            assert det == pytest.approx(factored, rel=1e-10, abs=1e-12)


class TestFalsifyExact:
    def test_random_underdetermined(self):
        for seed in range(30):
            f = random_frame(3, 5, seed=seed)
            pair = falsify_exact(f)
            verify_witness(f, pair, dist_floor=0.1)
            assert pair.residual <= 1e-10

    def test_standard_basis_m2(self):
        f = RealFrame(np.eye(2))
        basis = kernel_basis(omega_matrix(f))
        assert len(basis) == 1
        np.testing.assert_allclose(np.abs(basis[0]), [0.0, 0.0, 1.0], atol=1e-12)
        pair = falsify_exact(f)
        verify_witness(f, pair, dist_floor=0.1)
        # kernel matrix [[0,1],[1,0]] has eigenvalues +-1
        w = np.linalg.eigvalsh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-15)

    def test_no_kernel(self):
        with pytest.raises(NoKernelError):
            falsify_exact(FRAME_2X3)

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimensionError):
            falsify_exact(random_frame(4, 8, seed=0))

    def test_kernel_proves_no_pair(self):
        with pytest.raises(NoKernelError, match="three eigenvalues"):
            falsify_exact(quadric_cone_frame_4d(9, seed=777))
        with pytest.raises(NoKernelError, match="injective"):
            falsify_exact(random_frame(4, 10, seed=0))


class TestFalsifySearch:
    def test_finds_witnesses_underdetermined_m3(self):
        found = 0
        frames = 40
        for seed in range(frames):
            f = random_frame(3, 5, seed=seed)
            pair = falsify_search(f, budget=100, seed=seed)
            if pair is not None:
                verify_witness(f, pair, gap_tol=1e-6, dist_floor=0.05)
                exact = falsify_exact(f)  # cross-validate both routes agree
                verify_witness(f, exact)
                found += 1
        assert found == frames

    def test_retrievable_frame_finds_nothing(self):
        assert falsify_search(FRAME_2X3, budget=10_000, seed=0) is None

    def test_deterministic(self):
        f = random_frame(3, 5, seed=7)
        a = falsify_search(f, budget=64, seed=5)
        b = falsify_search(f, budget=64, seed=5)
        assert a is not None and b is not None
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_budget_validation(self):
        with pytest.raises(ValidationError):
            falsify_search(FRAME_2X3, budget=0)

    def test_kernel_decided_frames_run_no_restart(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pair_search ran on a kernel-decided frame")

        monkeypatch.setattr(_kernels, "pair_search", refuse)
        frames = [random_frame(4, 10, seed=s) for s in range(3)]
        frames += [random_frame(5, 14, seed=s) for s in range(3)]
        frames += [quadric_cone_frame_4d(9, seed=777), FRAME_2X3]
        for f in frames:
            assert falsify_search(f, budget=10_000, seed=0) is None
            assert certify(f, budget=64).verdict == "CertifiedCPR"


class TestPairSearchKernel:
    """Per-restart contract of ``_kernels.pair_search`` (delta 0.1, penalty 1e3)."""

    @staticmethod
    def run(starts, max_iter=100):
        phi = random_frame(3, 5, seed=11).matrix
        return _kernels.pair_search(phi, starts, 0.1, 1e3, max_iter)

    def test_restart_independent_of_batch(self):
        starts = rng_stream(503, 0).standard_normal((40, 12))
        full = self.run(starts)
        part = self.run(starts[7:19])
        for a, b in zip(full, part):
            assert np.array_equal(a[7:19], b)

    def test_stopped_restarts_stay_frozen(self):
        starts = rng_stream(503, 1).standard_normal((40, 12))
        short = self.run(starts, max_iter=100)
        longer = self.run(starts, max_iter=150)
        iters = short[4]
        stopped = iters < 100
        assert stopped.any() and not stopped.all()
        assert iters.min() >= 1 and longer[4].max() <= 150
        for a, b in zip(short, longer):
            assert np.array_equal(a[stopped], b[stopped])


class TestImGram:
    def test_rows_match_hand_loop(self):
        rng = rng_stream(502, 0)
        mat = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        g = im_gram(ComplexFrame(mat))
        for n in range(4):
            idx = 0
            for j in range(3):
                for k in range(j + 1, 3):
                    expected = (np.conj(mat[j, n]) * mat[k, n]).imag
                    assert g[n, idx] == pytest.approx(expected, abs=1e-15)
                    idx += 1

    def test_real_frame_rows_vanish(self):
        assert np.array_equal(im_gram(FRAME_2X3), np.zeros((3, 1)))


def phased_real_frame(rng, m, n):
    cols = []
    for _ in range(n):
        cols.append(np.exp(1j * rng.uniform(0, 2 * np.pi)) * rng.standard_normal(m))
    return ComplexFrame(np.array(cols).T)


def frame_blind_to(rng, y0, n):
    """Complex frame whose vectors all satisfy the pair-sum identity for y0.

    Each random column gets the phase of its first coordinate adjusted so
    that its imaginary-gram row is orthogonal to im_products(y0); columns
    where no phase works are resampled.
    """
    m = y0.shape[0]
    s0 = im_products(y0)
    iu, ju = np.triu_indices(m, k=1)
    cols = []
    while len(cols) < n:
        phi = random_signal(rng, m)
        # row(phi) . s0 = Im(conj(phi_1) w) + const, with w collecting the
        # s0-weighted partners of coordinate 1
        w = np.zeros((), dtype=complex)
        const = 0.0
        for s_val, j, k in zip(s0, iu, ju):
            if j == 0:
                w = w + s_val * phi[k]
            else:
                const += s_val * (np.conj(phi[j]) * phi[k]).imag
        rho = abs(phi[0])
        if rho * abs(w) <= abs(const) or abs(w) < 1e-12:
            continue
        beta = np.angle(w)
        alpha = beta - np.arcsin(-const / (rho * abs(w)))
        phi[0] = rho * np.exp(1j * alpha)
        row = np.array([(np.conj(phi[j]) * phi[k]).imag for j, k in zip(iu, ju)])
        if abs(row @ s0) > 1e-12 * np.linalg.norm(phi) ** 2:
            continue
        cols.append(phi)
    mat = np.array(cols).T
    return ComplexFrame(mat)


class TestStrictReport:
    def test_real_frame(self):
        report = conjpr.strict_report(FRAME_2X3)
        assert report.verdict == "StrictlyCPR"
        np.testing.assert_array_equal(report.witness_y, np.array([1.0, 1j]))
        gap, _ = measurement_gap(FRAME_2X3, report.witness_y, np.conj(report.witness_y))
        assert gap == 0.0

    def test_real_frame_witness_dim5(self):
        f = random_frame(5, 14, seed=0)
        report = conjpr.strict_report(f)
        assert report.verdict == "StrictlyCPR"
        assert not is_phased_real(report.witness_y)
        gap, _ = measurement_gap(f, report.witness_y, np.conj(report.witness_y))
        assert gap == 0.0

    def test_nonphased_vector_blocks_strictness_m2(self):
        rng = rng_stream(503, 0)
        for _ in range(30):
            mat = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            f = ComplexFrame(mat)
            if np.all([is_phased_real(mat[:, k]) for k in range(4)]):
                continue
            report = conjpr.strict_report(f)
            assert report.verdict == "ComplexPRCandidate"
            assert report.witness_y is None

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 7), (4, 9)])
    def test_phased_real_frames_strict(self, m, n):
        rng = rng_stream(504, m)
        report = conjpr.strict_report(phased_real_frame(rng, m, n))
        assert report.verdict == "StrictlyCPR"
        assert report.witness_y is not None
        assert not is_phased_real(report.witness_y)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_constructed_blind_frame(self, m):
        rng = rng_stream(505, m)
        y0 = random_signal(rng, m)
        f = frame_blind_to(rng, y0, max(m, m * (m - 1) // 2 - 1))
        report = conjpr.strict_report(f)
        assert report.im_gram_nullity >= 1
        assert report.verdict == "StrictlyCPR"
        y = report.witness_y
        assert not is_phased_real(y)
        gap, scale = measurement_gap(f, y, np.conj(y))
        assert gap <= 1e-8 * max(scale, 1e-30)

    def test_m1_candidate(self):
        report = conjpr.strict_report(RealFrame([[1.0, 2.0]]))
        assert report.verdict == "ComplexPRCandidate"


class TestImSumIdentity:
    def test_three_hundred_random(self):
        rng = rng_stream(506, 0)
        for _ in range(300):
            m = int(rng.integers(2, 7))
            x, phi = random_signal(rng, m), random_signal(rng, m)
            lhs = abs(np.sum(x * np.conj(phi))) ** 2 - abs(np.sum(np.conj(x) * np.conj(phi))) ** 2
            total = 0.0
            for j in range(m):
                for k in range(j + 1, m):
                    total += (x[j] * np.conj(x[k])).imag * (np.conj(phi[j]) * phi[k]).imag
            scale = (np.linalg.norm(x) * np.linalg.norm(phi)) ** 2
            assert abs(lhs + 4.0 * total) <= 1e-10 * scale
