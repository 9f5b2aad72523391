import importlib

import numpy as np
import pytest

from conftest import (
    measurement_gap,
    quadric_cone_frame_4d,
    random_orthogonal,
    random_signal,
    svd_calls,
    symmetrized,
)

import conjpr
from conjpr import _kernels, frames_io
from conjpr import (
    ComplexFrame,
    RealFrame,
    certify,
    complement_property,
    conj_class_distance,
    devectorize,
    falsify_exact,
    falsify_search,
    im_gram,
    im_products,
    is_phased_real,
    kernel_basis,
    lift_dim,
    measure,
    numeric_rank,
    omega_matrix,
    random_frame,
    rng_stream,
    strict_report,
    vectorize,
)
from conjpr.certify import (
    PAIR_GAP_TOL,
    SEARCH_DISTANCE,
    _SEARCH_MAX_ITER,
    _kernel_matrices,
    _kernel_pair,
    _pair_gap,
)
from conjpr.errors import (
    NoKernelError,
    ValidationError,
    WrongDimensionError,
)
from conjpr.witness import ZERO_EIG_TOL, _spectral_pair

# the module; the package attribute conjpr.certify is the function
certify_module = importlib.import_module("conjpr.certify")

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


def planted_difference(m, seed):
    """Re(xx* - yy*) for a random pair: frames on its cone have the pair as a witness.

    Search such a frame with a seed other than ``seed``: the search's restart
    2 would start from this pair.
    """
    rng = rng_stream(seed, 2)
    x, y = random_signal(rng, m), random_signal(rng, m)
    return np.real(np.outer(x, x.conj()) - np.outer(y, y.conj()))


def rotated_diag(eigs, seed):
    u = random_orthogonal(rng_stream(seed, 1), len(eigs))
    return symmetrized(u @ np.diag(eigs) @ u.T)


def verify_witness(frame, pair, gap_tol=1e-9, dist_floor=0.05):
    gap, scale = measurement_gap(frame, pair.x, pair.y)
    assert gap <= gap_tol * max(scale, 1e-30)
    assert conj_class_distance(pair.x, pair.y) >= dist_floor


def unit_columns(frame):
    return frame.matrix / np.linalg.norm(frame.matrix, axis=0)


def row_scaled(m, n, seed):
    """random_frame(m, n, seed) with row 0 scaled by 1e3 and row m - 1 by 1e-2.

    D Phi retrieves exactly when Phi does (x -> D x is a real bijection), but
    the SVD that finds its lift kernel is far worse conditioned.
    """
    mat = random_frame(m, n, seed=seed).matrix.copy()
    mat[0] *= 1e3
    mat[m - 1] *= 1e-2
    return RealFrame(mat)


def worst_column_gap(frame, pair):
    """max_k | |<x, phi_k>|^2 - |<y, phi_k>|^2 | / |phi_k|^2, from inner products."""
    mat = frame.matrix
    bx = np.abs(mat.T @ pair.x) ** 2
    by = np.abs(mat.T @ pair.y) ** 2
    return float(np.max(np.abs(bx - by) / np.sum(mat**2, axis=0)))


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

    @pytest.mark.parametrize(
        "om", [[[np.nan, 1.0, 0.0]], [[np.inf, 1.0, 0.0]], [1.0, 0.0, 0.0]]
    )
    def test_rejects_nonfinite_or_non_matrix(self, om):
        with pytest.raises(ValidationError):
            kernel_basis(np.asarray(om))

    def test_kernel_vectors_annihilate(self):
        om = omega_matrix(random_frame(3, 5, seed=3))
        for v in kernel_basis(om):
            assert np.linalg.norm(om @ v) <= 1e-10 * np.linalg.norm(om)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestSharedSvd:
    def test_cached_arrays_read_only_and_basis_rows_owned(self, monkeypatch):
        om = omega_matrix(random_frame(3, 5, seed=3))
        calls = svd_calls(monkeypatch)
        first = kernel_basis(om)
        expected = [v.copy() for v in first]
        for arr in certify_module._svd(om):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0
        first[0][:] = 7.0
        again = kernel_basis(om)
        assert len(calls) == 1
        assert all(v.flags.writeable for v in again)
        assert all(np.array_equal(v, w) for v, w in zip(again, expected))

    def test_tall_thin_svd_gives_full_bits(self):
        # the premise of byte-identical outputs: for rows >= cols the thin
        # SVD's s is the full one's, and so is its Vh up to 28 columns (Omega
        # at M <= 7, im_gram at M <= 8), on either side of LAPACK's QR-first
        # threshold (rows >= 11/6 cols).  At 34 to 42 columns (Omega at M = 8)
        # and about four times as many rows or more, OpenBLAS 0.3.31's full
        # SVD gives a Vh a few ulps away
        mats = []
        for m in range(2, 9):
            L = lift_dim(m)
            for n in (L, L + 1, (11 * L) // 6, 2 * L, 5 * L):
                mats += [omega_matrix(random_frame(m, n, seed)) for seed in range(2)]
        rng = rng_stream(650, 0)
        for m in range(3, 9):
            pairs = m * (m - 1) // 2
            for n in (pairs, pairs + 1, 2 * pairs, 6 * pairs):
                n = max(n, m)
                mat = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
                mats.append(im_gram(ComplexFrame(mat)))
        for mat in mats:
            assert mat.shape[0] >= mat.shape[1]
            _, s, vh = certify_module._svd(mat)
            _, s_full, vh_full = np.linalg.svd(mat)
            assert s.tobytes() == s_full.tobytes(), mat.shape
            assert np.abs(vh - vh_full).max() <= 1e-14, mat.shape
            if mat.shape[1] <= 28:
                assert vh.tobytes() == vh_full.tobytes(), mat.shape

    def test_tall_inputs_never_ask_for_a_full_u(self, monkeypatch):
        # with the full SVD these two calls built N x N U's: 0.1 to 0.4 s
        # and 0.1 GB peak, and 0.2 to 0.4 s and 0.18 GB
        rng = rng_stream(651, 0)
        frame = ComplexFrame(rng.standard_normal((4, 3000)) + 1j * rng.standard_normal((4, 3000)))
        calls = svd_calls(monkeypatch)
        assert certify(random_frame(4, 2000, seed=0)).verdict == "CertifiedCPR"
        assert strict_report(frame).verdict == "ComplexPRCandidate"
        tall = [c for c in calls if c[0][0] > c[0][1] and c[2]]
        assert [c[0] for c in tall] == [(2000, 10), (3000, 6)]
        assert not any(full for _, full, _ in tall)


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

    def test_wide_eigenvalue_spread_two_by_two(self):
        # the kernel matrix's two eigenvalues have magnitudes 1 and 2.5e-9
        # (e^2/4 for e = 1e-4): the spectral split still realizes it to round-off
        f = RealFrame([[1.0, 1.0], [0.0, 1e-4]])
        cert = certify(f)
        assert (cert.verdict, cert.method) == ("NotCPR", "TooFewVectors")
        assert cert.witness.residual <= 1e-12
        verify_witness(f, cert.witness)

    @pytest.mark.parametrize("budget", [0, 32])
    @pytest.mark.parametrize("e", [1e-6, 3.6e-6, 1.3e-5])
    def test_kernel_eigenvalue_below_zero_tol_two_by_two(self, e, budget):
        # the kernel matrix's small eigenvalue, e^2/4, is under ZERO_EIG_TOL of
        # its norm, so it reads one-signed once thresholded; its unthresholded
        # eigenvalues have both signs and build the pair
        f = RealFrame([[1.0, 1.0], [0.0, e]])
        cert = certify(f, budget=budget)
        assert (cert.verdict, cert.method) == ("NotCPR", "TooFewVectors")
        assert cert.witness.residual <= 1e-12
        verify_witness(f, cert.witness)

    @pytest.mark.parametrize("budget", [0, 32])
    @pytest.mark.parametrize("e", [1e-6, 3.6e-6])
    @pytest.mark.parametrize("row", [0, 1])
    def test_kernel_eigenvalue_below_zero_tol_three_by_five(self, row, e, budget):
        mat = random_frame(3, 5, seed=0).matrix.copy()
        mat[row] *= e
        f = RealFrame(mat)
        cert = certify(f, budget=budget)
        assert (cert.verdict, cert.method, cert.kernel_dim) == ("NotCPR", "KernelWitness", 1)
        assert cert.witness.residual <= 1e-9
        # x or y lies along the scaled row, where every measurement is tiny:
        # bound the gap by the frame's scale, not by the measurements'
        x, y = cert.witness.x, cert.witness.y
        gap, _ = measurement_gap(f, x, y)
        assert gap <= 1e-12 * np.max(np.sum(mat**2, axis=0)) * (x @ x.conj() + y @ y.conj()).real
        assert conj_class_distance(x, y) >= 0.5

    def test_one_signed_kernel_matrix_is_undecided(self):
        # round-off can leave even the unthresholded kernel eigenvalues of
        # this frame one-signed, depending on the LAPACK build; whatever they
        # read, certify returns a verdict, and without a pair it is Undecided
        mat = random_frame(3, 5, seed=20).matrix.copy()
        mat[1] *= 1e-8
        f = RealFrame(mat)
        for budget in (0, 32):
            cert = certify(f, budget=budget)
            assert cert.verdict in ("NotCPR", "Undecided")
            assert (cert.verdict == "NotCPR") == (cert.witness is not None)

    @pytest.mark.parametrize("e", [1e-6, 1e-8])
    def test_round_off_kernel_at_m4_is_undecided(self, e):
        # scaling a row keeps a generic 4x10 frame retrievable, but its lift
        # gains a near-null direction close to the one-signed e4 e4^T: no
        # pair may be read from round-off signs, by the ladder or the search
        for seed in range(3):
            mat = random_frame(4, 10, seed=seed).matrix.copy()
            mat[3] *= e
            for budget in (0, 16):
                cert = certify(RealFrame(mat), budget=budget)
                assert (cert.verdict, cert.method) == ("Undecided", "MonteCarlo")
                assert cert.kernel_dim == 1

    def test_kernel_pair_needs_both_signs_unthresholded(self, monkeypatch):
        # the ladder reads its kernel matrix through kernel_basis: hand it H
        def certify_kernel(eigs):
            v = vectorize(rotated_diag(eigs, seed=3))
            monkeypatch.setattr(certify_module, "kernel_basis", lambda om: [v])
            return certify(random_frame(3, 5, seed=0))

        # thresholded one-signed, both signs raw: the raw split realizes H
        cert = certify_kernel((1.0, 0.5, -1e-12))
        assert (cert.verdict, cert.method) == ("NotCPR", "KernelWitness")
        assert cert.witness.residual <= 1e-12
        assert np.count_nonzero(cert.witness.y) > 0
        # one-signed even raw: no pair, and no exception
        cert = certify_kernel((1.0, 0.5, 1e-12))
        assert (cert.verdict, cert.method, cert.witness) == ("Undecided", "MonteCarlo", None)

    def test_one_eigh_per_kernel_matrix(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(
            certify_module, "witness_general", counted("witness_general", conjpr.witness_general)
        )
        lines = RealFrame([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, -3.0]])
        for f, method, subset in (
            (lines, "KernelWitness", (0, 2)),  # M = 2: pair and violating split
            (RealFrame([[1.0, 1.0], [0.0, 1e-6]]), "TooFewVectors", (0,)),  # the raw split
            (random_frame(3, 5, seed=0), "KernelWitness", None),
            (quadric_cone_frame_4d(9, seed=777), "KernelInertia", None),
        ):
            calls.clear()
            cert = certify(f)
            assert (cert.method, cert.violating_subset) == (method, subset)
            assert calls == ["eigh"]
        # M = 4, 5 with a kernel of dimension >= 2: the pencil reuses H_1's
        # eigh, a realizable H_1 is split, and an unrealizable one adds one
        # stacked eigh of the pencil's singular matrices
        for f, stack in ((random_frame(4, 8, seed=0), False), (random_frame(4, 8, seed=4), True),
                         (random_frame(5, 11, seed=0), True)):
            calls.clear()
            cert = certify(f)
            assert cert.method == "KernelPencil" and cert.kernel_dim >= 2
            assert calls == ["eigh", "eigh"] if stack else calls == ["eigh"]
        # M >= 6 with a kernel of dimension >= 2 at budget 0: no eigenvalue
        # is computed (at M = 4, 5 the kernel pencil answers)
        calls.clear()
        assert certify(random_frame(6, 17, seed=0)).method == "MonteCarlo"
        assert calls == []

    def test_exact_steps_build_no_orthonormal_kernel(self, monkeypatch):
        # the QR of _kernel_matrices serves the search alone: at budget 0 no
        # frame at M = 4, 5 runs it, row-scaled (open) frames included
        def no_qr(*args, **kwargs):
            raise AssertionError("np.linalg.qr called")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        methods = set()
        for m, n in ((4, 5), (4, 7), (4, 8), (4, 9), (4, 10), (5, 8), (5, 11), (5, 13), (5, 14)):
            for seed in range(4):
                methods.add(certify(random_frame(m, n, seed=seed)).method)
                methods.add(certify(row_scaled(m, n, seed)).method)
        assert {"KernelPencil", "KernelWitness", "MonteCarlo", "TooFewVectors"} <= methods

    @pytest.mark.parametrize("e", [1e-5, 1e-6, 1e-7, 1e-8])
    def test_m2_split_needs_rank_confirmation(self, e):
        # three lines, two of them within e: round-off gives the lift a
        # kernel, but no split of the columns violates the complement property
        cert = certify(RealFrame([[1.0, 1.0, 2.0], [0.0, e, 3 * e]]))
        assert (cert.verdict, cert.method) == ("NotCPR", "KernelWitness")
        assert cert.violating_subset is None

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

    def test_m6_below_generic_search_refines_to_notcpr(self):
        # 16 < 4*6-6 measurements: the searcher finds a genuine pair here
        f = random_frame(6, 16, seed=4)
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

    @pytest.mark.parametrize("seed", range(601, 607))
    def test_planted_6x18_search_witness(self, seed):
        # 4M-6 vectors on the cone of Re(xx* - yy*): kernel dimension 3, and
        # the kernel holds the planted pair's matrix, so a pair exists
        f = frame_on_cone(planted_difference(6, seed), 18, seed)
        cert = certify(f, budget=64, seed=0)
        assert cert.kernel_dim == 3
        assert cert.verdict == "NotCPR"
        assert cert.method == "SearchWitness"
        verify_witness(f, cert.witness, gap_tol=1e-6, dist_floor=0.1)
        x, y = cert.witness.x, cert.witness.y
        assert np.linalg.norm(x) ** 2 + np.linalg.norm(y) ** 2 == pytest.approx(2.0)

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
        for eps in (1e-11, 1e-13):
            zero = frame_on_cone(rotated_diag((1.0, 0.8, eps, -1.2), seed=9), 9, seed=9)
            cert = certify(zero, budget=8)
            assert cert.method == "KernelWitness"
            verify_witness(zero, cert.witness, dist_floor=0.1)

    @pytest.mark.parametrize("eps", [3e-7, 1e-7, 1e-8, 1e-9])
    def test_in_band_eigenvalue_search_finds_no_pair(self, eps):
        # kernel inertia (3, 1) with the third eigenvalue inside the band: no
        # exact pair exists, and a search hit needs every residual eigenvalue
        # within ZERO_EIG_TOL, so a gap of eps is no witness
        h = rotated_diag((1.0, 0.8, eps, -1.2), seed=9)
        f = frame_on_cone(h, 9, seed=9)
        cert = certify(f, budget=8)
        assert cert.kernel_dim == 1
        assert cert.verdict == "Undecided"
        assert cert.method == "MonteCarlo"
        assert set(cert.trials) == {"restarts", "seed", "best_gap", "best_distance"}
        assert cert.trials["best_gap"] == pytest.approx(eps, rel=0.01, abs=0.0)
        assert falsify_search(f, budget=8) is None
        # a one-dimensional kernel's sphere is two points: no iteration runs
        H = _kernel_matrices(kernel_basis(omega_matrix(f)), 4)
        starts = rng_stream(3, 0).standard_normal((8, 1))
        _, fs, _, _, iters = _kernels.pair_search(f.matrix, starts, 0.1, H, 100)
        assert np.all(iters == 0)
        residual = eps / np.linalg.norm(h)  # the in-band eigenvalue of the unit K
        assert np.sqrt(fs) == pytest.approx(np.full(8, residual), rel=0.01, abs=0.0)

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

    @pytest.mark.parametrize("entry", [falsify_exact, falsify_search, certify])
    @pytest.mark.parametrize(
        "mat", [[[1j, 1, 0], [0, 1, 1]], np.array([[1, 0, 1], [0, 1, 1]], dtype=complex)]
    )
    def test_rejects_complex_arrays(self, entry, mat):
        # a complex array is refused, not cast to its real part; so is one
        # whose imaginary parts are all zero
        with pytest.raises(ValidationError, match="strict_report"):
            entry(np.asarray(mat))


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
        # kernel dimension >= 2 is open only from M = 6 on
        with pytest.raises(WrongDimensionError):
            falsify_exact(random_frame(6, 17, seed=0))

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

    @pytest.mark.parametrize(
        "method,build",
        [
            ("KernelWitness", lambda: RealFrame([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])),
            ("KernelWitness", lambda: random_frame(3, 5, seed=2)),
            ("KernelWitness", lambda: frame_on_cone(rotated_diag((2.0, 0.5, -1.0, -3.0), 4), 9, 4)),
            ("MonteCarlo", lambda: frame_on_cone(rotated_diag((1.0, 0.8, 1e-8, -1.2), 9), 9, 9)),
            ("TooFewVectors", lambda: random_frame(4, 6, seed=1)),
            ("KernelPencil", lambda: random_frame(4, 8, seed=0)),
            ("SearchWitness", lambda: frame_on_cone(planted_difference(6, 603), 14, 603)),
        ],
        ids=[
            "m2 kernel", "m3 kernel", "kdim1 4x9", "in-band 4x9", "too few 4x6", "pencil 4x8",
            "planted 6x14",
        ],
    )
    def test_returns_the_certify_pair(self, method, build):
        # one answer per frame: the ladder's exact pair where the kernel
        # decides, its search where the question is open
        frame = build()
        cert = certify(frame, budget=32, seed=3)
        assert cert.method == method
        pair = falsify_search(frame, budget=32, seed=3)
        if method == "MonteCarlo":
            assert pair is None and cert.witness is None
            return
        assert np.array_equal(pair.x, cert.witness.x)
        assert np.array_equal(pair.y, cert.witness.y)
        assert pair.residual == cert.witness.residual
        verify_witness(frame, pair, gap_tol=1e-6, dist_floor=0.05)

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

    @pytest.mark.parametrize("budget", [0.5, 1.5, True, -1, "8", None])
    def test_budget_must_be_an_integer(self, budget):
        # one check serves both: certify takes 0 (no search), falsify_search 1
        f = random_frame(4, 8, seed=4)
        with pytest.raises(ValidationError, match="budget"):
            certify(f, budget=budget)
        with pytest.raises(ValidationError, match="budget"):
            falsify_search(f, budget=budget)

    def test_numpy_integer_budget(self):
        f = random_frame(6, 17, seed=4)
        cert = certify(f, budget=np.int64(8), seed=1)
        assert cert.trials["restarts"] == 8 and type(cert.trials["restarts"]) is int
        assert certify(f, budget=np.int64(0)).trials == {"restarts": 0, "seed": 0}

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # checked at entry, so an Undecided certificate at budget 0 never
        # records a seed that load_certificate would refuse
        undecided = frame_on_cone(rotated_diag((1.0, 0.8, 1e-8, -1.2), seed=9), 9, seed=9)
        for frame in (undecided, random_frame(4, 8, seed=4)):
            with pytest.raises(ValidationError, match="seed"):
                certify(frame, seed=seed)
            with pytest.raises(ValidationError, match="seed"):
                falsify_search(frame, budget=4, seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            rng_stream(seed, 0)

    def test_numpy_integer_seed(self, tmp_path):
        undecided = frame_on_cone(rotated_diag((1.0, 0.8, 1e-8, -1.2), seed=9), 9, seed=9)
        cert = certify(undecided, seed=np.int64(7))
        assert cert.trials == {"restarts": 0, "seed": 7} and type(cert.trials["seed"]) is int
        frames_io.save_certificate(cert, tmp_path / "c.json")
        assert frames_io.load_certificate(tmp_path / "c.json")[0].trials == cert.trials
        assert np.array_equal(rng_stream(np.int64(7), 1).standard_normal(3),
                              rng_stream(7, 1).standard_normal(3))

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


class TestKernelPencil:
    """At M = 4, 5 a kernel of dimension >= 2 always holds a matrix a pair realizes."""

    @pytest.mark.parametrize(
        "m, n", [(4, 5), (4, 6), (4, 7), (4, 8), (5, 8), (5, 9), (5, 10), (5, 11), (5, 12), (5, 13)]
    )
    def test_pair_on_every_frame(self, m, n):
        # 4x5, 4x6 and 5x8 have too few vectors: certify at budget 0 keeps
        # TooFewVectors without a pair, and the pencil's pair is falsify_exact's
        too_few = n <= 2 * m - 2
        for seed in range(50):
            f = random_frame(m, n, seed=seed)
            cert = certify(f)
            assert cert.trials is None and cert.kernel_dim == lift_dim(m) - n
            pair = falsify_exact(f)
            verify_witness(f, pair)
            assert _pair_gap(unit_columns(f), pair.x, pair.y) <= PAIR_GAP_TOL
            if too_few:
                assert (cert.method, cert.witness) == ("TooFewVectors", None)
            else:
                assert (cert.verdict, cert.method) == ("NotCPR", "KernelPencil")
                assert pair.x.tobytes() == cert.witness.x.tobytes()

    def test_budget_zero_4x8(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pair_search ran where the pencil answers")

        monkeypatch.setattr(_kernels, "pair_search", refuse)
        f = random_frame(4, 8, seed=0)
        cert = certify(f)
        assert (cert.verdict, cert.method, cert.kernel_dim, cert.trials) == (
            "NotCPR", "KernelPencil", 2, None
        )
        verify_witness(f, cert.witness, dist_floor=1.0)
        searched = certify(f, budget=64, seed=3)
        assert searched.method == "KernelPencil" and searched.trials is None
        assert searched.witness.x.tobytes() == cert.witness.x.tobytes()
        assert falsify_search(f, budget=64).y.tobytes() == cert.witness.y.tobytes()

    def test_too_few_vectors_at_m4(self, monkeypatch):
        # N <= 2M - 2 is NotCPR by counting: budget 0 attaches no pair, a
        # budget above 0 attaches the pencil's and runs no restart
        f = random_frame(4, 6, seed=1)
        cert = certify(f)
        assert (cert.verdict, cert.method, cert.witness, cert.trials) == (
            "NotCPR", "TooFewVectors", None, None
        )
        monkeypatch.setattr(_kernels, "pair_search", None)
        paired = certify(f, budget=8)
        assert (paired.verdict, paired.method, paired.trials) == ("NotCPR", "TooFewVectors", None)
        verify_witness(f, paired.witness)
        assert paired.witness.x.tobytes() == falsify_exact(f).x.tobytes()

    def test_crossing_of_an_unrealizable_first_matrix(self):
        # H_1 of inertia (3, 1) or (3, 2) is no pair's; the pencil still has
        # a singular matrix with at most two eigenvalues of each sign
        rng = rng_stream(33, 0)
        for eigs in ((1.0, 0.7, 0.4, -1.0), (1.0, 0.7, 0.4, -1.0, -0.5)):
            m = len(eigs)
            for _ in range(25):
                h1 = rotated_diag(eigs, seed=int(rng.integers(1 << 30)))
                h2 = symmetrized(rng.standard_normal((m, m)))
                h1 /= np.linalg.norm(h1)
                h2 -= np.sum(h1 * h2) * h1
                h2 /= np.linalg.norm(h2)
                w, U = np.linalg.eigh(h1)
                pair = _kernel_pair(w, U, h1, h2)
                assert pair is not None and pair.residual <= 1e-12
                t = pair.target
                coef = [np.sum(t * h1), np.sum(t * h2)]
                assert np.linalg.norm(t - coef[0] * h1 - coef[1] * h2) <= 1e-12 * np.linalg.norm(t)
                assert np.abs(np.linalg.eigvalsh(t)).min() <= 1e-12 * np.linalg.norm(t)

    @pytest.mark.parametrize("column", [0, 5])
    def test_gate_rejects_round_off_pencil_pairs(self, column):
        # a column at norm 1e5 leaves a numerical kernel of round-off: the
        # pencil splits a matrix of it, and only the measurement gate keeps
        # that pair off the certificate
        for seed in range(4):
            mat = random_frame(4, 10, seed=seed).matrix.copy()
            mat[:, column] *= 1e5
            f = RealFrame(mat)
            cert = certify(f)
            assert cert.kernel_dim >= 2
            assert (cert.verdict, cert.method, cert.witness) == ("Undecided", "MonteCarlo", None)
            assert cert.trials == {"restarts": 0, "seed": 0}
            h1, h2 = (devectorize(v) for v in kernel_basis(omega_matrix(f))[:2])
            w, U = np.linalg.eigh(h1)
            kept = np.where(np.abs(w) > ZERO_EIG_TOL * np.linalg.norm(h1), w, 0.0)
            pair = _kernel_pair(kept, U, h1, h2)
            assert pair is None or _pair_gap(unit_columns(f), pair.x, pair.y) > PAIR_GAP_TOL
            with pytest.raises(WrongDimensionError, match="measurement gate"):
                falsify_exact(f)


class TestMeasurementGate:
    @pytest.mark.parametrize("seed", range(101, 117))
    def test_row_scaled_6x18_is_never_notcpr(self, seed):
        # N = 4M - 6 frames retrieve, and so do their row scalings; the
        # search's hits there are round-off whose measurements differ by
        # 2.5e-3 to 1.1e-1 of their size, which the gate drops
        cert = certify(row_scaled(6, 18, seed), budget=64, seed=seed % 7)
        assert (cert.verdict, cert.method, cert.witness) == ("Undecided", "MonteCarlo", None)
        assert cert.trials["restarts"] == 64

    @pytest.mark.parametrize("m, n", [(4, 10), (5, 14)])
    def test_row_scaled_retrievable_sizes_are_never_notcpr(self, m, n):
        # the unscaled twins are CertifiedCPR and row scaling keeps the
        # verdict; the SVD finds a kernel matrix marred by round-off (at 4x10
        # a kernel of round-off alone), and its split misses by 2e-5 to 0.9
        # over the unit columns
        for seed in range(12):
            f = row_scaled(m, n, seed)
            for budget in (0, 64):
                cert = certify(f, budget=budget, seed=seed)
                assert cert.verdict != "NotCPR", (seed, budget, cert.method)

    @pytest.mark.parametrize("m, n", [(4, 9), (4, 10), (5, 14)])
    def test_every_attached_pair_passes_the_gate(self, m, n):
        for seed in range(12):
            f = row_scaled(m, n, seed)
            for budget in (0, 64):
                cert = certify(f, budget=budget, seed=seed)
                if cert.verdict == "NotCPR":
                    pair = cert.witness
                    assert _pair_gap(unit_columns(f), pair.x, pair.y) <= PAIR_GAP_TOL

    @pytest.mark.parametrize("seed", [0, 2, 5, 10, 11])
    def test_row_scaled_4x9_with_dropped_pairs_is_not_certified(self, seed):
        # these frames are NotCPR unscaled; row scaled, the gate drops their
        # kernel pair, which leaves the question open and never certifies
        f = row_scaled(4, 9, seed)
        assert certify(random_frame(4, 9, seed=seed)).method == "KernelWitness"
        for budget in (0, 64):
            assert certify(f, budget=budget, seed=seed).verdict != "CertifiedCPR"

    def test_gap_is_relative_and_unit_column(self):
        f = random_frame(4, 8, seed=0)
        pair = certify(f).witness
        unit = unit_columns(f)
        gap = _pair_gap(unit, pair.x, pair.y)
        assert gap <= 1e-13
        # the same pair on the frame with rescaled columns: the same gap
        scaled = unit * np.array([1e5, 1.0, 1e-3, 1.0, 1.0, 2.0, 1.0, 1.0])
        rescaled = unit_columns(RealFrame(scaled))
        assert _pair_gap(rescaled, pair.x, pair.y) == pytest.approx(gap, abs=1e-15)
        # a perturbed pair is measured against its measurements' size
        assert _pair_gap(unit, pair.x, pair.y * (1.0 + 1e-6)) == pytest.approx(2e-6, rel=1e-3)

    def test_gap_conjugates_complex_columns(self):
        # strict_report gates y against conj(y): on complex columns the gap
        # reads the measurements that measure takes, <z, phi_k> = phi_k^* z
        f = gaussian_complex_frame(rng_stream(513, 0), 3, 5)
        unit = unit_columns(f)
        y = random_signal(rng_stream(513, 1), 3)
        by, bc = (measure(ComplexFrame(unit), z).values for z in (y, y.conj()))
        want = np.linalg.norm(by - bc) / max(np.linalg.norm(by), np.linalg.norm(bc))
        assert _pair_gap(unit, y, y.conj()) == pytest.approx(want, rel=1e-12)
        assert want > 1e-3


class TestPairSearchKernel:
    """Per-restart contract of ``_kernels.pair_search``, the kernel-sphere search."""

    @staticmethod
    def run(starts, max_iter=100):
        # generic 6x18: kernel dimension 3, no pair, restarts stop at
        # different iterations
        f = random_frame(6, 18, seed=3)
        H = _kernel_matrices(kernel_basis(omega_matrix(f)), 6)
        return _kernels.pair_search(f.matrix, starts, 0.1, H, max_iter)

    def test_restart_independent_of_batch(self):
        starts = rng_stream(503, 0).standard_normal((40, 3))
        full = self.run(starts)
        part = self.run(starts[7:19])
        for a, b in zip(full, part):
            assert np.array_equal(a[7:19], b)

    def test_stopped_restarts_stay_frozen(self):
        # the first-order stop ends most restarts between iterations 4 and 15,
        # the stall checkpoint at 20 the rest: at 15 both kinds are present
        starts = rng_stream(503, 1).standard_normal((40, 3))
        short = self.run(starts, max_iter=15)
        longer = self.run(starts, max_iter=25)
        iters = short[4]
        stopped = iters < 15
        assert stopped.any() and not stopped.all()
        assert iters.min() >= 1 and longer[4].max() <= 25
        for a, b in zip(short, longer):
            assert np.array_equal(a[stopped], b[stopped])

    def test_stall_rule_bounds_generic_restarts(self):
        # no pair exists on the generic fixture: every restart reaches a
        # nonzero minimum and stops long before max_iter, most of them at the
        # first-order stop before a stall checkpoint would fire (742 and 740
        # iterations with the checkpoint alone)
        # (test_planted_6x18_search_witness pins that hits are still found)
        for stream in (0, 1):
            _, f, _, d, iters = self.run(rng_stream(503, stream).standard_normal((40, 3)))
            assert iters.max() <= 30
            assert iters.sum() <= 500
            assert np.all(f > _kernels._HIT_F)
            assert np.all(d >= 1.0)

    def test_split_distance_at_least_one(self):
        # d = 2 |kept|_2 / |kept|_1 >= 1 with at most four kept eigenvalues
        # (Cauchy-Schwarz), so the caller's delta = SEARCH_DISTANCE < 1 never
        # rejects a hit; these frames have hits
        for m, n, seed in [(4, 7, 0), (5, 11, 1), (7, 21, 2)]:
            f = random_frame(m, n, seed=seed)
            H = _kernel_matrices(kernel_basis(omega_matrix(f)), m)
            starts = rng_stream(seed, 9).standard_normal((32, len(H)))
            _, _, _, d, _ = _kernels.pair_search(unit_columns(f), starts, SEARCH_DISTANCE, H, 100)
            assert np.all(d >= 1.0)
        assert SEARCH_DISTANCE < 1.0

    def test_kernel_matrices_frobenius_orthonormal(self):
        f = random_frame(6, 16, seed=5)
        basis = kernel_basis(omega_matrix(f))
        H = _kernel_matrices(basis, 6)
        assert H.shape == (5, 6, 6)
        # the one stacked devectorize gives the per-vector matrices' bits
        weight = np.full(lift_dim(6), np.sqrt(2.0))
        weight[:6] = 1.0
        q, _ = np.linalg.qr(weight[:, None] * np.array(basis).T)
        assert np.array_equal(H, np.stack([devectorize(v) for v in (q / weight[:, None]).T]))
        assert np.allclose(np.einsum("iab,jab->ij", H, H), np.eye(5), atol=1e-12)
        assert np.array_equal(H, H.transpose(0, 2, 1))
        assert np.max(np.abs(np.einsum("an,iab,bn->in", f.matrix, H, f.matrix))) < 1e-12

    def test_same_seed_same_witness_bits(self):
        f = frame_on_cone(planted_difference(6, seed=541), 14, seed=541)
        first = falsify_search(f, budget=16, seed=2)
        again = falsify_search(f, budget=16, seed=2)
        assert first is not None
        for a, b in zip(
            (first.x, first.y, first.target), (again.x, again.y, again.target)
        ):
            assert np.array_equal(a, b)
        cert = certify(f, budget=16, seed=2)
        assert cert.method == "SearchWitness"
        assert np.array_equal(cert.witness.x, first.x)
        assert np.array_equal(cert.witness.y, first.y)


class TestSearchProbe:
    """Below 4M-6 vectors restart 0 runs alone first; the answer is the full stack's."""

    BUDGET = 64

    @staticmethod
    def stack(f, seed, budget):
        # every restart in one pair_search call, answered by the lowest-index hit
        H = _kernel_matrices(kernel_basis(omega_matrix(f)), f.m)
        starts = frames_io._restart_starts(seed, budget, len(H))
        cs, fs, fmeas, ds, iters = _kernels.pair_search(
            unit_columns(f), starts, SEARCH_DISTANCE, H, _SEARCH_MAX_ITER
        )
        best = int(np.argmin(fs))
        trials = {
            "restarts": budget,
            "seed": seed,
            "best_gap": float(np.sqrt(fmeas[best])),
            "best_distance": float(ds[best]),
        }
        for r in np.flatnonzero(fs <= _kernels._HIT_F):
            w, U = np.linalg.eigh(np.tensordot(cs[r], H, 1))
            kept = np.where(_kernels.residual_mask(w), 0.0, w)
            if not (kept.min() < -ZERO_EIG_TOL and kept.max() > ZERO_EIG_TOL):
                continue
            kept *= 2.0 / np.sum(np.abs(kept))
            target = (U * kept) @ U.T
            pair = _spectral_pair(kept, U, (target + target.T) / 2.0)
            # the measurement gate: the first hit whose unit-column gap passes it
            if _pair_gap(unit_columns(f), pair.x, pair.y) <= PAIR_GAP_TOL:
                return pair, trials, iters
        return None, trials, iters

    def assert_same_answer(self, f, seed):
        pair, trials, iters = self.stack(f, seed, self.BUDGET)
        cert = certify(f, budget=self.BUDGET, seed=seed)
        if pair is None:
            assert (cert.verdict, cert.method, cert.witness) == ("Undecided", "MonteCarlo", None)
        else:
            assert (cert.verdict, cert.method) == ("NotCPR", "SearchWitness")
            for a, b in zip(
                (pair.x, pair.y, pair.target), (cert.witness.x, cert.witness.y, cert.witness.target)
            ):
                assert a.tobytes() == b.tobytes()
        return cert, trials, iters

    @pytest.mark.parametrize("m, n", [(6, 12), (6, 14), (7, 18)])
    def test_planted(self, m, n):
        for seed in range(3):
            f = frame_on_cone(planted_difference(m, 700 + seed), n, 700 + seed)
            self.assert_same_answer(f, seed)

    @pytest.mark.parametrize("scale", [1e5, 1e-3])
    @pytest.mark.parametrize("m, n", [(6, 12), (6, 14), (7, 18)])
    def test_planted_at_scale(self, m, n, scale):
        # column k's measurement gap grows as |phi_k|^2; the hit rule divides it out
        for seed in range(3):
            mat = frame_on_cone(planted_difference(m, 700 + seed), n, 700 + seed).matrix
            f = RealFrame(mat * scale)
            cert, _, _ = self.assert_same_answer(f, seed)
            assert cert.method == "SearchWitness"
            verify_witness(f, cert.witness)
            assert worst_column_gap(f, cert.witness) <= 1e-9

    @pytest.mark.parametrize("column", [0, 5])
    def test_one_large_column_keeps_the_gap_check(self, column):
        # a column at norm 1e5 puts round-off vectors into the numerical
        # kernel; their pairs fail the gap on the other columns by O(1), which
        # a bound set by the largest column alone would let through
        for seed in range(4):
            mat = random_frame(4, 10, seed=seed).matrix.copy()
            mat[:, column] *= 1e5
            f = RealFrame(mat)
            cert = certify(f, budget=16)
            assert cert.kernel_dim >= 2
            assert (cert.verdict, cert.method, cert.witness) == ("Undecided", "MonteCarlo", None)

    @pytest.mark.parametrize("m, n", [(6, 16), (6, 17), (7, 21)])
    def test_generic(self, m, n):
        for seed in range(3):
            self.assert_same_answer(random_frame(m, n, seed=seed), seed)

    def test_probe_hit_reports_restart_zero(self):
        f = random_frame(6, 17, seed=0)
        cert, trials, iters = self.assert_same_answer(f, 0)
        assert cert.method == "SearchWitness" and iters[0] < _kernels._STALL_EVERY
        _, _, fmeas, ds, _ = _kernels.pair_search(
            unit_columns(f), frames_io._restart_starts(0, 1, 4), SEARCH_DISTANCE,
            _kernel_matrices(kernel_basis(omega_matrix(f)), 6), _kernels._STALL_EVERY,
        )
        assert cert.trials == {
            "restarts": self.BUDGET,
            "seed": 0,
            "best_gap": float(np.sqrt(fmeas[0])),
            "best_distance": float(ds[0]),
        }

    @pytest.mark.parametrize(
        "m, n, seed",
        [
            (6, 17, 1),  # restart 0 stalls: restart 1 is the first hit
            (7, 21, 0),  # restart 0 hits after the probe's window
        ],
    )
    def test_probe_miss_reports_the_stack(self, m, n, seed):
        cert, trials, iters = self.assert_same_answer(random_frame(m, n, seed=seed), 0)
        assert iters[0] > _kernels._STALL_EVERY
        assert cert.method == "SearchWitness"
        assert cert.trials == trials

    def test_plateau_escape_keeps_its_hit(self):
        # restart 0 sits near f = 2e-4 from iteration 8 to 18, then reaches
        # f = 1.8e-24 at 24; its steps predict f to fall by at least 5e-3 of
        # it all along, so neither stop ends it before the hit
        f = random_frame(7, 21, seed=1024)
        cert, _, iters = self.assert_same_answer(f, 24)
        assert cert.method == "SearchWitness" and iters[0] >= 20
        # restart 0 alone finds the pair: it is the lowest-index hit
        alone, _, _ = self.stack(f, 24, 1)
        assert alone.x.tobytes() == cert.witness.x.tobytes()
        verify_witness(f, cert.witness)

    def test_calls(self, monkeypatch):
        calls = []
        search = _kernels.pair_search

        def record(phi, starts, delta, H, max_iter):
            calls.append((starts.shape[0], max_iter))
            return search(phi, starts, delta, H, max_iter)

        monkeypatch.setattr(_kernels, "pair_search", record)
        certify(random_frame(6, 17, seed=0), budget=64)  # probe hit
        assert calls == [(1, _kernels._STALL_EVERY)]
        calls.clear()
        certify(random_frame(6, 17, seed=1), budget=64)  # probe miss
        assert calls == [(1, _kernels._STALL_EVERY), (64, _SEARCH_MAX_ITER)]
        calls.clear()
        certify(random_frame(6, 18, seed=3), budget=64)  # N = 4M-6: no probe
        assert calls == [(64, _SEARCH_MAX_ITER)]

    def test_probe_start_is_the_stack_start(self):
        for seed in (0, 5, 123):
            for k in (1, 3, 7):
                one = frames_io._restart_starts(seed, 1, k)
                assert np.array_equal(one[0], frames_io._restart_starts(seed, 64, k)[0])


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

    @pytest.mark.parametrize("m", range(1, 9))
    def test_broadcast_equals_per_column_loop(self, m):
        rng = rng_stream(503, m)
        mat = rng.standard_normal((m, m + 2)) + 1j * rng.standard_normal((m, m + 2))
        # Im(conj(a) b) = -Im(a conj(b)), column by column
        want = np.array([-im_products(mat[:, k]) for k in range(m + 2)])
        assert np.array_equal(im_gram(ComplexFrame(mat)), want)


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
    def test_raw_array_checked_as_frame(self):
        with pytest.raises(ValidationError, match="non-finite"):
            conjpr.strict_report(np.array([[1, np.nan], [0, 1j]]))
        with pytest.raises(ValidationError, match="does not span"):
            conjpr.strict_report(np.array([[1, 1j], [1, 1j]]))
        report = conjpr.strict_report(FRAME_2X3.matrix)
        assert report.verdict == "StrictlyCPR" and report.im_gram_nullity == 1

    def test_im_gram_rejects_nonfinite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            im_gram(np.array([[1, np.inf], [0, 1j]]))

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

    def test_complex_m3_nullity_two(self):
        # real columns leave im_gram one nonzero row: nullity 2 at M = 3
        rng = rng_stream(508, 0)
        mat = np.hstack([np.eye(3), random_signal(rng, 3)[:, None]])
        f = ComplexFrame(mat)
        report = conjpr.strict_report(f)
        assert report.im_gram_nullity == 2
        assert report.verdict == "StrictlyCPR"
        y = report.witness_y
        assert not is_phased_real(y)
        gap, scale = measurement_gap(f, y, np.conj(y))
        assert gap <= 1e-12 * scale

    def test_m1_candidate(self):
        report = conjpr.strict_report(RealFrame([[1.0, 2.0]]))
        assert report.verdict == "ComplexPRCandidate"

    def test_generic_complex_5x8_undecided(self):
        # nullity 2 in 10 pair dimensions: a generic plane misses the rank-2
        # skew cone, so all 16 restarts fail
        report = conjpr.strict_report(gaussian_complex_frame(rng_stream(511, 0), 5, 8))
        assert report.verdict == "Undecided"
        assert report.im_gram_nullity == 2
        assert report.witness_y is None


def gaussian_complex_frame(rng, m, n):
    return ComplexFrame(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))


class TestSkewAltproj:
    @staticmethod
    def strict_inputs(frame):
        """The nullspace basis, starts and win rule that strict_report stacks."""
        mat = frame.matrix
        gscale = float(np.max(np.linalg.norm(mat, axis=0) ** 2))
        null_vecs = certify_module._nullspace(im_gram(frame), certify_module.KERNEL_TOL, gscale)
        starts = frames_io._restart_starts(
            certify_module._STRICT_SEED, certify_module._STRICT_BUDGET, len(null_vecs)
        )

        unit = certify_module._unit_columns(mat)

        def wins(a, b):
            y = a + 1j * b
            return not is_phased_real(y) and _pair_gap(unit, y, y.conj()) <= PAIR_GAP_TOL

        return np.vstack(null_vecs), starts, wins

    def test_stacked_rows_match_their_runs_alone(self):
        basis, starts, wins = self.strict_inputs(gaussian_complex_frame(rng_stream(511, 0), 5, 8))
        starts[5] = 0.0  # a zero start is skipped
        a, b, iters, won = _kernels.skew_altproj(basis, starts, 300, wins)
        assert not won.any() and iters[5] == 0 and not a[5].any() and not b[5].any()
        assert np.all(iters[starts.any(axis=1)] > 0)
        for r in range(len(starts)):
            a1, b1, iters1, _ = _kernels.skew_altproj(basis, starts[r : r + 1], 300, wins)
            assert np.array_equal(a[r], a1[0]) and np.array_equal(b[r], b1[0])
            assert iters[r] == iters1[0]

    def test_lowest_win_is_the_answer(self):
        # alone, restart 0 fails and 1, 8 and 15 win; 8 and 15 win sooner
        # than 1, which still runs on and gives the witness
        frame = gaussian_complex_frame(rng_stream(509, 500), 5, 6)
        basis, starts, wins = self.strict_inputs(frame)
        alone = [_kernels.skew_altproj(basis, starts[r : r + 1], 300, wins) for r in range(16)]
        assert [r for r in range(16) if alone[r][3][0]] == [1, 8, 15]
        assert alone[15][2][0] < alone[8][2][0] < alone[1][2][0]
        a, b, iters, won = _kernels.skew_altproj(basis, starts, 300, wins)
        assert np.flatnonzero(won).tolist() == [1, 8, 15]
        for r in (1, 8, 15):
            assert np.array_equal(a[r], alone[r][0][0]) and np.array_equal(b[r], alone[r][1][0])
            assert iters[r] == alone[r][2][0]
        # the restarts between two wins stop when the lower one wins
        assert np.all(iters[9:15] == iters[8]) and np.all(iters[2:8] == iters[1])
        report = conjpr.strict_report(frame)
        assert report.verdict == "StrictlyCPR" and report.im_gram_nullity == 4
        assert np.array_equal(report.witness_y, alone[1][0][0] + 1j * alone[1][1][0])

    @staticmethod
    def factor_one(S):
        """Reference: the top rotation block of one skew matrix, from its complex eig."""
        w, Z = np.linalg.eig(S)
        z = Z[:, int(np.argmax(w.imag))]
        u1 = z.real / np.linalg.norm(z.real)
        q_perp = z.imag - np.dot(z.imag, u1) * u1
        u2 = q_perp / np.linalg.norm(q_perp)
        gamma = float(u1 @ S @ u2)
        if gamma < 0.0:
            u1, u2, gamma = u2, u1, -gamma
        a, b = u2 * np.sqrt(gamma), u1 * np.sqrt(gamma)
        return a, b, np.outer(b, a) - np.outer(a, b)

    @staticmethod
    def assert_nearest_rank2(S, a, b, S2):
        """y = a + ib realizes S2, and S2 is the nearest rank-2 skew matrix (Eckart-Young)."""
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
        np.testing.assert_allclose(
            im_products(a + 1j * b), _kernels._pairs_from_skew(S2), atol=1e-12
        )
        sigma = np.linalg.svd(S, compute_uv=False)
        dist2 = np.sum((S - S2) ** 2)
        assert abs(dist2 - np.sum(sigma[2:] ** 2)) <= 1e-12 * np.sum(sigma**2)

    def test_stacked_factor_matches_each(self):
        A = rng_stream(510, 0).standard_normal((3, 4, 6, 6))
        S = A - np.swapaxes(A, -1, -2)
        a, b, S2 = _kernels._factor_rank2_skew(S)
        assert a.shape == b.shape == (3, 4, 6) and S2.shape == S.shape
        for idx in np.ndindex(3, 4):
            a1, b1, S21 = _kernels._factor_rank2_skew(S[idx])
            assert np.array_equal(a[idx], a1) and np.array_equal(b[idx], b1)
            assert np.array_equal(S2[idx], S21)
            # the eig reference factors the same plane: y agrees up to a global phase
            ra, rb, rS2 = self.factor_one(S[idx])
            y, ref = a1 + 1j * b1, ra + 1j * rb
            phase = np.vdot(y, ref) / abs(np.vdot(y, ref))
            assert np.linalg.norm(ref - phase * y) <= 1e-12 * np.linalg.norm(ref)
            np.testing.assert_allclose(S21, rS2, rtol=0, atol=1e-12 * np.linalg.norm(S[idx]))
            self.assert_nearest_rank2(S[idx], a1, b1, S21)

    @pytest.mark.parametrize("m", [4, 5])
    def test_equal_top_rotations(self, m):
        # two equal rotation blocks: sigma_1 = sigma_2, and the top eigenspace
        # of S^T S is 4-dimensional
        Q = random_orthogonal(rng_stream(512, m), m)
        B = np.zeros((m, m))
        B[0, 1] = B[2, 3] = 1.5
        S = Q @ (B - B.T) @ Q.T
        a, b, S2 = _kernels._factor_rank2_skew(S)
        self.assert_nearest_rank2(S, a, b, S2)
        assert abs(np.sum((S - S2) ** 2) - np.sum(S**2) / 2) <= 1e-12 * np.sum(S**2)


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
