import numpy as np
import pytest

from conftest import certify_module, random_signal, svd_calls, symmetrized

from conjpr import (
    Measurement,
    RealFrame,
    canonical_rep,
    certify,
    cone_frame,
    conj_class_distance,
    conj_equivalent,
    factor_rank2,
    is_phased_real,
    lift_dim,
    measure,
    omega_matrix,
    random_frame,
    rank2_psd_project,
    real_lift,
    reconstruct_altproj,
    reconstruct_linear,
    residual,
    rng_stream,
    vectorize,
)
from conjpr import _kernels, frames_io
from conjpr.lift import devectorize
from conjpr.errors import NotPSDError, UnderdeterminedError, ValidationError

FRAME_2X3 = RealFrame([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


class TestFactorRank2:
    def test_identity_gives_one_i_class(self):
        xhat = factor_rank2(np.eye(2))
        assert conj_equivalent(xhat, np.array([1.0, 1j]))

    def test_rank_one_real(self):
        v = np.array([2.0, -1.0, 0.5])
        xhat = factor_rank2(np.outer(v, v))
        assert conj_equivalent(xhat, v.astype(complex))

    def test_roundtrip_many(self):
        rng = rng_stream(601, 0)
        for _ in range(300):
            m = int(rng.integers(1, 9))
            x = random_signal(rng, m)
            xhat = factor_rank2(real_lift(x))
            assert conj_class_distance(xhat, x) <= 1e-10 * np.linalg.norm(x) ** 2

    def test_not_psd(self):
        with pytest.raises(NotPSDError):
            factor_rank2(-np.eye(3))

    def test_clamps_tiny_negatives(self):
        q = symmetrized(np.diag([1.0, -1e-12, 0.0]))
        xhat = factor_rank2(q)
        assert conj_equivalent(xhat, np.array([1.0, 0.0, 0.0]))

    def test_zero(self):
        np.testing.assert_array_equal(factor_rank2(np.zeros((3, 3))), np.zeros(3, complex))

    def test_requires_symmetry(self):
        with pytest.raises(ValidationError):
            factor_rank2(np.array([[1.0, 0.5], [0.25, 1.0]]))

    def test_orthogonal_factor_mixing_stays_in_class(self):
        rng = rng_stream(602, 0)
        for _ in range(300):
            m = int(rng.integers(2, 7))
            x = random_signal(rng, m)
            a, b = x.real, x.imag
            theta = rng.uniform(0, 2 * np.pi)
            c, s = np.cos(theta), np.sin(theta)
            rot = np.array([[c, -s], [s, c]])
            if rng.integers(2):
                rot = rot @ np.diag([1.0, -1.0])  # reflection branch
            ab = np.stack([a, b], axis=1) @ rot
            mixed = ab[:, 0] + 1j * ab[:, 1]
            assert conj_equivalent(mixed, x)


class TestTruncationAccounting:
    def test_discarded_mass_identity(self):
        rng = rng_stream(603, 0)
        for _ in range(100):
            m = int(rng.integers(3, 8))
            q = symmetrized(rng.standard_normal((m, m)))
            q2 = rank2_psd_project(q)
            w = np.linalg.eigvalsh(q)
            kept = np.sort(w)[-2:]
            discarded_sq = np.sum(w * w) - np.sum(np.maximum(kept, 0.0) ** 2)
            assert np.linalg.norm(q2 - q) ** 2 == pytest.approx(
                discarded_sq, rel=1e-10, abs=1e-12
            )


class TestReconstructLinear:
    def test_reference_frame_roundtrip(self):
        result = reconstruct_linear(FRAME_2X3, Measurement(np.array([1.0, 1.0, 2.0])))
        assert conj_equivalent(result.estimate, np.array([1.0, 1j]))
        assert result.lift_residual <= 1e-10
        assert result.converged and result.iterations == 0
        assert np.array_equal(result.estimate, canonical_rep(result.estimate))

    def test_real_signal_recovers_phased_real(self):
        rng = rng_stream(604, 0)
        f = random_frame(3, 6, seed=21)
        x = rng.standard_normal(3).astype(complex)
        result = reconstruct_linear(f, measure(f, x))
        # rank truncation turns O(eps) eigenvalue noise into O(sqrt(eps))
        # imaginary parts, so phased-realness holds at that scale only
        assert is_phased_real(result.estimate, tol=1e-6)
        assert conj_class_distance(result.estimate, x) <= 1e-8 * np.linalg.norm(x) ** 2

    def test_gaussian_m4_roundtrips(self):
        rng = rng_stream(605, 0)
        f = random_frame(4, 10, seed=22)
        for _ in range(100):
            x = random_signal(rng, 4)
            result = reconstruct_linear(f, measure(f, x))
            assert conj_class_distance(result.estimate, x) <= 1e-8 * np.linalg.norm(x) ** 2

    def test_underdetermined(self):
        f = random_frame(4, 9, seed=23)
        with pytest.raises(UnderdeterminedError):
            reconstruct_linear(f, Measurement(np.ones(9)))

    def test_underdetermined_exactly_when_kernel(self):
        # one rank rule: reconstruct_linear refuses exactly the frames whose
        # lift certify finds a kernel in
        frames = [cone_frame(6)]
        for m in range(2, 6):
            L = lift_dim(m)
            frames += [random_frame(m, n, seed=n) for n in range(max(m, L - 2), L + 4)]
        rng = rng_stream(640, 0)
        for f in frames:
            b = measure(f, random_signal(rng, f.m))
            if certify(f).kernel_dim > 0:
                with pytest.raises(UnderdeterminedError):
                    reconstruct_linear(f, b)
            else:
                assert reconstruct_linear(f, b).converged

    def test_matches_lstsq_reference(self):
        # the one-SVD solve against np.linalg.lstsq's, at N = L, L + 2 and 2L
        # and on frames with one coordinate row scaled by 1e-3.  Scaling row
        # M raises the lift's condition number kappa up to about 1e9; there
        # any backward-stable solve is off by up to about kappa * eps, and two
        # such solves differ in error by more than 10x on some 4 % of draws,
        # so that bound joins the slack (unscaled it is below 1e-12)
        rng = rng_stream(641, 0)
        eps = np.finfo(np.float64).eps
        for m in range(2, 9):
            L = lift_dim(m)
            for n in (L, L + 2, 2 * L):
                for scale in (1.0, 1e-3):
                    mat = random_frame(m, n, seed=100 * m + n).matrix.copy()
                    mat[m - 1] *= scale
                    f = RealFrame(mat)
                    x = random_signal(rng, m)
                    b = measure(f, x)
                    om = omega_matrix(f)
                    ref = factor_rank2(devectorize(np.linalg.lstsq(om, b.values, rcond=None)[0]))
                    sv = np.linalg.svd(om, compute_uv=False)
                    slack = 1e-12 + (sv[0] / sv[-1] * eps if scale != 1.0 else 0.0)
                    result = reconstruct_linear(f, b)
                    norm2 = np.linalg.norm(x) ** 2
                    assert conj_class_distance(result.estimate, x) <= (
                        10 * conj_class_distance(ref, x) + slack * norm2
                    ), (m, n, scale)
                    assert result.lift_residual == pytest.approx(
                        residual(f, result.estimate, b), abs=1e-12
                    )

    @staticmethod
    def cold(frame, b):
        """reconstruct_linear's result with the shared SVD slot empty."""
        certify_module._svd_slot = None
        return reconstruct_linear(frame, b)

    @staticmethod
    def same_bits(r1, r2):
        return (
            r1.estimate.tobytes() == r2.estimate.tobytes()
            and (r1.lift_residual, r1.rank_excess, r1.iterations, r1.converged)
            == (r2.lift_residual, r2.rank_excess, r2.iterations, r2.converged)
        )

    def test_consecutive_calls_on_one_frame_factor_once(self, monkeypatch):
        rng = rng_stream(642, 0)
        f = random_frame(5, 17, seed=42)
        bs = [measure(f, random_signal(rng, 5)) for _ in range(6)]
        calls = svd_calls(monkeypatch)
        warm = [reconstruct_linear(f, b) for b in bs]
        assert [shape for shape, _, _ in calls] == [(17, 15)]
        for b, result in zip(bs, warm):
            assert self.same_bits(result, self.cold(f, b))

    def test_other_frame_or_changed_entries_miss(self, monkeypatch):
        rng = rng_stream(643, 0)
        other = random_frame(4, 12, seed=43)
        mat = random_frame(4, 12, seed=44).matrix.copy()
        f = RealFrame(mat)
        assert np.shares_memory(f.matrix, mat)
        moved = mat.copy()
        moved[0, 0] += 0.5
        x = random_signal(rng, 4)
        b_other, b, b_moved = (measure(g, x) for g in (other, f, RealFrame(moved)))
        calls = svd_calls(monkeypatch)
        reconstruct_linear(f, b)
        reconstruct_linear(other, b_other)
        assert len(calls) == 2
        # the frame's own array, changed in place between calls
        reconstruct_linear(f, b)
        mat[0, 0] += 0.5
        changed = reconstruct_linear(f, b_moved)
        assert len(calls) == 4
        assert self.same_bits(changed, self.cold(RealFrame(moved), b_moved))

    def test_inconsistent_measurements_not_psd(self):
        bad = Measurement(np.array([1.0, 1.0, -5.0]), noise_sigma=1.0)
        with pytest.raises(NotPSDError):
            reconstruct_linear(FRAME_2X3, bad)

    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            reconstruct_linear(FRAME_2X3, Measurement(np.ones(4)))

    @pytest.mark.parametrize("m, seed", [(7, 46), (8, 246), (8, 252), (8, 261), (8, 294)])
    def test_ill_conditioned_lift_takes_exact_data(self, m, seed):
        # with row m-1 scaled by 1e-3, kappa(omega) is 4.6e8 to 1.6e9 and the
        # solved lift's lowest eigenvalue is about -0.1 kappa eps |Q|, below
        # the default tol of 1e-8 |Q|: the floor kappa eps lets it through
        mat = random_frame(m, m * (m + 1) // 2, seed=seed).matrix.copy()
        mat[m - 1] *= 1e-3
        rng = rng_stream(seed, 1)
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        f = RealFrame(mat)
        result = reconstruct_linear(f, measure(f, x))
        assert result.converged
        assert conj_class_distance(result.estimate, x) <= 1e-6 * np.linalg.norm(x) ** 2

    def test_noise_degrades_gracefully(self):
        rng = rng_stream(606, 0)
        f = random_frame(3, 6, seed=24)
        ok = 0
        for trial in range(50):
            x = random_signal(rng, 3)
            b = measure(f, x, noise_sigma=1e-6, rng=int(rng.integers(2**31)))
            try:
                result = reconstruct_linear(f, b, tol=1e-2)
            except NotPSDError:
                continue
            if conj_class_distance(result.estimate, x) <= 1e-3 * np.linalg.norm(x) ** 2:
                ok += 1
        assert ok >= 48


class TestReconstructAltproj:
    def test_square_case_matches_linear(self):
        f = random_frame(4, 10, seed=25)
        rng = rng_stream(607, 0)
        x = random_signal(rng, 4)
        b = measure(f, x)
        lin = reconstruct_linear(f, b)
        alt = reconstruct_altproj(f, b, seed=1)
        assert alt.converged
        assert conj_class_distance(alt.estimate, lin.estimate) <= 1e-8

    def test_underdetermined_regime(self):
        f = random_frame(5, 14, seed=26)
        rng = rng_stream(608, 0)
        recovered = 0
        for _ in range(20):
            x = random_signal(rng, 5)
            alt = reconstruct_altproj(f, measure(f, x), seed=2)
            if alt.converged and conj_class_distance(alt.estimate, x) <= 1e-6 * np.linalg.norm(x) ** 2:
                recovered += 1
        assert recovered >= 19

    def test_lift_residual_is_the_measurement_residual(self):
        rng = rng_stream(642, 0)
        for m, n in ((4, 10), (5, 14), (6, 18)):
            f = random_frame(m, n, seed=n)
            b = measure(f, random_signal(rng, m), noise_sigma=1e-3, rng=n)
            result = reconstruct_altproj(f, b, restarts=3, max_iter=100)
            assert result.lift_residual == pytest.approx(
                residual(f, result.estimate, b), abs=1e-12
            )

    def test_draws_later_starts_only_when_restart_zero_fails(self, monkeypatch):
        drawn = []

        def recording(seed, stream=0):
            drawn.append(stream)
            return rng_stream(seed, stream)

        f = random_frame(4, 10, seed=25)
        b = measure(f, random_signal(rng_stream(607, 0), 4))
        g = random_frame(5, 14, seed=29)
        bogus = Measurement(rng_stream(610, 0).uniform(1.0, 2.0, size=14))
        monkeypatch.setattr(frames_io, "rng_stream", recording)
        assert reconstruct_altproj(f, b, seed=1).converged
        assert drawn == [0]
        drawn.clear()
        assert not reconstruct_altproj(g, bogus, restarts=5, max_iter=50).converged
        assert drawn == [0, 1, 2, 3, 4]

    def test_zero_measurements(self):
        f = random_frame(3, 6, seed=27)
        result = reconstruct_altproj(f, Measurement(np.zeros(6)))
        assert result.converged
        np.testing.assert_array_equal(result.estimate, np.zeros(3, complex))

    def test_deterministic(self):
        f = random_frame(5, 14, seed=28)
        x = random_signal(rng_stream(609, 0), 5)
        b = measure(f, x)
        r1 = reconstruct_altproj(f, b, seed=3)
        r2 = reconstruct_altproj(f, b, seed=3)
        assert np.array_equal(r1.estimate, r2.estimate)
        assert r1.lift_residual == r2.lift_residual

    def test_nonconvergence_reported(self):
        # random nonnegative measurements are not lifts of any signal
        f = random_frame(5, 14, seed=29)
        bogus = Measurement(rng_stream(610, 0).uniform(1.0, 2.0, size=14))
        result = reconstruct_altproj(f, bogus, restarts=5, max_iter=50)
        assert not result.converged
        assert result.lift_residual > 1e-6

    def test_kernel_restart_contract(self):
        # the first converging restart wins; failing that, the restart with
        # the lowest residual comes back with its own iteration count, which
        # is max_iter when no restart has stagnated
        def each_alone(om, pinv, b, v0s, max_iter):
            return [_kernels.altproj(om, pinv, b, v0s[r : r + 1], max_iter, 1e-10)
                    for r in range(v0s.shape[0])]

        f = random_frame(4, 10, seed=25)
        om = omega_matrix(f)
        pinv = np.linalg.pinv(om)
        b = measure(f, random_signal(rng_stream(607, 0), 4)).values
        v0s = rng_stream(615, 0).standard_normal((6, lift_dim(4)))
        v, res, iters, restart, converged = _kernels.altproj(om, pinv, b, v0s, 500, 1e-10)
        assert converged
        assert res <= 1e-10 * np.linalg.norm(b)
        alone = each_alone(om, pinv, b, v0s, 500)
        assert restart == [run[4] for run in alone].index(True)
        assert iters == alone[restart][2]

        f = random_frame(5, 14, seed=29)
        om = omega_matrix(f)
        pinv = np.linalg.pinv(om)
        bogus = rng_stream(610, 0).uniform(1.0, 2.0, size=14)
        v0s = rng_stream(616, 0).standard_normal((5, lift_dim(5)))
        v, res, iters, restart, converged = _kernels.altproj(om, pinv, bogus, v0s, 1, 1e-10)
        assert not converged
        assert iters == 1
        residuals = [run[1] for run in each_alone(om, pinv, bogus, v0s, 1)]
        assert restart == int(np.argmin(residuals))
        assert res == min(residuals)

    def test_lockstep_lower_restart_converging_later_wins(self):
        # restart 0 fails, so 1.. run as one stack; restart 1 converges last,
        # at max_iter, and still wins over every higher restart that converged
        # sooner and stopped the ones above it
        f = random_frame(5, 14, seed=30)
        om = omega_matrix(f)
        pinv = np.linalg.pinv(om)
        b = measure(f, random_signal(rng_stream(620, 0), 5)).values
        starts = rng_stream(617, 0).standard_normal((8, lift_dim(5)))
        counts = [_kernels.altproj(om, pinv, b, v0[None], 1000, 1e-10)[2] for v0 in starts]
        slowest = int(np.argmax(counts))
        rest = sorted(set(range(8)) - {slowest}, key=lambda r: -counts[r])
        v0s = starts[[slowest, *rest]]
        max_iter = counts[rest[0]]
        assert counts[slowest] > max_iter > counts[rest[1]]
        alone = [_kernels.altproj(om, pinv, b, v0[None], max_iter, 1e-10) for v0 in v0s]
        assert [run[4] for run in alone] == [False] + [True] * 7
        v, res, iters, restart, converged = _kernels.altproj(om, pinv, b, v0s, max_iter, 1e-10)
        assert (restart, iters, converged) == (1, max_iter, True)
        assert np.array_equal(v, alone[1][0]) and res == alone[1][1]

    def test_lockstep_rows_match_their_runs_alone(self):
        f = random_frame(5, 14, seed=29)
        om = omega_matrix(f)
        pinv = np.linalg.pinv(om)
        rng = rng_stream(621, 0)
        b = measure(f, random_signal(rng, 5)).values
        b = b + 1e-3 * np.mean(b) * rng.standard_normal(14)
        v0s = rng_stream(622, 0).standard_normal((16, lift_dim(5)))
        goal = 1e-10 * np.linalg.norm(b)
        V, res, iters, converged = _kernels._lockstep(om, pinv, b, v0s, 40, goal)
        assert not converged.any() and np.all(iters == 40)
        for r in range(16):
            v1, res1, _, _ = _kernels._lockstep(om, pinv, b, v0s[r : r + 1], 40, goal)
            assert np.array_equal(V[r], v1[0]) and res[r] == res1[0]
        v, best, iters, restart, converged = _kernels.altproj(om, pinv, b, v0s, 40, 1e-10)
        assert (iters, restart, converged) == (40, int(np.argmin(res)), False)
        assert best == res.min() and np.array_equal(v, V[restart])

    def test_stalled_lockstep_rows_match_their_runs_alone(self):
        # on noisy data no restart converges; each stops at its own stall
        # checkpoint, with the bits and the iteration count of its run alone
        f = random_frame(5, 14, seed=29)
        om = omega_matrix(f)
        pinv = np.linalg.pinv(om)
        rng = rng_stream(621, 0)
        b = measure(f, random_signal(rng, 5)).values
        b = b + 1e-3 * np.mean(b) * rng.standard_normal(14)
        v0s = rng_stream(622, 0).standard_normal((16, lift_dim(5)))
        goal = 1e-10 * np.linalg.norm(b)
        V, res, iters, converged = _kernels._lockstep(om, pinv, b, v0s, 500, goal)
        assert not converged.any()
        assert np.all(iters < 500) and np.all(iters % _kernels._STALL_EVERY == 0)
        for r in range(16):
            v1, res1, iters1, _ = _kernels._lockstep(om, pinv, b, v0s[r : r + 1], 500, goal)
            assert np.array_equal(V[r], v1[0]) and res[r] == res1[0] and iters[r] == iters1[0]
        v, best, it, restart, converged = _kernels.altproj(om, pinv, b, v0s, 500, 1e-10)
        assert (restart, converged) == (int(np.argmin(res)), False)
        assert it == iters[restart] and best == res.min() and np.array_equal(v, V[restart])

    def test_transient_rise_is_not_a_stall(self):
        # restart 0's residual climbs from 3.40 to 3.75 over iterations 11-56
        # before it converges; a one-sided stall test would stop it there
        f = random_frame(5, 14, seed=9)
        rng = rng_stream(90, 95)
        x = [random_signal(rng, 5) for _ in range(45)][44]
        result = reconstruct_altproj(f, measure(f, x), restarts=50, seed=9, max_iter=2000)
        assert result.converged and result.iterations == 149
        assert conj_class_distance(result.estimate, x) <= 1e-6 * np.linalg.norm(x) ** 2

    def test_stacked_rank2_projection_matches_each(self):
        A = rng_stream(623, 0).standard_normal((3, 4, 6, 6))
        Q = A + np.swapaxes(A, -1, -2)
        P = rank2_psd_project(Q)
        assert P.shape == Q.shape
        for idx in np.ndindex(3, 4):
            assert np.array_equal(P[idx], rank2_psd_project(Q[idx]))
            assert np.array_equal(P[idx], P[idx].T)

    @pytest.mark.parametrize("kwargs", [
        {"restarts": 2.5}, {"restarts": True}, {"restarts": "3"}, {"restarts": 0},
        {"max_iter": True}, {"max_iter": 0}, {"tol": float("nan")}, {"tol": -1},
        {"tol": float("inf")}, {"seed": -1}, {"seed": 1.5}, {"seed": True},
    ])
    def test_argument_validation(self, kwargs):
        f = random_frame(5, 14, seed=28)
        b = measure(f, random_signal(rng_stream(609, 0), 5))
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            reconstruct_altproj(f, b, **kwargs)

    def test_numpy_integer_arguments(self):
        f = random_frame(5, 14, seed=28)
        b = measure(f, random_signal(rng_stream(609, 0), 5))
        plain = reconstruct_altproj(f, b, max_iter=300, restarts=4, seed=3)
        numpy = reconstruct_altproj(
            f, b, max_iter=np.int64(300), restarts=np.int64(4), seed=np.int64(3)
        )
        assert plain.converged and np.array_equal(plain.estimate, numpy.estimate)
        assert plain.iterations == numpy.iterations

    def test_monotone_affine_distance(self):
        f = random_frame(5, 14, seed=30)
        x = random_signal(rng_stream(611, 0), 5)
        b = measure(f, x).values
        om = omega_matrix(f)
        pinv = np.linalg.pinv(om)
        # an observed property of this fixture, not a theorem: the textbook
        # non-increase argument for alternating projections needs both steps
        # to be nearest points in one metric, but pinv projects in the
        # half-vectorized Euclidean metric and rank2_psd_project in the
        # Frobenius metric, so neither this distance nor |omega v - b| is
        # monotone in general; the start is taken inside the cone
        v = vectorize(
            rank2_psd_project(devectorize(rng_stream(612, 0).standard_normal(lift_dim(5))))
        )
        dists = []
        for _ in range(200):
            v_aff = v - pinv @ (om @ v - b)
            dists.append(np.linalg.norm(v - v_aff))
            v = vectorize(rank2_psd_project(devectorize(v_aff)))
        drops = np.diff(np.array(dists))
        assert np.all(drops <= 1e-12 * max(dists[0], 1.0))


class TestResidual:
    def test_truth_is_zero(self):
        f = random_frame(3, 6, seed=31)
        x = random_signal(rng_stream(613, 0), 3)
        b = measure(f, x)
        assert residual(f, x, b) <= 1e-12

    def test_conjugate_same_residual(self):
        f = random_frame(3, 6, seed=32)
        x = random_signal(rng_stream(614, 0), 3)
        b = measure(f, x)
        assert residual(f, np.conj(x), b) == pytest.approx(residual(f, x, b), abs=1e-12)

    def test_zero_estimate(self):
        f = random_frame(2, 3, seed=33)
        x = np.array([1.0, 1j])
        b = measure(f, x)
        assert residual(f, np.zeros(2, complex), b) == pytest.approx(1.0, abs=1e-12)
