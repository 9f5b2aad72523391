import numpy as np
import pytest

from conftest import random_signal

from conjpr import (
    RealFrame,
    apply_lift,
    devectorize,
    lift_dim,
    measure,
    numeric_rank,
    omega,
    omega_matrix,
    real_lift,
    rng_stream,
    vectorize,
)
from conjpr.errors import DimensionMismatchError, ValidationError
from conjpr.lift import _half_indices

FRAME_2X3 = RealFrame([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


class TestOmega:
    def test_basis_vector(self):
        np.testing.assert_array_equal(omega([1.0, 0.0]), [1.0, 0.0, 0.0])

    def test_ones(self):
        np.testing.assert_array_equal(omega([1.0, 1.0]), [1.0, 1.0, 2.0])

    def test_one_two_three(self):
        np.testing.assert_array_equal(omega([1.0, 2.0, 3.0]), [1, 4, 9, 4, 6, 12])

    def test_pairing_identity(self):
        rng = rng_stream(201, 0)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            phi = rng.standard_normal(m)
            q = rng.standard_normal((m, m))
            q = q + q.T
            direct = phi @ q @ phi
            paired = omega(phi) @ vectorize(q)
            assert abs(direct - paired) <= 1e-12 * max(abs(direct), 1.0)


class TestVectorize:
    def test_identity(self):
        np.testing.assert_array_equal(vectorize(np.eye(2)), [1.0, 1.0, 0.0])

    def test_offdiag(self):
        np.testing.assert_array_equal(vectorize([[0.0, 5.0], [5.0, 0.0]]), [0, 0, 5])

    def test_roundtrip_exact(self):
        rng = rng_stream(202, 0)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            q = rng.standard_normal((m, m))
            q = q + q.T
            back = devectorize(vectorize(q))
            assert np.array_equal(back, q)
            assert np.array_equal(back, back.T)

    def test_bad_length(self):
        with pytest.raises(ValidationError):
            devectorize(np.ones(4))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_stacks_match_each_matrix(self, m):
        A = rng_stream(209, m).standard_normal((3, 4, m, m))
        Q = A + np.swapaxes(A, -1, -2)
        v = vectorize(Q)
        assert v.shape == (3, 4, lift_dim(m))
        back = devectorize(v)
        for idx in np.ndindex(3, 4):
            assert np.array_equal(v[idx], vectorize(Q[idx]))
            assert np.array_equal(back[idx], devectorize(v[idx]))
        assert np.array_equal(back, Q)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_layout_built_once_and_read_only(self, m):
        rows, cols = _half_indices(m)
        again = _half_indices(m)
        assert again[0] is rows and again[1] is cols
        np.testing.assert_array_equal(rows[:m], np.arange(m))
        np.testing.assert_array_equal(cols[:m], np.arange(m))
        iu, ju = np.triu_indices(m, k=1)
        assert np.array_equal(rows[m:], iu) and np.array_equal(cols[m:], ju)
        for arr in (rows, cols):
            with pytest.raises(ValueError):
                arr[0] = 1


class TestOmegaMatrix:
    def test_reference_frame_rows(self):
        expected = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 2.0]])
        np.testing.assert_array_equal(omega_matrix(FRAME_2X3), expected)

    def test_identity_columns(self):
        frame = RealFrame(np.eye(3))
        om = omega_matrix(frame)
        np.testing.assert_array_equal(om, np.eye(6)[:3])

    def test_shape(self):
        frame = RealFrame(rng_stream(203, 0).standard_normal((4, 10)))
        assert omega_matrix(frame).shape == (10, 10)
        assert lift_dim(4) == 10

    def test_rejects_complex(self):
        with pytest.raises(ValidationError):
            omega_matrix(np.array([[1j, 0.0], [0.0, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            omega_matrix(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_bit_identical_to_columnwise_omega(self):
        rng = rng_stream(205, 0)
        for m in range(1, 9):
            mat = rng.standard_normal((m, m * (m + 1) // 2 + 3))
            # each row built entry by entry: the diagonal first, then i < j
            reference = np.array([
                [phi[i] * phi[i] for i in range(m)]
                + [2.0 * phi[i] * phi[j] for i in range(m) for j in range(i + 1, m)]
                for phi in mat.T
            ])
            assert np.array_equal(omega_matrix(mat), reference)
            columnwise = np.array([omega(mat[:, k]) for k in range(mat.shape[1])])
            assert np.array_equal(columnwise, reference)


class TestApplyLift:
    def test_zero(self):
        np.testing.assert_array_equal(apply_lift(FRAME_2X3, np.zeros((2, 2))), np.zeros(3))

    def test_identity_gives_column_norms(self):
        got = apply_lift(FRAME_2X3, np.eye(2))
        np.testing.assert_allclose(got, [1.0, 1.0, 2.0], atol=0)

    def test_matches_omega_times_vec(self):
        rng = rng_stream(204, 0)
        for _ in range(100):
            m, n = int(rng.integers(1, 6)), int(rng.integers(2, 9))
            n = max(n, m)
            mat = rng.standard_normal((m, n))
            q = rng.standard_normal((m, m))
            q = q + q.T
            a = apply_lift(mat, q)
            b = omega_matrix(mat) @ vectorize(q)
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(a).max())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_lift(FRAME_2X3, np.eye(3))


class TestMeasure:
    def test_reference_frame_values(self):
        got = measure(FRAME_2X3, [1.0, 1.0j])
        np.testing.assert_allclose(got.values, [1.0, 1.0, 2.0], atol=1e-15)
        assert got.noise_sigma is None

    def test_zero_signal(self):
        np.testing.assert_array_equal(measure(FRAME_2X3, [0.0, 0.0]).values, np.zeros(3))

    def test_real_signal_real_frame(self):
        rng = rng_stream(205, 0)
        mat = rng.standard_normal((3, 5))
        x = rng.standard_normal(3)
        got = measure(RealFrame(mat), x.astype(complex)).values
        np.testing.assert_allclose(got, (mat.T @ x) ** 2, rtol=1e-13)

    def test_agrees_with_lift_route(self):
        rng = rng_stream(206, 0)
        for _ in range(50):
            m, n = 4, 9
            frame = RealFrame(rng.standard_normal((m, n)))
            x = random_signal(rng, m)
            direct = measure(frame, x).values
            lifted = apply_lift(frame, real_lift(x))
            np.testing.assert_allclose(direct, lifted, rtol=1e-12)

    def test_noise_deterministic_and_recorded(self):
        x = [1.0, 1.0j]
        a = measure(FRAME_2X3, x, noise_sigma=1e-3, rng=7)
        b = measure(FRAME_2X3, x, noise_sigma=1e-3, rng=7)
        assert a.noise_sigma == 1e-3
        np.testing.assert_array_equal(a.values, b.values)
        clean = measure(FRAME_2X3, x).values
        assert np.any(a.values != clean)

    def test_integer_seed_draws_stream_zero(self):
        x = [1.0, 1.0j]
        a = measure(FRAME_2X3, x, noise_sigma=0.1, rng=5)
        b = measure(FRAME_2X3, x, noise_sigma=0.1, rng=rng_stream(5, 0))
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("sigma", [True, float("inf"), float("nan"), -1.0, "1e-3"])
    def test_bad_noise_sigma(self, sigma):
        with pytest.raises(ValidationError, match="noise_sigma"):
            measure(FRAME_2X3, [1.0, 1.0j], noise_sigma=sigma, rng=1)

    @pytest.mark.parametrize("seed", [True, -1, 2.5])
    def test_bad_seed(self, seed):
        with pytest.raises(ValidationError):
            measure(FRAME_2X3, [1.0, 1.0j], noise_sigma=0.1, rng=seed)

    def test_complex_frame_inner_product_convention(self):
        # <x, phi> = sum x_j conj(phi_j)
        mat = np.array([[1.0j], [1.0]])
        got = measure(type("F", (), {"matrix": mat})(), [1.0, 0.0]).values
        np.testing.assert_allclose(got, [1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            measure(FRAME_2X3, [1.0, 0.0, 0.0])


class TestNumericRank:
    def test_rank_two_lift(self):
        assert numeric_rank(real_lift([1, 1j, 0, 0])) == 2

    def test_rank_one(self):
        v = np.array([1.0, -2.0, 0.5])
        assert numeric_rank(np.outer(v, v)) == 1

    def test_zero(self):
        assert numeric_rank(np.zeros((4, 4))) == 0

    def test_subadditive_on_low_rank_pairs(self):
        rng = rng_stream(207, 0)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            u, v = rng.standard_normal((2, m))
            a = np.outer(u, u)
            b = np.outer(v, v) - np.outer(u, v) - np.outer(v, u)
            assert numeric_rank(a + b) <= numeric_rank(a) + numeric_rank(b)


class TestIdentityChain:
    def test_thousand_random_pairs(self):
        rng = rng_stream(208, 0)
        for _ in range(1000):
            m = int(rng.integers(1, 7))
            phi = rng.standard_normal(m)
            x = random_signal(rng, m)
            direct = abs(np.vdot(phi, x)) ** 2  # conj on phi is a no-op (real)
            quad = phi @ real_lift(x) @ phi
            paired = omega(phi) @ vectorize(real_lift(x))
            scale = max(direct, 1e-30)
            assert abs(direct - quad) <= 1e-10 * scale
            assert abs(direct - paired) <= 1e-10 * scale
