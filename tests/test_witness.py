import numpy as np
import pytest

from conftest import (
    lift_entry_oracle,
    make_indefinite_target,
    measurement_gap,
    random_orthogonal,
    random_signal,
    symmetrized,
)

from conjpr import (
    certify,
    complement_property,
    cone_frame,
    conj_class_distance,
    conj_equivalent,
    real_lift,
    rng_stream,
    witness_general,
)
from conjpr.errors import DefiniteInputError, ValidationError


def check_pair_realizes(pair, target, tol=1e-12):
    got = lift_entry_oracle(pair.x, pair.y)
    scale = max(np.linalg.norm(target), 1.0)
    assert np.linalg.norm(got - target) <= tol * scale
    assert pair.residual <= tol


def check_split_norm(pair, target):
    # the spectral split spends no more than the target needs:
    # |x|^2 + |y|^2 is the sum of the eigenvalue magnitudes
    total = np.linalg.norm(pair.x) ** 2 + np.linalg.norm(pair.y) ** 2
    assert total == pytest.approx(np.sum(np.abs(np.linalg.eigvalsh(target))), rel=1e-12)


class TestWitnessGeneral:
    def test_cone_target_realized_at_distance_sqrt3(self):
        h = np.diag([1.0, 1.0, -1.0])
        pair = witness_general(h)
        check_pair_realizes(pair, h)
        assert conj_class_distance(pair.x, pair.y) == pytest.approx(np.sqrt(3.0), rel=1e-12)

    def test_rotation_target(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        pair = witness_general(h)
        check_pair_realizes(pair, h)
        check_split_norm(pair, h)

    @pytest.mark.parametrize(
        "h", [np.diag([1e-6, -10.0]), np.diag([10.0, 1e-6, -1e-5]), np.diag([1e-6, -3.0, -10.0])]
    )
    def test_wide_eigenvalue_spread(self, h):
        # eigenvalue magnitudes seven decades apart still realize to round-off
        pair = witness_general(h)
        check_pair_realizes(pair, h, tol=1e-10)
        check_split_norm(pair, h)

    def test_definite_inputs_refused(self):
        with pytest.raises(DefiniteInputError):
            witness_general(np.eye(3))
        with pytest.raises(DefiniteInputError):
            witness_general(-np.eye(3))
        with pytest.raises(DefiniteInputError):
            witness_general(np.diag([1.0, 1.0, 0.0]))  # PSD, rank 2
        with pytest.raises(DefiniteInputError):
            witness_general(np.zeros((2, 2)))

    def test_wrong_dimension(self):
        # beyond m = 3 the inertia decides, not the dimension: three
        # eigenvalues of one sign are out of reach of any pair, two of each
        # are realized by the spectral split
        with pytest.raises(DefiniteInputError, match="rank-<=2 PSD"):
            witness_general(np.diag([1.0, 1.0, 1.0, -1.0]))
        h = np.diag([2.0, 0.5, -1.0, -3.0])
        u = random_orthogonal(rng_stream(410, 0), 4)
        h = symmetrized(u @ h @ u.T)
        check_pair_realizes(witness_general(h), h, tol=1e-10)

    def test_spectral_split_all_dimensions(self):
        rng = rng_stream(411, 0)
        for _ in range(200):
            m = int(rng.integers(4, 9))
            npos, nneg = (int(k) for k in rng.integers(1, 3, size=2))
            lam = np.zeros(m)
            lam[:npos] = rng.uniform(0.05, 3.0, npos)
            lam[npos : npos + nneg] = -rng.uniform(0.05, 3.0, nneg)
            u = random_orthogonal(rng, m)
            h = symmetrized(u @ np.diag(lam) @ u.T)
            pair = witness_general(h)
            check_pair_realizes(pair, h, tol=1e-10)
            assert not conj_equivalent(pair.x, pair.y)

    def test_diagonal_targets(self):
        # the paper's diagonal targets diag(a, b, -c), b = 0 among them
        rng = rng_stream(401, 0)
        for k in range(100):
            a, b, c = rng.uniform(1e-3, 10.0, size=3)
            h = np.diag([a, 0.0 if k % 4 == 0 else b, -c])
            pair = witness_general(h)
            check_pair_realizes(pair, h)
            assert not conj_equivalent(pair.x, pair.y)
            check_split_norm(pair, h)

    def test_requires_exact_symmetry(self):
        with pytest.raises(ValidationError):
            witness_general(np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]))

    def test_two_negative_pattern(self):
        rng = rng_stream(405, 0)
        for _ in range(50):
            h = make_indefinite_target(rng, (1, -1, -1))
            pair = witness_general(h)
            check_pair_realizes(pair, h, tol=1e-10)
            check_split_norm(pair, h)

    def test_two_positive_pattern(self):
        rng = rng_stream(406, 0)
        for _ in range(50):
            h = make_indefinite_target(rng, (1, 1, -1))
            pair = witness_general(h)
            check_pair_realizes(pair, h, tol=1e-10)
            check_split_norm(pair, h)

    def test_near_degenerate_middle(self):
        rng = rng_stream(407, 0)
        for sign in (1.0, -1.0):
            h = make_indefinite_target(rng, (1, 1, -1), middle=sign * 1e-13)
            pair = witness_general(h)
            check_pair_realizes(pair, h, tol=1e-10)

    def test_distance_equals_target_norm(self):
        rng = rng_stream(408, 0)
        for _ in range(20):
            h = make_indefinite_target(rng, (1, 1, -1))
            pair = witness_general(h)
            assert conj_class_distance(pair.x, pair.y) == pytest.approx(
                np.linalg.norm(h), rel=1e-10
            )


class TestOrthogonalCovariance:
    def test_lift_difference_transforms(self):
        rng = rng_stream(409, 0)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            u = random_orthogonal(rng, m)
            x, y = random_signal(rng, m), random_signal(rng, m)
            w = real_lift(x) - real_lift(y)
            wu = real_lift(u @ x) - real_lift(u @ y)
            np.testing.assert_allclose(wu, u @ w @ u.T, atol=1e-12 * np.linalg.norm(w))


class TestConeFrame:
    def test_default_three_columns(self):
        f = cone_frame(3)
        t = 2 * np.pi * np.arange(3) / 3
        np.testing.assert_allclose(f.matrix[0], np.cos(t), atol=0)
        np.testing.assert_allclose(f.matrix[1], np.sin(t), atol=0)
        np.testing.assert_array_equal(f.matrix[2], np.ones(3))

    def test_on_cone_identity(self):
        f = cone_frame(9)
        gap = f.matrix[0] ** 2 + f.matrix[1] ** 2 - f.matrix[2] ** 2
        assert np.max(np.abs(gap)) <= 1e-15

    def test_validation(self):
        with pytest.raises(ValidationError):
            cone_frame(2)
        with pytest.raises(ValidationError):
            cone_frame(3, angles=[0.0, 0.1, 0.1])
        with pytest.raises(ValidationError):
            cone_frame(3, angles=[0.0, 0.1, 0.1 + 2 * np.pi])

    def test_complement_property_with_enough_vectors(self):
        # three vectors in R^3 can never have it; five always do here
        assert complement_property(cone_frame(3))[0] is False
        assert complement_property(cone_frame(5))[0] is True
        assert complement_property(cone_frame(8))[0] is True

    def test_certify_not_retrievable(self):
        small = certify(cone_frame(3))
        assert small.verdict == "NotCPR"
        assert small.method == "TooFewVectors"
        big = certify(cone_frame(8))
        assert big.verdict == "NotCPR"
        assert big.method == "KernelWitness"
        gap, scale = measurement_gap(cone_frame(8), big.witness.x, big.witness.y)
        assert gap <= 1e-9 * scale

    def test_witness_measurement_gap_tiny(self):
        f = cone_frame(8)
        pair = witness_general(np.diag([1.0, 1.0, -1.0]))
        gap, _ = measurement_gap(f, pair.x, pair.y)
        assert gap <= 1e-14
