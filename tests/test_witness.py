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
    witness_diag_m2,
    witness_diag_m3,
    witness_diag_m3_degenerate,
    witness_general,
)
from conjpr.errors import DefiniteInputError, ValidationError


def check_pair_realizes(pair, target, tol=1e-12):
    got = lift_entry_oracle(pair.x, pair.y)
    scale = max(np.linalg.norm(target), 1.0)
    assert np.linalg.norm(got - target) <= tol * scale
    assert pair.residual <= tol


class TestDiagM3:
    def test_unit_case_exact_values(self):
        pair = witness_diag_m3(1.0, 1.0, 1.0)
        s2 = np.sqrt(2.0)
        np.testing.assert_allclose(pair.x, [1j * s2, s2, 1.0], atol=1e-15)
        np.testing.assert_allclose(pair.y, [1j, 1.0, s2], atol=1e-15)
        check_pair_realizes(pair, np.diag([1.0, 1.0, -1.0]))

    def test_random_parameters(self):
        rng = rng_stream(401, 0)
        for _ in range(100):
            a, b, c = rng.uniform(1e-3, 10.0, size=3)
            pair = witness_diag_m3(a, b, c)
            check_pair_realizes(pair, np.diag([a, b, -c]))
            assert not conj_equivalent(pair.x, pair.y)

    def test_defining_equations(self):
        rng = rng_stream(402, 0)
        for _ in range(100):
            a, b, c = rng.uniform(0.1, 5.0, size=3)
            pair = witness_diag_m3(a, b, c)
            x, y = pair.x, pair.y
            assert abs(abs(x[0]) ** 2 - abs(y[0]) ** 2 - a) <= 1e-12 * max(a, 1)
            assert abs(abs(x[1]) ** 2 - abs(y[1]) ** 2 - b) <= 1e-12 * max(b, 1)
            assert abs(abs(x[2]) ** 2 - abs(y[2]) ** 2 + c) <= 1e-12 * max(c, 1)
            for i, j in ((0, 1), (0, 2), (1, 2)):
                lhs = (x[i] * np.conj(x[j])).real
                rhs = (y[i] * np.conj(y[j])).real
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            witness_diag_m3(1.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            witness_diag_m3(-1.0, 1.0, 1.0)


class TestDiagM3Degenerate:
    def test_unit_case(self):
        pair = witness_diag_m3_degenerate(1.0, 1.0)
        s2 = np.sqrt(2.0)
        np.testing.assert_allclose(pair.x, [-s2, 1j, 1.0], atol=1e-15)
        np.testing.assert_allclose(pair.y, [-1.0, 1j, s2], atol=1e-15)
        check_pair_realizes(pair, np.diag([1.0, 0.0, -1.0]))

    def test_random_parameters(self):
        rng = rng_stream(403, 0)
        for _ in range(100):
            a, c = rng.uniform(1e-3, 10.0, size=2)
            pair = witness_diag_m3_degenerate(a, c)
            check_pair_realizes(pair, np.diag([a, 0.0, -c]))


class TestDiagM2:
    def test_unit_case(self):
        pair = witness_diag_m2(1.0, 1.0)
        s2 = np.sqrt(2.0)
        np.testing.assert_allclose(pair.x, [1j * s2, 1.0], atol=1e-15)
        np.testing.assert_allclose(pair.y, [1j, s2], atol=1e-15)
        check_pair_realizes(pair, np.diag([1.0, -1.0]))

    def test_random_parameters_never_equivalent(self):
        rng = rng_stream(404, 0)
        for _ in range(100):
            a, c = rng.uniform(1e-3, 10.0, size=2)
            pair = witness_diag_m2(a, c)
            check_pair_realizes(pair, np.diag([a, -c]))
            assert abs(pair.x[0]) != abs(pair.y[0])
            assert not conj_equivalent(pair.x, pair.y)


class TestWitnessGeneral:
    def test_cone_target_identity_basis(self):
        pair = witness_general(np.diag([1.0, 1.0, -1.0]))
        base = witness_diag_m3(1.0, 1.0, 1.0)
        np.testing.assert_allclose(np.abs(pair.x), np.abs(base.x), atol=1e-12)
        check_pair_realizes(pair, np.diag([1.0, 1.0, -1.0]))

    def test_rotation_target(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        pair = witness_general(h)
        check_pair_realizes(pair, h)

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

    def test_closed_forms_unchanged_below_four(self):
        # m in {2, 3} keep the closed forms: same bits as the diagonal leaves
        pair = witness_general(np.diag([2.0, 0.5, -1.0]))
        base = witness_diag_m3(2.0, 0.5, 1.0)
        assert np.array_equal(np.abs(pair.x), np.abs(base.x))
        assert np.array_equal(np.abs(pair.y), np.abs(base.y))

    def test_requires_exact_symmetry(self):
        with pytest.raises(ValidationError):
            witness_general(np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]))

    def test_two_negative_pattern(self):
        rng = rng_stream(405, 0)
        for _ in range(50):
            h = make_indefinite_target(rng, (1, -1, -1))
            pair = witness_general(h)
            check_pair_realizes(pair, h, tol=1e-10)

    def test_two_positive_pattern(self):
        rng = rng_stream(406, 0)
        for _ in range(50):
            h = make_indefinite_target(rng, (1, 1, -1))
            pair = witness_general(h)
            check_pair_realizes(pair, h, tol=1e-10)

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
