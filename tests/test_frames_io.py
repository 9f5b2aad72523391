import json

import numpy as np
import pytest

from conftest import quadric_cone_frame_4d, random_signal

from conjpr import (
    ComplexFrame,
    Measurement,
    RealFrame,
    certify,
    frame_bounds,
    generic_cpr_size,
    measure,
    random_frame,
    rng_stream,
)
from conjpr import frames_io
from conjpr.errors import FileFormatError, ValidationError


class TestFrameTypes:
    def test_spanning_enforced(self):
        with pytest.raises(ValidationError):
            RealFrame([[1.0, 2.0], [2.0, 4.0]])  # rank 1

    def test_needs_enough_columns(self):
        with pytest.raises(ValidationError):
            RealFrame([[1.0], [0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            RealFrame([[1.0, np.nan, 0.0], [0.0, 1.0, 1.0]])

    def test_complex_rank_over_c(self):
        # columns parallel over C but not over R entrywise
        with pytest.raises(ValidationError):
            ComplexFrame(np.array([[1.0, 1j], [1j, -1.0]]))

    def test_measurement_invariants(self):
        with pytest.raises(ValidationError):
            Measurement(np.array([1.0, -0.5]))  # negative, noiseless
        ok = Measurement(np.array([1.0, -0.5]), noise_sigma=0.1)
        assert ok.n == 2
        with pytest.raises(ValidationError):
            Measurement(np.array([1.0]), noise_sigma=-1.0)


class TestRandomFrame:
    def test_deterministic(self):
        a = random_frame(3, 7, seed=42)
        b = random_frame(3, 7, seed=42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_full_rank(self):
        for seed in range(20):
            f = random_frame(4, 6, seed=seed)
            assert np.linalg.matrix_rank(f.matrix) == 4

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            random_frame(3, 2, seed=0)

    def test_unknown_distribution(self):
        with pytest.raises(ValidationError):
            random_frame(2, 3, seed=0, distribution="uniform")


class TestGenericSize:
    @pytest.mark.parametrize("m,expected", [(2, 3), (3, 6), (4, 10), (5, 14), (7, 22)])
    def test_values(self, m, expected):
        assert generic_cpr_size(m) == expected

    def test_rejects_m1(self):
        with pytest.raises(ValidationError):
            generic_cpr_size(1)


class TestFrameBounds:
    def test_orthonormal(self):
        a, b = frame_bounds(RealFrame(np.eye(3)))
        assert a == pytest.approx(1.0, abs=1e-14)
        assert b == pytest.approx(1.0, abs=1e-14)

    def test_reference_frame(self):
        a, b = frame_bounds(RealFrame([[1.0, 0, 1], [0, 1, 1.0]]))
        assert a == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(3.0, abs=1e-12)

    def test_scaling(self):
        f = random_frame(3, 5, seed=3)
        a, b = frame_bounds(f)
        a2, b2 = frame_bounds(RealFrame(2.0 * f.matrix))
        assert a2 == pytest.approx(4 * a, rel=1e-12)
        assert b2 == pytest.approx(4 * b, rel=1e-12)

    def test_envelope(self):
        rng = rng_stream(301, 0)
        f = random_frame(3, 6, seed=11)
        a, b = frame_bounds(f)
        assert a > 0
        for _ in range(50):
            x = random_signal(rng, 3)
            x /= np.linalg.norm(x)
            total = float(np.sum(measure(f, x).values))
            assert a - 1e-12 <= total <= b + 1e-12


class TestRoundTrips:
    def test_real_frame_json(self, tmp_path):
        f = random_frame(3, 7, seed=5)
        path = tmp_path / "f.json"
        frames_io.save_frame(f, path)
        back = frames_io.load_frame(path)
        assert isinstance(back, RealFrame)
        assert np.array_equal(back.matrix, f.matrix)

    def test_complex_frame_json(self, tmp_path):
        rng = rng_stream(302, 0)
        f = ComplexFrame(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
        path = tmp_path / "cf.json"
        frames_io.save_frame(f, path)
        back = frames_io.load_frame(path)
        assert isinstance(back, ComplexFrame)
        assert np.array_equal(back.matrix, f.matrix)

    def test_real_frame_csv(self, tmp_path):
        f = random_frame(2, 5, seed=6)
        path = tmp_path / "f.csv"
        frames_io.save_frame(f, path)
        back = frames_io.load_frame(path)
        assert np.array_equal(back.matrix, f.matrix)

    def test_csv_rejects_complex(self, tmp_path):
        rng = rng_stream(303, 0)
        f = ComplexFrame(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
        with pytest.raises(FileFormatError):
            frames_io.save_frame(f, tmp_path / "c.csv")

    def test_signal_roundtrip_and_convention(self, tmp_path):
        path = tmp_path / "s.json"
        rng = rng_stream(304, 0)
        x = random_signal(rng, 5)
        frames_io.save_signal(x, path)
        assert np.array_equal(frames_io.load_signal(path), x)
        # [1.0, -1.0] parses as 1 - i
        path2 = tmp_path / "s2.json"
        path2.write_text(json.dumps({"m": 1, "entries": [[1.0, -1.0]]}))
        np.testing.assert_array_equal(frames_io.load_signal(path2), np.array([1 - 1j]))

    def test_measurement_roundtrip(self, tmp_path):
        path = tmp_path / "b.json"
        m = Measurement(np.array([0.25, 1.75, 0.0]))
        frames_io.save_measurement(m, path)
        back = frames_io.load_measurement(path)
        assert np.array_equal(back.values, m.values)
        assert back.noise_sigma is None
        m2 = Measurement(np.array([0.25, -0.1]), noise_sigma=0.5)
        frames_io.save_measurement(m2, path)
        assert frames_io.load_measurement(path).noise_sigma == 0.5

    def test_witness_roundtrip(self, tmp_path):
        from conjpr import witness_diag_m3

        pair = witness_diag_m3(1.0, 2.0, 0.5)
        path = tmp_path / "w.json"
        frames_io.save_witness(pair, path)
        back = frames_io.load_witness(path)
        assert np.array_equal(back.x, pair.x)
        assert np.array_equal(back.y, pair.y)
        assert np.array_equal(back.target, pair.target)
        assert back.residual == pair.residual

    def test_certificate_roundtrip(self, tmp_path):
        cert = certify(random_frame(2, 3, seed=1))
        path = tmp_path / "c.json"
        frames_io.save_certificate(cert, path, witness_file=None)
        back, wfile = frames_io.load_certificate(path)
        assert back.verdict == cert.verdict
        assert back.method == cert.method
        assert back.det_value == cert.det_value
        assert back.kernel_dim == cert.kernel_dim
        assert wfile is None

    def test_kernel_inertia_certificate_roundtrip(self, tmp_path):
        cert = certify(quadric_cone_frame_4d(9, seed=301))
        assert cert.method == "KernelInertia"
        path = tmp_path / "c.json"
        frames_io.save_certificate(cert, path)
        back, wfile = frames_io.load_certificate(path)
        assert back == cert
        assert wfile is None

    def test_matrix_roundtrip(self, tmp_path):
        h = np.diag([1.0, 1.0, -1.0])
        path = tmp_path / "h.json"
        frames_io.save_matrix(h, path)
        assert np.array_equal(frames_io.load_matrix(path), h)


class TestErrors:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError, match="malformed"):
            frames_io.load_frame(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"m": 2, "n": 3, "columns": []}))
        with pytest.raises(FileFormatError, match="field"):
            frames_io.load_frame(path)

    def test_dimension_inconsistency(self, tmp_path):
        path = tmp_path / "f.json"
        doc = {"m": 2, "n": 2, "field": "real", "columns": [[1.0, 0.0]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="columns"):
            frames_io.load_frame(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        doc = {"m": 1, "n": 1, "field": "real", "columns": [["Infinity"]]}
        path.write_text('{"m": 1, "n": 1, "field": "real", "columns": [[Infinity]]}')
        with pytest.raises(FileFormatError):
            frames_io.load_frame(path)

    def test_negative_noiseless_measurement_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"values": [1.0, -2.0]}))
        with pytest.raises(FileFormatError, match="values"):
            frames_io.load_measurement(path)

    def test_asymmetric_matrix_rejected(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"m": 2, "rows": [[0.0, 1.0], [2.0, 0.0]]}))
        with pytest.raises(FileFormatError, match="symmetric"):
            frames_io.load_matrix(path)

    def test_unknown_certificate_verdict(self, tmp_path):
        path = tmp_path / "c.json"
        doc = {"verdict": "Maybe", "method": "Det2"}
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="verdict"):
            frames_io.load_certificate(path)


class TestGenericityMonteCarloSmoke:
    """Acceptance criteria 2-3 run the full 200-seed sweeps; smoke here."""

    def test_small_sweep(self):
        for seed in range(50):
            assert certify(random_frame(2, 3, seed=seed)).verdict == "CertifiedCPR"
            assert certify(random_frame(2, 2, seed=seed)).verdict == "NotCPR"
            assert certify(random_frame(3, 6, seed=seed)).verdict == "CertifiedCPR"
            assert certify(random_frame(3, 5, seed=seed)).verdict == "NotCPR"
