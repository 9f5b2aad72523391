import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import quadric_cone_frame_4d, random_signal

from conjpr import (
    ComplexFrame,
    Measurement,
    RealFrame,
    canonical_rep,
    certify,
    cone_frame,
    conj_equivalent,
    factor_rank2,
    generic_cpr_size,
    is_phased_real,
    kernel_basis,
    measure,
    numeric_rank,
    omega_matrix,
    phase_equivalent,
    random_frame,
    reconstruct_altproj,
    reconstruct_linear,
    rng_stream,
    witness_general,
)
from conjpr import frames_io
from conjpr.errors import FileFormatError, ValidationError

INF = float("inf")

_X = np.array([1.0, 1.0j])
_LIN = random_frame(2, 3)

#: Every public tol argument, called on inputs that pass at a valid tol; the
#: POSITIVE_TOL ones require tol > 0, the others tol >= 0.
TOL_CALLS = {
    "phase_equivalent": lambda tol: phase_equivalent(_X, _X, tol=tol),
    "conj_equivalent": lambda tol: conj_equivalent(_X, _X, tol=tol),
    "is_phased_real": lambda tol: is_phased_real([1.0, 1.0], tol=tol),
    "canonical_rep": lambda tol: canonical_rep(_X, tol=tol),
    "kernel_basis": lambda tol: kernel_basis(omega_matrix(cone_frame(6)), tol=tol),
    "numeric_rank": lambda tol: numeric_rank(np.eye(3), tol=tol),
    "witness_general": lambda tol: witness_general(np.diag([1.0, -1.0]), tol=tol),
    "factor_rank2": lambda tol: factor_rank2(np.eye(2), tol=tol),
    "reconstruct_linear": lambda tol: reconstruct_linear(_LIN, measure(_LIN, _X), tol=tol),
    "reconstruct_altproj": lambda tol: reconstruct_altproj(
        _LIN, measure(_LIN, _X), max_iter=3, restarts=2, tol=tol
    ),
}
POSITIVE_TOL = ("phase_equivalent", "conj_equivalent", "is_phased_real")

#: A valid document per loader; TestErrors corrupts one field at a time.
VALID_DOCS = {
    "frame": (
        frames_io.load_frame,
        {"m": 2, "n": 3, "field": "real", "columns": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]},
    ),
    "complex_frame": (
        frames_io.load_frame,
        {"m": 1, "n": 2, "field": "complex", "columns": [[[1.0, 0.0]], [[0.0, 1.0]]]},
    ),
    "signal": (frames_io.load_signal, {"m": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}),
    "measurement": (frames_io.load_measurement, {"values": [1.0, 2.0], "noise_sigma": 0.5}),
    "matrix": (frames_io.load_matrix, {"m": 2, "rows": [[1.0, 0.0], [0.0, -1.0]]}),
    "witness": (
        frames_io.load_witness,
        {
            "x": [[1.0, 0.0], [0.0, 0.0]],
            "y": [[0.0, 0.0], [1.0, 0.0]],
            "target": [[1.0, 0.0], [0.0, -1.0]],
            "residual": 0.0,
        },
    ),
    "certificate": (
        frames_io.load_certificate,
        {
            "verdict": "NotCPR",
            "method": "KernelWitness",
            "det_value": 1.5,
            "kernel_dim": 1,
            "witness_file": None,
            "trials": None,
            "violating_subset": [0, 1],
        },
    ),
    "searched_certificate": (
        frames_io.load_certificate,
        {
            "verdict": "NotCPR",
            "method": "SearchWitness",
            "det_value": None,
            "kernel_dim": 3,
            "witness_file": "cert.witness.json",
            "trials": {"restarts": 64, "seed": 0, "best_gap": 1e-16, "best_distance": 1.2},
            "violating_subset": None,
        },
    ),
}


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
        with pytest.raises(ValidationError):
            Measurement(np.array([1.0]), noise_sigma=float("nan"))
        # the file holds only finite numbers: inf would save but never load
        for sigma in (INF, True):
            with pytest.raises(ValidationError, match="noise_sigma"):
                Measurement(np.array([1.0]), noise_sigma=sigma)

    @pytest.mark.parametrize("sigma", [0, 3, np.float64(1e-3), INF])
    def test_every_measurement_loads_back(self, tmp_path, sigma):
        try:
            meas = Measurement(np.array([1.0, 0.25]), sigma)
        except ValidationError:
            assert sigma == INF
            return
        path = tmp_path / "b.json"
        frames_io.save_measurement(meas, path)
        back = frames_io.load_measurement(path)
        assert np.array_equal(back.values, meas.values)
        assert back.noise_sigma == sigma


class TestCheckTol:
    @pytest.mark.parametrize("name", sorted(TOL_CALLS))
    @pytest.mark.parametrize("tol", [float("nan"), INF, -1, True, "1e-9"])
    def test_invalid_tolerance_raises(self, name, tol):
        with pytest.raises(ValidationError, match="tol must be a finite number"):
            TOL_CALLS[name](tol)

    @pytest.mark.parametrize("name", sorted(TOL_CALLS))
    def test_zero_only_where_nonnegative(self, name):
        TOL_CALLS[name](1e-9)
        TOL_CALLS[name](np.float64(1e-9))
        if name in POSITIVE_TOL:
            with pytest.raises(ValidationError, match="above 0"):
                TOL_CALLS[name](0)
        else:
            TOL_CALLS[name](0)


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

    @pytest.mark.parametrize(
        "m, n, name", [(0, 3, "m"), (-2, 3, "m"), (True, 3, "m"), (2, 2.5, "n"), (2, "3", "n")]
    )
    def test_rejects_bad_sizes(self, m, n, name):
        # a 0 x n draw can never span, so before this check the redraw loop never ended
        with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
            random_frame(m, n, seed=0)

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_restart_starts_are_spawned_streams(self, seed):
        # the multistart searches' starts, pinned to SeedSequence.spawn
        children = np.random.SeedSequence(entropy=seed).spawn(5)
        want = np.array([np.random.default_rng(c).standard_normal(6) for c in children])
        assert np.array_equal(frames_io._restart_starts(seed, 5, 6), want)
        # a slice of the lazy starts draws only its rows, with the same bits
        lazy = frames_io._LazyStarts(seed, 5, 6)
        assert lazy.shape == (5, 6)
        assert np.array_equal(lazy[:1], want[:1]) and np.array_equal(lazy[1:], want[1:])
        assert lazy[5:].shape == (0, 6)


class TestGenericSize:
    @pytest.mark.parametrize("m,expected", [(2, 3), (3, 6), (4, 10), (5, 14), (7, 22)])
    def test_values(self, m, expected):
        assert generic_cpr_size(m) == expected

    def test_rejects_m1(self):
        with pytest.raises(ValidationError):
            generic_cpr_size(1)

    @pytest.mark.parametrize("m", [4.5, 4.0, True, "4", None])
    def test_rejects_non_integer(self, m):
        with pytest.raises(ValidationError, match="m must be an integer"):
            generic_cpr_size(m)


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
        pair = witness_general(np.diag([1.0, 2.0, -0.5]))
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

    def test_kernel_pencil_certificate_roundtrip(self, tmp_path):
        cert = certify(random_frame(4, 8, seed=0))
        assert (cert.method, cert.trials) == ("KernelPencil", None)
        path = tmp_path / "c.json"
        frames_io.save_certificate(cert, path, witness_file="c.witness.json")
        back, wfile = frames_io.load_certificate(path)
        assert back == replace(cert, witness=None)
        assert wfile == "c.witness.json"

    def test_search_trials_roundtrip(self, tmp_path):
        # generic 6x18: the search runs and reports its statistics
        cert = certify(random_frame(6, 18, seed=3), budget=8, seed=5)
        assert cert.verdict == "Undecided" and set(cert.trials) == {
            "restarts", "seed", "best_gap", "best_distance"
        }
        path = tmp_path / "c.json"
        frames_io.save_certificate(cert, path, witness_file="c.witness.json")
        back, wfile = frames_io.load_certificate(path)
        assert back == cert
        assert wfile == "c.witness.json"

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

    def test_negative_noise_level_names_its_field(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"values": [1.0, 2.0], "noise_sigma": -1.0}))
        with pytest.raises(FileFormatError, match="^field 'noise_sigma' must be at least 0"):
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

    def test_negative_size_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"m": -1, "n": 0, "field": "real", "columns": []}))
        with pytest.raises(FileFormatError, match="'m'"):
            frames_io.load_frame(path)

    def test_bool_size_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        doc = {"m": True, "n": 1, "field": "real", "columns": [[1.0]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="'m'"):
            frames_io.load_frame(path)

    def test_csv_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,0.0,nan\n0.0,1.0,1.0\n")
        with pytest.raises(FileFormatError, match="csv"):
            frames_io.load_frame(path)

    @pytest.mark.parametrize(
        "kind,where,bad",
        [
            ("frame", ("m",), True),
            ("frame", ("m",), -1),
            ("frame", ("n",), "3"),
            ("frame", ("columns", 0, 1), True),
            ("frame", ("columns", 0, 1), "a"),
            ("frame", ("columns", 2, 0), INF),
            ("frame", ("columns", 0), 1.0),
            ("complex_frame", ("columns", 0, 0, 0), True),
            ("complex_frame", ("columns", 1, 0, 1), INF),
            ("complex_frame", ("columns", 0, 0), 1.0),
            ("signal", ("m",), -2),
            ("signal", ("entries", 1, 0), "x"),
            ("signal", ("entries", 1, 1), INF),
            ("signal", ("entries", 0), [1.0]),
            ("measurement", ("values", 0), True),
            ("measurement", ("values", 1), "2"),
            ("measurement", ("values", 0), INF),
            ("measurement", ("noise_sigma",), True),
            ("measurement", ("values",), {"a": 1.0}),
            ("matrix", ("m",), -1),
            ("matrix", ("m",), True),
            ("matrix", ("rows", 0, 0), True),
            ("matrix", ("rows", 0, 1), "b"),
            ("matrix", ("rows", 1, 1), INF),
            ("matrix", ("rows", 1), 1.0),
            ("witness", ("x", 0, 0), True),
            ("witness", ("y", 1, 1), "i"),
            ("witness", ("target", 0, 0), True),
            ("witness", ("target", 0, 1), "a"),
            ("witness", ("target", 1, 1), INF),
            ("witness", ("target", 0), [1.0]),
            ("witness", ("residual",), INF),
            ("certificate", ("det_value",), True),
            ("certificate", ("det_value",), "1"),
            ("certificate", ("det_value",), INF),
            ("certificate", ("kernel_dim",), -1),
            ("certificate", ("kernel_dim",), True),
            ("certificate", ("violating_subset", 0), "a"),
            ("certificate", ("violating_subset",), 3),
            ("searched_certificate", ("trials", "restarts"), -1),
            ("searched_certificate", ("trials", "restarts"), 2.5),
            ("searched_certificate", ("trials", "seed"), True),
            ("searched_certificate", ("trials", "seed"), "0"),
            ("searched_certificate", ("trials", "best_gap"), "x"),
            ("searched_certificate", ("trials", "best_gap"), INF),
            ("searched_certificate", ("trials", "best_distance"), True),
            ("searched_certificate", ("trials", "best_distance"), [1.0]),
            ("searched_certificate", ("trials", "hits"), 3),
            ("searched_certificate", ("trials",), "x"),
            ("searched_certificate", ("trials",), {"restarts": 64}),
            ("searched_certificate", ("witness_file",), 3),
            ("searched_certificate", ("witness_file",), True),
            ("searched_certificate", ("witness_file",), ["cert.witness.json"]),
        ],
    )
    def test_corrupt_field_is_file_format_error(self, tmp_path, kind, where, bad):
        """Bools, strings, non-finite numbers, negative sizes and wrong nesting
        are FileFormatError in every loader, never ValueError or TypeError."""
        load, doc = VALID_DOCS[kind]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        load(path)  # the uncorrupted document loads
        doc = copy.deepcopy(doc)
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = bad
        path.write_text(json.dumps(doc))  # INF is written as the literal Infinity
        with pytest.raises(FileFormatError):
            load(path)


class TestGenericityMonteCarloSmoke:
    """Acceptance criteria 2-3 run the full 200-seed sweeps; smoke here."""

    def test_small_sweep(self):
        for seed in range(50):
            assert certify(random_frame(2, 3, seed=seed)).verdict == "CertifiedCPR"
            assert certify(random_frame(2, 2, seed=seed)).verdict == "NotCPR"
            assert certify(random_frame(3, 6, seed=seed)).verdict == "CertifiedCPR"
            assert certify(random_frame(3, 5, seed=seed)).verdict == "NotCPR"
