import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import quadric_cone_frame_4d

from conjpr import (
    ComplexFrame,
    conj_class_distance,
    measure,
    random_frame,
    rng_stream,
)
import conjpr
from conjpr import frames_io
from conjpr.cli import main

certify_module = importlib.import_module("conjpr.certify")

FRAME_2X3 = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_frame_2x3(tmp_path):
    path = tmp_path / "frame.json"
    frames_io.save_frame(frames_io.RealFrame(FRAME_2X3), path)
    return path


class TestGen:
    def test_writes_frame(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        code, stdout, _ = run(capsys, "gen", "--m", "3", "--n", "6", "--seed", "7", "-o", str(out))
        assert code == 0
        frame = frames_io.load_frame(out)
        assert (frame.m, frame.n) == (3, 6)
        assert np.array_equal(frame.matrix, random_frame(3, 6, seed=7).matrix)
        assert "note:" not in stdout

    def test_advisory_below_generic_size(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        code, stdout, _ = run(capsys, "gen", "--m", "3", "--n", "5", "-o", str(out))
        assert code == 0
        assert "below the generic retrieval size 6" in stdout

    def test_cone(self, tmp_path, capsys):
        out = tmp_path / "cone.json"
        code, _, _ = run(capsys, "gen", "--m", "3", "--n", "8", "--cone", "-o", str(out))
        assert code == 0
        mat = frames_io.load_frame(out).matrix
        assert np.allclose(mat[0] ** 2 + mat[1] ** 2, mat[2] ** 2)

    def test_bad_dimensions_exit2(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--m", "2", "--n", "1", "-o", str(tmp_path / "x.json"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_nonpositive_m_exit2(self, tmp_path, capsys, m):
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "gen", "--m", m, "--n", "3", "-o", str(out))
        assert code == 2
        assert err.startswith("error [Validation]: m must be")
        assert not out.exists()


class TestCertify:
    def test_reference_frame(self, tmp_path, capsys):
        path = write_frame_2x3(tmp_path)
        code, stdout, _ = run(capsys, "certify", str(path))
        assert code == 0
        assert "CertifiedCPR (Det2)" in stdout

    def test_json_mode_single_document(self, tmp_path, capsys):
        path = write_frame_2x3(tmp_path)
        code, stdout, _ = run(capsys, "certify", str(path), "--json")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["verdict"] == "CertifiedCPR"
        assert doc["method"] == "Det2"
        assert abs(doc["det_value"]) == pytest.approx(2.0, abs=1e-12)

    def test_json_byte_determinism(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        frames_io.save_frame(random_frame(3, 5, seed=3), path)
        _, out1, _ = run(capsys, "certify", str(path), "--json", "--seed", "5")
        _, out2, _ = run(capsys, "certify", str(path), "--json", "--seed", "5")
        assert out1 == out2

    def test_not_cpr_writes_witness_file(self, tmp_path, capsys):
        path = tmp_path / "f35.json"
        frame = random_frame(3, 5, seed=11)
        frames_io.save_frame(frame, path)
        code, stdout, _ = run(capsys, "certify", str(path), "--json")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["verdict"] == "NotCPR"
        witness_path = tmp_path / "f35.witness.json"
        assert doc["witness_file"] == str(witness_path)
        pair = frames_io.load_witness(witness_path)
        bx = measure(frame, pair.x).values
        by = measure(frame, pair.y).values
        assert np.linalg.norm(bx - by) <= 1e-9 * np.linalg.norm(bx)
        assert conj_class_distance(pair.x, pair.y) >= 0.05

    @pytest.mark.parametrize(
        "frame",
        [frames_io.RealFrame(FRAME_2X3), random_frame(3, 5, seed=11), random_frame(2, 2, seed=3)],
    )
    def test_json_is_the_written_certificate(self, tmp_path, capsys, frame):
        path = tmp_path / "f.json"
        frames_io.save_frame(frame, path)
        cpath = tmp_path / "c.json"
        code, stdout, _ = run(capsys, "certify", str(path), "--json", "-o", str(cpath))
        assert code == 0
        assert json.loads(stdout) == json.loads(cpath.read_text())

    def test_wide_eigenvalue_spread_exit0(self, tmp_path, capsys):
        # a valid spanning frame whose kernel matrix has eigenvalue magnitudes
        # 1 and 2.5e-9: the pair is built to round-off, no exit 3
        path = tmp_path / "f.json"
        frames_io.save_frame(frames_io.RealFrame([[1.0, 1.0], [0.0, 1e-4]]), path)
        code, stdout, err = run(capsys, "certify", str(path), "--json")
        assert (code, err) == (0, "")
        doc = json.loads(stdout)
        assert (doc["verdict"], doc["method"]) == ("NotCPR", "TooFewVectors")
        assert frames_io.load_witness(doc["witness_file"]).residual <= 1e-12

    def test_kernel_eigenvalue_below_zero_tol_exit0(self, tmp_path, capsys):
        # eigenvalue magnitudes 1 and 2.5e-13, under ZERO_EIG_TOL of the
        # norm: the unthresholded eigenvalues still build the pair
        path = tmp_path / "f.json"
        frames_io.save_frame(frames_io.RealFrame([[1.0, 1.0], [0.0, 1e-6]]), path)
        code, stdout, err = run(capsys, "certify", str(path), "--json")
        assert (code, err) == (0, "")
        doc = json.loads(stdout)
        assert (doc["verdict"], doc["method"]) == ("NotCPR", "TooFewVectors")
        assert frames_io.load_witness(doc["witness_file"]).residual <= 1e-12

    def test_complex_frame_redirected(self, tmp_path, capsys):
        path = tmp_path / "cf.json"
        rng = rng_stream(701, 0)
        frames_io.save_frame(
            ComplexFrame(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))),
            path,
        )
        code, _, err = run(capsys, "certify", str(path))
        assert code == 2
        assert "strict" in err


class TestMeasureReconstruct:
    def test_roundtrip_linear(self, tmp_path, capsys):
        fpath = write_frame_2x3(tmp_path)
        spath = tmp_path / "x.json"
        frames_io.save_signal(np.array([1.0, 1j]), spath)
        bpath = tmp_path / "b.json"
        code, _, _ = run(capsys, "measure", str(fpath), str(spath), "-o", str(bpath))
        assert code == 0
        rpath = tmp_path / "xhat.json"
        code, stdout, _ = run(capsys, "reconstruct", str(fpath), str(bpath), "-o", str(rpath))
        assert code == 0
        assert "converged = True" in stdout
        xhat = frames_io.load_signal(rpath)
        assert conj_class_distance(xhat, np.array([1.0, 1j])) <= 1e-9

    def test_altproj_method(self, tmp_path, capsys):
        frame = random_frame(4, 10, seed=13)
        fpath = tmp_path / "f.json"
        frames_io.save_frame(frame, fpath)
        x = rng_stream(702, 0).standard_normal(4) + 1j * rng_stream(702, 1).standard_normal(4)
        spath = tmp_path / "x.json"
        frames_io.save_signal(x, spath)
        bpath = tmp_path / "b.json"
        run(capsys, "measure", str(fpath), str(spath), "-o", str(bpath))
        rpath = tmp_path / "xhat.json"
        code, stdout, _ = run(
            capsys, "reconstruct", str(fpath), str(bpath), "--method", "altproj",
            "--restarts", "20", "-o", str(rpath),
        )
        assert code == 0
        xhat = frames_io.load_signal(rpath)
        assert conj_class_distance(xhat, x) <= 1e-6 * np.linalg.norm(x) ** 2

    def test_noise_flag_deterministic(self, tmp_path, capsys):
        fpath = write_frame_2x3(tmp_path)
        spath = tmp_path / "x.json"
        frames_io.save_signal(np.array([1.0, 1j]), spath)
        b1, b2 = tmp_path / "b1.json", tmp_path / "b2.json"
        run(capsys, "measure", str(fpath), str(spath), "--noise-sigma", "1e-3", "--seed", "9", "-o", str(b1))
        run(capsys, "measure", str(fpath), str(spath), "--noise-sigma", "1e-3", "--seed", "9", "-o", str(b2))
        assert b1.read_bytes() == b2.read_bytes()
        assert frames_io.load_measurement(b1).noise_sigma == 1e-3

    def test_nan_noise_exit2(self, tmp_path, capsys):
        self.assert_noise_exit2(tmp_path, capsys, "nan")

    def test_inf_noise_exit2(self, tmp_path, capsys):
        self.assert_noise_exit2(tmp_path, capsys, "inf")

    def test_negative_noise_exit2(self, tmp_path, capsys):
        # argparse alone would read the bare -1e-3 as an option
        self.assert_noise_exit2(tmp_path, capsys, "-1e-3")

    def assert_noise_exit2(self, tmp_path, capsys, sigma):
        fpath = write_frame_2x3(tmp_path)
        spath = tmp_path / "x.json"
        frames_io.save_signal(np.array([1.0, 1j]), spath)
        bpath = tmp_path / "b.json"
        code, _, err = run(
            capsys, "measure", str(fpath), str(spath), "--noise-sigma", sigma, "-o", str(bpath)
        )
        assert code == 2
        assert "noise_sigma" in err
        assert not bpath.exists()

    def test_dimension_mismatch_exit2(self, tmp_path, capsys):
        fpath = write_frame_2x3(tmp_path)
        spath = tmp_path / "x.json"
        frames_io.save_signal(np.array([1.0, 1j, 0.0]), spath)
        code, _, err = run(capsys, "measure", str(fpath), str(spath), "-o", str(tmp_path / "b.json"))
        assert code == 2
        assert "DimensionMismatch" in err or "error" in err

    def test_inconsistent_measurements_exit3(self, tmp_path, capsys):
        fpath = write_frame_2x3(tmp_path)
        bpath = tmp_path / "b.json"
        bpath.write_text(json.dumps({"values": [1.0, 1.0, -5.0], "noise_sigma": 1.0}))
        code, _, err = run(capsys, "reconstruct", str(fpath), str(bpath), "-o", str(tmp_path / "x.json"))
        assert code == 3
        assert "NotPSD" in err


class TestFalsify:
    def test_retrievable_frame_reports_none(self, tmp_path, capsys):
        path = write_frame_2x3(tmp_path)
        code, stdout, _ = run(capsys, "falsify", str(path), "--json")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["found"] is False

    def test_underdetermined_m3(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        frames_io.save_frame(random_frame(3, 5, seed=17), path)
        code, stdout, _ = run(capsys, "falsify", str(path), "--json")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["found"] is True
        assert doc["witness"]["residual"] <= 1e-10
        assert doc["restarts"] == 0

    def test_search_budget_reported(self, tmp_path, capsys):
        # 6x17 has kernel dimension 4: at M >= 6 the search runs
        path = tmp_path / "f.json"
        frames_io.save_frame(random_frame(6, 17, seed=18), path)
        code, stdout, _ = run(capsys, "falsify", str(path), "--budget", "100", "--json")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["restarts"] == 100

    def test_kernel_pencil_runs_no_restart(self, tmp_path, capsys):
        # 4x8 has kernel dimension 2: at M = 4, 5 the kernel pencil answers
        path = tmp_path / "f.json"
        frames_io.save_frame(random_frame(4, 8, seed=18), path)
        code, stdout, _ = run(capsys, "falsify", str(path), "--budget", "100", "--json")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["found"] is True and doc["restarts"] == 0

    def test_injective_lift_runs_no_restart(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        frames_io.save_frame(random_frame(4, 10, seed=18), path)
        code, stdout, _ = run(capsys, "falsify", str(path), "--budget", "100", "--json")
        assert code == 0
        assert json.loads(stdout) == {"found": False, "witness": None, "restarts": 0}
        code, stdout, _ = run(capsys, "falsify", str(path), "--budget", "100")
        assert stdout.strip() == "no witness exists: the lifted operator is injective"

    def test_quadric_cone_kernel_runs_no_restart(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        frames_io.save_frame(quadric_cone_frame_4d(9, seed=704), path)
        code, stdout, _ = run(capsys, "falsify", str(path), "--json")
        assert code == 0
        assert json.loads(stdout) == {"found": False, "witness": None, "restarts": 0}
        code, stdout, _ = run(capsys, "falsify", str(path))
        assert stdout.startswith("no witness exists: the lifted kernel")

    def test_json_witness_is_the_certify_witness_file(self, tmp_path, capsys):
        path = tmp_path / "f35.json"
        frames_io.save_frame(random_frame(3, 5, seed=11), path)
        code, stdout, _ = run(capsys, "falsify", str(path), "--json")
        assert code == 0
        witness = json.loads(stdout)["witness"]
        code, _, _ = run(capsys, "certify", str(path))
        assert code == 0
        assert witness == json.loads((tmp_path / "f35.witness.json").read_text())

    def test_json_witness_is_the_library_pair(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        frame = random_frame(3, 5, seed=12)
        frames_io.save_frame(frame, path)
        code, stdout, _ = run(capsys, "falsify", str(path), "--budget", "32", "--seed", "4", "--json")
        assert code == 0
        pair = conjpr.falsify_search(frame, budget=32, seed=4)
        assert json.loads(stdout)["witness"] == frames_io.witness_doc(pair)

    def test_budget_validation_exit2(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        frames_io.save_frame(random_frame(3, 5, seed=17), path)
        code, _, err = run(capsys, "falsify", str(path), "--budget", "0")
        assert code == 2
        assert err.strip() == (
            "error [Validation]: budget must be an integer of at least 1, got 0"
        )


class TestSeedValidation:
    @pytest.mark.parametrize("command", ["gen", "certify", "falsify"])
    def test_negative_seed_exit2(self, tmp_path, capsys, command):
        path = tmp_path / "f.json"
        frames_io.save_frame(random_frame(4, 8, seed=4), path)
        argv = [str(path)]
        if command == "gen":
            argv = ["--m", "4", "--n", "8", "-o", str(tmp_path / "g.json")]
        code, _, err = run(capsys, command, *argv, "--seed", "-1")
        assert code == 2
        assert err.startswith("error [Validation]: seed must be")


class TestWitnessCommand:
    # b = 1e-5 sits at 1e-10 of |H|_F, where witness_general's default tol
    # would zero it
    @pytest.mark.parametrize("diag", ["1,1,1", "2,0,0.5", "1e5,1e-5,3"])
    def test_diag(self, tmp_path, capsys, diag):
        out = tmp_path / "pair.json"
        code, _, _ = run(capsys, "witness", "--diag", diag, "-o", str(out))
        assert code == 0
        pair = frames_io.load_witness(out)
        a, b, c = (float(v) for v in diag.split(","))
        assert np.array_equal(pair.target, np.diag([a, b, -c]))
        assert pair.residual <= 1e-12
        # the spectral split spends exactly the target's eigenvalue magnitudes
        total = np.linalg.norm(pair.x) ** 2 + np.linalg.norm(pair.y) ** 2
        assert total == pytest.approx(a + b + c, rel=1e-12)

    @pytest.mark.parametrize("diag, name", [("-1,1,1", "a"), ("1,-1,1", "b"), ("1,1,0", "c")])
    def test_nonpositive_diag_entry_exit2(self, tmp_path, capsys, diag, name):
        out = tmp_path / "p.json"
        code, _, err = run(capsys, "witness", f"--diag={diag}", "-o", str(out))
        assert code == 2
        assert err.startswith(f"error [Validation]: {name} must be a finite number")
        assert not out.exists()

    @pytest.mark.parametrize("diag", ["-1,1,1", "-.5,1,1", "1,-1,1"])
    def test_bare_negative_diag_reaches_entry_check(self, tmp_path, capsys, diag):
        # argparse alone reads a bare "-1,1,1" as an option, not as the value
        out = str(tmp_path / "p.json")
        bare = run(capsys, "witness", "--diag", diag, "-o", out)
        assert bare == run(capsys, "witness", f"--diag={diag}", "-o", out)
        assert bare[0] == 2 and "must be a finite number" in bare[2]

    def test_matrix_input(self, tmp_path, capsys):
        hpath = tmp_path / "h.json"
        frames_io.save_matrix(np.diag([1.0, 1.0, -1.0]), hpath)
        out = tmp_path / "pair.json"
        code, _, _ = run(capsys, "witness", "--matrix", str(hpath), "-o", str(out))
        assert code == 0

    def test_psd_matrix_exit3(self, tmp_path, capsys):
        hpath = tmp_path / "psd.json"
        frames_io.save_matrix(np.eye(3), hpath)
        code, _, err = run(capsys, "witness", "--matrix", str(hpath), "-o", str(tmp_path / "p.json"))
        assert code == 3
        assert "DefiniteInput" in err

    def test_bad_diag_exit2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "witness", "--diag", "1,2", "-o", str(tmp_path / "p.json"))
        assert code == 2


class TestStrict:
    def test_real_frame(self, tmp_path, capsys):
        path = write_frame_2x3(tmp_path)
        code, stdout, _ = run(capsys, "strict", str(path), "--json")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["verdict"] == "StrictlyCPR"
        assert doc["witness_y"][0] == [1.0, 0.0]
        assert doc["witness_y"][1] == [0.0, 1.0]

    def test_complex_candidate(self, tmp_path, capsys):
        rng = rng_stream(703, 0)
        path = tmp_path / "cf.json"
        frames_io.save_frame(
            ComplexFrame(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))),
            path,
        )
        code, stdout, _ = run(capsys, "strict", str(path))
        assert code == 0
        assert "ComplexPRCandidate" in stdout

    def test_complex_multi_restart_witness(self, tmp_path, capsys):
        # nullity 4: the 16-restart skew stack runs, and restart 1 wins
        rng = rng_stream(509, 500)
        path = tmp_path / "cf.json"
        frames_io.save_frame(
            ComplexFrame(rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))),
            path,
        )
        code, first, _ = run(capsys, "strict", str(path), "--json")
        assert code == 0
        code, second, _ = run(capsys, "strict", str(path), "--json")
        assert code == 0 and second == first
        doc = json.loads(first)
        assert doc["verdict"] == "StrictlyCPR" and doc["im_gram_nullity"] == 4
        y = np.array([re + 1j * im for re, im in doc["witness_y"]])
        # y and conj(y) pass the measurement gate over the unit columns
        mat = frames_io.load_frame(path).matrix
        unit = mat / np.linalg.norm(mat, axis=0)
        by, bc = (np.abs(unit.conj().T @ z) ** 2 for z in (y, y.conj()))
        scale = max(np.linalg.norm(by), np.linalg.norm(bc))
        assert np.linalg.norm(by - bc) <= certify_module.PAIR_GAP_TOL * scale


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "command,doc",
        [
            ("certify", {"m": -1, "n": 0, "field": "real", "columns": []}),
            ("witness", {"m": 2, "rows": [["a", "b"], ["c", "d"]]}),
            ("witness", {"m": 2, "rows": [[True, 0], [0, -1]]}),
        ],
    )
    def test_exit2(self, tmp_path, capsys, command, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        if command == "witness":
            argv = [command, "--matrix", str(path), "-o", str(tmp_path / "p.json")]
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error [FileFormat]: field '")


class TestSubprocessDeterminism:
    def test_json_identical_across_processes(self, tmp_path):
        path = tmp_path / "f.json"
        frames_io.save_frame(random_frame(2, 3, seed=1), path)
        cmd = [sys.executable, "-m", "conjpr.cli", "certify", str(path), "--json"]
        # the child imports the same conjpr as this process, installed or not
        env = dict(os.environ, PYTHONPATH=str(Path(conjpr.__file__).parents[1]))
        a = subprocess.run(cmd, capture_output=True, check=True, env=env).stdout
        b = subprocess.run(cmd, capture_output=True, check=True, env=env).stdout
        assert a == b and a
