"""Workload inputs and operations.

``build(name, seed, workdir, cli)`` draws every input of one workload from
``seed`` and returns the fixed list of operations that make one round.  An
operation calls into ``conjpr`` through module attributes looked up at call
time (``conjpr.certify``, ``conjpr.cli.main``, ...), so the tracer can wrap
them; its check compares the answer with the oracles only.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import conjpr
import conjpr.cli
from checks import (
    check_certificate,
    check_reconstruction,
    check_search,
    check_strict,
    check_witness,
    wrong,
)
from oracles import lift_kernel, measurements

WORKLOADS = ("decide", "search", "recover", "cli")

#: Restarts given to every search the benchmark asks for.
SEARCH_BUDGET = 64
#: reconstruct_altproj settings (the library defaults).
ALTPROJ_RESTARTS = 50
ALTPROJ_MAX_ITER = 500
#: Relative noise on the measurements of the never-converging altproj problem.
NOISE = 1e-3


@dataclass
class Op:
    """One closed-loop operation: ``call()`` runs it, ``check(result)`` judges it."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple | None]


# ---------------------------------------------------------------------------
# input generators (numpy only)
# ---------------------------------------------------------------------------


def _decidable(mat) -> bool:
    """Spanning, and no lift singular value near the rank threshold."""
    if np.linalg.matrix_rank(mat) < mat.shape[0]:
        return False
    return not lift_kernel(mat)[2]


def gaussian_frame(rng, m: int, n: int) -> np.ndarray:
    while True:
        mat = rng.standard_normal((m, n))
        if _decidable(mat):
            return mat


def two_line_frame(rng, n: int) -> np.ndarray:
    """M = 2 frame on two lines, alternating: never CPR, walk order fixed."""
    while True:
        u, v = rng.standard_normal((2, 2))
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        if abs(u @ v) < 0.9:
            break
    scale = rng.uniform(0.5, 2.0, n) * rng.choice((-1.0, 1.0), n)
    return np.stack([s * (u if k % 2 == 0 else v) for k, s in enumerate(scale)], axis=1)


def cone_frame(rng, n: int) -> np.ndarray:
    """Vectors (cos t, sin t, 1) at random angles at least 0.1 apart."""
    while True:
        t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.concatenate([t, t[:1] + 2.0 * np.pi]))
        if gaps.min() > 0.1:
            return np.vstack([np.cos(t), np.sin(t), np.ones(n)])


def planted_frame(rng, m: int, n: int) -> tuple[np.ndarray, tuple]:
    """Frame whose vectors all lie on the cone phi^T Q phi = 0, Q = Re(xx* - yy*).

    Returns (frame, (x, y)): the pair is a witness by construction.
    N <= M(M+1)/2 - 2 keeps the kernel dimension at least 2.
    """
    if n > m * (m + 1) // 2 - 2:
        raise ValueError(f"planted {m}x{n} frame would have kernel dimension < 2")
    x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    Q = np.real(np.outer(x, x.conj()) - np.outer(y, y.conj()))
    while True:
        cols = []
        while len(cols) < n:
            p, d = rng.standard_normal((2, m))
            a, b, c = d @ Q @ d, p @ Q @ d, p @ Q @ p
            disc = b * b - a * c
            if abs(a) < 1e-3 or disc < 0.0:
                continue
            t = (-b + rng.choice((-1.0, 1.0)) * np.sqrt(disc)) / a
            phi = p + t * d
            cols.append(phi / np.linalg.norm(phi))
        mat = np.stack(cols, axis=1)
        if _decidable(mat):
            return mat, (x, y)


def complex_frame(rng, m: int, n: int) -> np.ndarray:
    while True:
        mat = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        if np.linalg.matrix_rank(mat) == m:
            return mat


def signal(rng, m: int) -> np.ndarray:
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(WORKLOADS.index(name),))
    )


# ---------------------------------------------------------------------------
# decide: the certify ladder and strict_report
# ---------------------------------------------------------------------------


def _certify_op(label, mat, budget, search_seed):
    frame = conjpr.RealFrame(mat)

    def check(cert):
        pair = None if cert.witness is None else (cert.witness.x, cert.witness.y)
        return check_certificate(mat, cert.verdict, cert.method, pair)

    return Op(label, lambda: conjpr.certify(frame, budget=budget, seed=search_seed), check)


def _strict_op(label, mat):
    frame = conjpr.RealFrame(mat) if np.isrealobj(mat) else conjpr.ComplexFrame(mat)
    return Op(
        label,
        lambda: conjpr.strict_report(frame),
        lambda rep: check_strict(mat, rep.verdict, rep.witness_y),
    )


def build_decide(rng) -> list[Op]:
    ops = []
    for n in (3, 4, 6, 8, 10, 12, 14, 16):
        ops.append(_certify_op(f"certify m2 gauss n{n}", gaussian_frame(rng, 2, n), 0, 0))
    for n in (6, 10, 14):
        ops.append(_certify_op(f"certify m2 lines n{n}", two_line_frame(rng, n), 0, 0))
    for n in (5, 5, 5, 6, 7, 8, 9, 10):
        ops.append(_certify_op(f"certify m3 n{n}", gaussian_frame(rng, 3, n), 0, 0))
    for n in (6, 9):
        ops.append(_certify_op(f"certify m3 cone n{n}", cone_frame(rng, n), 0, 0))
    for m, n in ((4, 5), (4, 6), (5, 8)):
        ops.append(_certify_op(f"certify too-few {m}x{n}", gaussian_frame(rng, m, n), 0, 0))
    for _ in range(2):
        ops.append(_certify_op("certify kdim0 4x10", gaussian_frame(rng, 4, 10), 0, 0))
    # four 5x14 searches put op_p90_ms inside one block of like operations
    for k, (m, n) in enumerate(((4, 9), (4, 9), (5, 14), (5, 14), (5, 14), (5, 14))):
        mat = gaussian_frame(rng, m, n)
        ops.append(_certify_op(f"certify kdim1 {m}x{n}", mat, SEARCH_BUDGET, k))
    for m, n in ((4, 5), (5, 8)):
        ops.append(_strict_op(f"strict complex {m}x{n}", complex_frame(rng, m, n)))
    for m, n in ((3, 6), (4, 10)):
        ops.append(_strict_op(f"strict real {m}x{n}", gaussian_frame(rng, m, n)))
    return ops


# ---------------------------------------------------------------------------
# search: falsify_search on kernel dimension >= 2
# ---------------------------------------------------------------------------


def _search_op(label, mat, planted, search_seed):
    frame = conjpr.RealFrame(mat)

    def check(pair):
        return check_search(mat, None if pair is None else (pair.x, pair.y), planted)

    return Op(
        label,
        lambda: conjpr.falsify_search(frame, budget=SEARCH_BUDGET, seed=search_seed),
        check,
    )


def build_search(rng) -> list[Op]:
    ops = []
    shapes = [(4, 8, True)] * 3 + [(5, 11, True)] * 2 + [(6, 14, True)] * 2
    shapes += [(6, 18, False)] * 2
    for k, (m, n, planted) in enumerate(shapes):
        mat = planted_frame(rng, m, n)[0] if planted else gaussian_frame(rng, m, n)
        kind = "planted" if planted else "generic"
        ops.append(_search_op(f"falsify {kind} {m}x{n}", mat, planted, k))
    return ops


# ---------------------------------------------------------------------------
# recover: reconstruct_linear and reconstruct_altproj
# ---------------------------------------------------------------------------


def _recover_op(label, method, mat, x, b, seed=0):
    frame = conjpr.RealFrame(mat)
    if method == "linear":
        call = lambda: conjpr.reconstruct_linear(frame, b)  # noqa: E731
    else:
        call = lambda: conjpr.reconstruct_altproj(  # noqa: E731
            frame, b, max_iter=ALTPROJ_MAX_ITER, restarts=ALTPROJ_RESTARTS, seed=seed
        )

    def check(res):
        return check_reconstruction(
            mat, x, b, res.estimate, res.lift_residual, res.converged
        )

    return Op(label, call, check)


def build_recover(rng) -> list[Op]:
    ops = []
    # 8 signals per M and 16 at M = 8: op_p50_ms falls mid-way through the
    # M = 6 block and op_p90_ms inside the M = 8 block, not on a boundary
    for m in range(3, 9):
        mat = gaussian_frame(rng, m, m * (m + 1) // 2 + 2)
        for _ in range(16 if m == 8 else 8):
            x = signal(rng, m)
            ops.append(_recover_op(f"linear m{m}", "linear", mat, x, measurements(mat, x)))
    for k, (m, n) in enumerate(((7, 26), (8, 34))):
        mat = gaussian_frame(rng, m, n)
        x = signal(rng, m)
        ops.append(_recover_op(f"altproj {m}x{n}", "altproj", mat, x, measurements(mat, x), k))
    mat = gaussian_frame(rng, 5, 14)
    x = signal(rng, 5)
    b = measurements(mat, x)
    b = b + NOISE * float(np.mean(b)) * rng.standard_normal(b.shape[0])
    ops.append(_recover_op("altproj noisy 5x14", "altproj", mat, x, b, 3))
    return ops


# ---------------------------------------------------------------------------
# cli: `cpr` subcommands on files
# ---------------------------------------------------------------------------


class CliRunner:
    """Runs ``cpr`` argv as a fresh process, or in-process for the traced run."""

    def __init__(self, src: Path):
        self.in_process = False
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            out = io.StringIO()
            with redirect_stdout(out):
                code = conjpr.cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "conjpr.cli", *argv],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _frame_doc(mat) -> dict:
    m, n = mat.shape
    return {"m": m, "n": n, "field": "real", "columns": mat.T.tolist()}


def _complex(pairs) -> np.ndarray:
    """A signal from the files' [re, im] pairs."""
    return np.array([complex(re, im) for re, im in pairs])


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _cli_op(cli, label, argv, check_doc):
    """Op whose check parses --json stdout and pins it byte for byte."""
    first = []

    def check(result):
        code, out = result
        if code != 0:
            return wrong(f"exit code {code}")
        if first and out != first[0]:
            return wrong("stdout differs from the first run of the same command line")
        first.append(out)
        return check_doc(json.loads(out))

    return Op(label, lambda: cli(argv), check)


def build_cli(rng, workdir: Path, cli: CliRunner) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    f = {name: workdir / f"{name}.json" for name in (
        "m2", "m3_5", "m4_10", "lin", "planted", "strict", "signal", "meas",
        "est_linear", "est_altproj", "gen", "cone", "pair")}
    mats = {
        "m2": gaussian_frame(rng, 2, 6),
        "m3_5": gaussian_frame(rng, 3, 5),
        "m4_10": gaussian_frame(rng, 4, 10),
        "lin": gaussian_frame(rng, 3, 8),
        "planted": planted_frame(rng, 4, 8)[0],
        "strict": gaussian_frame(rng, 3, 6),
    }
    for name, mat in mats.items():
        _write_json(f[name], _frame_doc(mat))
    x = signal(rng, 3)
    _write_json(f["signal"], {"m": 3, "entries": [[v.real, v.imag] for v in x]})
    diag = rng.uniform(0.5, 2.0, 3)
    gen_seed = int(rng.integers(0, 2**31))

    def certified(name):
        def check_doc(doc):
            pair = None
            if doc["witness_file"]:
                w = _read_json(Path(doc["witness_file"]))
                pair = (_complex(w["x"]), _complex(w["y"]))
            return check_certificate(mats[name], doc["verdict"], doc["method"], pair)
        return check_doc

    def gen_check(doc):
        cols = np.array(_read_json(f["gen"])["columns"], dtype=np.float64)
        if cols.shape != (6, 3) or np.linalg.matrix_rank(cols) != 3:
            return wrong(f"gen wrote a {cols.shape} frame of rank {np.linalg.matrix_rank(cols)}")
        return None

    def cone_check(doc):
        cols = np.array(_read_json(f["cone"])["columns"], dtype=np.float64)
        form = cols[:, 0] ** 2 + cols[:, 1] ** 2 - cols[:, 2] ** 2
        return None if np.max(np.abs(form)) < 1e-12 else wrong("cone vectors off the cone")

    def measure_check(doc):
        got = np.array(_read_json(f["meas"])["values"])
        want = measurements(mats["lin"], x)
        ok = got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=0.0)
        return None if ok else wrong("measurements differ from |<x, phi>|^2")

    def recovered(method):
        def check_doc(doc):
            est = _complex(_read_json(f[f"est_{method}"])["entries"])
            return check_reconstruction(
                mats["lin"], x, measurements(mats["lin"], x), est,
                doc["lift_residual"], doc["converged"],
            )
        return check_doc

    def falsified(name, planted):
        def check_doc(doc):
            if not doc["found"]:
                return ("failed", "no witness") if planted else wrong("no exact witness")
            w = doc["witness"]
            return check_witness(mats[name], _complex(w["x"]), _complex(w["y"]), planted)
        return check_doc

    def witness_check(doc):
        w = _read_json(f["pair"])
        px, py = _complex(w["x"]), _complex(w["y"])
        lift = np.real(np.outer(px, px.conj()) - np.outer(py, py.conj()))
        target = np.diag([diag[0], diag[1], -diag[2]])
        gap = float(np.linalg.norm(lift - target) / np.linalg.norm(target))
        return None if gap < 1e-10 else wrong(f"witness misses its target by {gap:.3e}")

    def strict_check(doc):
        y = None if doc["witness_y"] is None else _complex(doc["witness_y"])
        return check_strict(mats["strict"], doc["verdict"], y)

    s = str
    specs = [
        ("gen", ["gen", "--m", "3", "--n", "6", "--seed", s(gen_seed), "-o", s(f["gen"])], gen_check),
        ("gen cone", ["gen", "--m", "3", "--n", "8", "--cone", "-o", s(f["cone"])], cone_check),
        ("certify m2", ["certify", s(f["m2"])], certified("m2")),
        ("certify m3", ["certify", s(f["m3_5"])], certified("m3_5")),
        ("certify m4", ["certify", s(f["m4_10"])], certified("m4_10")),
        ("measure", ["measure", s(f["lin"]), s(f["signal"]), "-o", s(f["meas"])], measure_check),
        ("reconstruct linear", ["reconstruct", s(f["lin"]), s(f["meas"]), "--method", "linear",
                                "-o", s(f["est_linear"])], recovered("linear")),
        ("reconstruct altproj", ["reconstruct", s(f["lin"]), s(f["meas"]), "--method", "altproj",
                                 "--restarts", s(ALTPROJ_RESTARTS), "-o", s(f["est_altproj"])],
         recovered("altproj")),
        ("falsify m3", ["falsify", s(f["m3_5"]), "--budget", "50"], falsified("m3_5", False)),
        ("falsify planted", ["falsify", s(f["planted"]), "--budget", s(SEARCH_BUDGET)],
         falsified("planted", True)),
        ("witness", ["witness", "--diag", ",".join(repr(float(v)) for v in diag),
                     "-o", s(f["pair"])], witness_check),
        ("strict", ["strict", s(f["strict"])], strict_check),
    ]
    return [_cli_op(cli, label, argv + ["--json"], check) for label, argv, check in specs]


def build(name: str, seed: int, workdir: Path, cli: CliRunner) -> list[Op]:
    rng = _rng(name, seed)
    if name == "decide":
        return build_decide(rng)
    if name == "search":
        return build_search(rng)
    if name == "recover":
        return build_recover(rng)
    return build_cli(rng, workdir, cli)
