"""Frame and signal generation, quality diagnostics, and serialization.

A frame is a full-rank M x N matrix whose columns are the measurement
vectors; spanning is enforced at construction.  All file formats are JSON
with complex scalars as [re, im] pairs; real frames may also round-trip
through headerless CSV (M rows, N comma-separated columns).  Floats are
written with Python's shortest round-trip repr, so save/load is bit-exact.
Each document has one builder and one parser here: the cli prints the
certificate and witness documents that save_* writes, and every number a
loader reads passes one scalar check (finite, never a bool).

Randomness: all streams come from numpy's PCG64 seeded through
``SeedSequence(entropy=seed, spawn_key=(stream_index,))`` (see
:func:`rng_stream`), so every Monte Carlo result is reproducible from
(seed, stream index) pairs alone.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError, ValidationError

logger = logging.getLogger(__name__)

_EPS = float(np.finfo(np.float64).eps)


def _check_int(value, name: str, least: int) -> int:
    """The one check of an integer argument: an int or numpy integer, never a bool, >= ``least``.

    Seeds, search budgets, restart and iteration counts all pass through it.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _check_tol(value, positive: bool, name: str = "tol") -> float:
    """The one check of a tolerance: a finite real, never a bool, > 0 if ``positive`` else >= 0.

    Every public ``tol`` argument, and ``measure``'s ``noise_sigma``, passes
    through it; ``name`` is the argument the error message names.
    """
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and np.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "above 0" if positive else "of at least 0"
        raise ValidationError(f"{name} must be a finite number {bound}, got {value!r}")
    return float(value)


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic PCG64 generator for (seed, stream-index); the seed is an integer >= 0."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=_check_int(seed, "seed", 0), spawn_key=(stream,))
    )


class _LazyStarts:
    """Multistart initial points, drawn when asked for: row i is a standard normal draw from stream (seed, i).

    ``shape`` is (restarts, dim); a slice of rows draws those rows only, and
    since no stream depends on another, with the bits they have in the full
    array.
    """

    def __init__(self, seed: int, restarts: int, dim: int):
        self.seed, self.shape = seed, (restarts, dim)

    def __getitem__(self, rows: slice) -> np.ndarray:
        dim = self.shape[1]
        draws = [rng_stream(self.seed, i).standard_normal(dim)
                 for i in range(*rows.indices(self.shape[0]))]
        return np.array(draws).reshape(len(draws), dim)


def _restart_starts(seed: int, restarts: int, dim: int) -> np.ndarray:
    """Multistart initial points (restarts, dim): row i is a standard normal draw from stream (seed, i)."""
    return _LazyStarts(seed, restarts, dim)[:]


@dataclass(frozen=True)
class _Frame:
    """M x N matrix whose columns are the measurement vectors."""

    matrix: np.ndarray
    _dtype = np.float64
    _label = "real frame"

    def __post_init__(self):
        mat = np.ascontiguousarray(np.asarray(self.matrix, dtype=self._dtype))
        object.__setattr__(self, "matrix", mat)
        what = self._label
        if mat.ndim != 2:
            raise ValidationError(f"{what} matrix must be 2-D, got shape {mat.shape}")
        m, n = mat.shape
        if m < 1:
            raise ValidationError(f"{what} needs at least one row")
        if n < m:
            raise ValidationError(f"{what} needs n >= m columns, got {m}x{n}")
        if not np.all(np.isfinite(mat)):
            raise ValidationError(f"{what} has non-finite entries")
        sv = np.linalg.svd(mat, compute_uv=False)
        tol = m * _EPS * 64
        if sv[0] == 0.0 or np.sum(sv > tol * sv[0]) < m:
            raise ValidationError(f"{what} does not span: numeric rank < {m}")

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def column(self, k: int) -> np.ndarray:
        return self.matrix[:, k]


@dataclass(frozen=True)
class RealFrame(_Frame):
    """M x N real matrix whose columns are the measurement vectors."""


@dataclass(frozen=True)
class ComplexFrame(_Frame):
    """M x N complex matrix whose columns are the measurement vectors."""

    _dtype = np.complex128
    _label = "complex frame"


@dataclass(frozen=True)
class Measurement:
    """Magnitude-squared measurements, optionally tagged with a noise level."""

    values: np.ndarray
    noise_sigma: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValidationError("measurement values must be 1-D")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("measurement values have non-finite entries")
        # a finite number, never a bool: the only noise level the file can hold
        if self.noise_sigma is not None:
            _check_tol(self.noise_sigma, positive=False, name="noise_sigma")
        if not self.noise_sigma and np.any(vals < 0):
            raise ValidationError("noiseless measurements must be nonnegative")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def random_frame(m: int, n: int, seed: int = 0) -> RealFrame:
    """Real frame with i.i.d. standard normal entries, deterministic in seed.

    Draws come from ``rng_stream(seed, 0)``; in the measure-zero event the
    draw is rank deficient it is redrawn from the same stream (count logged).
    """
    m = _check_int(m, "m", 1)
    n = _check_int(n, "n", m)
    rng = rng_stream(seed, 0)
    resamples = 0
    while True:
        mat = rng.standard_normal((m, n))
        try:
            frame = RealFrame(mat)
        except ValidationError:
            resamples += 1
            logger.info("rank-deficient draw, resampling (count=%d)", resamples)
            continue
        return frame


def generic_cpr_size(m: int) -> int:
    """Vector count at which a generic real frame retrieves conjugate classes.

    3 in dimension 2, 6 in dimension 3, and 4m - 6 for m >= 4.
    """
    if m < 2:
        raise ValidationError("generic size is defined for m >= 2")
    if m == 2:
        return 3
    if m == 3:
        return 6
    return 4 * m - 6


def frame_bounds(frame) -> tuple[float, float]:
    """Tight frame bounds (A, B): the extreme squared singular values."""
    sv = np.linalg.svd(frame.matrix, compute_uv=False)
    return float(sv[-1] ** 2), float(sv[0] ** 2)


# ---------------------------------------------------------------------------
# serialization: one builder per emitted document, one parser per JSON shape
# ---------------------------------------------------------------------------

_FLOAT_MAX = float(np.finfo(np.float64).max)


def complex_pairs(x) -> list:
    """A complex vector as the files' list of [re, im] pairs."""
    return [[float(v.real), float(v.imag)] for v in x]


def _rows(mat) -> list:
    return [[float(v) for v in row] for row in mat]


def witness_doc(pair) -> dict:
    """The witness document: `save_witness` writes it, `cpr falsify --json` prints it."""
    return {
        "x": complex_pairs(pair.x),
        "y": complex_pairs(pair.y),
        "target": _rows(pair.target),
        "residual": float(pair.residual),
    }


def certificate_doc(cert, witness_file=None) -> dict:
    """The certificate document: `save_certificate` writes it, `cpr certify --json` prints it."""
    subset = cert.violating_subset
    return {
        "verdict": cert.verdict,
        "method": cert.method,
        "det_value": None if cert.det_value is None else float(cert.det_value),
        "kernel_dim": cert.kernel_dim,
        "witness_file": None if witness_file is None else str(witness_file),
        "trials": cert.trials,
        "violating_subset": None if subset is None else [int(i) for i in subset],
    }


def _number(val, name: str) -> float:
    """The one scalar check of every loader: a finite JSON number, never a bool."""
    # abs(val) <= max is False for nan, +-inf and ints beyond the float range
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not abs(val) <= _FLOAT_MAX:
        raise FileFormatError(f"field '{name}' must be a finite number")
    return float(val)


def _size(val, name: str) -> int:
    """A dimension or an index: a non-negative int, never a bool."""
    if _number(val, name) < 0 or not isinstance(val, int):
        raise FileFormatError(f"field '{name}' must be a non-negative integer")
    return val


def _complex(val, name: str) -> complex:
    if not isinstance(val, list) or len(val) != 2:
        raise FileFormatError(f"field '{name}': complex entries must be [re, im] pairs")
    return complex(_number(val[0], name), _number(val[1], name))


def _vector(val, name: str, parse=_number, length: int | None = None) -> list:
    """A JSON list parsed entry by entry; ``length``, when given, pins its size."""
    if not isinstance(val, list):
        raise FileFormatError(f"field '{name}' must be a list")
    if length is not None and len(val) != length:
        raise FileFormatError(f"field '{name}' has {len(val)} entries, expected {length}")
    return [parse(v, f"{name}[{j}]") for j, v in enumerate(val)]


def _table(val, name: str, rows: int, cols: int, parse=_number) -> np.ndarray:
    """A rows x cols nested list, every entry through ``parse``."""
    table = _vector(val, name, lambda row, where: _vector(row, where, parse, cols), rows)
    return np.array(table).reshape(rows, cols)


def _require(doc: dict, key: str, kind=object):
    if key not in doc:
        raise FileFormatError(f"missing field '{key}'")
    if not isinstance(doc[key], kind):
        raise FileFormatError(f"field '{key}' has wrong type")
    return doc[key]


def _optional(doc: dict, key: str, parse):
    val = doc.get(key)
    return None if val is None else parse(val, key)


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"top-level JSON value in {path} must be an object")
    return doc


def _dump_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def save_frame(frame, path) -> None:
    """Write a frame; `.csv` extension selects CSV (real frames only)."""
    path = Path(path)
    is_real = isinstance(frame, RealFrame)
    if path.suffix.lower() == ".csv":
        if not is_real:
            raise FileFormatError("CSV frames must be real-valued")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for row in frame.matrix:
                writer.writerow([repr(float(v)) for v in row])
        return
    cols = _rows(frame.matrix.T) if is_real else [complex_pairs(c) for c in frame.matrix.T]
    _dump_json(
        {
            "m": frame.m,
            "n": frame.n,
            "field": "real" if is_real else "complex",
            "columns": cols,
        },
        path,
    )


def load_frame(path):
    """Read a frame file (JSON, or CSV for real frames)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        rows = []
        with open(path, "r", newline="", encoding="utf-8") as fh:
            for line in csv.reader(fh):
                if not line:
                    continue
                try:
                    rows.append([float(v) for v in line])
                except ValueError as exc:
                    raise FileFormatError(f"bad CSV number: {exc}") from exc
        if not rows or len({len(r) for r in rows}) != 1:
            raise FileFormatError("CSV frame must be a nonempty rectangular table")
        return RealFrame(_table(rows, "csv", len(rows), len(rows[0])))
    doc = _load_json(path)
    m = _size(_require(doc, "m"), "m")
    n = _size(_require(doc, "n"), "n")
    field = _require(doc, "field", str)
    if field not in ("real", "complex"):
        raise FileFormatError("field 'field' must be 'real' or 'complex'")
    parse = _number if field == "real" else _complex
    mat = _table(_require(doc, "columns"), "columns", n, m, parse).T
    return RealFrame(mat) if field == "real" else ComplexFrame(mat)


def save_signal(x, path) -> None:
    x = np.asarray(x, dtype=np.complex128)
    _dump_json({"m": int(x.shape[0]), "entries": complex_pairs(x)}, path)


def load_signal(path) -> np.ndarray:
    doc = _load_json(path)
    m = _size(_require(doc, "m"), "m")
    entries = _vector(_require(doc, "entries"), "entries", _complex, m)
    return np.array(entries, dtype=np.complex128)


def save_measurement(meas: Measurement, path) -> None:
    doc = {"values": [float(v) for v in meas.values]}
    doc["noise_sigma"] = None if meas.noise_sigma is None else float(meas.noise_sigma)
    _dump_json(doc, path)


def load_measurement(path) -> Measurement:
    doc = _load_json(path)
    values = _vector(_require(doc, "values"), "values")
    sigma = _optional(doc, "noise_sigma", _number)
    if sigma is not None and sigma < 0:
        raise FileFormatError(f"field 'noise_sigma' must be at least 0, got {sigma!r}")
    try:
        return Measurement(np.array(values, dtype=np.float64), sigma)
    except ValidationError as exc:
        raise FileFormatError(f"field 'values': {exc}") from exc


def save_matrix(matrix: np.ndarray, path) -> None:
    """Write a real symmetric matrix as {"m", "rows"}."""
    matrix = np.asarray(matrix, dtype=np.float64)
    _dump_json({"m": int(matrix.shape[0]), "rows": _rows(matrix)}, path)


def load_matrix(path) -> np.ndarray:
    doc = _load_json(path)
    m = _size(_require(doc, "m"), "m")
    mat = _table(_require(doc, "rows"), "rows", m, m)
    if not np.array_equal(mat, mat.T):
        raise FileFormatError("field 'rows' must be exactly symmetric")
    return mat


def save_witness(pair, path) -> None:
    _dump_json(witness_doc(pair), path)


def load_witness(path):
    from .witness import WitnessPair

    doc = _load_json(path)
    x = _vector(_require(doc, "x"), "x", _complex)
    y = _vector(_require(doc, "y"), "y", _complex, len(x))
    target = _table(_require(doc, "target"), "target", len(x), len(x))
    residual = _number(_require(doc, "residual"), "residual")
    return WitnessPair(
        np.array(x, dtype=np.complex128), np.array(y, dtype=np.complex128), target, residual
    )


_TRIAL_FIELDS = {"restarts": _size, "seed": _size, "best_gap": _number, "best_distance": _number}


def _trials(val, name: str) -> dict:
    """Search statistics: ``restarts`` and ``seed``, maybe the best restart's gap and distance."""
    if not isinstance(val, dict) or not {"restarts", "seed"} <= val.keys() <= _TRIAL_FIELDS.keys():
        raise FileFormatError(f"field '{name}' must be an object of {list(_TRIAL_FIELDS)}")
    return {key: _TRIAL_FIELDS[key](v, f"{name}.{key}") for key, v in val.items()}


def save_certificate(cert, path, witness_file=None) -> None:
    _dump_json(certificate_doc(cert, witness_file), path)


def load_certificate(path):
    from .certify import CERT_METHODS, CERT_VERDICTS, Certificate

    doc = _load_json(path)
    verdict = _require(doc, "verdict", str)
    method = _require(doc, "method", str)
    if verdict not in CERT_VERDICTS:
        raise FileFormatError(f"field 'verdict' has unknown value {verdict!r}")
    if method not in CERT_METHODS:
        raise FileFormatError(f"field 'method' has unknown value {method!r}")
    cert = Certificate(
        verdict=verdict,
        method=method,
        det_value=_optional(doc, "det_value", _number),
        kernel_dim=_optional(doc, "kernel_dim", _size),
        trials=_optional(doc, "trials", _trials),
        violating_subset=_optional(
            doc, "violating_subset", lambda val, key: tuple(_vector(val, key, _size))
        ),
    )
    witness_file = doc.get("witness_file")
    if not isinstance(witness_file, (str, type(None))):
        raise FileFormatError("field 'witness_file' must be a string or null")
    return cert, witness_file
