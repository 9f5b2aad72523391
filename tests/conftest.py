"""Shared test helpers: independent oracles and random data generators."""

import importlib

import numpy as np

from conjpr import RealFrame, rng_stream

# the module; the package attribute conjpr.certify is the function
certify_module = importlib.import_module("conjpr.certify")


def random_signal(rng, m, scale=1.0):
    return scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))


def grid_min_distance(x, y, k=4096):
    """Brute-force equivalence oracle: min over a phase grid of the distance
    from x to e^{i theta} y and to e^{i theta} conj(y).

    Independent of the lift machinery on purpose.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    phases = np.exp(2j * np.pi * np.arange(k) / k)
    d1 = np.linalg.norm(x[None, :] - phases[:, None] * y[None, :], axis=1)
    d2 = np.linalg.norm(x[None, :] - phases[:, None] * y.conj()[None, :], axis=1)
    return float(min(d1.min(), d2.min()))


def measurement_gap(frame, x, y):
    """|measure(x) - measure(y)| computed directly from inner products."""
    mat = frame.matrix
    bx = np.abs(mat.conj().T @ np.asarray(x, dtype=np.complex128)) ** 2
    by = np.abs(mat.conj().T @ np.asarray(y, dtype=np.complex128)) ** 2
    return float(np.linalg.norm(bx - by)), float(np.linalg.norm(bx))


def lift_entry_oracle(x, y):
    """Entrywise Re(x x* - y y*) via plain Python complex arithmetic."""
    m = len(x)
    W = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            W[i, j] = (complex(x[i]) * complex(x[j]).conjugate()).real - (
                complex(y[i]) * complex(y[j]).conjugate()
            ).real
    return W


def random_orthogonal(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def symmetrized(A):
    return (A + A.T) / 2.0


def make_indefinite_target(rng, pattern, middle=None):
    """Random exactly-symmetric 3x3 target with the given eigenvalue signs.

    pattern is a (+1, -1) triple sorted descending; ``middle`` overrides the
    middle eigenvalue (e.g. a near-zero value).
    """
    u = random_orthogonal(rng, 3)
    mags = np.sort(rng.uniform(0.2, 3.0, size=3))[::-1]
    lam = np.array(pattern, dtype=float) * mags
    lam = np.sort(lam)[::-1]
    if middle is not None:
        lam[1] = middle
    return symmetrized(u @ np.diag(lam) @ u.T)


def quadric_cone_frame_4d(n, seed):
    """Vectors (u, 1) with u a unit 3-vector: they annihilate diag(1,1,1,-1).

    With n = 9 the lift kernel is that one matrix, of inertia (3, 1).
    """
    rng = rng_stream(seed, 0)
    u = rng.standard_normal((3, n))
    u /= np.linalg.norm(u, axis=0)
    return RealFrame(np.vstack([u, np.ones(n)]))


def svd_calls(monkeypatch):
    """Empty the shared SVD slot; the list records (shape, full_matrices, compute_uv) per SVD."""
    monkeypatch.setattr(certify_module, "_svd_slot", None)
    calls = []
    svd = np.linalg.svd

    def recording(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((np.shape(a), full_matrices, compute_uv))
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls
