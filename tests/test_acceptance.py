"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import functools
import time

import numpy as np

from conftest import grid_min_distance, random_signal

from conjpr import (
    ComplexFrame,
    RealFrame,
    certify,
    complement_property,
    cone_frame,
    conj_class_distance,
    conj_equivalent,
    falsify_search,
    im_gram,
    is_phased_real,
    measure,
    numeric_rank,
    random_frame,
    real_lift,
    reconstruct_altproj,
    reconstruct_linear,
    rng_stream,
    strict_report,
    witness_general,
)
from conjpr.errors import NotPSDError

FRAME_2X3 = RealFrame([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                summary = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL - {desc}")
                raise
            line = f"[criterion {num}] PASS - {desc}"
            if summary:
                line += f" ({summary})"
            print(line)

        return wrapper

    return deco


@criterion(1, "reference 2x3 frame certified via Det2 with |det| = 2")
def test_criterion_01_reference_frame():
    cert = certify(FRAME_2X3)
    assert cert.verdict == "CertifiedCPR"
    assert cert.method == "Det2"
    assert abs(abs(cert.det_value) - 2.0) <= 1e-12
    return f"|det| = {abs(cert.det_value)}"


@criterion(2, "dimension 2: 3 generic vectors retrieve, 2 never do")
def test_criterion_02_generic_size_m2():
    start = time.perf_counter()
    for seed in range(200):
        assert certify(random_frame(2, 3, seed=seed)).verdict == "CertifiedCPR"
        cert = certify(random_frame(2, 2, seed=seed))
        assert cert.verdict == "NotCPR"
        assert cert.violating_subset is not None
        mat = random_frame(2, 2, seed=seed).matrix
        comp = [k for k in range(2) if k not in cert.violating_subset]
        assert numeric_rank(mat[:, list(cert.violating_subset)]) < 2
        assert numeric_rank(mat[:, comp]) < 2
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    return f"400 frames in {elapsed:.2f}s"


@criterion(3, "dimension 3: 6 generic vectors retrieve, 5 never do, with witnesses")
def test_criterion_03_generic_size_m3():
    start = time.perf_counter()
    for seed in range(200):
        assert certify(random_frame(3, 6, seed=seed)).verdict == "CertifiedCPR"
        frame = random_frame(3, 5, seed=seed)
        cert = certify(frame)
        assert cert.verdict == "NotCPR"
        pair = cert.witness
        assert pair is not None
        bx = measure(frame, pair.x).values
        by = measure(frame, pair.y).values
        assert np.linalg.norm(bx - by) <= 1e-9 * np.linalg.norm(bx)
        assert conj_class_distance(pair.x, pair.y) >= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    return f"400 frames in {elapsed:.2f}s"


@criterion(4, "linear reconstruction round-trips, noiseless and at sigma = 1e-6")
def test_criterion_04_reconstruction_roundtrip():
    noisy_ok = 0
    noisy_total = 0
    for m in (2, 3, 4):
        n = m * (m + 1) // 2
        frame = random_frame(m, n, seed=40 + m)
        rng = rng_stream(40, m)
        for trial in range(100):
            x = random_signal(rng, m)
            scale = np.linalg.norm(x) ** 2
            clean = reconstruct_linear(frame, measure(frame, x))
            assert conj_class_distance(clean.estimate, x) <= 1e-8 * scale
            noisy_total += 1
            b = measure(frame, x, noise_sigma=1e-6, rng=int(rng.integers(2**31)))
            try:
                noisy = reconstruct_linear(frame, b, tol=1e-2)
                if conj_class_distance(noisy.estimate, x) <= 1e-3 * scale:
                    noisy_ok += 1
            except NotPSDError:
                pass
    assert noisy_ok >= 0.95 * noisy_total
    return f"300/300 noiseless, {noisy_ok}/{noisy_total} noisy"


@criterion(5, "random indefinite 3x3 targets realized to residual 1e-10")
def test_criterion_05_witness_fidelity():
    rng = rng_stream(50, 0)
    passed = 0
    for trial in range(100):
        u, r = np.linalg.qr(rng.standard_normal((3, 3)))
        u *= np.sign(np.diag(r))
        mags = np.sort(rng.uniform(0.05, 3.0, size=3))[::-1]
        if trial % 3 == 0:
            lam = np.array([mags[0], mags[1], -mags[2]])
        elif trial % 3 == 1:
            lam = np.array([mags[0], -mags[1], -mags[2]])
        else:
            lam = np.array([mags[0], (-1.0) ** trial * 1e-13, -mags[2]])
        h = u @ np.diag(lam) @ u.T
        h = (h + h.T) / 2
        pair = witness_general(h)
        assert pair.residual <= 1e-10
        passed += 1
    assert passed == 100
    return "100/100 targets"


@criterion(6, "cone frame defeats the complement property")
def test_criterion_06_cone_counterexample():
    frame = cone_frame(8)
    pair = witness_general(np.diag([1.0, 1.0, -1.0]))
    bx = measure(frame, pair.x).values
    by = measure(frame, pair.y).values
    assert np.linalg.norm(bx - by) <= 1e-12
    dist = conj_class_distance(pair.x, pair.y)
    assert abs(dist - np.sqrt(3.0)) <= 1e-12
    ok, _ = complement_property(frame)
    assert ok
    return f"gap {np.linalg.norm(bx - by):.2e}, distance sqrt(3) +- {abs(dist - np.sqrt(3)):.1e}"


@criterion(7, "conjugation gap equals -4 * pairwise imaginary sum")
def test_criterion_07_im_sum_identity():
    rng = rng_stream(70, 0)
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        x = random_signal(rng, m)
        phi = random_signal(rng, m)
        lhs = abs(np.sum(x * np.conj(phi))) ** 2 - abs(np.sum(np.conj(x) * np.conj(phi))) ** 2
        total = 0.0
        for j in range(m):
            for k in range(j + 1, m):
                total += (x[j] * np.conj(x[k])).imag * (np.conj(phi[j]) * phi[k]).imag
        scale = (np.linalg.norm(x) * np.linalg.norm(phi)) ** 2
        assert abs(lhs + 4.0 * total) <= 1e-10 * scale
    return "1000/1000"


@criterion(8, "lift-space equivalence agrees with the 4096-phase grid oracle")
def test_criterion_08_equivalence_oracle():
    rng = rng_stream(80, 0)
    k = 4096
    checked = 0
    for trial in range(2000):
        m = int(rng.integers(2, 6))
        x = random_signal(rng, m)
        if trial % 2:
            y = np.exp(1j * rng.uniform(0, 2 * np.pi)) * (np.conj(x) if trial % 4 == 1 else x)
        else:
            y = random_signal(rng, m)
        band = np.pi / k * max(np.linalg.norm(x), np.linalg.norm(y))
        gmin = grid_min_distance(x, y, k)
        if gmin <= 2 * band:
            assert conj_equivalent(x, y)
            checked += 1
        elif gmin >= 10 * band:
            assert not conj_equivalent(x, y)
            checked += 1
    assert checked >= 1900  # the band between the thresholds is tiny
    return f"{checked}/2000 outside the resolution band, zero disagreements"


@criterion(9, "4M-6 regime: no witnesses found, alternating projection recovers")
def test_criterion_09_generic_4m_minus_6():
    start = time.perf_counter()
    report = []
    for m, n in ((4, 10), (5, 14)):
        for seed in range(20):
            frame = random_frame(m, n, seed=seed)
            assert falsify_search(frame, budget=10_000, seed=seed) is None
        for seed in range(20):
            frame = random_frame(m, n, seed=seed)
            rng = rng_stream(90, seed * 10 + m)
            recovered = 0
            for _ in range(100):
                x = random_signal(rng, m)
                # the criterion pins the restart budget; projections converge
                # linearly here, so give each restart room to finish
                result = reconstruct_altproj(
                    frame, measure(frame, x), restarts=50, seed=seed, max_iter=2000
                )
                if (
                    result.converged
                    and conj_class_distance(result.estimate, x) <= 1e-6 * np.linalg.norm(x) ** 2
                ):
                    recovered += 1
            assert recovered >= 95, f"(m,n)=({m},{n}) seed {seed}: {recovered}/100"
        report.append(f"({m},{n})")
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    return f"{' and '.join(report)} in {elapsed:.1f}s"


@criterion(10, "real frames are conjugation-blind; dimension-2 complex frames are not")
def test_criterion_10_strictness():
    real_frames = [
        FRAME_2X3,
        cone_frame(8),
        random_frame(2, 3, seed=0),
        random_frame(3, 6, seed=0),
        random_frame(4, 10, seed=0),
        random_frame(5, 14, seed=0),
    ]
    for frame in real_frames:
        report = strict_report(frame)
        assert report.verdict == "StrictlyCPR"
        y = report.witness_y
        assert y is not None and not is_phased_real(y)
        by = np.abs(frame.matrix.T @ y) ** 2
        byc = np.abs(frame.matrix.T @ np.conj(y)) ** 2
        assert np.linalg.norm(by - byc) <= 1e-14 * max(np.linalg.norm(by), 1.0)

    rng = rng_stream(100, 0)
    candidates = 0
    produced = 0
    while produced < 100:
        mat = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        frame = ComplexFrame(mat)
        has_nonphased = any(not is_phased_real(mat[:, k]) for k in range(4))
        full_rank_gram = numeric_rank(im_gram(frame)) == 1
        if not (has_nonphased and full_rank_gram):
            continue
        produced += 1
        if strict_report(frame).verdict == "ComplexPRCandidate":
            candidates += 1
    assert candidates == 100
    return f"{len(real_frames)} real frames strict, {candidates}/100 complex candidates"


@criterion(11, "lift ranks: at most 2 for one signal, at most 4 for differences")
def test_criterion_11_rank_bounds():
    rng = rng_stream(110, 0)
    for _ in range(1000):
        m = int(rng.integers(2, 11))
        x = random_signal(rng, m)
        y = random_signal(rng, m)
        assert numeric_rank(real_lift(x)) <= 2
        assert numeric_rank(real_lift(x) - real_lift(y)) <= 4
    return "1000/1000"
