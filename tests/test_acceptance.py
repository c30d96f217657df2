"""End-to-end acceptance checks. Each test prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""
import os
import time

import numpy as np
import pytest

from biharm.bench import run_benchmark
from biharm.convolve import Boundary, convolve, convolve_reference
from biharm.formats import load_bandset, load_pgm, save_bandset, save_pgm
from biharm.pipeline import (
    anomaly_highpass,
    anomaly_residual,
    classify_parallelepiped,
    detector_metrics,
    fit_parallelepiped,
    overall_accuracy,
    smooth_jacobi,
)
from biharm.raster import BandSet, Raster
from biharm.scene import parse_scene_spec, synth_scene
from biharm.stencil import (
    biharmonic_stencil,
    laplacian_baseline,
    monomial_response,
    validate_stencil,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

FIG1 = np.array(
    [
        [0, 0, 1, 0, 0],
        [0, 2, -8, 2, 0],
        [1, -8, 20, -8, 1],
        [0, 2, -8, 2, 0],
        [0, 0, 1, 0, 0],
    ],
    dtype=float,
)


def _report(number, description, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {description} "
          f"({elapsed:.3f}s, budget {budget:g}s)")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_template_exactness():
    t0 = time.perf_counter()
    s = biharmonic_stencil(1.0, 1.0)
    build_time = time.perf_counter() - t0
    ok = bool(np.array_equal(s.coeffs, FIG1)) and build_time < 1e-3
    _report(1, "unit-increment template equals the 25 integers exactly",
            ok, build_time, 1e-3)


def test_criterion_2_annihilation_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(50):
        lx, ly = rng.uniform(0.25, 8.0, 2)
        s = biharmonic_stencil(lx, ly)
        scale = np.max(np.abs(s.coeffs)) * max(1.0, max(2 * lx, 2 * ly) ** 3)
        for total in range(4):
            for u in range(total + 1):
                resp = monomial_response(s, u, total - u)
                ok &= abs(resp) <= 1e-10 * scale
        for (u, v), want in (((4, 0), 24.0), ((0, 4), 24.0), ((2, 2), 8.0)):
            resp = monomial_response(s, u, v)
            ok &= abs(resp - want) <= 1e-9 * want
    elapsed = time.perf_counter() - t0
    _report(2, "cubic annihilation + quartic responses {24, 24, 8} over 50 "
               "increment pairs", ok and elapsed < 1.0, elapsed, 1.0)


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    policies = list(Boundary)
    ok = True
    for _ in range(200):
        h = int(rng.integers(5, 48))
        w = int(rng.integers(5, 48))
        data = rng.normal(0, 100, (h, w))
        if rng.random() < 0.5:
            s = biharmonic_stencil(float(rng.uniform(0.25, 8)),
                                   float(rng.uniform(0.25, 8)))
        else:
            s = laplacian_baseline()
        policy = policies[int(rng.integers(len(policies)))]
        tile = int(rng.integers(1, h + 4))
        workers = int(rng.choice([1, 2, 4]))
        ref = convolve_reference(Raster(data), s, policy)
        out = convolve(Raster(data), s, policy, tile, workers)
        ok &= out.data.tobytes() == ref.data.tobytes()
    elapsed = time.perf_counter() - t0
    _report(3, "tiled engine bit-identical to reference over 200 randomized "
               "cases", ok and elapsed < 30.0, elapsed, 30.0)


def test_criterion_4_jacobi_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    policies = list(Boundary)
    ok = True
    for i in range(50):
        data = rng.normal(100, 20, (int(rng.integers(8, 32)), int(rng.integers(8, 32))))
        s = biharmonic_stencil(1.0, 1.0)
        policy = policies[i % len(policies)]
        r = Raster(data)
        residual = anomaly_residual(r, smooth_jacobi(r, s, 1, policy)).scores.data
        highpass = anomaly_highpass(r, s, policy).scores.data
        # the smoothed-minus-original subtraction rounds at field magnitude
        tol = 4 * np.spacing(np.abs(data) + np.abs(residual))
        ok &= bool(np.all(np.abs(residual + highpass / s.coeff(0, 0)) <= tol))
    elapsed = time.perf_counter() - t0
    _report(4, "residual after one sweep = -highpass/center within 4 ulp on "
               "50 random rasters", ok and elapsed < 10.0, elapsed, 10.0)


def test_criterion_5_relaxation_monotonicity():
    # One plain sweep multiplies each frequency by 1 - A/center; the symbol A
    # of this template reaches 64 at (pi, pi), so plain Jacobi multiplies the
    # Nyquist mode by -2.2 and is not monotone. Damping by
    # omega = center / max A puts every factor in [0, 1].
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    s = biharmonic_stencil(1.0, 1.0)
    report = validate_stencil(s)
    omega = s.coeff(0, 0) / report.symbol_range[1]

    def monotone(r, w):
        norms = []
        for _ in range(6):
            response = convolve_reference(r, s, Boundary.MIRROR).data
            norms.append(float(np.linalg.norm(response[2:-2, 2:-2])))
            r = smooth_jacobi(r, s, 1, Boundary.MIRROR, omega=w)
        return all(b < a for a, b in zip(norms, norms[1:]))

    ok = report.jacobi_range[0] == pytest.approx(-2.2, rel=1e-12)
    for _ in range(20):
        r = Raster(rng.normal(100, 10, (64, 64)))
        ok &= monotone(r, omega) and not monotone(r, 1.0)
    elapsed = time.perf_counter() - t0
    _report(5, "interior response norm strictly decreases over 5 Jacobi "
               "sweeps damped by center/max symbol, and is not monotone "
               "undamped, on 20 random rasters", ok and elapsed < 10.0,
            elapsed, 10.0)


def test_criterion_6_detector_comparison_harness():
    t0 = time.perf_counter()
    with open(os.path.join(FIXTURES, "compare_scene.txt")) as fh:
        spec = parse_scene_spec(fh.read())
    bands, truth = synth_scene(spec)
    band = bands[0]
    s = biharmonic_stencil(1.0, 1.0)
    # reference path: one Jacobi sweep built from convolve_reference
    response = convolve_reference(band, s, Boundary.MIRROR)
    smoothed = Raster(band.data - response.data / s.coeff(0, 0))
    m_bh = detector_metrics(anomaly_residual(band, smoothed), truth, 3.0)
    baseline = anomaly_highpass(band, laplacian_baseline(), Boundary.MIRROR)
    baseline_ref = convolve_reference(band, laplacian_baseline(), Boundary.MIRROR)
    m_lp = detector_metrics(baseline, truth, 3.0)
    expected = {}
    with open(os.path.join(FIXTURES, "compare_expected.txt")) as fh:
        for line in fh:
            key, value = line.strip().split("=", 1)
            expected[key] = value
    ok = (
        baseline.scores.data.tobytes() == baseline_ref.data.tobytes()
        and m_bh.auc == float.fromhex(expected["biharmonic_auc_hex"])
        and m_lp.auc == float.fromhex(expected["laplacian_auc_hex"])
        and m_bh.auc > 0.5
        and m_lp.auc > 0.5
    )
    elapsed = time.perf_counter() - t0
    better = "biharmonic residual" if m_bh.auc > m_lp.auc else "Laplacian baseline"
    print(f"  detector comparison on the seeded fixture: "
          f"biharmonic AUC {m_bh.auc:.6f}, Laplacian AUC {m_lp.auc:.6f} "
          f"(higher: {better}; reported, not asserted)")
    _report(6, "fixture AUCs reproduced bit-exactly, both above 0.5",
            ok and elapsed < 10.0, elapsed, 10.0)


def test_criterion_7_classifier_sanity():
    t0 = time.perf_counter()
    truth = np.ones((50, 50))
    truth[10:30, 15:40] = 2.0
    band_a = np.where(truth == 2.0, 150.0, 100.0)
    band_b = np.where(truth == 2.0, 40.0, 90.0)
    bands = BandSet([Raster(band_a), Raster(band_b)])
    model = fit_parallelepiped(bands, Raster(truth))
    labels = classify_parallelepiped(bands, model)
    exact = overall_accuracy(labels, Raster(truth)) == 1.0

    matches = np.zeros(10000)
    matches[:7325] = 1.0
    anchored = overall_accuracy(
        Raster(matches.reshape(100, 100)), Raster(np.ones((100, 100)))
    ) == 0.7325
    elapsed = time.perf_counter() - t0
    _report(7, "zero-noise two-class scene scores 1.0; 7325/10000 layout "
               "scores 0.7325", exact and anchored and elapsed < 5.0, elapsed, 5.0)


def test_criterion_8_io_round_trips(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    ok = True
    for i in range(60):
        maxval = 255 if i % 2 == 0 else 65535
        data = rng.uniform(-40, maxval + 40, (int(rng.integers(1, 20)),
                                              int(rng.integers(1, 20))))
        path = tmp_path / "r.pgm"
        save_pgm(Raster(data), path, maxval)
        back = load_pgm(path).data
        expected = np.minimum(np.floor(np.clip(data, 0, maxval) + 0.5), maxval)
        ok &= bool(np.array_equal(back, expected))
    for i in range(60):
        n_bands = int(rng.integers(1, 5))
        shape = (int(rng.integers(1, 16)), int(rng.integers(1, 16)))
        arrays = [rng.normal(0, 1000, shape) for _ in range(n_bands)]
        bands = BandSet([Raster(a) for a in arrays])
        path = tmp_path / "b.bfr"
        save_bandset(bands, path)
        back = load_bandset(path)
        ok &= back.band_names == bands.band_names
        for orig, loaded in zip(arrays, back):
            ok &= bool(np.array_equal(
                loaded.data, orig.astype(np.float32).astype(np.float64)
            ))
    elapsed = time.perf_counter() - t0
    _report(8, "PGM and BFR1 round-trip laws over 120 randomized rasters",
            ok and elapsed < 10.0, elapsed, 10.0)


def test_criterion_9_performance_self_check():
    t0 = time.perf_counter()
    results = run_benchmark(2048, 2048, iters=3, workers=4, tile_height=64)
    speedup = results["speedup_tiled_vs_reference"]
    ok = results["bit_identical"] and speedup >= 2.0
    elapsed = time.perf_counter() - t0
    print(f"  engine throughput: reference {results['reference_pps']:.3g} px/s, "
          f"tiled(4 workers) {results['tiled_pps']:.3g} px/s, "
          f"speedup {speedup:.2f}x")
    _report(9, "tiled engine with 4 workers at least 2x reference throughput, "
               "bit-identical", ok and elapsed < 60.0, elapsed, 60.0)
