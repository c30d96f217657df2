import os
import tracemalloc
import warnings

import numpy as np
import pytest

from biharm.cli import _metrics_lines, run
from biharm.convolve import DEFAULT_TILE_HEIGHT, Boundary
from biharm.formats import load_bandset, load_pgm, save_bandset, save_pgm
from biharm.pipeline import anomaly_highpass, anomaly_residual, detector_metrics, smooth_jacobi
from biharm.raster import BandSet, Raster
from biharm.stencil import biharmonic_stencil, laplacian_baseline

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def read_report(text):
    out = {}
    for line in text.strip().splitlines():
        key, value = line.split("=", 1)
        out[key] = value
    return out


def test_stencil_prints_unit_template(capsys):
    assert run(["stencil", "--lx", "1", "--ly", "1"]) == 0
    tokens = capsys.readouterr().out.split()
    assert [float(t) for t in tokens] == [
        0, 0, 1, 0, 0,
        0, 2, -8, 2, 0,
        1, -8, 20, -8, 1,
        0, 2, -8, 2, 0,
        0, 0, 1, 0, 0,
    ]


def test_stencil_csv_export(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["stencil", "--lx", "1", "--ly", "3", "--csv", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    grid = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert grid.shape == (5, 5)
    assert grid[2, 2] == 2.0 * (3 + 3 * 81 + 4 * 9) / 81.0


def test_usage_errors_exit_2(capsys):
    assert run(["stencil", "--bogus"]) == 2
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


@pytest.mark.parametrize("argv", [
    ["smooth", "--iters", "0"],
    ["smooth", "--workers", "0"],
    ["smooth", "--tile-height", "x"],
    ["detect", "--tile-height", "0"],
    ["detect", "--workers", "-5"],
    ["compare", "--iters", "0"],
    ["compare", "--band", "-1"],
    ["compare", "--band", "3"],
    ["bench", "--iters", "0"],
    ["bench", "--workers", "0"],
    ["bench", "--tile-height", "0"],
])
def test_bad_integer_options_exit_2(argv, tmp_path, capsys):
    spec = os.path.join(FIXTURES, "compare_scene.txt")
    scene, truth = str(tmp_path / "scene.bfr"), str(tmp_path / "truth.pgm")
    assert run(["synth", "--spec", spec, "--out", scene, "--truth-out", truth]) == 0
    io = {
        "smooth": ["--in", scene, "--out", str(tmp_path / "o.bfr")],
        "detect": ["--in", scene, "--out", str(tmp_path / "o.bfr")],
        "compare": ["--in", scene, "--truth", truth],
        "bench": ["--size", "64x64"],
    }
    capsys.readouterr()
    assert run(argv[:1] + io[argv[0]] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["detect", "compare"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "-0.5", "x"])
def test_meaningless_sigma_k_exit_2(command, value, tmp_path, capsys):
    spec = os.path.join(FIXTURES, "compare_scene.txt")
    scene, truth = str(tmp_path / "scene.bfr"), str(tmp_path / "truth.pgm")
    assert run(["synth", "--spec", spec, "--out", scene, "--truth-out", truth]) == 0
    out, mask = tmp_path / "o.bfr", tmp_path / "mask.pgm"
    io = {
        "detect": ["--out", str(out), "--mask-out", str(mask)],
        "compare": ["--truth", truth],
    }
    capsys.readouterr()
    assert run([command, "--in", scene, *io[command], "--sigma-k", value]) == 2
    captured = capsys.readouterr()
    assert "--sigma-k" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists() and not mask.exists()


def test_sigma_k_zero_flags_every_pixel_off_the_mean(tmp_path):
    data = np.full((8, 8), 10.0)
    data[2, 3] = 50.0
    src = tmp_path / "i.bfr"
    save_bandset(BandSet([Raster(data)]), src)
    mask = tmp_path / "mask.pgm"
    assert run(["detect", "--in", str(src), "--out", str(tmp_path / "o.bfr"),
                "--mode", "highpass", "--sigma-k", "0", "--mask-out", str(mask)]) == 0
    assert np.count_nonzero(load_pgm(mask).data) > 1


@pytest.mark.parametrize("argv,message", [
    (["stencil", "--lx", "1e-200"], "non-finite coefficients"),
    (["stencil", "--lx", "inf"], "positive and finite"),
    (["smooth", "--in", "{scene}", "--out", "{out}", "--lx", "1e-100"], "non-finite"),
    (["smooth", "--in", "{scene}", "--out", "{out}", "--iters", "400"], "float32 range"),
    (["classify", "--in", "{scene}", "--roi", "{roi}", "--out", "{out}"],
     "parse error: sample outside [0, 255]"),
])
def test_bad_values_exit_1_without_output(argv, message, tmp_path, capsys, rng):
    paths = {"scene": tmp_path / "scene.bfr", "roi": tmp_path / "roi.pgm",
             "out": tmp_path / "out.bfr"}
    save_bandset(BandSet([Raster(rng.normal(100, 10, (32, 32)))]), paths["scene"])
    paths["roi"].write_bytes(b"P2\n32 32\n255\n" + b"1 " * 1023 + b"1" + b"0" * 400)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # plain sweeps diverge
        assert run([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("biharm: error: ") and message in err
    assert "Traceback" not in err
    assert not paths["out"].exists()


def test_divergent_smooth_exit_1_without_output(tmp_path, capsys, rng):
    scene, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
    save_pgm(Raster(np.clip(np.round(rng.normal(100, 10, (16, 16))), 0, 255)), scene, 255)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # plain sweeps diverge
        assert run(["smooth", "--in", str(scene), "--out", str(out), "--iters", "1000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("biharm: error: ") and "finite" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_runtime_error_exit_1(tmp_path, capsys):
    assert run(["smooth", "--in", str(tmp_path / "missing.bfr"),
                "--out", str(tmp_path / "o.bfr")]) == 1
    assert "error" in capsys.readouterr().err


def test_detect_residual_on_constant_input(tmp_path):
    src = tmp_path / "c.bfr"
    save_bandset(BandSet([Raster.constant(16, 12, 80.0)]), src)
    out = tmp_path / "scores.bfr"
    mask = tmp_path / "mask.pgm"
    assert run(["detect", "--in", str(src), "--out", str(out),
                "--mode", "residual", "--mask-out", str(mask)]) == 0
    scores = load_bandset(out)
    assert np.all(scores[0].data == 0.0)
    assert np.all(load_pgm(mask).data == 0.0)


def test_detect_highpass_laplacian(tmp_path):
    data = np.full((16, 16), 10.0)
    data[8, 8] = 110.0
    src = tmp_path / "i.bfr"
    save_bandset(BandSet([Raster(data)]), src)
    out = tmp_path / "scores.bfr"
    assert run(["detect", "--in", str(src), "--out", str(out),
                "--mode", "highpass", "--stencil", "laplacian"]) == 0
    scores = load_bandset(out)[0].data
    assert scores[8, 8] == scores.max()


def test_smooth_pgm_to_pgm(tmp_path):
    src = tmp_path / "in.pgm"
    save_pgm(Raster.constant(10, 10, 50.0), src)
    out = tmp_path / "out.pgm"
    with pytest.warns(RuntimeWarning, match="diverges"):
        assert run(["smooth", "--in", str(src), "--out", str(out), "--iters", "2"]) == 0
    assert np.all(load_pgm(out).data == 50.0)


def test_smooth_in_place_equals_new_path(tmp_path):
    spec = os.path.join(FIXTURES, "compare_scene.txt")
    scene = tmp_path / "scene.bfr"
    assert run(["synth", "--spec", spec, "--out", str(scene)]) == 0
    fresh = tmp_path / "fresh.bfr"
    assert run(["smooth", "--in", str(scene), "--out", str(fresh)]) == 0
    assert run(["smooth", "--in", str(scene), "--out", str(scene)]) == 0
    assert scene.read_bytes() == fresh.read_bytes()


def test_workers_do_not_change_output_bytes(tmp_path):
    spec = os.path.join(FIXTURES, "compare_scene.txt")
    src = tmp_path / "scene.bfr"
    assert run(["synth", "--spec", spec, "--out", str(src)]) == 0
    outputs = []
    for workers in ("1", "4"):
        out = tmp_path / f"scores_{workers}.bfr"
        assert run(["detect", "--in", str(src), "--out", str(out),
                    "--workers", workers, "--tile-height", "16"]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_synth_and_compare_match_recorded_fixture(tmp_path, capsys):
    spec = os.path.join(FIXTURES, "compare_scene.txt")
    scene = tmp_path / "scene.bfr"
    truth = tmp_path / "truth.pgm"
    assert run(["synth", "--spec", spec, "--out", str(scene),
                "--truth-out", str(truth)]) == 0
    assert run(["compare", "--in", str(scene), "--truth", str(truth)]) == 0
    report = read_report(capsys.readouterr().out)
    with open(os.path.join(FIXTURES, "compare_expected.txt")) as fh:
        expected = read_report(fh.read())
    for key in ("biharmonic_auc", "laplacian_auc"):
        assert float(report[key]) == float(expected[key])
        assert float(report[key]) == float.fromhex(expected[key + "_hex"])
    for key, value in expected.items():
        if key.endswith("_hex"):
            continue
        assert float(report[key]) == float(value), key


@pytest.fixture(scope="module")
def fixture_scene(tmp_path_factory):
    """The fixture spec's scene and truth PGM, synthesized once."""
    root = tmp_path_factory.mktemp("fixture_scene")
    scene, truth = str(root / "scene.bfr"), str(root / "truth.pgm")
    spec = os.path.join(FIXTURES, "compare_scene.txt")
    assert run(["synth", "--spec", spec, "--out", scene, "--truth-out", truth]) == 0
    return scene, truth


def _serial_compare_report(scene, truth, band_index, boundary, iters, workers, sigma_k):
    """The compare report from the library, scoring one detector after the other."""
    bands = load_bandset(scene)
    band, name = bands[band_index], bands.band_names[band_index]
    truth_raster = load_pgm(truth)
    b = Boundary.parse(boundary)
    smoothed = smooth_jacobi(band, biharmonic_stencil(1.0, 1.0), iters, b,
                             DEFAULT_TILE_HEIGHT, workers)
    m_bh = detector_metrics(anomaly_residual(band, smoothed, name), truth_raster, sigma_k)
    baseline = anomaly_highpass(band, laplacian_baseline(), b, name,
                                DEFAULT_TILE_HEIGHT, workers)
    m_lp = detector_metrics(baseline, truth_raster, sigma_k)
    lines = [("band", name)]
    lines += _metrics_lines("biharmonic", m_bh) + _metrics_lines("laplacian", m_lp)
    return "".join(f"{k}={v}\n" for k, v in lines)


@pytest.mark.parametrize("boundary", ["mirror", "wrap"])
@pytest.mark.parametrize("iters", [1, 3])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("sigma_k", [3.0, 1.5])
def test_compare_report_equals_serial_library(boundary, iters, workers, sigma_k,
                                              fixture_scene, capsys):
    scene, truth = fixture_scene
    band = iters - 1  # bands 0 and 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # plain sweeps diverge
        expected = _serial_compare_report(scene, truth, band, boundary, iters, workers,
                                          sigma_k)
        capsys.readouterr()
        assert run(["compare", "--in", scene, "--truth", truth, "--band", str(band),
                    "--boundary", boundary, "--iters", str(iters),
                    "--workers", str(workers), "--sigma-k", str(sigma_k)]) == 0
    assert capsys.readouterr().out == expected


def test_compare_truth_of_wrong_size_exit_1(fixture_scene, tmp_path, capsys):
    scene, _ = fixture_scene
    truth = tmp_path / "truth.pgm"
    save_pgm(Raster(np.zeros((95, 96))), truth, 255)
    capsys.readouterr()
    assert run(["compare", "--in", scene, "--truth", str(truth)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("biharm: error: ") and "shape mismatch" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("band", ["0", "2"])
def test_compare_memory_budget(band, tmp_path, capsys):
    # only the compared band stays after the load, and each raster is dropped
    # once nothing reads it: the two detectors' temporaries then fit in the
    # space of the bands that were freed
    spec = tmp_path / "spec.txt"
    spec.write_text("width = 256\nheight = 256\nbands = 3\nlevel = 100\nsigma = 4\n"
                    "seed = 11\nanomaly = disk 60 70 12 30 20 10\n"
                    "anomaly = rect 150 150 20 30 25 15 35\n")
    scene, truth = str(tmp_path / "scene.bfr"), str(tmp_path / "truth.pgm")
    assert run(["synth", "--spec", str(spec), "--out", scene, "--truth-out", truth]) == 0
    tracemalloc.start()
    try:
        assert run(["compare", "--in", scene, "--truth", truth, "--band", band]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "biharmonic_auc=" in capsys.readouterr().out
    assert peak <= 7 * 256 * 256 * 8


def test_compare_report_file(tmp_path):
    spec = os.path.join(FIXTURES, "compare_scene.txt")
    scene = tmp_path / "scene.bfr"
    truth = tmp_path / "truth.pgm"
    run(["synth", "--spec", spec, "--out", str(scene), "--truth-out", str(truth)])
    report_path = tmp_path / "report.txt"
    assert run(["compare", "--in", str(scene), "--truth", str(truth),
                "--report", str(report_path)]) == 0
    report = read_report(report_path.read_text())
    assert 0.5 < float(report["biharmonic_auc"]) <= 1.0
    assert 0.5 < float(report["laplacian_auc"]) <= 1.0


def test_classify_with_truth(tmp_path, capsys):
    truth = np.ones((20, 20))
    truth[4:10, 5:14] = 2.0
    band = np.where(truth == 2.0, 150.0, 100.0)
    src = tmp_path / "in.bfr"
    save_bandset(BandSet([Raster(band)]), src)
    roi = tmp_path / "roi.pgm"
    save_pgm(Raster(truth), roi)
    out = tmp_path / "labels.pgm"
    assert run(["classify", "--in", str(src), "--roi", str(roi),
                "--out", str(out), "--truth", str(roi)]) == 0
    assert "overall_accuracy=1.0" in capsys.readouterr().out
    assert np.array_equal(load_pgm(out).data, truth)


def test_classify_non_integer_roi_label_exit_1_without_output(tmp_path, capsys):
    src, roi, out = tmp_path / "in.bfr", tmp_path / "roi.bfr", tmp_path / "labels.pgm"
    save_bandset(BandSet([Raster.constant(4, 4, 100.0)]), src)
    labels = np.full((4, 4), 2.0)
    labels[0, :2] = 1.5
    save_bandset(BandSet([Raster(labels)]), roi)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way out either
        assert run(["classify", "--in", str(src), "--roi", str(roi),
                    "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "biharm: error: ROI label 1.5 is not an integer\n"
    assert not out.exists()


def test_synth_negative_radius_past_the_edge_exit_1(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("width = 16\nheight = 16\nanomaly = disk 0 0 -2 5\n")
    out = tmp_path / "scene.bfr"
    assert run(["synth", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("biharm: error: ") and "out of bounds" in err
    assert "Traceback" not in err and not out.exists()


def test_synth_seed_override(tmp_path):
    spec = os.path.join(FIXTURES, "compare_scene.txt")
    a = tmp_path / "a.bfr"
    b = tmp_path / "b.bfr"
    assert run(["synth", "--spec", spec, "--out", str(a)]) == 0
    assert run(["synth", "--spec", spec, "--out", str(b), "--seed", "7"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_bench_small(capsys):
    assert run(["bench", "--size", "128x128", "--iters", "1"]) == 0
    report = read_report(capsys.readouterr().out)
    assert report["bit_identical"] == "True"
    assert float(report["reference_pps"]) > 0
    assert float(report["tiled_pps"]) > 0
