import argparse
import builtins
import collections
import dataclasses
import os
import re
import shlex
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from biharm import bench as bench_mod
from biharm import cli as cli_mod
from biharm import pipeline as pipeline_mod
from biharm.cli import _metrics_lines, run
from biharm.convolve import DEFAULT_TILE_HEIGHT, Boundary
from biharm.formats import load_bandset, load_pgm, save_bandset, save_pgm
from biharm.pipeline import (
    anomaly_highpass,
    anomaly_residual,
    classify_parallelepiped,
    detector_metrics,
    fit_parallelepiped,
    overall_accuracy,
    smooth_jacobi,
    threshold_mask,
)
from biharm.raster import BandSet, Raster
from biharm.scene import parse_scene_spec, synth_scene
from biharm.stencil import biharmonic_stencil, jacobi_range, laplacian_baseline
from conftest import set_default_workers

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


def test_stencil_csv_export_17_digits(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["stencil", "--lx", "1", "--ly", "3", "--csv", str(out)]) == 0
    text = out.read_text()
    grid = np.array([[float(v) for v in row.split(",")] for row in text.splitlines()])
    assert np.array_equal(grid, biharmonic_stencil(1.0, 3.0).coeffs[::-1])
    assert text == (
        "0,0,0.012345679012345678,0,0\n"
        "0,0.22222222222222221,-0.49382716049382713,0.22222222222222221,0\n"
        "1,-4.4444444444444446,6.9629629629629628,-4.4444444444444446,1\n"
        "0,0.22222222222222221,-0.49382716049382713,0.22222222222222221,0\n"
        "0,0,0.012345679012345678,0,0\n")


def test_stencil_output_without_validate_is_unchanged(capsys):
    assert run(["stencil"]) == 0
    assert capsys.readouterr().out == (
        " 0  0  1  0  0\n"
        " 0  2 -8  2  0\n"
        " 1 -8 20 -8  1\n"
        " 0  2 -8  2  0\n"
        " 0  0  1  0  0\n")
    assert run(["stencil", "--stencil", "laplacian"]) == 0
    assert capsys.readouterr().out == "-1 -1 -1\n-1  8 -1\n-1 -1 -1\n"
    assert run(["stencil", "--lx", "0.5", "--ly", "2"]) == 0
    assert capsys.readouterr().out == (
        "      0       0  0.0625       0       0\n"
        "      0       2   -4.25       2       0\n"
        "     16     -68 104.375     -68      16\n"
        "      0       2   -4.25       2       0\n"
        "      0       0  0.0625       0       0\n")


@pytest.mark.parametrize("argv,stencil,expected", [
    ([], biharmonic_stencil(1.0, 1.0),
     {"stencil": "biharmonic", "center": "20.0", "passed": "True", "symbol_min": "0.0",
      "symbol_max": "64.0", "jacobi_min": "-2.2", "jacobi_max": "1.0",
      "stability_bound": "0.625", "omega_auto": "0.3125", "response_x2y2": "8.0"}),
    (["--stencil", "laplacian"], laplacian_baseline(),
     {"stencil": "laplacian", "center": "8.0", "passed": "False", "symbol_max": "12.0",
      "jacobi_min": "-0.5", "stability_bound": repr(4 / 3), "omega_auto": repr(2 / 3)}),
    (["--lx", "0.5", "--ly", "2"], biharmonic_stencil(0.5, 2.0),
     {"lx": "0.5", "ly": "2.0", "center": "104.375", "passed": "True",
      "symbol_max": "289.0", "stability_bound": "0.722318339100346",
      "omega_auto": "0.361159169550173"}),
    (["--lx", "1.307", "--ly", "0.477"], biharmonic_stencil(1.307, 0.477),
     {"lx": "1.307", "ly": "0.477", "passed": "True",
      "stability_bound": "0.6981382893337711", "omega_auto": "0.34906914466688554"}),
])
def test_stencil_validate_report(capsys, argv, stencil, expected):
    assert run(["stencil", "--validate", *argv]) == 0
    report = read_report(capsys.readouterr().out)
    assert report.items() >= expected.items()
    # every check of validate_stencil is a line: 12 values and the 15
    # monomial responses up to degree 4
    assert len(report) == 1 + 12 + 15
    # at the stability bound the highest frequency's factor is -1, and at
    # omega_auto it is 0, so every factor lies in [0, 1]
    bound, auto = float(report["stability_bound"]), float(report["omega_auto"])
    assert jacobi_range(stencil, bound)[0] == pytest.approx(-1.0, abs=1e-12)
    assert jacobi_range(stencil, auto) == pytest.approx((0.0, 1.0), abs=1e-12)


def test_usage_errors_exit_2(capsys):
    assert run(["stencil", "--bogus"]) == 2
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


@pytest.mark.parametrize("argv", [
    ["smooth", "--iters", "0"],
    ["smooth", "--workers", "0"],
    ["smooth", "--workers", "x"],
    ["detect", "--iters", "0"],
    ["detect", "--workers", "-5"],
    ["compare", "--iters", "0"],
    ["compare", "--band", "-1"],
    ["compare", "--band", "3"],
    ["bench", "--iters", "0"],
    ["bench", "--workers", "0"],
    ["compare", "--workers", "0"],
    ["bench", "--size", "2048"],
    ["bench", "--size", "0x64"],
    ["bench", "--size", "axb"],
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
    assert "error" in err and argv[1] in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["smooth", "detect", "compare", "bench"])
def test_tile_height_is_not_an_option(command, tmp_path, capsys):
    # the engine always tiles at DEFAULT_TILE_HEIGHT; the library keeps the
    # parameter
    src, truth, out = tmp_path / "in.bfr", tmp_path / "truth.pgm", tmp_path / "o.bfr"
    save_bandset(BandSet([Raster(np.full((16, 16), 80.0))]), src)
    save_pgm(Raster(np.zeros((16, 16))), truth, 255)
    io = {
        "smooth": ["--in", str(src), "--out", str(out)],
        "detect": ["--in", str(src), "--out", str(out)],
        "compare": ["--in", str(src), "--truth", str(truth)],
        "bench": ["--size", "64x64", "--iters", "1"],
    }
    capsys.readouterr()
    assert run([command, *io[command], "--tile-height", "32"]) == 2
    captured = capsys.readouterr()
    assert "error" in captured.err and "--tile-height" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["smooth", "--in", "a", "--out", "b"],
    ["detect", "--in", "a", "--out", "b"],
    ["compare", "--in", "a", "--truth", "t"],
])
def test_engine_commands_parse_the_default_tile_height(argv):
    # only perfbench reads the height from the parsed namespace; no handler does
    assert cli_mod.build_parser().parse_args(argv).tile_height == DEFAULT_TILE_HEIGHT


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
    (["classify", "--in", "{scene}", "--roi", "{small}", "--out", "{out}"],
     "ROI shape (8, 8) does not match bands (32, 32)"),
    (["classify", "--in", "{scene}", "--roi", "{unlabeled}", "--out", "{out}"],
     "ROI contains no labeled pixels"),
    (["smooth", "--in", "{junk}", "--out", "{out}"],
     "parse error: bad magic b'JUNK' at byte 0"),
])
def test_bad_values_exit_1_without_output(argv, message, tmp_path, capsys, rng):
    paths = {"scene": tmp_path / "scene.bfr", "roi": tmp_path / "roi.pgm",
             "small": tmp_path / "small.pgm", "unlabeled": tmp_path / "unlabeled.pgm",
             "junk": tmp_path / "junk.bin", "out": tmp_path / "out.bfr"}
    save_bandset(BandSet([Raster(rng.normal(100, 10, (32, 32)))]), paths["scene"])
    paths["roi"].write_bytes(b"P2\n32 32\n255\n" + b"1 " * 1023 + b"1" + b"0" * 400)
    save_pgm(Raster(np.ones((8, 8))), paths["small"])
    save_pgm(Raster(np.zeros((32, 32))), paths["unlabeled"])
    paths["junk"].write_bytes(b"JUNK and more")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # plain sweeps diverge
        assert run([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("biharm: error: ") and message.format(**paths) in err
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


@pytest.mark.parametrize("argv", [
    ["smooth", "--iters", "3"],
    ["detect", "--mode", "residual"],
    ["detect", "--mode", "highpass"],
])
def test_multiband_pgm_out_exit_1_before_any_band_is_processed(argv, tmp_path, capsys,
                                                               monkeypatch, rng):
    def forbidden(*args, **kwargs):
        raise AssertionError("a band was processed")

    monkeypatch.setattr(cli_mod, "smooth_jacobi", forbidden)
    monkeypatch.setattr(pipeline_mod, "convolve", forbidden)
    src, out = tmp_path / "in.bfr", tmp_path / "out.pgm"
    save_bandset(BandSet([Raster(rng.normal(100, 10, (8, 8))) for _ in range(2)]), src)
    capsys.readouterr()
    assert run([argv[0], "--in", str(src), "--out", str(out), *argv[1:]]) == 1
    assert capsys.readouterr().err == "biharm: error: PGM output holds one band, have 2\n"
    assert not out.exists()


def test_synth_multiband_pgm_out_exit_1_without_output(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("width = 8\nheight = 8\nbands = 3\n")
    out = tmp_path / "scene.pgm"
    assert run(["synth", "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "biharm: error: PGM output holds one band, have 3\n"
    assert not out.exists()


def test_runtime_error_exit_1(tmp_path, capsys):
    assert run(["smooth", "--in", str(tmp_path / "missing.bfr"),
                "--out", str(tmp_path / "o.bfr")]) == 1
    assert "error" in capsys.readouterr().err


def test_detect_residual_on_constant_input(tmp_path):
    src = tmp_path / "c.bfr"
    save_bandset(BandSet([Raster(np.full((12, 16), 80.0))]), src)
    out = tmp_path / "scores.bfr"
    mask = tmp_path / "mask.pgm"
    assert run(["detect", "--in", str(src), "--out", str(out),
                "--mode", "residual", "--mask-out", str(mask)]) == 0
    scores = load_bandset(out)
    assert np.all(scores[0].data == 0.0)
    assert np.all(load_pgm(mask).data == 0.0)


def test_detect_pgm_out_is_the_map_scaled_to_0_255(tmp_path, rng):
    data = rng.normal(100, 10, (20, 24))
    src, out, want = tmp_path / "in.bfr", tmp_path / "scores.pgm", tmp_path / "want.pgm"
    save_bandset(BandSet([Raster(data)]), src)
    assert run(["detect", "--in", str(src), "--out", str(out)]) == 0
    band = load_bandset(src)[0]
    s = anomaly_residual(band, smooth_jacobi(band, biharmonic_stencil(1.0, 1.0))).scores.data
    save_pgm(Raster((s - s.min()) / (s.max() - s.min()) * 255), want, 255)
    assert out.read_bytes() == want.read_bytes()


def test_detect_pgm_out_of_a_constant_map_is_zero(tmp_path):
    src, out = tmp_path / "in.pgm", tmp_path / "scores.pgm"
    save_pgm(Raster(np.full((7, 9), 80.0)), src)
    assert run(["detect", "--in", str(src), "--out", str(out)]) == 0
    assert out.read_bytes() == b"P5\n9 7\n255\n" + bytes(63)


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
    save_pgm(Raster(np.full((10, 10), 50.0)), src)
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
                    "--workers", workers]) == 0
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


# The CLI = library contracts: each command's outputs, run through ``cli.run``
# on a small seeded scene, equal byte for byte those of the library calls
# composed in the test.
BOUNDARIES = [b.value for b in Boundary]


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("iters", [1, 3])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("sigma_k", [3.0, 1.5])
def test_compare_report_equals_serial_library(boundary, iters, workers, sigma_k,
                                              fixture_scene, capsys):
    scene, truth = fixture_scene
    band = iters - 1  # bands 0 and 2
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Jacobi iteration diverges", RuntimeWarning)
        expected = _serial_compare_report(scene, truth, band, boundary, iters, workers,
                                          sigma_k)
        capsys.readouterr()
        assert run(["compare", "--in", scene, "--truth", truth, "--band", str(band),
                    "--boundary", boundary, "--iters", str(iters),
                    "--workers", str(workers), "--sigma-k", str(sigma_k)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("iters", [1, 3])
@pytest.mark.parametrize("workers", [1, 2])
def test_smooth_output_equals_library(boundary, iters, workers, fixture_scene, tmp_path):
    scene, _ = fixture_scene
    out, want = tmp_path / "out.bfr", tmp_path / "want.bfr"
    stencil = biharmonic_stencil(1.0, 2.0)  # lx != ly: a swap of the two shows
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Jacobi iteration diverges", RuntimeWarning)
        bands = load_bandset(scene)
        smoothed = [smooth_jacobi(band, stencil, iters, Boundary(boundary),
                                  DEFAULT_TILE_HEIGHT, workers) for band in bands]
        save_bandset(BandSet(smoothed, bands.band_names), want)
        assert run(["smooth", "--in", scene, "--out", str(out), "--lx", "1", "--ly", "2",
                    "--iters", str(iters), "--boundary", boundary,
                    "--workers", str(workers)]) == 0
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("mode", ["residual", "highpass"])
@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("iters", [1, 3])
@pytest.mark.parametrize("workers", [1, 2])
def test_detect_outputs_equal_library(mode, boundary, iters, workers, fixture_scene,
                                      tmp_path):
    scene, _ = fixture_scene
    out, mask = tmp_path / "scores.bfr", tmp_path / "mask.pgm"
    want, want_mask = tmp_path / "want.bfr", tmp_path / "want_mask.pgm"
    stencil, b, sigma_k = biharmonic_stencil(1.0, 2.0), Boundary(boundary), 2.5
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Jacobi iteration diverges", RuntimeWarning)
        bands = load_bandset(scene)
        maps = []
        for band, name in zip(bands, bands.band_names):
            if mode == "residual":
                smoothed = smooth_jacobi(band, stencil, iters, b, DEFAULT_TILE_HEIGHT, workers)
                maps.append(anomaly_residual(band, smoothed, name))
            else:
                maps.append(anomaly_highpass(band, stencil, b, name,
                                             DEFAULT_TILE_HEIGHT, workers))
        save_bandset(BandSet([m.scores for m in maps], bands.band_names), want)
        union = np.maximum.reduce([threshold_mask(m, sigma_k).data for m in maps])
        save_pgm(Raster(union * 255.0), want_mask, 255)
        assert run(["detect", "--in", scene, "--out", str(out), "--mask-out", str(mask),
                    "--mode", mode, "--lx", "1", "--ly", "2", "--sigma-k", str(sigma_k),
                    "--iters", str(iters), "--boundary", boundary,
                    "--workers", str(workers)]) == 0
    assert out.read_bytes() == want.read_bytes()
    assert mask.read_bytes() == want_mask.read_bytes()


@pytest.mark.parametrize("argv", [
    ["smooth", "--iters", "3", "--out", "{out}.bfr"],
    ["detect", "--iters", "3", "--out", "{out}.bfr", "--mask-out", "{out}.pgm"],
    ["detect", "--mode", "highpass", "--out", "{out}.bfr"],
    ["compare", "--iters", "3", "--truth", "{truth}", "--report", "{out}.txt"],
], ids=["smooth", "detect-residual", "detect-highpass", "compare"])
def test_handlers_run_without_the_tile_height_default(argv, fixture_scene, tmp_path):
    # the engine's default height comes from the library, not the namespace
    scene, truth = fixture_scene
    outputs = {}
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Jacobi iteration diverges", RuntimeWarning)
        for side in ("run", "handler"):
            paths = {"truth": truth, "out": str(tmp_path / side)}
            command = [argv[0], "--in", scene] + [a.format(**paths) for a in argv[1:]]
            if side == "run":
                assert run(command) == 0
            else:
                args = cli_mod.build_parser().parse_args(command)
                del args.tile_height
                assert args.func(args) == 0
            outputs[side] = {p.suffix: p.read_bytes() for p in tmp_path.glob(f"{side}.*")}
    assert outputs["handler"] == outputs["run"] and outputs["run"]


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("workers", [1, 2])
def test_synth_outputs_equal_library(seed, workers, tmp_path, monkeypatch):
    set_default_workers(monkeypatch, workers)
    spec_path = os.path.join(FIXTURES, "compare_scene.txt")
    out, truth_out = tmp_path / "scene.bfr", tmp_path / "truth.pgm"
    want, want_truth = tmp_path / "want.bfr", tmp_path / "want_truth.pgm"
    with open(spec_path) as fh:
        spec = parse_scene_spec(fh.read())
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    bands, truth = synth_scene(spec)
    save_bandset(bands, want)
    save_pgm(Raster((truth.data != 0.0) * 255.0), want_truth, 255)
    seed_flag = [] if seed is None else ["--seed", str(seed)]
    assert run(["synth", "--spec", spec_path, "--out", str(out),
                "--truth-out", str(truth_out), *seed_flag]) == 0
    assert out.read_bytes() == want.read_bytes()
    assert truth_out.read_bytes() == want_truth.read_bytes()


@pytest.mark.parametrize("command", ["classify", "detect", "synth"])
def test_label_and_mask_outputs_are_pgm_whatever_their_suffix(command, fixture_scene,
                                                              tmp_path):
    """``classify --out``, ``detect --mask-out`` and ``synth --truth-out``
    write an 8-bit PGM also to a path that does not end in ``.pgm``."""
    scene, truth = fixture_scene
    roi = tmp_path / "roi.pgm"
    roi_labels = np.where(load_pgm(truth).data != 0.0, 2.0, 0.0)
    roi_labels[:10] = 1.0
    save_pgm(Raster(roi_labels), roi, 255)
    argv = {
        "classify": ["classify", "--in", scene, "--roi", str(roi), "--out"],
        "detect": ["detect", "--in", scene, "--out", str(tmp_path / "scores.bfr"), "--mask-out"],
        "synth": ["synth", "--spec", os.path.join(FIXTURES, "compare_scene.txt"),
                  "--out", str(tmp_path / "scene.bfr"), "--truth-out"],
    }[command]
    written = {}
    for suffix in (".bfr", ".pgm"):
        path = tmp_path / f"written{suffix}"
        assert run([*argv, str(path)]) == 0
        written[suffix] = path.read_bytes()
    assert written[".bfr"].startswith(b"P5\n") and written[".bfr"] == written[".pgm"]


def _readme_commands():
    """Every ``biharm`` command in README's ``sh`` blocks, as its arguments:
    ``\\`` continuations joined, ``#`` comments dropped."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), re.M | re.S)
    lines = (shlex.split(line, comments=True)
             for block in blocks for line in block.replace("\\\n", " ").splitlines())
    return [words[1:] for words in lines if words[:1] == ["biharm"]]


def test_readme_commands_parse(capsys):
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = cli_mod.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: biharm {shlex.join(argv)}\n"
                        f"{capsys.readouterr().err}")


def test_readme_commands_cover_every_subcommand():
    """README's ``sh`` blocks hold an example of each subcommand the parser
    defines, read off the parser itself."""
    (subcommands,) = [action.choices for action in cli_mod.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    shown = {argv[0] for argv in _readme_commands()}
    assert sorted(set(subcommands) - shown) == []


def test_classify_outputs_equal_library(fixture_scene, tmp_path, capsys):
    scene, truth = fixture_scene
    anomalous = load_pgm(truth).data != 0.0
    roi_labels = np.where(anomalous, 2.0, 0.0)
    roi_labels[:10] = 1.0  # background rows, clear of both anomalies
    roi, reference = tmp_path / "roi.pgm", tmp_path / "reference.pgm"
    save_pgm(Raster(roi_labels), roi, 255)
    save_pgm(Raster(np.where(anomalous, 2.0, 1.0)), reference, 255)
    out, want = tmp_path / "labels.pgm", tmp_path / "want.pgm"
    bands = load_bandset(scene)
    labels = classify_parallelepiped(bands, fit_parallelepiped(bands, load_pgm(roi)))
    save_pgm(labels, want, 255)
    accuracy = overall_accuracy(labels, load_pgm(reference))
    capsys.readouterr()
    assert run(["classify", "--in", scene, "--roi", str(roi), "--out", str(out),
                "--truth", str(reference)]) == 0
    assert capsys.readouterr().out == f"overall_accuracy={accuracy!r}\n"
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("argv,inputs", [
    (["compare", "--in", "{scene}", "--truth", "{truth}"], ["scene", "truth"]),
    (["classify", "--in", "{scene}", "--roi", "{roi}", "--out", "{out}.pgm",
      "--truth", "{truth}"], ["scene", "roi", "truth"]),
    (["smooth", "--in", "{scene}", "--out", "{out}.bfr"], ["scene"]),
], ids=["compare", "classify", "smooth"])
def test_each_input_is_opened_once(argv, inputs, fixture_scene, tmp_path, monkeypatch):
    scene, truth = fixture_scene
    roi_labels = np.where(load_pgm(truth).data != 0.0, 2.0, 0.0)
    roi_labels[:10] = 1.0
    paths = {"scene": scene, "truth": truth, "roi": str(tmp_path / "roi.pgm"),
             "out": str(tmp_path / "out")}
    save_pgm(Raster(roi_labels), paths["roi"], 255)
    opens = collections.Counter()
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        opens[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    assert run([a.format(**paths) for a in argv]) == 0
    assert {paths[k]: opens[paths[k]] for k in inputs} == {paths[k]: 1 for k in inputs}


def test_compare_truth_of_wrong_size_exit_1(fixture_scene, tmp_path, capsys):
    scene, _ = fixture_scene
    truth = tmp_path / "truth.pgm"
    save_pgm(Raster(np.zeros((95, 96))), truth, 255)
    capsys.readouterr()
    assert run(["compare", "--in", scene, "--truth", str(truth)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("biharm: error: ") and "shape mismatch" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_compare_truth_of_wrong_shape_exit_1_before_any_sweep(tmp_path, capsys,
                                                              monkeypatch, rng):
    def forbidden(*args, **kwargs):
        raise AssertionError("a band was processed")

    monkeypatch.setattr(cli_mod, "smooth_jacobi", forbidden)
    monkeypatch.setattr(pipeline_mod, "convolve", forbidden)
    scene, truth = tmp_path / "scene.bfr", tmp_path / "truth.pgm"
    save_bandset(BandSet([Raster(rng.normal(100, 10, (48, 64)))]), scene)
    save_pgm(Raster(np.zeros((64, 48))), truth, 255)
    capsys.readouterr()
    assert run(["compare", "--in", str(scene), "--truth", str(truth), "--iters", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "biharm: error: shape mismatch: (48, 64) vs (64, 48)\n"
    assert captured.out == ""


@pytest.mark.parametrize("source,band,count", [
    ("scene", "5", 3),
    ("scene", "-1", 3),
    ("truth", "1", 1),  # a PGM holds one band
])
def test_compare_band_out_of_range_message(source, band, count, fixture_scene, capsys):
    scene, truth = fixture_scene
    capsys.readouterr()
    assert run(["compare", "--in", {"scene": scene, "truth": truth}[source],
                "--truth", truth, "--band", band]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"biharm: error: --band {band} is out of range for {count} band(s)\n"
    assert captured.out == ""


@pytest.mark.parametrize("command,flag", [
    ("compare", "--truth"),
    ("classify", "--roi"),
    ("classify", "--truth"),
])
def test_multiband_truth_roi_or_reference_exit_1(command, flag, fixture_scene, tmp_path,
                                                 capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a band was smoothed")

    monkeypatch.setattr(cli_mod, "smooth_jacobi", forbidden)
    monkeypatch.setattr(pipeline_mod, "convolve", forbidden)
    scene, truth = fixture_scene
    out = tmp_path / "labels.pgm"
    inputs = {"--truth": truth, "--roi": truth}
    inputs[flag] = scene  # the 3-band scene where one band is expected
    argv = {
        "compare": ["--truth", inputs["--truth"]],
        "classify": ["--roi", inputs["--roi"], "--out", str(out), "--truth", inputs["--truth"]],
    }[command]
    capsys.readouterr()
    assert run([command, "--in", scene, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"biharm: error: {flag} {scene} holds 3 bands, expected 1\n"
    assert captured.out == "" and not out.exists()


def _bfr1_bytes(data):
    """A BFR1 file put together by hand, so that its payload may hold a NaN."""
    n, h, w = data.shape
    names = b"".join(struct.pack("<H", 2) + b"b%d" % i for i in range(n))
    return b"BFR1" + struct.pack("<III", w, h, n) + names + data.astype("<f4").tobytes()


@pytest.fixture
def nan_in_band_1(tmp_path, rng):
    """(clean scene, the same scene with a NaN in band 1, truth) paths."""
    data = rng.normal(100, 10, (3, 20, 24))
    data[:, 5:9, 6:10] += 40.0
    clean, dirty, truth = tmp_path / "clean.bfr", tmp_path / "dirty.bfr", tmp_path / "t.pgm"
    clean.write_bytes(_bfr1_bytes(data))
    data[1, 7, 3] = np.nan
    dirty.write_bytes(_bfr1_bytes(data))
    mask = np.zeros((20, 24))
    mask[5:9, 6:10] = 255.0
    save_pgm(Raster(mask), truth, 255)
    return str(clean), str(dirty), str(truth)


@pytest.mark.parametrize("band", ["0", "2"])
def test_compare_reads_only_the_compared_band(band, nan_in_band_1, capsys):
    clean, dirty, truth = nan_in_band_1
    capsys.readouterr()
    assert run(["compare", "--in", clean, "--truth", truth, "--band", band]) == 0
    expected = capsys.readouterr().out
    assert run(["compare", "--in", dirty, "--truth", truth, "--band", band]) == 0
    assert capsys.readouterr().out == expected
    assert expected.startswith(f"band=b{band}\n")


def test_compare_of_the_band_with_a_nan_exit_1(nan_in_band_1, capsys):
    _, dirty, truth = nan_in_band_1
    capsys.readouterr()
    assert run(["compare", "--in", dirty, "--truth", truth, "--band", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "biharm: error: parse error: non-finite sample in payload\n"
    assert captured.out == ""


@pytest.mark.parametrize("band", ["0", "1", "2"])
def test_compare_checks_the_whole_payload_length(band, nan_in_band_1, tmp_path, capsys):
    clean, _, truth = nan_in_band_1
    short = tmp_path / "short.bfr"
    with open(clean, "rb") as fh:
        short.write_bytes(fh.read()[:-1])
    capsys.readouterr()
    assert run(["compare", "--in", str(short), "--truth", truth, "--band", band]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("biharm: error: parse error: payload length 5759, "
                            "expected 5760\n")
    assert captured.out == ""


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
    save_bandset(BandSet([Raster(np.full((4, 4), 100.0))]), src)
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


def test_classify_class_id_above_255_exit_1_without_output(tmp_path, capsys):
    # the label map is an 8-bit PGM: class 300 would be written as 255
    src, roi, out = tmp_path / "in.bfr", tmp_path / "roi.bfr", tmp_path / "labels.pgm"
    save_bandset(BandSet([Raster(np.arange(16.0).reshape(4, 4))]), src)
    labels = np.ones((4, 4))
    labels[2:] = 300.0
    save_bandset(BandSet([Raster(labels)]), roi)
    capsys.readouterr()
    assert run(["classify", "--in", str(src), "--roi", str(roi), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("biharm: error: ROI class id 300 does not fit the 8-bit "
                            "label PGM (at most 255)\n")
    assert captured.out == "" and not out.exists()


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


def test_bench_workers_default_to_the_cpus_the_process_may_run_on(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run(["bench", "--size", "64x64", "--iters", "1"]) == 0
    assert read_report(capsys.readouterr().out)["workers"] == "1"


def test_bench_bit_identity_sees_the_sign_of_zero(monkeypatch):
    monkeypatch.setattr(bench_mod, "convolve_reference",
                        lambda r, s, b: Raster(np.zeros(r.shape)))
    monkeypatch.setattr(bench_mod, "convolve",
                        lambda r, s, b, tile_height, workers: Raster(np.full(r.shape, -0.0)))
    assert bench_mod.run_benchmark(16, 16, iters=1)["bit_identical"] is False
    # a bad count raises before the scene is made or an engine runs
    monkeypatch.setattr(bench_mod, "gaussian", lambda seed, count: pytest.fail("scene made"))
    for kwargs, message in [({"iters": 0}, "iters must be positive, got 0"),
                            ({"iters": 1.5}, "iters must be an integer, got 1.5"),
                            ({"workers": 0}, "workers must be positive, got 0"),
                            ({"width": 0}, "width must be positive, got 0"),
                            ({"width": 16.0}, "width must be an integer, got 16.0"),
                            ({"height": np.float64(16)}, "height must be an integer, got np.float64(16.0)"),
                            ({"height": True}, "height must be an integer, got True")]:
        with pytest.raises(ValueError) as info:
            bench_mod.run_benchmark(**{"width": 16, "height": 16, **kwargs})
        assert str(info.value) == message


@pytest.mark.parametrize("line,message", [
    ("sigma = nan", "noise sigma must be finite and non-negative, got nan"),
    ("level = inf", "level must be finite, got inf"),
    ("trend = nan 0", "trend slopes must be finite, got (nan, 0.0)"),
    ("seed = -1", "seed must be in [0, 2**64), got -1"),
    ("bands = 0", "band count must be positive"),
    # BFR1 counts bands in a u32; no band is made before the check
    ("bands = 4294967296", "BFR1 output holds at most 4294967295 bands, have 4294967296"),
    ("bands = 100000000000000000000",
     "BFR1 output holds at most 4294967295 bands, have 100000000000000000000"),
    ("bogus", "line 4: expected key = value, got 'bogus'"),
    ("width = 8", "line 4: duplicate key 'width'"),
    ("trend = 1", "line 4: trend needs 2 slopes"),
    ("anomaly = disk 1 2 3", "line 4: disk needs: disk cx cy radius amp..."),
    ("anomaly = rect 1 2 3 4", "line 4: rect needs: rect x0 y0 width height amp..."),
    ("anomaly = rect 1 1 0 3 5",
     "rectangle must be at least 1x1: Rect(x0=1, y0=1, width=0, height=3, amplitudes=(5.0,))"),
    ("anomaly = disk 1e308 5 1e308 5",  # cx + r overflows to inf
     "disk footprint out of bounds: Disk(cx=1e+308, cy=5.0, radius=1e+308, amplitudes=(5.0,))"),
])
def test_synth_spec_numbers_exit_1(line, message, tmp_path, capsys):
    spec, out = tmp_path / "spec.txt", tmp_path / "scene.bfr"
    # a comment keeps each case on line 4 and repeats no key
    spec.write_text(f"width = 16\nheight = 16\n# the case\n{line}\n")
    assert run(["synth", "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"biharm: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("lines", [
    "level = 1e308\nanomaly = rect 1 1 2 2 1e308",
    "trend = 1e308 0",
])
def test_synth_overflowing_spec_numbers_exit_1(lines, tmp_path, capsys):
    spec, out = tmp_path / "spec.txt", tmp_path / "scene.bfr"
    spec.write_text(f"width = 16\nheight = 16\n{lines}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["synth", "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "biharm: error: scene band 1 overflows: level, trend, sigma and the "
        "anomaly amplitudes must keep every sample finite\n")
    assert not out.exists()


def test_synth_out_of_memory_exit_1(monkeypatch, tmp_path, capsys):
    # a stand-in for numpy's allocation failure: a real huge allocation
    # could take the machine's memory instead of failing
    def synth_scene(spec):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli_mod, "synth_scene", synth_scene)
    spec = os.path.join(FIXTURES, "compare_scene.txt")
    out = tmp_path / "scene.bfr"
    assert run(["synth", "--spec", spec, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "biharm: error: out of memory: Unable to allocate 7.28 TiB for an array\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64), "x", "1.5"])
def test_synth_seed_outside_64_bits_exit_2(seed, tmp_path, capsys):
    spec = os.path.join(FIXTURES, "compare_scene.txt")
    out = tmp_path / "scene.bfr"
    assert run(["synth", "--spec", spec, "--out", str(out), "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err
    assert not out.exists()


def test_synth_seed_range_ends(tmp_path):
    spec = os.path.join(FIXTURES, "compare_scene.txt")
    scenes = []
    for seed in ("0", str(2**64 - 1)):
        out = tmp_path / f"scene_{seed}.bfr"
        assert run(["synth", "--spec", spec, "--out", str(out), "--seed", seed]) == 0
        scenes.append(out.read_bytes())
    assert scenes[0] != scenes[1]
