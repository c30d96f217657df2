"""Workload definitions: seeded inputs, the CLI commands of one pass, and an
in-process replay of each command through the library's public calls.

Every input is derived from the seed argument alone; the program receives
only the files written here.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from biharm import (
    BandSet,
    Boundary,
    Raster,
    anomaly_highpass,
    anomaly_residual,
    biharmonic_stencil,
    classify_parallelepiped,
    detector_metrics,
    fit_parallelepiped,
    laplacian_baseline,
    load_bandset,
    load_pgm,
    overall_accuracy,
    parse_scene_spec,
    save_bandset,
    save_pgm,
    smooth_jacobi,
    synth_scene,
    threshold_mask,
)
from biharm.cli import _make_stencil, _metrics_lines, build_parser


@dataclass(frozen=True)
class Workload:
    name: str
    bands: int
    size: int  # edge length at full size; the self-tests divide it
    write_inputs: Callable[[int, int, Path], None]  # (seed, size, inputs dir)
    setup_commands: Callable[[Path], list]  # CLI argv lists run during set-up
    commands: Callable[[Path, Path], list]  # (inputs dir, output dir) -> argv lists
    scene: Callable[[Path, Path], Path]  # where the pass's BFR1 scene lives


# ---------------------------------------------------------------- inputs

def _amplitudes(rng: random.Random, count: int, lo: float, hi: float) -> list:
    return [round(rng.uniform(lo, hi), 3) for _ in range(count)]


def scene_spec_3band(seed: int, size: int) -> str:
    """3-band scene: 16 disks and rectangles, one per cell of a 4x4 grid."""
    rng = random.Random(f"3band:{seed}")
    grid, cell = 4, size // 4
    lines = [
        f"width = {size}", f"height = {size}", "bands = 3",
        "level = 100", "sigma = 4.0",
        f"trend = {round(rng.uniform(-0.01, 0.01), 5)} {round(rng.uniform(-0.01, 0.01), 5)}",
        f"seed = {rng.getrandbits(32)}",
    ]
    for gy in range(grid):
        for gx in range(grid):
            x0, y0 = gx * cell, gy * cell
            amps = " ".join(repr(a) for a in _amplitudes(rng, 3, 5.0, 40.0))
            if rng.random() < 0.5:
                r = round(max(1.0, rng.uniform(0.03, 0.12) * cell), 3)
                cx = round(rng.uniform(x0 + r + 1, x0 + cell - r - 2), 3)
                cy = round(rng.uniform(y0 + r + 1, y0 + cell - r - 2), 3)
                lines.append(f"anomaly = disk {cx} {cy} {r} {amps}")
            else:
                w = max(1, int(rng.uniform(0.05, 0.2) * cell))
                h = max(1, int(rng.uniform(0.05, 0.2) * cell))
                rx = rng.randrange(x0, x0 + cell - w + 1)
                ry = rng.randrange(y0, y0 + cell - h + 1)
                lines.append(f"anomaly = rect {rx} {ry} {w} {h} {amps}")
    return "\n".join(lines) + "\n"


def _write_3band_inputs(seed: int, size: int, inputs: Path) -> None:
    (inputs / "spec.txt").write_text(scene_spec_3band(seed, size))


def _write_p2(labels: np.ndarray, path: Path) -> None:
    """ASCII PGM, 32 samples per line."""
    h, w = labels.shape
    flat = labels.ravel().astype(np.int64).tolist()
    rows = (" ".join(map(str, flat[i:i + 32])) for i in range(0, len(flat), 32))
    path.write_text(f"P2\n{w} {h}\n255\n" + "\n".join(rows) + "\n")


def _write_p5(labels: np.ndarray, path: Path) -> None:
    h, w = labels.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (w, h) + labels.astype(np.uint8).tobytes())


def ingest_inputs(seed: int, size: int):
    """8-band spec with 9 anomalies in three classes, its multi-class ROI
    (label 0 = unlabeled) and the reference label map (background = 1)."""
    rng = random.Random(f"8band:{seed}")
    bands, grid = 8, 3
    cell = size // grid
    margin = cell // 8 + 1  # the cell's corner below the margin is background ROI
    corner = max(1, cell // 10)
    prototypes = {cid: _amplitudes(rng, bands, 15.0, 60.0) for cid in (2, 3, 4)}
    lines = [
        f"width = {size}", f"height = {size}", f"bands = {bands}",
        "level = 50", "sigma = 3.0",
        f"trend = {round(rng.uniform(-0.005, 0.005), 5)} {round(rng.uniform(-0.005, 0.005), 5)}",
        f"seed = {rng.getrandbits(32)}",
    ]
    yy, xx = np.mgrid[0:size, 0:size]
    roi = np.zeros((size, size), dtype=np.uint8)
    reference = np.ones((size, size), dtype=np.uint8)
    for i in range(grid * grid):
        gy, gx = divmod(i, grid)
        x0, y0 = gx * cell, gy * cell
        cid = 2 + i % 3
        amps = " ".join(repr(a) for a in prototypes[cid])
        roi[y0:y0 + corner, x0:x0 + corner] = 1
        if rng.random() < 0.5:
            r = round(rng.uniform(0.15, 0.25) * cell, 3)
            cx = round(rng.uniform(x0 + margin + r, x0 + cell - 2 - r), 3)
            cy = round(rng.uniform(y0 + margin + r, y0 + cell - 2 - r), 3)
            lines.append(f"anomaly = disk {cx} {cy} {r} {amps}")
            reference[(xx - cx) ** 2 + (yy - cy) ** 2 <= r * r] = cid
            half = max(0, int(r / 2))
            ix, iy = int(round(cx)), int(round(cy))
            roi[iy - half:iy + half + 1, ix - half:ix + half + 1] = cid
        else:
            w = int(rng.uniform(0.3, 0.6) * cell)
            h = int(rng.uniform(0.3, 0.6) * cell)
            rx = rng.randrange(x0 + margin, x0 + cell - w)
            ry = rng.randrange(y0 + margin, y0 + cell - h)
            lines.append(f"anomaly = rect {rx} {ry} {w} {h} {amps}")
            reference[ry:ry + h, rx:rx + w] = cid
            qw, qh = w // 4, h // 4
            roi[ry + qh:ry + h - qh, rx + qw:rx + w - qw] = cid
    return "\n".join(lines) + "\n", roi, reference


def _write_ingest_inputs(seed: int, size: int, inputs: Path) -> None:
    spec, roi, reference = ingest_inputs(seed, size)
    (inputs / "spec.txt").write_text(spec)
    _write_p2(roi, inputs / "roi.pgm")
    _write_p5(reference, inputs / "reference.pgm")


# ------------------------------------------------------------- workloads

def _synth_scene_setup(inputs: Path) -> list:
    return [["synth", "--spec", str(inputs / "spec.txt"), "--out", str(inputs / "scene.bfr"),
             "--truth-out", str(inputs / "truth.pgm")]]


WORKLOADS = {
    # Why: 18 biharmonic convolutions (5 Jacobi sweeps and 1 high-pass on each
    # of 3 bands) plus the Jacobi updates are most of the ~4 s pass, and
    # ranking_auc never runs. A tap-loop, tiling or pool change shows here; a
    # ranking change should show no change here.
    "smooth-3x2048": Workload(
        name="smooth-3x2048", bands=3, size=2048,
        write_inputs=_write_3band_inputs,
        setup_commands=_synth_scene_setup,
        commands=lambda inputs, out: [
            ["smooth", "--in", str(inputs / "scene.bfr"), "--out", str(out / "smooth.bfr"),
             "--iters", "5"],
            ["detect", "--in", str(inputs / "scene.bfr"), "--out", str(out / "detect.bfr"),
             "--mode", "highpass", "--mask-out", str(out / "mask.pgm")],
        ],
        scene=lambda inputs, out: inputs / "scene.bfr",
    ),
    # Why: the same scene plus its truth PGM. Two ranking_auc sorts per
    # command are ~60% of the ~7 s pass, convolution only ~15% (one
    # biharmonic and one 3x3 Laplacian pass per command), so this workload
    # uses convolve lightly where smooth-3x2048 uses it heavily.
    "compare-3x2048": Workload(
        name="compare-3x2048", bands=3, size=2048,
        write_inputs=_write_3band_inputs,
        setup_commands=_synth_scene_setup,
        commands=lambda inputs, out: [
            ["compare", "--in", str(inputs / "scene.bfr"), "--truth", str(inputs / "truth.pgm"),
             "--band", str(b)]
            for b in range(3)
        ],
        scene=lambda inputs, out: inputs / "scene.bfr",
    ),
    # Why: no convolution at all. The ~3 s pass is scene generation, the BFR1
    # write and read, the Python-loop P2 parse of the ROI, the P5 write and
    # the 8-band parallelepiped fit and apply. It writes files as well as
    # reading them, and its 8 MiB bands against the 32 MiB bands of the other
    # two vary the working set against the cache.
    "ingest-8x1024": Workload(
        name="ingest-8x1024", bands=8, size=1024,
        write_inputs=_write_ingest_inputs,
        setup_commands=lambda inputs: [],
        commands=lambda inputs, out: [
            ["synth", "--spec", str(inputs / "spec.txt"), "--out", str(out / "scene.bfr"),
             "--truth-out", str(out / "truth.pgm")],
            ["classify", "--in", str(out / "scene.bfr"), "--roi", str(inputs / "roi.pgm"),
             "--out", str(out / "labels.pgm"), "--truth", str(inputs / "reference.pgm")],
        ],
        scene=lambda inputs, out: out / "scene.bfr",
    ),
}


# ----------------------------------------------------------------- replay

def parse(argv):
    return build_parser().parse_args(argv)


def output_paths(args) -> list:
    """Files a command writes; its stdout is compared separately."""
    if args.command == "smooth":
        return [args.out_path]
    if args.command == "detect":
        return [args.out_path] + ([args.mask_out] if args.mask_out else [])
    if args.command == "compare":
        return [] if args.report == "-" else [args.report]
    if args.command == "classify":
        return [args.out_path]
    if args.command == "synth":
        return [args.out_path] + ([args.truth_out] if args.truth_out else [])
    raise ValueError(f"no replay for {args.command!r}")


def convolution_calls(args, bands: int) -> list:
    """(calling function, stencil name, call count) for one command."""
    stencil = getattr(args, "stencil", "biharmonic")
    if args.command == "smooth":
        return [("smooth_jacobi", stencil, bands * args.iters)]
    if args.command == "detect":
        if args.mode == "highpass":
            return [("anomaly_highpass", stencil, bands)]
        return [("smooth_jacobi", stencil, bands * args.iters)]
    if args.command == "compare":
        return [("smooth_jacobi", "biharmonic", args.iters),
                ("anomaly_highpass", "laplacian", 1)]
    return []


def _load_raster(path, t):
    with open(path, "rb") as fh:
        magic = fh.read(2).decode("ascii", "replace").lower()
    with t.span(f"formats.load_pgm_{magic}"):
        r = load_pgm(path)
    t.count("formats.bytes_read", os.path.getsize(path))
    return r


def _load_bands(path, t):
    with t.span("formats.load_bandset"):
        bands = load_bandset(path)
    t.count("formats.bytes_read", os.path.getsize(path))
    return bands


def _save_bands(bands, path, t):
    if str(path).endswith(".pgm"):
        raise ValueError("replay writes band sets as BFR1 only")
    with t.span("formats.save_bandset"):
        save_bandset(bands, path)
    t.count("formats.bytes_written", os.path.getsize(path))


def _save_pgm(r, path, t):
    with t.span("formats.save_pgm"):
        save_pgm(r, path, 255)
    t.count("formats.bytes_written", os.path.getsize(path))


def _replay_smooth(args, t, keep):
    bands = _load_bands(args.in_path, t)
    stencil = _make_stencil(args)
    boundary = Boundary.parse(args.boundary)
    smoothed = []
    for band in bands:
        with t.span("pipeline.smooth_jacobi"):
            smoothed.append(smooth_jacobi(band, stencil, args.iters, boundary,
                                          args.tile_height, args.workers))
    _save_bands(BandSet(smoothed, bands.band_names), args.out_path, t)
    return ""


def _replay_detect(args, t, keep):
    bands = _load_bands(args.in_path, t)
    stencil = _make_stencil(args)
    boundary = Boundary.parse(args.boundary)
    maps = []
    for band, name in zip(bands, bands.band_names):
        if args.mode == "residual":
            with t.span("pipeline.smooth_jacobi"):
                smoothed = smooth_jacobi(band, stencil, args.iters, boundary,
                                         args.tile_height, args.workers)
            with t.span("pipeline.anomaly_residual"):
                maps.append(anomaly_residual(band, smoothed, name))
        else:
            with t.span("pipeline.anomaly_highpass"):
                maps.append(anomaly_highpass(band, stencil, boundary, name,
                                             args.tile_height, args.workers))
    _save_bands(BandSet([m.scores for m in maps], bands.band_names), args.out_path, t)
    if args.mask_out:
        union = np.zeros(maps[0].scores.shape, dtype=bool)
        for m in maps:
            with t.span("pipeline.threshold_mask"):
                mask = threshold_mask(m, args.sigma_k)
            union |= mask.data.astype(bool)
        with t.span("raster.construct"):
            mask_raster = Raster._from_array(union * 255.0)
        _save_pgm(mask_raster, args.mask_out, t)
    return ""


def _replay_compare(args, t, keep):
    bands = _load_bands(args.in_path, t)
    truth_raw = _load_raster(args.truth, t)
    with t.span("raster.construct"):
        truth = Raster._from_array((truth_raw.data != 0).astype(np.float64))
    band = bands[args.band]
    name = bands.band_names[args.band]
    boundary = Boundary.parse(args.boundary)
    with t.span("pipeline.smooth_jacobi"):
        smoothed = smooth_jacobi(band, biharmonic_stencil(args.lx, args.ly), args.iters,
                                 boundary, args.tile_height, args.workers)
    with t.span("pipeline.anomaly_residual"):
        residual_map = anomaly_residual(band, smoothed, name)
    with t.span("pipeline.anomaly_highpass"):
        baseline_map = anomaly_highpass(band, laplacian_baseline(), boundary, name,
                                        args.tile_height, args.workers)
    with t.span("pipeline.detector_metrics"):
        m_bh = detector_metrics(residual_map, truth, args.sigma_k)
    with t.span("pipeline.detector_metrics"):
        m_lp = detector_metrics(baseline_map, truth, args.sigma_k)
    if keep is not None:
        keep["ranking"] = ([residual_map.scores.data, baseline_map.scores.data], truth.data)
    lines = [("band", name)] + _metrics_lines("biharmonic", m_bh) + _metrics_lines("laplacian", m_lp)
    text = "".join(f"{k}={v}\n" for k, v in lines)
    if args.report != "-":
        with open(args.report, "w") as fh:
            fh.write(text)
        return ""
    return text


def _replay_classify(args, t, keep):
    bands = _load_bands(args.in_path, t)
    roi = _load_raster(args.roi, t)
    with t.span("pipeline.fit_parallelepiped"):
        model = fit_parallelepiped(bands, roi)
    with t.span("pipeline.classify_parallelepiped"):
        labels = classify_parallelepiped(bands, model)
    _save_pgm(labels, args.out_path, t)
    if not args.truth:
        return ""
    truth = _load_raster(args.truth, t)
    with t.span("pipeline.overall_accuracy"):
        accuracy = overall_accuracy(labels, truth)
    return f"overall_accuracy={accuracy!r}\n"


def _replay_synth(args, t, keep):
    with open(args.spec) as fh:
        text = fh.read()
    with t.span("scene.parse_scene_spec"):
        spec = parse_scene_spec(text)
    if args.seed is not None:
        raise ValueError("replay does not override the spec seed")
    with t.span("scene.synth_scene"):
        bands, truth = synth_scene(spec)
    _save_bands(bands, args.out_path, t)
    if args.truth_out:
        with t.span("raster.construct"):
            truth_raster = Raster._from_array(truth.data * 255.0)
        _save_pgm(truth_raster, args.truth_out, t)
    return ""


_REPLAY = {
    "smooth": _replay_smooth,
    "detect": _replay_detect,
    "compare": _replay_compare,
    "classify": _replay_classify,
    "synth": _replay_synth,
}


def replay(args, tracer, keep=None) -> str:
    """Run one command in-process with the library calls the CLI makes, inside
    a root span named after the command; returns what the CLI prints."""
    with tracer.span(f"cli.{args.command}"):
        return _REPLAY[args.command](args, tracer, keep)
