"""Command-line surface for the raster pipeline."""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import bench as bench_mod
from .convolve import DEFAULT_TILE_HEIGHT, Boundary
from .formats import FormatError, load_bandset, load_pgm, save_bandset, save_pgm
from .pipeline import (
    MapMode,
    _threshold_bool,
    anomaly_highpass,
    anomaly_residual,
    classify_parallelepiped,
    compare_detectors,
    fit_parallelepiped,
    overall_accuracy,
    smooth_jacobi,
)
from .raster import BandSet, Raster
from .scene import parse_scene_spec, synth_scene
from .stencil import biharmonic_stencil, laplacian_baseline


def _load_input(path) -> BandSet:
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:2] in (b"P2", b"P5"):
        return BandSet([load_pgm(path)], ["band1"])
    if magic == b"BFR1":
        return load_bandset(path)
    raise FormatError(f"parse error: unrecognized magic {magic!r} in {path}")


def _minmax_scaled(r: Raster, maxval: int = 255) -> Raster:
    lo, hi = float(r.data.min()), float(r.data.max())
    if hi == lo:
        return Raster._from_array(np.zeros_like(r.data))
    return Raster._from_array((r.data - lo) / (hi - lo) * maxval)


def _write_output(bands: BandSet, path, scale: bool = False) -> None:
    if str(path).endswith(".pgm"):
        if len(bands) != 1:
            raise ValueError(f"PGM output holds one band, have {len(bands)}")
        band = _minmax_scaled(bands[0]) if scale else bands[0]
        save_pgm(band, path, 255)
    else:
        save_bandset(bands, path)


def _make_stencil(args):
    if args.stencil == "laplacian":
        return laplacian_baseline()
    return biharmonic_stencil(args.lx, args.ly)


def _emit_report(lines, path):
    text = "".join(f"{k}={v}\n" for k, v in lines)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _metrics_lines(prefix, m):
    return [
        (f"{prefix}_auc", repr(m.auc)),
        (f"{prefix}_tp", m.tp),
        (f"{prefix}_fp", m.fp),
        (f"{prefix}_tn", m.tn),
        (f"{prefix}_fn", m.fn),
        (f"{prefix}_precision", repr(m.precision)),
        (f"{prefix}_recall", repr(m.recall)),
        (f"{prefix}_overall_accuracy", repr(m.overall_accuracy)),
    ]


def _cmd_stencil(args):
    s = _make_stencil(args)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(s.to_csv())
    else:
        print(s.format_grid())
    return 0


def _cmd_smooth(args):
    bands = _load_input(args.in_path)
    stencil = _make_stencil(args)
    boundary = Boundary.parse(args.boundary)
    smoothed = [
        smooth_jacobi(band, stencil, args.iters, boundary,
                      args.tile_height, args.workers)
        for band in bands
    ]
    _write_output(BandSet(smoothed, bands.band_names), args.out_path)
    return 0


def _band_map(args, mode, stencil, band, name):
    """One band's score map: residual against ``args.iters`` Jacobi sweeps of
    ``stencil``, or its high-pass response."""
    boundary = Boundary.parse(args.boundary)
    if mode is MapMode.RESIDUAL:
        smoothed = smooth_jacobi(band, stencil, args.iters, boundary,
                                 args.tile_height, args.workers)
        return anomaly_residual(band, smoothed, name)
    return anomaly_highpass(band, stencil, boundary, name,
                            args.tile_height, args.workers)


def _cmd_detect(args):
    bands = _load_input(args.in_path)
    stencil = _make_stencil(args)
    mode = MapMode(args.mode)
    maps = [_band_map(args, mode, stencil, band, name)
            for band, name in zip(bands, bands.band_names)]
    scores = BandSet([m.scores for m in maps], bands.band_names)
    _write_output(scores, args.out_path, scale=True)
    if args.mask_out:
        union = np.zeros(scores[0].shape, dtype=bool)
        for m in maps:
            union |= _threshold_bool(m, args.sigma_k)
        save_pgm(Raster._from_array(union * 255.0), args.mask_out, 255)
    return 0


def _cmd_compare(args):
    bands = _load_input(args.in_path)
    if not 0 <= args.band < len(bands):
        print(f"biharm: error: --band {args.band} is out of range for "
              f"{len(bands)} band(s)", file=sys.stderr)
        return 2
    band = bands[args.band]
    name = bands.band_names[args.band]
    del bands  # frees the bands that are not compared
    truth = _load_input(args.truth)[0]  # non-zero is anomalous
    residual_map = _band_map(args, MapMode.RESIDUAL,
                             biharmonic_stencil(args.lx, args.ly), band, name)
    baseline_map = _band_map(args, MapMode.HIGHPASS, laplacian_baseline(), band, name)
    del band  # the two detectors are scored at the same time, on their maps only
    m_bh, m_lp = compare_detectors(residual_map, baseline_map, truth, args.sigma_k)
    lines = [("band", name)]
    lines += _metrics_lines("biharmonic", m_bh)
    lines += _metrics_lines("laplacian", m_lp)
    _emit_report(lines, args.report if args.report != "-" else None)
    return 0


def _cmd_classify(args):
    bands = _load_input(args.in_path)
    roi = _load_input(args.roi)[0]
    model = fit_parallelepiped(bands, roi)
    labels = classify_parallelepiped(bands, model)
    save_pgm(labels, args.out_path, 255)
    if args.truth:
        truth = _load_input(args.truth)[0]
        print(f"overall_accuracy={overall_accuracy(labels, truth)!r}")
    return 0


def _cmd_synth(args):
    with open(args.spec) as fh:
        spec = parse_scene_spec(fh.read())
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    bands, truth = synth_scene(spec)
    _write_output(bands, args.out_path)
    if args.truth_out:
        save_pgm(Raster._from_array(truth.data * 255.0), args.truth_out, 255)
    return 0


def _cmd_bench(args):
    try:
        w, h = (int(v) for v in args.size.lower().split("x"))
    except ValueError:
        raise ValueError(f"--size must look like 2048x2048, got {args.size!r}") from None
    results = bench_mod.run_benchmark(w, h, args.iters, args.workers, args.tile_height)
    for key, value in results.items():
        print(f"{key}={value}")
    return 0


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _sigma_k(text):
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"expected a finite non-negative number, got {text!r}")
    return value


def _add_engine_flags(p):
    p.add_argument("--boundary", default="mirror",
                   choices=["mirror", "replicate", "zero", "wrap"])
    p.add_argument("--tile-height", type=_positive_int, default=DEFAULT_TILE_HEIGHT)
    p.add_argument("--workers", type=_positive_int, default=None)


def _add_stencil_flags(p):
    p.add_argument("--stencil", default="biharmonic",
                   choices=["biharmonic", "laplacian"])
    p.add_argument("--lx", type=float, default=1.0)
    p.add_argument("--ly", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biharm",
        description="Biharmonic smoothing, anomaly detection, and classification "
                    "for single- and multi-band rasters (PGM / BFR1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stencil", help="print or export a stencil")
    _add_stencil_flags(p)
    p.add_argument("--csv", help="write CSV instead of printing")
    p.set_defaults(func=_cmd_stencil)

    p = sub.add_parser("smooth", help="Jacobi smoothing of every band")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--iters", type=_positive_int, default=1)
    _add_stencil_flags(p)
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("detect", help="per-band anomaly score maps")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--mode", default="residual", choices=["residual", "highpass"])
    p.add_argument("--sigma-k", type=_sigma_k, default=3.0)
    p.add_argument("--iters", type=_positive_int, default=1)
    p.add_argument("--mask-out", help="write union threshold mask as PGM")
    _add_stencil_flags(p)
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("compare", help="biharmonic residual vs Laplacian baseline")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--report", default="-", help="report path, - for stdout")
    p.add_argument("--band", type=int, default=0)
    p.add_argument("--sigma-k", type=_sigma_k, default=3.0)
    p.add_argument("--iters", type=_positive_int, default=1)
    p.add_argument("--lx", type=float, default=1.0)
    p.add_argument("--ly", type=float, default=1.0)
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("classify", help="fit and apply the parallelepiped classifier")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--roi", required=True, help="integer label raster (PGM)")
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--truth", help="optional reference labels; prints accuracy")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("synth", help="generate a synthetic scene with ground truth")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--truth-out")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="reference vs tiled engine throughput")
    p.add_argument("--size", default="2048x2048")
    p.add_argument("--iters", type=_positive_int, default=3)
    p.add_argument("--workers", type=_positive_int, default=4)
    p.add_argument("--tile-height", type=_positive_int, default=DEFAULT_TILE_HEIGHT)
    p.set_defaults(func=_cmd_bench)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"biharm: error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
