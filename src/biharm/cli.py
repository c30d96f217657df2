"""Command-line surface for the raster pipeline."""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import warnings

import numpy as np

from . import bench as bench_mod
from .convolve import DEFAULT_TILE_HEIGHT, Boundary
from .formats import _save_mask, load_bandset, save_bandset, save_pgm
from .pipeline import (
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
from .stencil import biharmonic_stencil, laplacian_baseline, omega_auto, validate_stencil


def _load_single(path, flag) -> Raster:
    """The one band of a truth, ROI or reference input."""
    bands = load_bandset(path)
    if len(bands) != 1:
        raise ValueError(f"{flag} {path} holds {len(bands)} bands, expected 1")
    return bands[0]


def _minmax_scaled(r: Raster) -> Raster:
    lo, hi = float(r.data.min()), float(r.data.max())
    if hi == lo:
        return Raster._from_array(np.zeros_like(r.data))
    return Raster._from_array((r.data - lo) / (hi - lo) * 255)


def _check_output_bands(count: int, path) -> None:
    if str(path).endswith(".pgm") and count != 1:
        raise ValueError(f"PGM output holds one band, have {count}")
    if count > 0xFFFFFFFF:  # BFR1 stores the count as a u32
        raise ValueError(f"BFR1 output holds at most {0xFFFFFFFF} bands, have {count}")


def _write_output(bands: BandSet, path, scale: bool = False) -> None:
    """Write ``bands`` to ``path``; a ``.pgm`` path was checked by
    ``_check_output_bands`` before any band was made."""
    if str(path).endswith(".pgm"):
        band = _minmax_scaled(bands[0]) if scale else bands[0]
        save_pgm(band, path, 255)
    else:
        save_bandset(bands, path)


def _make_stencil(args):
    stencil = biharmonic_stencil(args.lx, args.ly)  # checks --lx/--ly for either stencil
    return laplacian_baseline() if args.stencil == "laplacian" else stencil


def _emit_report(lines, path=None):
    text = "".join(f"{k}={v}\n" for k, v in lines)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _metrics_lines(prefix, m):
    return [(f"{prefix}_{f.name}", repr(getattr(m, f.name))) for f in dataclasses.fields(m)]


def _validation_lines(s):
    report = validate_stencil(s)
    (a_min, a_max), omega = report.symbol_range, omega_auto(s)
    lines = [
        ("lx", repr(s.lx)),
        ("ly", repr(s.ly)),
        ("center", repr(s.coeff(0, 0))),
        ("passed", report.passed),
        ("zero_sum_residual", repr(report.zero_sum_residual)),
        ("max_symmetry_violation", repr(report.max_symmetry_violation)),
        ("symbol_min", repr(a_min)),
        ("symbol_max", repr(a_max)),
        ("jacobi_min", repr(report.jacobi_range[0])),
        ("jacobi_max", repr(report.jacobi_range[1])),
        ("stability_bound", repr(2.0 * omega)),
        ("omega_auto", repr(omega)),
    ]
    lines += [(f"response_x{u}y{v}", repr(value))
              for (u, v), value in report.monomial_responses.items()]
    return lines


def _cmd_stencil(args):
    s = _make_stencil(args)
    rows = s.coeffs[::-1]  # q = +radius first
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("".join(",".join("%.17g" % v for v in row) + "\n" for row in rows))
    elif not args.validate:
        cells = [["%g" % v for v in row] for row in rows]
        width = max(len(c) for row in cells for c in row)
        print("\n".join(" ".join(c.rjust(width) for c in row) for row in cells))
    if args.validate:
        _emit_report([("stencil", args.stencil)] + _validation_lines(s))
    return 0


def _cmd_smooth(args):
    bands = load_bandset(args.in_path)
    _check_output_bands(len(bands), args.out_path)
    stencil = _make_stencil(args)
    smoothed = [_smoothed(args, stencil, band) for band in bands]
    _write_output(BandSet(smoothed, bands.band_names), args.out_path)
    return 0


def _smoothed(args, stencil, band):
    """``band`` after ``args.iters`` Jacobi sweeps of ``stencil``."""
    return smooth_jacobi(band, stencil, args.iters, Boundary.parse(args.boundary),
                         workers=args.workers)


def _band_map(args, mode, stencil, band):
    """``band``'s score map for ``--mode`` ``mode``: its residual or high-pass response."""
    if mode == "residual":
        return anomaly_residual(band, _smoothed(args, stencil, band))
    return anomaly_highpass(band, stencil, Boundary.parse(args.boundary),
                            workers=args.workers)


def _cmd_detect(args):
    bands = load_bandset(args.in_path)
    _check_output_bands(len(bands), args.out_path)
    stencil = _make_stencil(args)
    maps = [_band_map(args, args.mode, stencil, band) for band in bands]
    scores = BandSet([m.scores for m in maps], bands.band_names)
    _write_output(scores, args.out_path, scale=True)
    if args.mask_out:
        union = np.zeros(scores[0].shape, dtype=bool)
        for m in maps:
            union |= _threshold_bool(m, args.sigma_k)
        _save_mask(union, args.mask_out)
    return 0


def _cmd_compare(args):
    try:
        bands = load_bandset(args.in_path, args.band)
    except IndexError as exc:
        print(f"biharm: error: --{exc}", file=sys.stderr)
        return 2
    band, name = bands[0], bands.band_names[0]
    del bands  # leaves ``band`` the only reference, freed below
    truth = _load_single(args.truth, "--truth")  # non-zero is anomalous
    if truth.shape != band.shape:
        raise ValueError(f"shape mismatch: {band.shape} vs {truth.shape}")
    residual_map = _band_map(args, "residual", biharmonic_stencil(args.lx, args.ly), band)
    baseline_map = _band_map(args, "highpass", laplacian_baseline(), band)
    del band  # the two detectors are scored at the same time, on their maps only
    m_bh, m_lp = compare_detectors(residual_map, baseline_map, truth, args.sigma_k)
    lines = [("band", name)]
    lines += _metrics_lines("biharmonic", m_bh)
    lines += _metrics_lines("laplacian", m_lp)
    _emit_report(lines, args.report if args.report != "-" else None)
    return 0


def _cmd_classify(args):
    bands = load_bandset(args.in_path)
    roi = _load_single(args.roi, "--roi")
    model = fit_parallelepiped(bands, roi)
    top = max(model.intervals)
    if top > 255:
        raise ValueError(f"ROI class id {top} does not fit the 8-bit label PGM (at most 255)")
    labels = classify_parallelepiped(bands, model)
    # the reference is checked before the label map is written, and freed
    # before the write's temporaries are made
    accuracy = None
    if args.truth:
        accuracy = overall_accuracy(labels, _load_single(args.truth, "--truth"))
    save_pgm(labels, args.out_path, 255)
    if accuracy is not None:
        _emit_report([("overall_accuracy", repr(accuracy))])
    return 0


def _cmd_synth(args):
    with open(args.spec) as fh:
        spec = parse_scene_spec(fh.read())
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    _check_output_bands(spec.band_count, args.out_path)
    bands, truth = synth_scene(spec)
    _write_output(bands, args.out_path)
    if args.truth_out:
        _save_mask(truth.data != 0.0, args.truth_out)
    return 0


def _cmd_bench(args):
    w, h = args.size
    _emit_report(bench_mod.run_benchmark(w, h, args.iters, args.workers).items())
    return 0


def _checked(convert, accept, expected):
    """An argparse type: ``convert(text)`` if that raises no ``ValueError``
    and ``accept`` takes the value, else a usage error naming ``expected``."""
    def check(text):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return check


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_seed = _checked(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)")
_sigma_k = _checked(float, lambda v: math.isfinite(v) and v >= 0.0,
                    "a finite non-negative number")
_size = _checked(lambda text: [int(v) for v in text.lower().split("x")],
                 lambda wh: len(wh) == 2 and min(wh) >= 1,
                 "WIDTHxHEIGHT in positive integers, like 2048x2048")


def _add_engine_flags(p):
    p.add_argument("--boundary", default="mirror", choices=[b.value for b in Boundary])
    p.add_argument("--workers", type=_positive_int, default=None)
    # not an option, and no handler reads it: only perfbench reads this default
    p.set_defaults(tile_height=DEFAULT_TILE_HEIGHT)


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
    p.add_argument("--validate", action="store_true",
                   help="print the stencil's checks and Jacobi stability as key=value lines")
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
    p.add_argument("--seed", type=_seed, default=None, help="override the spec seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="reference vs tiled engine throughput")
    p.add_argument("--size", type=_size, default="2048x2048")
    p.add_argument("--iters", type=_positive_int, default=3)
    p.add_argument("--workers", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: end quietly, and point stdout at devnull
        # so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"biharm: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"biharm: error: out of memory: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    # a warning is one stderr line, without the source file and line
    warnings.formatwarning = lambda message, *_, **__: f"biharm: warning: {message}\n"
    return run()


if __name__ == "__main__":
    sys.exit(main())
