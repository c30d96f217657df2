"""Biharmonic smoothing stencil, deterministic convolution, and anomaly detection."""

import os
import sys

# biharm runs its own tile threads. Its one BLAS call, the small product in
# stencil.symbol_range, is below OpenBLAS's threading threshold, so the pool
# that numpy starts on import (one thread per CPU) is pure start-up cost in
# every process. OpenBLAS reads this variable once, when numpy loads: a
# program that imported numpy first, or set the variable, keeps its setting.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .convolve import Boundary, convolve, convolve_reference
from .formats import (
    FormatError,
    UnsupportedFormatError,
    load_bandset,
    load_pgm,
    save_bandset,
    save_pgm,
)
from .pipeline import (
    AnomalyMap,
    ClassModel,
    DetectionMetrics,
    anomaly_highpass,
    anomaly_residual,
    classify_parallelepiped,
    compare_detectors,
    detector_metrics,
    fit_parallelepiped,
    overall_accuracy,
    ranking_auc,
    smooth_jacobi,
    threshold_mask,
)
from .raster import BandSet, Raster
from .scene import Disk, Rect, SceneSpec, parse_scene_spec, synth_scene
from .stencil import (
    Monomial,
    Stencil,
    ValidationReport,
    biharmonic_stencil,
    laplacian_baseline,
    monomial_response,
    symbol_range,
    validate_stencil,
)

__version__ = "0.1.0"

__all__ = [
    "AnomalyMap",
    "BandSet",
    "Boundary",
    "ClassModel",
    "DetectionMetrics",
    "Disk",
    "FormatError",
    "Monomial",
    "Raster",
    "Rect",
    "SceneSpec",
    "Stencil",
    "UnsupportedFormatError",
    "ValidationReport",
    "anomaly_highpass",
    "anomaly_residual",
    "biharmonic_stencil",
    "classify_parallelepiped",
    "compare_detectors",
    "convolve",
    "convolve_reference",
    "detector_metrics",
    "fit_parallelepiped",
    "laplacian_baseline",
    "load_bandset",
    "load_pgm",
    "monomial_response",
    "overall_accuracy",
    "parse_scene_spec",
    "ranking_auc",
    "save_bandset",
    "save_pgm",
    "smooth_jacobi",
    "symbol_range",
    "synth_scene",
    "threshold_mask",
    "validate_stencil",
]
