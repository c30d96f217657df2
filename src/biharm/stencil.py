"""Closed-form high-pass stencils: the 5x5 biharmonic template and the 3x3 Laplacian."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import _is_int


@dataclass(frozen=True, eq=False)
class Stencil:
    """Square odd-sized coefficient grid plus the grid increments that generated it.

    ``coeffs[q + radius, p + radius]`` is the weight applied to the sample at
    column offset ``p`` and row offset ``q``.
    """

    coeffs: np.ndarray
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if not (0 < self.lx < np.inf and 0 < self.ly < np.inf):
            raise ValueError(
                f"increments must be positive and finite, got lx={self.lx}, ly={self.ly}"
            )
        arr = np.asarray(self.coeffs, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 == 0:
            raise ValueError(f"coefficient grid must be square with an odd side, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def radius(self) -> int:
        return len(self.coeffs) // 2

    def coeff(self, p: int, q: int) -> float:
        if not (_is_int(p) and _is_int(q)):
            raise ValueError(f"offsets must be integers, got p={p!r}, q={q!r}")
        if max(abs(p), abs(q)) > self.radius:
            raise ValueError(f"offset ({p}, {q}) lies outside the stencil's radius {self.radius}")
        return float(self.coeffs[q + self.radius, p + self.radius])


def biharmonic_stencil(lx: float = 1.0, ly: float = 1.0) -> Stencil:
    """The optimal 5x5 smoothing template for grid increments (lx, ly).

    Applying it to an image approximates the biharmonic operator; at
    lx = ly = 1 the grid is the integer template with center 20.
    """
    if not (0 < lx < np.inf and 0 < ly < np.inf):
        raise ValueError(f"increments must be positive and finite, got lx={lx}, ly={ly}")
    # numpy scalars let an underflowed power divide to inf instead of raising
    with np.errstate(all="ignore"):
        lx2, ly2 = np.float64(lx) * lx, np.float64(ly) * ly
        lx4, ly4 = lx2 * lx2, ly2 * ly2
        ex, ey, diag = 1.0 / lx4, 1.0 / ly4, 2.0 / (lx2 * ly2)
        ax = -4.0 * (lx2 + ly2) / (lx4 * ly2)
        ay = -4.0 * (lx2 + ly2) / (lx2 * ly4)
        center = 2.0 * (3.0 * lx4 + 3.0 * ly4 + 4.0 * lx2 * ly2) / (lx4 * ly4)
    c = np.array([[0, 0, ey, 0, 0],
                  [0, diag, ay, diag, 0],
                  [ex, ax, center, ax, ex],
                  [0, diag, ay, diag, 0],
                  [0, 0, ey, 0, 0]])
    if not np.isfinite(c).all():
        raise ValueError(f"increments lx={lx}, ly={ly} give non-finite coefficients")
    return Stencil(c, lx, ly)


def laplacian_baseline() -> Stencil:
    """3x3 high-pass filter: center 8, all eight neighbors -1."""
    c = np.full((3, 3), -1.0)
    c[1, 1] = 8.0
    return Stencil(c)


def monomial_response(s: Stencil, u: int, v: int) -> float:
    """Stencil applied to x^u * y^v, evaluated at the origin by brute-force sum."""
    if not (_is_int(u) and _is_int(v)):
        raise ValueError(f"powers must be integers, got u={u!r}, v={v!r}")
    if u < 0 or v < 0:
        raise ValueError("powers must be non-negative")
    if u + v > 7:
        raise ValueError(f"total degree {u + v} exceeds 7")
    offsets = np.arange(-s.radius, s.radius + 1, dtype=np.float64)
    px = (offsets * s.lx) ** u if u else np.ones_like(offsets)
    qy = (offsets * s.ly) ** v if v else np.ones_like(offsets)
    # coeffs rows index q, columns index p
    return float(np.sum(s.coeffs * np.outer(qy, px)))


def symbol(s: Stencil, theta_y: np.ndarray, theta_x: np.ndarray) -> np.ndarray:
    """The stencil's Fourier symbol A(theta) = sum c_pq cos(p theta_x + q theta_y)
    on the grid of the 1-D frequencies ``theta_y`` (rows) and ``theta_x``
    (columns)."""
    offsets = np.arange(-s.radius, s.radius + 1)
    cos_y, sin_y = np.cos(np.outer(offsets, theta_y)), np.sin(np.outer(offsets, theta_y))
    cos_x, sin_x = np.cos(np.outer(offsets, theta_x)), np.sin(np.outer(offsets, theta_x))
    # cos(a + b) = cos a cos b - sin a sin b separates the 2-D sum into
    # products over rows (q, theta_y) and columns (p, theta_x)
    return cos_y.T @ s.coeffs @ cos_x - sin_y.T @ s.coeffs @ sin_x


# frequencies per half axis at which symbol_range samples the symbol
SYMBOL_GRID = 64


def symbol_range(s: Stencil) -> tuple[float, float]:
    """Least and greatest value of the stencil's Fourier symbol A, ``symbol``.

    A is sampled at theta = pi k / SYMBOL_GRID, |k| <= SYMBOL_GRID, on each
    axis, so 0 and pi are always included: for the biharmonic template the
    minimum sits at (0, 0) and the maximum at (pi, pi). On a periodic grid A
    is the stencil's eigenvalue for every stencil symmetric under
    (p, q) -> (-p, -q), which all templates of this library are (local
    Fourier analysis; Trottenberg, Oosterlee & Schueller, Multigrid, 2001).
    """
    theta = np.linspace(-np.pi, np.pi, 2 * SYMBOL_GRID + 1)
    a = symbol(s, theta, theta)
    return float(a.min()), float(a.max())


def jacobi_range(s: Stencil, omega: float = 1.0) -> tuple[float, float]:
    """Least and greatest factor 1 - omega A(theta)/center by which one Jacobi
    sweep damped by ``omega`` multiplies a frequency, A as in ``symbol_range``:
    [-2.2, 1] for the unit biharmonic template at omega = 1, NaN for a zero
    center. Repeated sweeps stay bounded only while both lie in [-1, 1]."""
    center = s.coeff(0, 0)
    if center == 0.0:
        return float("nan"), float("nan")
    return tuple(sorted(1.0 - omega * a / center for a in symbol_range(s)))


def omega_auto(s: Stencil) -> float:
    """The Jacobi damping center / A*, with A* the max A of ``symbol_range``
    for a positive center and its min A for a negative one: it puts the least
    factor of ``jacobi_range`` at 0, and ``2 * omega_auto(s)`` is the
    stability bound, at which that factor is -1. NaN for a zero center."""
    center = s.coeff(0, 0)
    if center == 0.0:
        return float("nan")
    a_min, a_max = symbol_range(s)
    return center / (a_max if center > 0.0 else a_min)


@dataclass(frozen=True)
class ValidationReport:
    """``symbol_range`` is (min A, max A) of the Fourier symbol and
    ``jacobi_range`` the factor range of one plain (omega = 1) Jacobi sweep;
    see the functions of those names."""

    zero_sum_residual: float
    max_symmetry_violation: float
    symbol_range: tuple
    jacobi_range: tuple
    monomial_responses: dict
    passed: bool


def validate_stencil(s: Stencil) -> ValidationReport:
    """Check zero sum, axis symmetry, and annihilation of cubics, and report
    the Fourier symbol range and the plain Jacobi amplification range.

    Residual budgets are relative to the largest coefficient magnitude so the
    check is meaningful across the 1/(lx^4 ly^4) coefficient scales.
    """
    scale = max(1.0, float(np.max(np.abs(s.coeffs))))
    zero_sum = abs(float(np.sum(s.coeffs)))
    sym = max(
        float(np.max(np.abs(s.coeffs - s.coeffs[::-1, :]))),
        float(np.max(np.abs(s.coeffs - s.coeffs[:, ::-1]))),
    )
    responses = {}
    cubic_ok = True
    for total in range(5):
        for u in range(total + 1):
            v = total - u
            resp = monomial_response(s, u, v)
            responses[(u, v)] = resp
            if total <= 3 and abs(resp) >= 1e-10 * scale:
                cubic_ok = False
    passed = zero_sum < 1e-12 * scale and sym < 1e-12 * scale and cubic_ok
    return ValidationReport(
        zero_sum_residual=zero_sum,
        max_symmetry_violation=sym,
        symbol_range=symbol_range(s),
        jacobi_range=jacobi_range(s),
        monomial_responses=responses,
        passed=passed,
    )
