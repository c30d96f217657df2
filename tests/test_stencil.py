import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biharm.stencil import (
    Stencil,
    biharmonic_stencil,
    jacobi_range,
    laplacian_baseline,
    monomial_response,
    omega_auto,
    symbol_range,
    validate_stencil,
)

TEMPLATE_UNIT = np.array(
    [
        [0, 0, 1, 0, 0],
        [0, 2, -8, 2, 0],
        [1, -8, 20, -8, 1],
        [0, 2, -8, 2, 0],
        [0, 0, 1, 0, 0],
    ],
    dtype=float,
)

increments = st.floats(min_value=0.25, max_value=8.0, allow_nan=False)


def test_unit_template_exact():
    s = biharmonic_stencil(1.0, 1.0)
    assert s.radius == 2
    assert np.array_equal(s.coeffs, TEMPLATE_UNIT)


def test_scaling_by_two():
    s = biharmonic_stencil(2.0, 2.0)
    assert np.array_equal(s.coeffs, TEMPLATE_UNIT / 16.0)
    assert s.coeff(0, 0) == 1.25


def test_anisotropic_increments():
    s = biharmonic_stencil(1.0, 2.0)
    assert s.coeff(0, 0) == 8.375
    assert s.coeff(2, 0) == s.coeff(-2, 0) == 1.0
    assert s.coeff(0, 2) == s.coeff(0, -2) == 0.0625
    assert s.coeff(1, 1) == s.coeff(-1, 1) == s.coeff(1, -1) == 0.5
    assert s.coeff(1, 0) == s.coeff(-1, 0) == -5.0
    assert s.coeff(0, 1) == s.coeff(0, -1) == -1.25
    assert s.coeff(2, 2) == 0.0


@pytest.mark.parametrize("lx,ly", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.5)])
def test_nonpositive_increment_rejected(lx, ly):
    with pytest.raises(ValueError):
        biharmonic_stencil(lx, ly)


@pytest.mark.parametrize("lx,ly", [
    (1e-200, 1.0), (1.0, 1e-100), (1e-80, 1.0), (1e100, 1.0),
    (float("inf"), 1.0), (1.0, float("inf")), (float("nan"), 1.0),
])
def test_non_finite_stencil_rejected(lx, ly):
    with pytest.raises(ValueError, match="finite"):
        biharmonic_stencil(lx, ly)


_NAN_GRID = np.full((3, 3), np.nan)
_INF_CENTER = np.zeros((3, 3))
_INF_CENTER[1, 1] = np.inf


@pytest.mark.parametrize("coeffs,lx,ly", [
    (_NAN_GRID, 1.0, 1.0),
    (_INF_CENTER, 1.0, 1.0),
    (-_INF_CENTER, 1.0, 1.0),
    (np.zeros((3, 3)), float("inf"), 1.0),
    (np.zeros((3, 3)), 1.0, float("inf")),
    (np.zeros((3, 3)), float("nan"), 1.0),
    (_NAN_GRID, float("inf"), 1.0),
], ids=["nan-coeffs", "inf-center", "minus-inf-center", "inf-lx", "inf-ly", "nan-lx",
        "nan-coeffs-inf-lx"])
def test_hand_built_non_finite_stencil_rejected(coeffs, lx, ly):
    with pytest.raises(ValueError, match="finite"):
        Stencil(coeffs, lx, ly)


@pytest.mark.parametrize("shape", [(4, 4), (3, 5), (3,)])
def test_hand_built_stencil_bad_shape_rejected(shape):
    with pytest.raises(ValueError) as info:
        Stencil(np.zeros(shape))
    assert str(info.value) == f"coefficient grid must be square with an odd side, got {shape}"


def test_laplacian_baseline():
    s = laplacian_baseline()
    assert s.radius == 1
    expected = np.array([[-1, -1, -1], [-1, 8, -1], [-1, -1, -1]], dtype=float)
    assert np.array_equal(s.coeffs, expected)
    assert s.coeffs.sum() == 0.0
    # annihilates linear ramps
    for u, v in ((1, 0), (0, 1)):
        assert monomial_response(s, u, v) == 0.0


def test_monomial_response_quartics():
    s = biharmonic_stencil(1.0, 1.0)
    assert monomial_response(s, 4, 0) == 24.0
    assert monomial_response(s, 0, 4) == 24.0
    assert monomial_response(s, 2, 2) == 8.0


def test_monomial_response_cubics_zero():
    s = biharmonic_stencil(1.0, 1.0)
    for total in range(4):
        for u in range(total + 1):
            assert monomial_response(s, u, total - u) == pytest.approx(0.0, abs=1e-10)


def test_monomial_degree_cap():
    s = biharmonic_stencil(1.0, 1.0)
    with pytest.raises(ValueError):
        monomial_response(s, 4, 4)
    with pytest.raises(ValueError) as info:
        monomial_response(s, -1, 0)
    assert str(info.value) == "powers must be non-negative"
    monomial_response(s, 4, 3)  # degree 7 allowed
    assert monomial_response(s, np.int64(4), np.int32(0)) == monomial_response(s, 4, 0)


@pytest.mark.parametrize("u,v", [(1.5, 0), (0, 2.0), (np.float64(1.0), 1), (True, 0), (0, True)])
def test_monomial_non_integer_power_rejected(u, v):
    with pytest.raises(ValueError) as info:
        monomial_response(biharmonic_stencil(1.0, 1.0), u, v)
    assert str(info.value) == f"powers must be integers, got u={u!r}, v={v!r}"


@pytest.mark.parametrize("p,q", [(-3, 0), (3, 0), (0, -3), (2, 5), (1.5, 0), (0, True)])
def test_coeff_outside_the_grid_rejected(p, q):
    s = biharmonic_stencil(1.0, 1.0)
    with pytest.raises(ValueError) as info:
        s.coeff(p, q)
    if type(p) is type(q) is int:
        assert str(info.value) == f"offset ({p}, {q}) lies outside the stencil's radius 2"
    else:  # a float or a bool is no offset, also inside the radius
        assert str(info.value) == f"offsets must be integers, got p={p!r}, q={q!r}"
    assert s.coeff(np.int64(2), np.int32(0)) == s.coeff(2, 0)


def test_validate_passes():
    assert validate_stencil(biharmonic_stencil(1.0, 1.0)).passed
    assert validate_stencil(biharmonic_stencil(1.0, 3.0)).passed
    assert validate_stencil(laplacian_baseline()).max_symmetry_violation == 0.0


def test_symbol_report_unit_biharmonic():
    report = validate_stencil(biharmonic_stencil(1.0, 1.0))
    assert report.symbol_range == (0.0, 64.0)
    assert report.jacobi_range[0] == pytest.approx(-2.2, rel=1e-12)
    assert report.jacobi_range[1] == 1.0


def test_symbol_report_laplacian_baseline():
    report = validate_stencil(laplacian_baseline())
    assert report.symbol_range == (0.0, 12.0)
    assert report.jacobi_range == pytest.approx((-0.5, 1.0), rel=1e-12)


def test_symbol_report_zero_center():
    report = validate_stencil(Stencil(np.zeros((3, 3))))
    assert report.symbol_range == (0.0, 0.0)
    assert all(np.isnan(report.jacobi_range))


@pytest.mark.parametrize("coeffs,omega,expected", [
    (TEMPLATE_UNIT, 0.3125, (0.0, 1.0)),
    (TEMPLATE_UNIT, 0.5, (-0.6, 1.0)),
    # negated, the symbol and the center change sign: the factors do not
    (-TEMPLATE_UNIT, 1.0, (-2.2, 1.0)),
    # symbol from -4 to 8 with center 4
    (np.array([[-1.0, -1, -1], [-1, 4, -1], [-1, -1, -1]]), 0.5, (0.0, 1.5)),
])
def test_jacobi_range_of_damped_sweeps(coeffs, omega, expected):
    s = Stencil(coeffs)
    assert jacobi_range(s, omega) == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert validate_stencil(s).jacobi_range == jacobi_range(s, 1.0)


@pytest.mark.parametrize("s,expected", [
    (biharmonic_stencil(1.0, 1.0), 0.3125),
    (laplacian_baseline(), 2.0 / 3.0),
    # negated, center and symbol change sign: the same damping
    (Stencil(-TEMPLATE_UNIT), 0.3125),
])
def test_omega_auto(s, expected):
    assert omega_auto(s) == expected


def test_omega_auto_zero_center():
    assert np.isnan(omega_auto(Stencil(np.zeros((3, 3)))))


@settings(max_examples=60, deadline=None)
@given(increments, increments, st.sampled_from([1.0, -1.0]))
def test_omega_auto_damps_the_highest_frequency_to_0(lx, ly, sign):
    s = biharmonic_stencil(lx, ly)
    s = Stencil(sign * s.coeffs, lx, ly)
    least, greatest = jacobi_range(s, omega_auto(s))
    assert least == pytest.approx(0.0, abs=1e-12)
    assert greatest == pytest.approx(1.0, abs=1e-12)
    # twice that damping is the stability bound
    assert jacobi_range(s, 2.0 * omega_auto(s))[0] == pytest.approx(-1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(increments, increments)
def test_symbol_max_is_squared_laplacian_peak(lx, ly):
    report = validate_stencil(biharmonic_stencil(lx, ly))
    peak = 16.0 * (1.0 / lx**2 + 1.0 / ly**2) ** 2
    assert report.symbol_range[1] == pytest.approx(peak, rel=1e-12)
    assert report.symbol_range[0] == pytest.approx(0.0, abs=1e-12 * peak)


def test_validate_catches_center_perturbation():
    s = biharmonic_stencil(1.0, 1.0)
    bad = np.array(s.coeffs)
    bad[2, 2] += 1.0
    report = validate_stencil(Stencil(bad))
    assert not report.passed
    assert report.zero_sum_residual == 1.0


@pytest.mark.parametrize("lx,ly,digest", [
    (1.0, 2.0, "d35f1103ab51479156f8431b976b45b20cb280bca803e5ee0032a3c35f1be66b"),
    (0.5, 2.0, "cc2b08f9b4768beb202f6c0cc5dfd1110ef81b7b7a7fda183b91471b57ee26b3"),
    (1.307, 0.477, "b55fbfe26f64be261b6969547eb93726bbe6cc649c45c4ae85330927a3a3e4ae"),
    (1e-50, 1.0, "4acb3ac25e099b29d744971befe4cbd8765d66af92daa77cdf91953f598c2b85"),
])
def test_stencil_bytes_pinned(lx, ly, digest):
    coeffs = biharmonic_stencil(lx, ly).coeffs
    assert hashlib.sha256(coeffs.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("s,digest", [
    (biharmonic_stencil(1.0, 1.0), "c086dea7748ed064867a5e0d816a8dcab31d238c27b5ee2ce4f0f11cbd341898"),
    (Stencil(-TEMPLATE_UNIT), "e807d04e76e5a70c2a3db33112b47e186750b57e8a599503b2b28abd7aedd423"),
    (laplacian_baseline(), "edb4e2814c4062d7a770ac9979bb7033c7321248a33bf811161d21e0dbd35d49"),
    (biharmonic_stencil(1.0, 2.0), "1763e51bcde71ed223d16a395014a5a265e38eaa822be3590a85ef4ee9e47593"),
    (biharmonic_stencil(0.5, 2.0), "f7088d0bbc2937572622b6c71e22e078a7d2c53f9071b0ae0f96c30a4fefe8da"),
    (biharmonic_stencil(1.307, 0.477), "55184183daf0a70bc292917ad36569a8321e9800cf13144a00bbdde192099da0"),
    (biharmonic_stencil(1e-50, 1.0), "e2be38cc0e3aa1d5d4d8ac40afcf9b7ebd004205eb0b66716513ac8283459f6f"),
])
def test_symbol_figures_pinned(s, digest):
    """The bytes of symbol_range, jacobi_range and omega_auto, which the
    ``stencil --validate`` report prints, on the pinned stencils."""
    figures = np.array([*symbol_range(s), *jacobi_range(s), omega_auto(s)])
    assert hashlib.sha256(figures.tobytes()).hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(increments, increments)
def test_zero_sum_and_symmetry(lx, ly):
    s = biharmonic_stencil(lx, ly)
    scale = np.max(np.abs(s.coeffs))
    assert abs(s.coeffs.sum()) <= 1e-12 * scale
    assert np.array_equal(s.coeffs, s.coeffs[::-1, :])
    assert np.array_equal(s.coeffs, s.coeffs[:, ::-1])


@settings(max_examples=60, deadline=None)
@given(increments, increments)
def test_cubic_annihilation_and_quartic_exactness(lx, ly):
    s = biharmonic_stencil(lx, ly)
    span = max(2 * lx, 2 * ly)
    scale = np.max(np.abs(s.coeffs)) * max(1.0, span**3)
    for total in range(4):
        for u in range(total + 1):
            assert abs(monomial_response(s, u, total - u)) <= 1e-10 * scale
    assert monomial_response(s, 4, 0) == pytest.approx(24.0, rel=1e-9)
    assert monomial_response(s, 0, 4) == pytest.approx(24.0, rel=1e-9)
    assert monomial_response(s, 2, 2) == pytest.approx(8.0, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(increments, increments, st.floats(min_value=0.5, max_value=4.0))
def test_scaling_law(lx, ly, a):
    base = biharmonic_stencil(lx, ly).coeffs
    scaled = biharmonic_stencil(a * lx, a * ly).coeffs
    np.testing.assert_allclose(scaled, base / a**4, rtol=1e-12)
