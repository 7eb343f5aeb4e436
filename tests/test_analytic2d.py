import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adr_lab import (
    ConfigurationError,
    Grid,
    build_series,
    default_quad_points,
    sample_series,
)
from adr_lab.analytic2d import coefficient_rows
from oracles import eval_series, fourier_coefficient, numpy_sample_series

U, K = 5.0, 0.5
SINE = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)

# Leading coefficient for the product-of-sines profile with u=5, k=0.5.
# Closed form: A_11 = 4 * I(1)**2 with
# I(m) = integral of exp(-u x / 2k) sin(pi x) sin(m pi x) dx, evaluated
# independently by exact antiderivatives and adaptive quadrature.
A11_FROZEN = 0.014793754623467780


def test_leading_coefficient_frozen_value():
    a11 = fourier_coefficient(SINE, U, K, 1, 1)
    assert a11 == pytest.approx(A11_FROZEN, rel=1e-12)


def test_default_quadrature_resolution():
    assert default_quad_points(1, 1) == 16
    assert default_quad_points(3, 10) == 80
    assert default_quad_points(40, 40) == 320


def test_coefficients_orthogonality_without_advection():
    # u = 0 removes the exponential weight, so sin(2 pi x) sin(3 pi y)
    # projects onto exactly one mode
    f = lambda x, y: np.sin(2 * np.pi * x) * np.sin(3 * np.pi * y)
    assert fourier_coefficient(f, 0.0, K, 2, 3, quad_points=64) == \
        pytest.approx(1.0, abs=1e-13)
    for m, n in [(1, 1), (2, 2), (3, 3), (1, 3), (2, 4)]:
        assert abs(fourier_coefficient(f, 0.0, K, m, n, quad_points=64)) < 1e-13


def test_series_matches_heat_equation_closed_form():
    # u = 0, f = sin sin: solution is exp(-2 k pi^2 t) sin(pi x) sin(pi y)
    sol = build_series(SINE, 0.0, K, M=10, N=10)
    for t in (0.0, 0.01, 0.1):
        for (x, y) in [(0.5, 0.5), (0.25, 0.75), (0.1, 0.9)]:
            expected = math.exp(-2 * K * math.pi**2 * t) * SINE(x, y)
            assert eval_series(sol, t, x, y) == pytest.approx(expected, abs=1e-12)


def test_build_series_equals_per_coefficient_path():
    sol = build_series(SINE, U, K, M=6, N=6)
    for m in range(1, 7):
        for n in range(1, 7):
            direct = fourier_coefficient(
                SINE, U, K, m, n, quad_points=default_quad_points(6, 6)
            )
            assert sol.A[m - 1, n - 1] == pytest.approx(direct, rel=1e-13, abs=1e-16)


def test_term_order_sorted_by_decay_rate():
    sol = build_series(SINE, U, K, M=4, N=4)
    order = sol.term_order()
    keys = [m * m + n * n for m, n in order]
    assert keys == sorted(keys)
    assert len(order) == 16 and len(set(order)) == 16
    # fixed deterministic tie-break
    assert order == sol.term_order()


def test_terms_are_the_term_order_with_its_amplitudes_and_eigenvalues():
    sol = build_series(SINE, U, K, M=5, N=3)
    m, n, amplitudes, eigenvalues = sol.terms
    order = sol.term_order()
    assert list(zip(m.tolist(), n.tolist())) == order
    assert amplitudes.tobytes() == np.array([sol.A[i - 1, j - 1] for i, j in order]).tobytes()
    assert eigenvalues.tobytes() == np.array([sol.eigenvalue(*mn) for mn in order]).tobytes()
    assert sol.terms is sol.terms  # computed once per solution
    with pytest.raises(ValueError, match="read-only"):
        m[0] = 41


# at t = 0.09 the 40 x 40 series of u = 5, k = 0.5 has terms whose coefficient
# A_mn exp(lambda_mn t) underflows to exactly 0.0 and terms where it is subnormal
UNDERFLOW = dict(M=40, N=40, u=5.0, k=0.5, t=0.09)


def test_underflow_example_has_zero_and_subnormal_coefficients():
    sol = build_series(SINE, UNDERFLOW["u"], UNDERFLOW["k"], M=40, N=40)
    _, _, a, lam = sol.terms
    coef = np.array([ai * math.exp(li * UNDERFLOW["t"]) for ai, li in zip(a, lam)])
    assert (coef == 0.0).any()
    assert ((coef != 0.0) & (np.abs(coef) < np.finfo(float).tiny)).any()


@settings(max_examples=40, deadline=None)
@given(M=st.integers(1, 40), N=st.integers(1, 40), nx=st.integers(3, 40),
       ny=st.integers(3, 40), u=st.floats(0.0, 6.0), k=st.floats(0.3, 1.0),
       t=st.one_of(st.just(0.0), st.floats(0.0, 0.2), st.just(UNDERFLOW["t"])))
@example(nx=9, ny=7, **UNDERFLOW)
@example(nx=40, ny=39, **UNDERFLOW)
def test_compiled_sampler_matches_numpy_oracle_bitwise(M, N, nx, ny, u, k, t):
    grid = Grid((nx, ny + (ny == nx)), (1.0, 1.0))  # never square
    sol = build_series(SINE, u, k, M=M, N=N)
    got = sample_series(sol, grid, t).values
    expected = numpy_sample_series(sol, grid, t).values
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_non_square_grid_samples_the_series_at_its_nodes():
    # each axis takes the growth factor of its own coordinates
    sol = build_series(SINE, U, K, M=6, N=6)
    grid = Grid((9, 6), (1.0, 1.0))
    field = sample_series(sol, grid, 0.01)
    x, y = grid.coords()
    for i in range(9):
        for j in range(6):
            assert field.values[0, i, j] == pytest.approx(
                eval_series(sol, 0.01, x[i], y[j]), rel=1e-12, abs=1e-15)


def test_eigenvalue_formula():
    sol = build_series(SINE, U, K, M=2, N=2)
    expected = -K * (1 + 4) * math.pi**2 - U**2 / (2 * K)
    assert sol.eigenvalue(1, 2) == pytest.approx(expected, rel=1e-15)


def test_initial_profile_reconstruction_error():
    # truncation at M = N = 40 reconstructs the sharp advective profile to
    # well under 1e-3 at the domain centre
    sol = build_series(SINE, U, K, M=40, N=40)
    err = abs(eval_series(sol, 0.0, 0.5, 0.5) - SINE(0.5, 0.5))
    assert err < 1e-3


def test_initial_grid_residual_frozen():
    sol = build_series(SINE, U, K, M=40, N=40)
    grid = Grid((46, 46), (1.0, 1.0))
    from adr_lab import sample_initial_2d
    exact0 = sample_initial_2d(grid, SINE)
    approx0 = sample_series(sol, grid, 0.0)
    resid = float(np.abs(exact0.values - approx0.values).max())
    assert resid < 1.5e-3  # measured 1.4455e-3 on this grid


def test_sample_series_boundary_is_zero():
    sol = build_series(SINE, U, K, M=8, N=8)
    grid = Grid((9, 9), (1.0, 1.0))
    field = sample_series(sol, grid, 0.05)
    assert np.all(field.values[0, 0, :] == 0.0)
    assert np.all(field.values[0, -1, :] == 0.0)
    assert np.all(field.values[0, :, 0] == 0.0)
    assert np.all(field.values[0, :, -1] == 0.0)


def test_sample_series_requires_unit_square():
    sol = build_series(SINE, U, K, M=4, N=4)
    with pytest.raises(ConfigurationError):
        sample_series(sol, Grid((9, 9), (2.0, 1.0)), 0.0)


def test_series_decays_in_time():
    sol = build_series(SINE, U, K, M=20, N=20)
    grid = Grid((21, 21), (1.0, 1.0))
    norms = [float(np.abs(sample_series(sol, grid, t).values).max())
             for t in (0.0, 0.05, 0.12, 0.5)]
    assert norms == sorted(norms, reverse=True)
    assert norms[-1] < 1e-5  # strong damping from the u^2/2k eigenvalue shift


def test_coefficient_rows_layout():
    sol = build_series(SINE, U, K, M=3, N=2)
    rows = coefficient_rows(sol)
    assert rows.dtype == np.float64 and rows.shape == (6, 3)
    assert rows[0, :2].tolist() == [1, 1]
    assert all(a == sol.A[int(m) - 1, int(n) - 1] for m, n, a in rows)


def test_build_series_deterministic():
    a = build_series(SINE, U, K, M=12, N=12)
    b = build_series(SINE, U, K, M=12, N=12)
    np.testing.assert_array_equal(a.A, b.A)
    grid = Grid((17, 17), (1.0, 1.0))
    np.testing.assert_array_equal(
        sample_series(a, grid, 0.07).values, sample_series(b, grid, 0.07).values
    )
