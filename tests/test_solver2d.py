import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adr_lab import (
    ConfigurationError,
    DivergenceError,
    Field,
    Grid,
    StabilityError,
    TransportParams,
    l2_norm,
    run2d,
    sample_initial_2d,
    stability2d,
    step2d,
)
from adr_lab.cli import bundled_config_path, parse_config
from adr_lab.snapshots import snapshot_steps
from oracles import exact_stencil


def naive_step(values, u, k, dx, dy, dt):
    """Independent double-loop reference for one centered explicit step."""
    rx, ry = k[0] * dt / dx**2, k[1] * dt / dy**2
    px, py = u[0] * dx / (2 * k[0]) if k[0] else 0.0, \
             u[1] * dy / (2 * k[1]) if k[1] else 0.0
    out = np.zeros_like(values)
    ns, nx, ny = values.shape
    for s in range(ns):
        for i in range(1, nx - 1):
            for j in range(1, ny - 1):
                out[s, i, j] = (
                    (1 - 2 * rx - 2 * ry) * values[s, i, j]
                    + (rx - px * rx) * values[s, i + 1, j]
                    + (rx + px * rx) * values[s, i - 1, j]
                    + (ry - py * ry) * values[s, i, j + 1]
                    + (ry + py * ry) * values[s, i, j - 1]
                )
    return out


def exact_centered(values, u, k, dx, dy, dt, steps):
    """The centred scheme after `steps` steps from (nx, ny) values, in closed form.

    Along each axis the weight is xp on c[i+1] and xm on c[i-1]; see
    exact_stencil.
    """
    rx, ry = k[0] * dt / dx**2, k[1] * dt / dy**2
    px, py = u[0] * dx / (2 * k[0]), u[1] * dy / (2 * k[1])
    xp, xm, yp, ym = rx - px * rx, rx + px * rx, ry - py * ry, ry + py * ry
    return exact_stencil(values, 1 - 2 * rx - 2 * ry, (xm, ym), (xp, yp), steps)


def _assert_run_matches_exact(init, params, dt, t_end, times):
    series = run2d(init, params, dt, t_end, times)
    for step, field in zip(series.steps, series.fields):
        exact = exact_centered(init.values[0], params.u, params.k,
                               *init.grid.spacing, dt, step)
        err = np.abs(field.values[0] - exact).max() / np.abs(exact).max()
        assert err < 1e-12, (step, err)


def test_run_matches_exact_discrete_solution_benchmark_2d():
    cfg = parse_config(bundled_config_path("benchmark-2d.yaml"))
    init = sample_initial_2d(cfg.grid, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    _assert_run_matches_exact(init, cfg.transport, cfg.dt, cfg.t_end, cfg.snapshot_times)


def test_run_matches_exact_discrete_solution_random_stable():
    # rho**(n-1) <= 1e3 keeps the closed form well conditioned: its weights
    # span rho**n, and its own rounding grows with them.
    rng = np.random.default_rng(2007)
    cases = 0
    while cases < 24:
        nx, ny = (int(n) for n in rng.integers(5, 31, size=2))
        grid = Grid((nx, ny), (1.0, 1.0))
        dx, dy = grid.spacing
        k = rng.uniform(0.05, 1.0, size=2)
        u = rng.uniform(0.0, 0.95, size=2) * 2 * k / (dx, dy)
        p = u * (dx, dy) / (2 * k)
        rho = np.sqrt((1 + p) / (1 - p))
        if rho[0] ** (nx - 1) > 1e3 or rho[1] ** (ny - 1) > 1e3:
            continue
        dt = float(rng.uniform(0.1, 0.95)) / (2 * k[0] / dx**2 + 2 * k[1] / dy**2)
        params = TransportParams(u=tuple(u), k=tuple(k))
        assert stability2d(params, grid, dt).ok
        values = rng.uniform(0.0, 1.0, size=(1, nx, ny))
        values[:, [0, -1], :] = values[:, :, [0, -1]] = 0.0
        steps = int(rng.integers(1, 300))
        _assert_run_matches_exact(Field(grid, values), params, dt, steps * dt,
                                  [steps * dt])
        cases += 1


def test_norm_ratio_tends_to_leading_eigenvalue_benchmark_2d():
    # The paper's asymptotic decay in discrete form: over dn steps the L2 norm
    # shrinks by a factor that tends to lambda_11**dn, the leading eigenvalue
    # of the scheme (see exact_centered), and the relative excess over it
    # dies like (lambda_12 / lambda_11)**dn, the ratio of the next mode.
    cfg = parse_config(bundled_config_path("benchmark-2d.yaml"))
    init = sample_initial_2d(cfg.grid, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    dn = 500
    times = [n * dn * cfg.dt for n in range(1, 9)]
    series = run2d(init, cfg.transport, cfg.dt, times[-1], times)
    assert series.steps == [n * dn for n in range(1, 9)]
    c0, xp, xm, yp, ym = stability2d(cfg.transport, cfg.grid, cfg.dt).coefficients
    nx, ny = cfg.grid.shape
    lam11, lam12 = (c0 + 2 * np.sqrt(xm * xp) * np.cos(np.pi / (nx - 1))
                    + 2 * np.sqrt(ym * yp) * np.cos(q * np.pi / (ny - 1))
                    for q in (1, 2))
    norms = [l2_norm(f) for f in series.fields]
    excess = [b / a / lam11**dn - 1.0 for a, b in zip(norms, norms[1:])]
    assert all(b < a for a, b in zip(excess, excess[1:])), excess
    assert 0.0 < excess[-1] < 1e-2, excess
    quotients = [b / a for a, b in zip(excess, excess[1:])]
    np.testing.assert_allclose(quotients[-3:], (lam12 / lam11) ** dn, rtol=0.05)


def test_stability_numbers_reference_case():
    grid = Grid((46, 46), (1.0, 1.0))
    rep = stability2d(TransportParams(u=(5.0, 5.0), k=(0.5, 0.5)), grid, 1e-4)
    assert rep.numbers["Rx"] == pytest.approx(0.10125, abs=1e-9)
    assert rep.numbers["Px"] == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert rep.ok and rep.violated is None


def test_stability_violations_named():
    grid = Grid((46, 46), (1.0, 1.0))
    params = TransportParams(u=(5.0, 5.0), k=(0.5, 0.5))
    rep = stability2d(params, grid, 1e-2)  # Rx = 10.125
    assert not rep.ok and rep.violated == "1-2Rx-2Ry > 0"
    sharp = stability2d(TransportParams(u=(500.0, 5.0), k=(0.5, 0.5)), grid, 1e-6)
    assert not sharp.ok and sharp.violated == "Px < 1"


def test_stability_rejects_nonpositive_dt():
    params = TransportParams(u=(5.0, 5.0), k=(0.5, 0.5))
    for dt in (0.0, -1e-4):
        with pytest.raises(ConfigurationError, match="dt must be positive"):
            stability2d(params, Grid((11, 11), (1.0, 1.0)), dt)


def test_stability_advection_free_peclet_is_zero():
    grid = Grid((11, 11), (1.0, 1.0))
    rep = stability2d(TransportParams(u=(0.0, 0.0), k=(0.0, 0.0)), grid, 1.0)
    assert rep.numbers["Px"] == 0.0 and rep.numbers["Py"] == 0.0
    assert rep.numbers["Rx"] == 0.0
    assert rep.ok


def test_step_matches_naive_loop_bitwise():
    grid = Grid((9, 8), (1.0, 1.0))
    params = TransportParams(u=(5.0, 3.0), k=(0.5, 0.4))
    dt = 1e-4
    rng = np.random.default_rng(7)
    values = rng.uniform(0.0, 1.0, size=(2, 9, 8))
    values[:, 0, :] = values[:, -1, :] = values[:, :, 0] = values[:, :, -1] = 0.0
    field = Field(grid, values.copy())
    stepped = step2d(field, stability2d(params, grid, dt))
    expected = naive_step(values, params.u, params.k, *grid.spacing, dt)
    np.testing.assert_array_equal(stepped.values, expected)


def test_step_is_double_buffered():
    # in-place (Gauss-Seidel style) sweeps would couple cells within a step;
    # the naive oracle above reads only old values, so equality covers it,
    # and the input field must not be mutated
    grid = Grid((6, 6), (1.0, 1.0))
    params = TransportParams(u=(1.0, 1.0), k=(0.5, 0.5))
    values = np.zeros((1, 6, 6))
    values[0, 2, 2] = 1.0
    field = Field(grid, values.copy())
    step2d(field, stability2d(params, grid, 1e-3))
    np.testing.assert_array_equal(field.values, values)


def test_step_into_out_writes_only_its_interior():
    grid = Grid((7, 6), (1.0, 1.0))
    rep = stability2d(TransportParams(u=(1.0, 2.0), k=(0.5, 0.4)), grid, 1e-2)
    rng = np.random.default_rng(13)
    field = Field(grid, rng.uniform(0.0, 1.0, size=(2, 7, 6)))
    buf = Field(grid, rng.uniform(2.0, 3.0, size=(2, 7, 6)))
    fresh = step2d(field, rep)
    assert not fresh.values[:, [0, -1]].any() and not fresh.values[:, :, [0, -1]].any()
    expected = buf.values.copy()
    expected[:, 1:-1, 1:-1] = fresh.values[:, 1:-1, 1:-1]
    assert step2d(field, rep, out=buf) is buf
    np.testing.assert_array_equal(buf.values, expected)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_maximum_principle_random_stable_configs(seed):
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(5, 20))
    ny = int(rng.integers(5, 20))
    k = float(rng.uniform(0.05, 2.0))
    grid = Grid((nx, ny), (1.0, 1.0))
    dx, dy = grid.spacing
    # u below the Peclet limit, dt below the diffusion limit
    u = float(rng.uniform(0.0, 0.95)) * 2 * k / max(dx, dy)
    dt = float(rng.uniform(0.1, 0.95)) / (2 * k / dx**2 + 2 * k / dy**2)
    params = TransportParams(u=(u, u), k=(k, k))
    rep = stability2d(params, grid, dt)
    assert rep.ok
    values = rng.uniform(0.0, 10.0, size=(1, nx, ny))
    field = Field(grid, values)
    from adr_lab import zero_dirichlet
    zero_dirichlet(field)
    m0 = field.values.max()
    for _ in range(5):
        field = step2d(field, rep)
        assert field.values.min() >= 0.0
        assert field.values.max() <= m0 * (1 + 1e-14)


def test_snapshot_steps_rounding():
    assert snapshot_steps([0.0, 0.05, 0.09, 0.12], 1e-4, 0.12) == [0, 500, 900, 1200]
    assert snapshot_steps([0.0, 20.0, 600.0], 1.0, 600.0) == [0, 20, 600]


def test_snapshot_steps_validation():
    with pytest.raises(ConfigurationError):
        snapshot_steps([0.09, 0.05], 1e-4, 0.12)  # unsorted
    with pytest.raises(ConfigurationError):
        snapshot_steps([0.2], 1e-4, 0.12)  # beyond t_end


def test_run_records_requested_snapshots():
    grid = Grid((24, 24), (1.0, 1.0))
    params = TransportParams(u=(5.0, 5.0), k=(0.5, 0.5))
    init = sample_initial_2d(grid, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    series = run2d(init, params, 2e-4, 0.05, [0.0, 0.02, 0.05])
    assert series.steps == [0, 100, 250]
    assert series.times == [0.0, 100 * 2e-4, 250 * 2e-4]
    assert len(series.fields) == 3
    np.testing.assert_array_equal(series.fields[0].values, init.values)
    assert series.stability.ok


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_detects_divergence():
    grid = Grid((12, 12), (1.0, 1.0))
    params = TransportParams(u=(0.0, 0.0), k=(0.5, 0.5))
    init = Field.zeros(grid)
    init.values[0, 5, 5] = 1e300
    with pytest.raises(DivergenceError) as exc:
        run2d(init, params, 1.0, 50.0, [50.0], override_stability=True)
    assert exc.value.step >= 1
    where = re.search(r"after step (\d+) .* at species (\d+), cell \((\d+), (\d+)\)",
                      str(exc.value))
    assert where, str(exc.value)
    step, species, i, j = map(int, where.groups())
    assert step == exc.value.step and species == 0
    assert 1 <= i <= 10 and 1 <= j <= 10


def test_run_unstable_without_override_raises():
    grid = Grid((12, 12), (1.0, 1.0))
    params = TransportParams(u=(0.0, 0.0), k=(0.5, 0.5))
    with pytest.raises(StabilityError) as exc:
        run2d(Field.zeros(grid), params, 1.0, 10.0, [10.0])
    assert exc.value.report.violated == "1-2Rx-2Ry > 0"


def test_run_equals_repeated_steps_from_nonzero_boundary():
    # the first step reads the initial field's boundary; the buffers that
    # run_steps swaps must give every later step a zero boundary
    grid = Grid((7, 6), (6.0, 5.0))
    params = TransportParams(u=(0.3, 0.2), k=(0.2, 0.2))
    init = Field(grid, np.random.default_rng(31).uniform(0.5, 1.0, size=(2, 7, 6)))
    series = run2d(init, params, 0.5, 2.0, [2.0])
    rep, field = stability2d(params, grid, 0.5), init
    for _ in range(4):
        field = step2d(field, rep)
    np.testing.assert_array_equal(series.fields[-1].values, field.values)


def test_repeated_runs_bitwise_identical():
    grid = Grid((20, 20), (1.0, 1.0))
    params = TransportParams(u=(5.0, 5.0), k=(0.5, 0.5))
    init = sample_initial_2d(grid, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    a = run2d(init, params, 1e-4, 0.02, [0.02])
    b = run2d(init, params, 1e-4, 0.02, [0.02])
    np.testing.assert_array_equal(a.fields[-1].values, b.fields[-1].values)
