import re

import numpy as np
import pytest

from adr_lab import (
    ConfigurationError,
    ConstantRate,
    DivergenceError,
    Field,
    Grid,
    ReactionNetwork,
    TransportParams,
    ozone_network,
    reaction_rates,
    run3d,
    stability3d,
    step3d,
)

NOON = 12 * 3600.0


def naive_step(values, u, k, spacing, dt, network=None, t=0.0):
    """Independent triple-loop upwind + centered-diffusion + chemistry step."""
    ns, nx, ny, nz = values.shape
    out = values.copy()
    adv = [u[a] * dt / spacing[a] for a in range(3)]
    dif = [k[a] * dt / spacing[a] ** 2 for a in range(3)]
    for s in range(ns):
        for i in range(1, nx - 1):
            for j in range(1, ny - 1):
                for m in range(1, nz - 1):
                    c = values[s]
                    out[s, i, j, m] += (
                        -adv[0] * (c[i, j, m] - c[i - 1, j, m])
                        - adv[1] * (c[i, j, m] - c[i, j - 1, m])
                        - adv[2] * (c[i, j, m] - c[i, j, m - 1])
                        + dif[0] * (c[i + 1, j, m] - 2 * c[i, j, m] + c[i - 1, j, m])
                        + dif[1] * (c[i, j + 1, m] - 2 * c[i, j, m] + c[i, j - 1, m])
                        + dif[2] * (c[i, j, m + 1] - 2 * c[i, j, m] + c[i, j, m - 1])
                    )
    if network is not None:
        for i in range(1, nx - 1):
            for j in range(1, ny - 1):
                for m in range(1, nz - 1):
                    r = reaction_rates(network, t, values[:, i, j, m], cell=(i, j, m))
                    out[:, i, j, m] += dt * r
    out[:, 0, :, :] = out[:, -1, :, :] = 0.0
    out[:, :, 0, :] = out[:, :, -1, :] = 0.0
    out[:, :, :, 0] = out[:, :, :, -1] = 0.0
    return out


def _box(n=101, L=1000.0):
    return Grid((n, n, n), (L, L, L))


def test_stability_numbers_reference_case():
    grid = _box()
    params = TransportParams(u=(1.0, 1.0, 1.0), k=(2e-5, 2e-5, 2e-5))
    rep = stability3d(params, grid, 1.0)
    assert rep.numbers["Rx"] == pytest.approx(2e-7, rel=1e-12)
    assert rep.numbers["cfl"] == pytest.approx(0.1, rel=1e-12)
    # combined constraint 2(Rx+Ry+Rz) + u*dt/dx summed over axes
    assert rep.numbers["combined"] == pytest.approx(6 * 2e-7 + 0.3, rel=1e-12)
    assert rep.ok and rep.violated is None


def test_stability_pure_advection_finite():
    # k = 0 gives an infinite cell Peclet number, but the product P*R is
    # u*dt/dx, so the combined constraint stays finite and meaningful
    grid = _box(11, 10.0)
    params = TransportParams(u=(0.5, 0.0, 0.0), k=(0.0, 0.0, 0.0))
    rep = stability3d(params, grid, 1.0)
    assert rep.numbers["combined"] == pytest.approx(0.5, rel=1e-12)
    assert rep.ok


def test_stability_cfl_cap():
    grid = _box(11, 10.0)
    params = TransportParams(u=(1.0, 0.0, 0.0), k=(0.0, 0.0, 0.0))
    rep = stability3d(params, grid, 0.95)
    assert not rep.ok  # cfl = 0.95 > alpha = 0.9
    assert stability3d(params, grid, 0.95, alpha=0.99).ok


def test_negative_velocity_rejected():
    grid = _box(5, 1.0)
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(0.0, 0.0, 0.0))
    object.__setattr__(params, "u", (-1.0, 0.0, 0.0))  # bypass the constructor
    with pytest.raises(ConfigurationError):
        step3d(Field.zeros(grid), params, grid, None, 0.0, 0.1)


def test_step_matches_naive_loop_bitwise_transport():
    grid = Grid((6, 5, 7), (6.0, 5.0, 7.0))
    params = TransportParams(u=(0.8, 0.3, 0.5), k=(0.1, 0.2, 0.05))
    dt = 0.2
    rng = np.random.default_rng(11)
    values = rng.uniform(0.0, 1.0, size=(2, 6, 5, 7))
    field = Field(grid, values.copy())
    stepped = step3d(field, params, grid, None, 0.0, dt)
    expected = naive_step(values, params.u, params.k,
                          grid.spacing, dt)
    np.testing.assert_array_equal(stepped.values, expected)


def test_step_matches_naive_loop_with_chemistry():
    grid = Grid((5, 5, 5), (50.0, 50.0, 50.0))
    params = TransportParams(u=(1.0, 1.0, 1.0), k=(2e-5, 2e-5, 2e-5))
    net = ozone_network(k2=1e-3, sigma2=5.0, source_cell=(1, 1, 1))
    dt = 0.5
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 2.0, size=(3, 5, 5, 5))
    field = Field(grid, values.copy())
    stepped = step3d(field, params, grid, net, NOON, dt)
    expected = naive_step(values, params.u, params.k,
                          grid.spacing, dt, network=net, t=NOON)
    np.testing.assert_allclose(stepped.values, expected, rtol=1e-13, atol=1e-300)


def test_chemistry_uses_previous_step_state():
    # unsplit forward Euler: both reactions and transport see the same old
    # field, so with u = k = 0 a step is exactly pointwise Euler chemistry
    grid = _box(5, 4.0)
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(0.0, 0.0, 0.0))
    net = ozone_network(k2=0.5, sigma2=0.0)
    values = np.zeros((3, 5, 5, 5))
    values[:, 2, 2, 2] = [1.0, 2.0, 3.0]
    field = Field(grid, values.copy())
    dt = 0.1
    stepped = step3d(field, params, grid, net, NOON, dt)
    expected = values[:, 2, 2, 2] + dt * reaction_rates(
        net, NOON, values[:, 2, 2, 2], cell=(2, 2, 2)
    )
    np.testing.assert_allclose(stepped.values[:, 2, 2, 2], expected, rtol=1e-15)


def test_source_feeds_its_cell_only():
    grid = _box(5, 4.0)
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(0.0, 0.0, 0.0))
    net = ozone_network(k2=0.0, sigma2=3.0, source_cell=(1, 2, 3))
    field = Field.zeros(grid, 3)
    stepped = step3d(field, params, grid, net, 0.0, 2.0)
    assert stepped.values[0, 1, 2, 3] == 6.0  # NO only
    assert stepped.values.sum() == 6.0


def test_conservation_without_source_or_transport():
    # S has columns (1,-1,1) and (-1,1,-1): c1+c2 and c2+c3 are invariants
    grid = _box(5, 4.0)
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(0.0, 0.0, 0.0))
    net = ozone_network(k2=1e-3, sigma2=0.0)
    rng = np.random.default_rng(5)
    values = rng.uniform(0.5, 2.0, size=(3, 5, 5, 5))
    field = Field(grid, values)
    from adr_lab import zero_dirichlet
    zero_dirichlet(field)
    s12 = field.values[0] + field.values[1]
    s23 = field.values[1] + field.values[2]
    for step in range(200):
        field = step3d(field, params, grid, net, NOON + step * 0.1, 0.1)
    np.testing.assert_allclose(field.values[0] + field.values[1], s12, rtol=1e-12)
    np.testing.assert_allclose(field.values[1] + field.values[2], s23, rtol=1e-12)


def test_boundary_stays_zero():
    grid = _box(6, 5.0)
    params = TransportParams(u=(0.5, 0.5, 0.5), k=(0.01, 0.01, 0.01))
    rng = np.random.default_rng(9)
    field = Field(grid, rng.uniform(0, 1, size=(1, 6, 6, 6)))
    for _ in range(3):
        field = step3d(field, params, grid, None, 0.0, 0.5)
        assert field.values[:, 0].max() == 0.0
        assert field.values[:, :, :, -1].max() == 0.0


def test_run_returns_slices_and_trajectories():
    grid = _box(7, 6.0)
    params = TransportParams(u=(0.1, 0.1, 0.1), k=(0.01, 0.01, 0.01))
    net = ozone_network(k2=1e-4, sigma2=1.0, source_cell=(1, 1, 1))
    init = Field.zeros(grid, 3)
    init.values[:, 1, 1, 1] = [1.0, 2.0, 3.0]
    series, log = run3d(
        init, params, grid, net, 0.5, 10.0, [0.0, 5.0, 10.0],
        slice_axis="z", slice_index=1,
        trajectory_cells=[(1, 1, 1), (3, 3, 3)], trajectory_stride=4,
    )
    assert series.steps == [0, 10, 20]
    for field, plane in zip(series.fields, series.slices):
        np.testing.assert_array_equal(plane, field.values[:, :, :, 1])
    pts = log.points()
    # 20 steps, sampled every 4th plus step 0: 6 samples x 2 cells
    assert pts.shape == (12, 3)
    assert series.stability.ok


def test_run_rejects_bad_slice_and_cells():
    grid = _box(7, 6.0)
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(0.01, 0.01, 0.01))
    init = Field.zeros(grid)
    with pytest.raises(ConfigurationError):
        run3d(init, params, grid, None, 0.5, 1.0, [1.0], slice_axis="w")
    with pytest.raises(ConfigurationError):
        run3d(init, params, grid, None, 0.5, 1.0, [1.0], slice_index=7)
    with pytest.raises(ConfigurationError):
        run3d(init, params, grid, None, 0.5, 1.0, [1.0],
              trajectory_cells=[(0, 1, 1)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_detects_divergence_with_location():
    # violently unstable diffusion number, forced through with the override;
    # the oscillating mode overflows and the runner reports the step
    grid = _box(5, 4.0)
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(1.0, 1.0, 1.0))
    init = Field.zeros(grid)
    init.values[0, 2, 2, 2] = 1e280
    with pytest.raises(DivergenceError) as exc:
        run3d(init, params, grid, None, 100.0, 10000.0, [10000.0],
              override_stability=True)
    assert exc.value.step >= 1
    where = re.search(r"after step (\d+) .* at species (\d+), cell \((\d+), (\d+), (\d+)\)",
                      str(exc.value))
    assert where, str(exc.value)
    step, species, *cell = map(int, where.groups())
    assert step == exc.value.step and species == 0
    assert all(1 <= c <= 3 for c in cell)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_chemistry_raises_numeric_error():
    from adr_lab import DivergenceError
    grid = _box(5, 4.0)
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(0.0, 0.0, 0.0))
    net = ReactionNetwork(
        species=("A",),
        loss=np.array([[2]]), gain=np.array([[0]]),
        rates=(ConstantRate(1e300),), sources=(),
    )
    init = Field.zeros(grid)
    init.values[0, 2, 2, 2] = 1e10
    # the time loop's finite check, not the chemistry, reports the overflow
    message = r"after step 1 .*species 0, cell \(2, 2, 2\)"
    with pytest.raises(DivergenceError, match=message) as exc:
        run3d(init, params, grid, net, 1.0, 10.0, [10.0])
    assert exc.value.step == 1


def test_run_unstable_raises_stability_error():
    from adr_lab import StabilityError
    grid = _box(11, 10.0)
    params = TransportParams(u=(2.0, 0.0, 0.0), k=(0.0, 0.0, 0.0))
    with pytest.raises(StabilityError):
        run3d(Field.zeros(grid), params, grid, None, 1.0, 5.0, [5.0])
