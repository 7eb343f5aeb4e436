"""Well-posedness of the explicit transport steps as a sharp max-norm contraction.

When the stability gate passes, every weight of the 3-D upwind step and of
the 2-D centred step is non-negative and the weights sum to 1, so one step T
contracts the max norm: ||T a - T b|| <= ||a - b|| (Hundsdorfer & Verwer,
2003, ch. I).  The bound is sharp.  A difference in one cell comes out as
the weights of the stencil around that cell, the centre weight c0 at the
cell itself.  A difference with the signs of the weights around a cell
comes out there as |c0| + sum |w|: 1 when the gate passes, where every sign
is +, and above 1 when dt is past the gate's limit, where c0 < 0 and the
signs alternate from the cell to its neighbours.  Each tolerance is a round
number above the worst rounding measured on these cases (see PAIR_TOL), and
a weight perturbed by 2**-30 breaks the sharp bounds by far more.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adr_lab import (Field, Grid, TransportParams, run2d, run3d, stability2d, stability3d,
                     step2d, step3d)

# The worst rounding measured over 2000 stable and 1000 failing cases per
# dimension (seeds 0-1999 and 10**6 to 10**6 + 999 of _case): 5.6e-16 above
# ||a - b|| for a constant difference (a random one stayed below it), 5.6e-16
# off the sharp images of a unit difference on a field in [0, 1), 3.3e-16
# off 1 for the sum of the weights, 8.9e-16 off 1 - 2 c0 for |c0| + sum |w|,
# and 7.0e-16 of it for the growth on the failing side.
PAIR_TOL = 2e-15
SHARP_TOL = 2e-15
MUTATION = 2.0**-30


def _case(rng, dims, stable=True):
    """A random grid, transport and dt of dims axes, and the report of their step.

    dt takes a random share of the gate's limit on diffusion and advection
    together, below 0.9 when stable, from 1.05 to 2 times it when not; u
    stays below the 2-D cell-Peclet limit.
    """
    shape = tuple(int(n) for n in rng.integers(3, 8, size=dims))
    grid = Grid(shape, tuple(float(rng.uniform(0.5, 2.0)) * (n - 1) for n in shape))
    h = np.array(grid.spacing)
    k = rng.uniform(0.05, 1.0, size=dims)
    u = rng.uniform(0.0, 0.95, size=dims) * 2 * k / h
    params = TransportParams(u=tuple(u.tolist()), k=tuple(k.tolist()))
    share = rng.uniform(0.05, 0.9) if stable else rng.uniform(1.05, 2.0)
    if dims == 3:
        dt = float(share / (2 * k / h**2 + u / h).sum())
        report = stability3d(params, grid, dt)
    else:
        dt = float(share / (2 * k / h**2).sum())
        report = stability2d(params, grid, dt)
    assert report.ok == stable, report.as_dict()
    return grid, params, dt, report


def _weights(report):
    """{offset: weight} of the step's stencil: T v[c] = sum of w(o) v[c + o]."""
    if report.scheme == "upwind-3d":
        courant, r = report.coefficients
        weights = {(0, 0, 0): 1.0 - sum(courant) - 2.0 * sum(r)}
        for axis, unit in enumerate(np.eye(3, dtype=int).tolist()):
            weights[tuple(-i for i in unit)] = courant[axis] + r[axis]
            weights[tuple(unit)] = r[axis]
        return weights
    c0, xp, xm, yp, ym = report.coefficients
    return {(0, 0): c0, (1, 0): xp, (-1, 0): xm, (0, 1): yp, (0, -1): ym}


def _step(grid, report, values):
    field = Field(grid, values)
    if len(grid.shape) == 3:
        return step3d(field, report, None, 0.0, 1.0).values
    return step2d(field, report).values


def _sharp_fields(rng, grid, weights):
    """A field b in [0, 1), an interior cell, b plus 1.0 at the cell, and b plus the signs of
    weights around it; b is a multiple of 2**-20, so every sum is exact."""
    b = rng.integers(0, 2**20, size=(1, *grid.shape)) / 2**20
    cell = tuple(int(rng.integers(1, n - 1)) for n in grid.shape)
    one, signs = b.copy(), b.copy()
    one[(0, *cell)] += 1.0
    for offset, w in weights.items():
        signs[(0, *(c + o for c, o in zip(cell, offset)))] += np.copysign(1.0, w)
    return b, cell, one, signs


def _sharp_errors(rng, grid, report, weights):
    """How far one step with report misses the sharp images that weights predict.

    The first number is the largest error of the image of a unit difference
    in one cell: w(o) at the cell minus o on the interior, exactly 0.0
    elsewhere.  The second is the error, at the cell, of the image of a
    difference with the signs of the weights: |c0| + sum |w|.
    """
    b, cell, one, signs = _sharp_fields(rng, grid, weights)
    tb = _step(grid, report, b)
    image = _step(grid, report, one) - tb
    want = np.zeros_like(image)
    for offset, w in weights.items():
        at = tuple(c - o for c, o in zip(cell, offset))
        if all(1 <= i < n - 1 for i, n in zip(at, grid.shape)):
            want[(0, *at)] = w
    growth = (_step(grid, report, signs) - tb)[(0, *cell)]
    return (float(np.abs(image - want).max()),
            abs(growth - sum(abs(w) for w in weights.values())))


@settings(max_examples=200, deadline=None)
@given(dims=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1), constant=st.booleans())
def test_a_stable_step_contracts_the_max_norm(dims, seed, constant):
    # a constant difference comes out unchanged at every cell whose stencil
    # holds it, so the bound is reached there up to rounding
    rng = np.random.default_rng(seed)
    grid, _, _, report = _case(rng, dims)
    a = rng.uniform(-1.0, 1.0, size=(2, *grid.shape))
    d = rng.uniform(-1.0, 1.0, size=() if constant else a.shape)
    b = a + d
    gap = np.abs(_step(grid, report, a) - _step(grid, report, b)).max()
    assert gap <= np.abs(a - b).max() + PAIR_TOL


@settings(max_examples=200, deadline=None)
@given(dims=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_a_stable_step_gives_its_weights_and_reaches_one(dims, seed):
    rng = np.random.default_rng(seed)
    grid, _, _, report = _case(rng, dims)
    weights = _weights(report)
    assert min(weights.values()) >= 0.0
    assert abs(sum(weights.values()) - 1.0) <= SHARP_TOL
    single, growth = _sharp_errors(rng, grid, report, weights)
    assert single <= SHARP_TOL and growth <= SHARP_TOL


@settings(max_examples=100, deadline=None)
@given(dims=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_a_failing_gate_lets_an_alternating_difference_grow(dims, seed):
    # dt past the gate's limit makes c0 negative: the difference that
    # alternates in sign from the cell to its neighbours grows by
    # |c0| + sum |w| > 1 in one step of a run with override_stability
    rng = np.random.default_rng(seed)
    grid, params, dt, report = _case(rng, dims, stable=False)
    weights = _weights(report)
    centre = weights[(0,) * dims]
    assert centre < 0.0 < min(w for o, w in weights.items() if any(o))
    bound = sum(abs(w) for w in weights.values())
    assert bound == pytest.approx(1.0 - 2.0 * centre, abs=SHARP_TOL)
    b, cell, _, signs = _sharp_fields(rng, grid, weights)
    states = []
    for values in (b, signs):
        if dims == 3:
            series = run3d(Field(grid, values), params, None, dt, dt, [dt], slice_axis="z",
                           slice_index=cell[2], override_stability=True)
            states.append(series.slices[0][(0, *cell[:2])])
        else:
            series = run2d(Field(grid, values), params, dt, dt, [dt], override_stability=True)
            states.append(series.fields[0].values[(0, *cell)])
    growth = states[1] - states[0]
    assert abs(growth - bound) <= SHARP_TOL * bound
    assert growth > 1.1 - SHARP_TOL  # dt at 1.05 times the limit or more: c0 <= -0.05


@pytest.mark.parametrize("dims, index", [(3, i) for i in range(6)] + [(2, i) for i in range(5)])
def test_a_perturbed_weight_breaks_the_sharp_bounds(dims, index):
    # a step whose coefficient `index` is 2**-30 off misses the images that
    # the report's weights predict by far more than the tolerance
    rng = np.random.default_rng(100 + index)
    grid, _, _, report = _case(rng, dims)
    coefficients = np.array(report.coefficients, dtype=float)
    coefficients.flat[index] += MUTATION
    perturbed = dataclasses.replace(report, coefficients=tuple(coefficients.tolist()))
    state = rng.bit_generator.state
    assert max(_sharp_errors(rng, grid, report, _weights(report))) <= SHARP_TOL
    rng.bit_generator.state = state
    assert max(_sharp_errors(rng, grid, perturbed, _weights(report))) > 100 * SHARP_TOL
