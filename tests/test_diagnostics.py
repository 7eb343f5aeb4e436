import math
import tracemalloc

import numpy as np
import pytest

from adr_lab import (
    ConfigurationError,
    ConstantRate,
    Field,
    Grid,
    ReactionNetwork,
    StabilityError,
    TrajectoryLog,
    TransportParams,
    build_series,
    convergence_order,
    estimate_order,
    l2_norm,
    max_error_vs_analytic,
    positivity_check,
    run2d,
    sample_initial_2d,
    sample_series,
)
from adr_lab.snapshots import SnapshotSeries
from adr_lab.solver3d import _grow
from oracles import (boundedness_check, compute_dbar, max_pairwise_distance, trajectory_points,
                     trajectory_rows)

SINE = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)


def test_l2_norm_of_ones():
    grid = Grid((11, 11), (1.0, 1.0))
    field = Field(grid, np.ones((2, 11, 11)))
    # all entries 1, cell volume 0.01: sqrt(2 * 121 * 0.01)
    assert l2_norm(field) == pytest.approx(math.sqrt(2 * 121 * 0.01), rel=1e-14)


def test_l2_norm_3d_weighting():
    grid = Grid((3, 3, 3), (2.0, 2.0, 2.0))
    field = Field.zeros(grid)
    field.values[0, 1, 1, 1] = 4.0
    assert l2_norm(field) == pytest.approx(math.sqrt(16.0 * 1.0), rel=1e-14)


def _growing_boxes(shape, start, count):
    """count boxes from start, each grown as run3d grows its box after a step."""
    boxes = [start]
    for _ in range(count - 1):
        boxes.append(_grow(boxes[-1], shape))
    return boxes


def _boxed_captures(grid, boxes, rng):
    """A step-0 field non-zero on the boundary, then one field per box, +0.0 outside it."""
    first = rng.uniform(-1.0, 2.0, size=(3, *grid.shape))
    fields = [first]
    for box in boxes:
        values = np.zeros((3, *grid.shape))
        inside = (slice(None), *box)
        values[inside] = rng.uniform(-1.0, 2.0, size=values[inside].shape)
        corner = tuple(b.start for b in box)
        values[(0, *corner)] = -0.0
        values[(1, *corner)] = 5e-324
        fields.append(values)
    return fields


def test_boxed_l2_norm_equals_whole_field_norm_bitwise(monkeypatch):
    # a recycled allocation holds garbage; make every np.empty hand one back
    real_empty = np.empty

    def recycled(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", recycled)
    grid = Grid((12, 11, 10), (1.0, 2.0, 3.0))
    boxes = _growing_boxes(grid.shape, (slice(5, 7), slice(5, 6), slice(4, 6)), 6)
    boxes.insert(2, boxes[1])  # a box may also stay the same
    series = SnapshotSeries(requested_times=[0.0], plane=(slice(None), 4))
    fields = _boxed_captures(grid, boxes, np.random.default_rng(5))
    for n, (values, box) in enumerate(zip(fields, [None, *boxes])):
        series.append(n, float(n), Field(grid, values), box)
        want = l2_norm(Field(grid, values.copy()))
        assert series.l2_norms[n].hex() == want.hex(), n
    assert series.squares.tobytes() == (fields[-1] ** 2).tobytes()


def test_boxed_capture_allocates_no_full_field_temporary():
    # the squares buffer is allocated once, on the first boxed capture; a
    # later capture must not allocate anything near the field's size
    grid = Grid((41, 41, 41), (1.0, 1.0, 1.0))
    boxes = _growing_boxes(grid.shape, (slice(18, 23),) * 3, 3)
    series = SnapshotSeries(requested_times=[0.0], plane=(slice(None), slice(None), 20))
    fields = _boxed_captures(grid, boxes, np.random.default_rng(8))
    for n in range(2):
        series.append(n, float(n), Field(grid, fields[n]), [None, *boxes][n])
    tracemalloc.start()
    try:
        series.append(2, 2.0, Field(grid, fields[2]), boxes[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < fields[2].nbytes / 4, (peak, fields[2].nbytes)


def test_error_report_zero_for_exact_samples():
    sol = build_series(SINE, 5.0, 0.5, M=12, N=12)
    grid = Grid((15, 15), (1.0, 1.0))
    field = sample_series(sol, grid, 0.03)
    rep = max_error_vs_analytic(field, sol, 0.03)
    assert rep.max_abs_error == 0.0 and rep.l2_error == 0.0
    assert rep.grid_shape == (15, 15)


def test_estimate_order_recovers_synthetic_slope():
    h = [0.1, 0.05, 0.025, 0.0125]
    errors = [3.0 * s**2 for s in h]
    assert estimate_order(h, errors) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ConfigurationError):
        estimate_order([0.1], [1.0])


def test_convergence_order_near_two():
    sol = build_series(SINE, 5.0, 0.5, M=30, N=30)
    base = Grid((24, 24), (1.0, 1.0))
    levels = []
    for nx in (24, 46, 91):
        g = Grid((nx, nx), (1.0, 1.0))
        levels.append((g, 2e-4 * (g.spacing[0] / base.spacing[0]) ** 2))
    order, reports = convergence_order(levels, sol, 0.05, initial_profile=SINE)
    assert 1.7 <= order <= 2.3
    assert len(reports) == 3
    assert reports[0].max_abs_error > reports[-1].max_abs_error


def test_convergence_order_aborts_on_unstable_level():
    sol = build_series(SINE, 5.0, 0.5, M=8, N=8)
    levels = [(Grid((nx, nx), (1.0, 1.0)), 1.0) for nx in (24, 46, 91)]
    with pytest.raises(StabilityError):
        convergence_order(levels, sol, 0.05, initial_profile=SINE)


def _chain_estimate():
    net = ReactionNetwork(
        species=("A", "B"),
        loss=np.array([[1, 0], [0, 1]]),
        gain=np.array([[0, 1], [1, 0]]),
        rates=(ConstantRate(0.5), ConstantRate(0.5)),
        sources=(),
    )
    return compute_dbar(net)


def test_boundedness_check_passes_decaying_norms():
    est = _chain_estimate()
    times = np.linspace(0.0, 10.0, 11)
    norms = 2.0 * np.exp(-0.3 * times)
    ok, margins = boundedness_check(times, norms, est, u0_norm=2.0)
    assert ok and (margins >= 0).all()


def test_boundedness_check_flags_violation():
    est = _chain_estimate()
    times = np.array([0.0, 1.0])
    norms = np.array([1.0, 1e6])  # far above exp(dbar t)(u0+1)
    ok, margins = boundedness_check(times, norms, est, u0_norm=1.0)
    assert not ok and margins[1] < 0


def _series_with(values_list, grid):
    series = SnapshotSeries(requested_times=[0.0])
    for n, vals in enumerate(values_list):
        series.append(n, float(n), Field(grid, vals))
    return series


def test_positivity_check_clean_and_dirty():
    grid = Grid((4, 4), (1.0, 1.0))
    good = _series_with([np.full((1, 4, 4), 2.0)], grid)
    ok, violation = positivity_check(good)
    assert ok and violation is None

    vals = np.full((1, 4, 4), 2.0)
    vals[0, 2, 2] = -1e-3
    bad = _series_with([vals], grid)
    ok, violation = positivity_check(bad)
    assert not ok
    assert violation["cell"] == (2, 2) and violation["species"] == 0


def test_positivity_check_tolerates_rounding_noise():
    grid = Grid((4, 4), (1.0, 1.0))
    vals = np.full((1, 4, 4), 1.0)
    vals[0, 1, 1] = -1e-14  # within 1e-12 * max
    ok, _ = positivity_check(_series_with([vals], grid))
    assert ok


def test_trajectory_log_append_points_rows():
    log = TrajectoryLog(cells=[(1, 1, 1), (2, 2, 2)], stride=5)
    log.append(0.0, np.array([[1.0, 2.0], [3.0, 4.0]]))
    log.append(5.0, np.array([[1.5, 2.5], [3.5, 4.5]]))
    pts = trajectory_points(log)
    assert pts.shape == (4, 2)
    early = trajectory_points(log, t_max=1.0)
    assert early.shape == (2, 2)
    late = trajectory_points(log, t_min=5.0)
    np.testing.assert_array_equal(late, [[1.5, 2.5], [3.5, 4.5]])
    rows = list(trajectory_rows(log))
    assert rows[0] == (0.0, 1, 1, 1, 1.0, 2.0)
    assert rows[3] == (5.0, 2, 2, 2, 3.5, 4.5)
    with pytest.raises(ConfigurationError):
        log.append(1.0, np.array([[0.0, 0.0], [0.0, 0.0]]))  # out of order


def test_max_pairwise_distance_matches_brute_force():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(300, 3))
    brute = max(
        float(np.linalg.norm(pts[i] - pts[j]))
        for i in range(len(pts)) for j in range(i + 1, len(pts))
    )
    # block smaller than the point count exercises the chunked path
    assert max_pairwise_distance(pts, block=64) == pytest.approx(brute, rel=1e-12)
    assert max_pairwise_distance(pts[:1]) == 0.0


def test_norm_decays_for_stable_diffusive_run():
    grid = Grid((20, 20), (1.0, 1.0))
    params = TransportParams(u=(5.0, 5.0), k=(0.5, 0.5))
    init = sample_initial_2d(grid, SINE)
    series = run2d(init, params, 1e-4, 0.05, [0.0, 0.02, 0.05])
    norms = [l2_norm(f) for f in series.fields]
    assert norms == sorted(norms, reverse=True)
