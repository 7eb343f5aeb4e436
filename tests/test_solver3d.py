import dataclasses
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from adr_lab import (
    ConfigurationError,
    ConstantRate,
    DivergenceError,
    Field,
    Grid,
    InputError,
    PointSource,
    ReactionNetwork,
    TransportParams,
    l2_norm,
    positivity_check,
    run3d,
    stability3d,
    step3d,
)
from adr_lab import cli, solver3d
from oracles import (bundled_ozone, exact_stencil, numpy_advance_blocks, reaction_rates,
                     trajectory_points, trajectory_rows)

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


def test_stability_rejects_nonpositive_dt():
    params = TransportParams(u=(1.0, 1.0, 1.0), k=(2e-5, 2e-5, 2e-5))
    for dt in (0.0, -1.0):
        with pytest.raises(ConfigurationError, match="dt must be positive"):
            stability3d(params, _box(5, 1.0), dt)


def test_step_matches_naive_loop_bitwise_transport():
    grid = Grid((6, 5, 7), (6.0, 5.0, 7.0))
    params = TransportParams(u=(0.8, 0.3, 0.5), k=(0.1, 0.2, 0.05))
    dt = 0.2
    rng = np.random.default_rng(11)
    values = rng.uniform(0.0, 1.0, size=(2, 6, 5, 7))
    field = Field(grid, values.copy())
    stepped = step3d(field, stability3d(params, grid, dt), None, 0.0, dt)
    expected = naive_step(values, params.u, params.k,
                          grid.spacing, dt)
    np.testing.assert_array_equal(stepped.values, expected)


@pytest.mark.parametrize("nx", [3, 4, 13, 101])
@pytest.mark.parametrize("planes", [1, 4, 200])
def test_x_blocks_cover_each_interior_plane_once(monkeypatch, nx, planes):
    monkeypatch.setattr(solver3d, "BLOCK_PLANES", planes)
    blocks = solver3d.x_blocks(nx)
    assert [x for lo, hi in blocks for x in range(lo, hi)] == list(range(1, nx - 1))
    assert all(0 < hi - lo <= planes for lo, hi in blocks)


@pytest.mark.parametrize("nx", [3, 4, 13, 101])
@pytest.mark.parametrize("threads", [1, 2, 3, 10**6])
def test_step_threads_capped_by_cpus_and_planes(monkeypatch, nx, threads):
    for cpus in (None, 8):  # the CPUs this process may use, then 8
        if cpus is None:
            cpus = len(os.sched_getaffinity(0))
        else:
            monkeypatch.setattr(solver3d, "_usable_cpus", lambda: cpus)
        count = solver3d.step_threads(nx, threads)
        assert 1 <= count <= min(threads, cpus, nx - 2)
        assert count == min(threads, cpus, len(solver3d.x_blocks(nx)))


# blocks of 1, 4 and 11 planes of the 11 interior x-planes of a 13-node axis
BLOCK_SIZES = [1, 4, 11]


def _block_edge_network(ny, nz):
    """The bundled network with an NO source on every block-edge x-plane of BLOCK_SIZES.

    k2 is a power of two, so the oracle's h*(c0*c1) and the field's
    (h*c0)*c1 are the same number and the chemistry agrees bit for bit.
    """
    edges = sorted({x for planes in BLOCK_SIZES for lo in range(1, 12, planes)
                    for x in (lo, min(lo + planes, 12) - 1)})
    sources = tuple(PointSource(0, (x, 1 + x % (ny - 2), 1 + x % (nz - 2)), 5.0)
                    for x in edges)
    return dataclasses.replace(bundled_ozone(k2=2.0**-10), sources=sources)


@pytest.mark.parametrize("planes", BLOCK_SIZES)
def test_step_blocks_match_naive_loop_bitwise_with_chemistry(monkeypatch, planes):
    monkeypatch.setattr(solver3d, "BLOCK_PLANES", planes)
    grid = Grid((13, 11, 9), (13.0, 11.0, 9.0))
    params = TransportParams(u=(0.8, 0.3, 0.5), k=(0.1, 0.2, 0.05))
    net = _block_edge_network(11, 9)
    dt = 0.2
    values = np.random.default_rng(17).uniform(0.0, 2.0, size=(3, *grid.shape))
    expected = naive_step(values, params.u, params.k, grid.spacing, dt,
                          network=net, t=NOON)
    rep = stability3d(params, grid, dt)
    stepped = [step3d(Field(grid, values.copy()), rep, net, NOON, dt)]
    for workers in (1, 2, 3):
        with ThreadPoolExecutor(workers) as pool:
            stepped.append(step3d(Field(grid, values.copy()), rep, net, NOON, dt,
                                  pool=pool, threads=workers + 1))
    for field in stepped:
        np.testing.assert_array_equal(field.values, expected)


def test_many_blocks_under_fast_thread_switching(monkeypatch):
    # more threads than cores, switching every microsecond: the blocks
    # write disjoint planes of one buffer, so no update may be lost
    grid = Grid((26, 11, 9), (25.0, 10.0, 8.0))
    params = TransportParams(u=(0.8, 0.3, 0.5), k=(0.1, 0.2, 0.05))
    net = _block_edge_network(11, 9)
    values = np.random.default_rng(23).uniform(0.0, 2.0, size=(3, *grid.shape))
    field = Field(grid, values)
    rep = stability3d(params, grid, 0.2)
    expected = step3d(field, rep, net, NOON, 0.2).values
    monkeypatch.setattr(solver3d, "BLOCK_PLANES", 2)
    threads = len(solver3d.x_blocks(26))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(threads - 1) as pool:
            for _ in range(20):
                stepped = step3d(field, rep, net, NOON, 0.2, pool=pool, threads=threads)
                np.testing.assert_array_equal(stepped.values, expected)
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# the compiled kernel: bitwise against the numpy block step and the naive
# loop, and built once per cache


def _random_network(draw, species, shape):
    """A network of 1-3 reactions with loss exponents 0-3, rates up to 0.5 and
    at most one source, at an interior cell of shape."""
    count = draw(st.integers(1, 3))
    matrix = st.lists(st.lists(st.integers(0, 3), min_size=count, max_size=count),
                      min_size=species, max_size=species)
    loss, gain = draw(matrix), draw(matrix)
    rates = tuple(ConstantRate(draw(st.floats(0.0, 0.5))) for _ in range(count))
    cells = st.tuples(*[st.integers(1, n - 2) for n in shape])
    sources = tuple(PointSource(draw(st.integers(0, species - 1)), draw(cells), 1.5)
                    for _ in range(draw(st.integers(0, 1))))
    return ReactionNetwork(species=tuple("ABC"[:species]), loss=np.array(loss),
                           gain=np.array(gain), rates=rates, sources=sources)


def _numpy_step(*args, **kwargs):
    """step3d with the numpy block step of tests/oracles.py in place of the kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver3d, "_advance_blocks", numpy_advance_blocks)
        return step3d(*args, **kwargs)


@settings(max_examples=80, deadline=None)
@given(shape=st.tuples(*[st.integers(3, 12)] * 3), planes=st.integers(1, 5),
       threads=st.integers(1, 3), data=st.data())
def test_kernel_step_equals_numpy_blocks_and_naive_loop_bitwise(shape, planes, threads, data):
    draw = data.draw
    species = draw(st.integers(1, 3))
    network = draw(st.sampled_from([None, "random"]))
    if network is not None:
        network = _random_network(draw, species, shape)
    box = []
    for n in shape:
        lo = draw(st.integers(1, n - 2))
        box.append(slice(lo, draw(st.integers(lo, n - 1))))
    grid = _spaced_grid(shape)
    params = TransportParams(u=(0.3, 0.2, 0.1), k=(0.05, 0.06, 0.04))
    rep = stability3d(params, grid, 0.5)
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        0.5, 2.0, size=(species, *shape))
    field = Field(grid, values)
    with pytest.MonkeyPatch.context() as patch, ThreadPoolExecutor(2) as pool:
        patch.setattr(solver3d, "BLOCK_PLANES", planes)
        patch.setattr(solver3d, "_usable_cpus", lambda: 4)
        workers = solver3d.step_threads(shape[0], threads)
        steps = [step(field, rep, network, NOON, 0.5,
                      out=Field(grid, np.full(values.shape, -1.0)), box=tuple(box),
                      pool=pool, threads=workers)
                 for step in (step3d, _numpy_step)]
    got, oracle = (s.values for s in steps)
    assert (got.view(np.uint64) == oracle.view(np.uint64)).all()
    inside = (slice(None), *box)
    naive = naive_step(values, params.u, params.k, grid.spacing, 0.5, network, NOON)[inside]
    if network is None:
        assert (got[inside].view(np.uint64) == naive.view(np.uint64)).all()
    else:
        # the naive loop sums its chemistry in another order
        np.testing.assert_allclose(got[inside], naive, rtol=0,
                                   atol=1e-13 * max(np.abs(naive).max(initial=0.0), 1.0))
    got[inside] = -1.0
    assert (got == -1.0).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_kernel_divergence_names_the_oracle_step_and_cell(monkeypatch, value, threads):
    monkeypatch.setattr(solver3d, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(solver3d, "BLOCK_PLANES", 2)
    grid = _spaced_grid((11, 9, 8))
    init = Field.zeros(grid, 3)
    init.values[:, 5, 4, 4] = [1.0, 2.0, 3.0]
    init.values[1, 7, 3, 5] = value
    net = bundled_ozone(k2=2.0**-10, no_emission=5.0, cell=(3, 3, 3))
    messages = []
    for advance in (solver3d._advance_blocks, numpy_advance_blocks):
        monkeypatch.setattr(solver3d, "_advance_blocks", advance)
        with pytest.raises(DivergenceError) as exc:
            run3d(init, BOX_PARAMS, net, BOX_DT, 5.0, [5.0], threads=threads)
        messages.append((exc.value.step, str(exc.value)))
    assert messages[0] == messages[1]
    # the chemistry carries it to species 0 of its cell in the same step
    assert messages[0][0] == 1 and "at species 0, cell (7, 3, 5)" in messages[0][1]


@pytest.fixture
def empty_cache(monkeypatch, tmp_path):
    """The kernel's cache moved to an empty directory, and no kernel loaded in this process."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(solver3d, "_CACHE", cache)
    solver3d._kernel.cache_clear()
    yield cache
    solver3d._kernel.cache_clear()


def _small_step(values):
    grid = _spaced_grid(values.shape[1:])
    return step3d(Field(grid, values), stability3d(BOX_PARAMS, grid, BOX_DT), None, 0.0, BOX_DT)


STEP_IN_A_PROCESS = """
import sys
from pathlib import Path
import numpy as np
from adr_lab import Field, Grid, TransportParams, solver3d, stability3d, step3d
solver3d._CACHE = Path(sys.argv[1])
values = np.load(sys.argv[2])
grid = Grid(values.shape[1:], tuple(float(n - 1) for n in values.shape[1:]))
rep = stability3d(TransportParams(u=(0.3, 0.2, 0.1), k=(0.05, 0.05, 0.05)), grid, 0.5)
sys.stdout.write(step3d(Field(grid, values), rep, None, 0.0, 0.5).values.tobytes().hex())
"""


def test_processes_starting_on_an_empty_cache_build_one_library(empty_cache, tmp_path):
    values = np.random.default_rng(41).uniform(0.0, 1.0, (2, 9, 8, 7))
    np.save(tmp_path / "values.npy", values)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    command = [sys.executable, "-c", STEP_IN_A_PROCESS, str(empty_cache),
               str(tmp_path / "values.npy")]
    runs = [subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            for _ in range(2)]
    outputs = [run.communicate(timeout=120) for run in runs]
    assert [run.returncode for run in runs] == [0, 0], [err for _, err in outputs]
    expected = _small_step(values).values.tobytes().hex()
    assert [out.decode() for out, _ in outputs] == [expected, expected]
    assert [p.suffix for p in empty_cache.iterdir()] == [".so"]


def test_a_built_kernel_is_loaded_without_the_compiler(empty_cache, monkeypatch):
    values = np.random.default_rng(43).uniform(0.0, 1.0, (2, 9, 8, 7))
    built = _small_step(values).values
    (lib,) = empty_cache.iterdir()
    monkeypatch.setattr(solver3d, "COMPILER", ("false",))
    solver3d._kernel.cache_clear()
    assert _small_step(values).values.tobytes() == built.tobytes()
    assert list(empty_cache.iterdir()) == [lib]


def test_missing_compiler_fails_the_run_naming_it(empty_cache, monkeypatch, tmp_path):
    compiler = str(tmp_path / "no-such-cc")
    monkeypatch.setattr(solver3d, "COMPILER", (compiler,))
    raw = yaml.safe_load(cli.bundled_config_path("ozone-3d.yaml").read_text())
    raw["grid"].update(nx=11, ny=11, nz=11)
    raw["time"].update(t_end=4.0, snapshots=[0.0, 4.0])
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert cli.execute(cli.parse_config(tmp_path / "run.yaml"), out) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "C compiler" in manifest["error"] and compiler in manifest["error"]
    assert not empty_cache.exists() or list(empty_cache.iterdir()) == []


@pytest.mark.parametrize("bad", ["box-on-boundary", "box-past-interior", "out-shape",
                                 "unaligned"])
def test_step_rejects_what_the_kernel_would_read_outside(bad):
    grid = _spaced_grid((7, 6, 5))
    field, out, box = Field.zeros(grid, 2), None, None
    if bad == "box-on-boundary":
        box = (slice(0, 3), slice(1, 5), slice(1, 4))
    elif bad == "box-past-interior":
        box = (slice(1, 6), slice(1, 6), slice(1, 4))
    elif bad == "out-shape":
        out = Field.zeros(grid, 1)
    else:
        raw = np.zeros(field.values.nbytes + 1, dtype=np.uint8)[1:]
        field.values = raw.view(np.float64).reshape(field.values.shape)
    with pytest.raises(InputError):
        step3d(field, stability3d(BOX_PARAMS, grid, BOX_DT), None, 0.0, BOX_DT,
               out=out, box=box)


def test_kernel_flags_keep_ieee_rounding():
    assert "-ffp-contract=off" in solver3d._FLAGS
    assert not {"-ffast-math", "-Ofast", "-march=native"} & set(solver3d._FLAGS)


def _recorded_run(init, *args, **kwargs):
    """run3d(init, *args, **kwargs), its state after each step and the box each step was given.

    A 3-D series keeps no field, so a recording step3d copies each state:
    states[n] is the whole field after n steps, states[0] a copy of init.
    """
    states, boxes, step = [init.values.copy()], [], solver3d.step3d

    def recording(*a, box=None, **kw):
        boxes.append(box)
        out = step(*a, box=box, **kw)
        states.append(out.values.copy())
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver3d, "step3d", recording)
        series = run3d(init, *args, **kwargs)
    return series, states, boxes


def test_run_equals_repeated_steps_from_nonzero_boundary():
    # the first step reads the initial field's boundary; the buffers that
    # run3d swaps must give every later step a zero boundary
    grid = Grid((7, 6, 5), (6.0, 5.0, 4.0))
    params = TransportParams(u=(0.3, 0.2, 0.1), k=(0.05, 0.05, 0.05))
    init = Field(grid, np.random.default_rng(29).uniform(0.5, 1.0, size=(2, 7, 6, 5)))
    series, states, _ = _recorded_run(init, params, None, 0.5, 2.0, [2.0])
    rep, field = stability3d(params, grid, 0.5), init
    for n in range(4):
        field = step3d(field, rep, None, n * 0.5, 0.5)
    np.testing.assert_array_equal(states[-1], field.values)
    assert series.l2_norms[-1] == l2_norm(field)


def exact_upwind(values, u, k, spacing, dt, steps):
    """The transport step (network=None) after `steps` steps from (nx, ny, nz) values.

    Along each axis the weight is a + d on c[i-1] and d on c[i+1], with
    a = u dt/h and d = k dt/h**2; see exact_stencil.
    """
    a = [ui * dt / h for ui, h in zip(u, spacing)]
    d = [ki * dt / h**2 for ki, h in zip(k, spacing)]
    return exact_stencil(values, 1 - sum(ai + 2 * di for ai, di in zip(a, d)),
                         [ai + di for ai, di in zip(a, d)], d, steps)


def test_run_matches_exact_discrete_solution_random_stable():
    # rho**(n-1) <= 1e3 keeps the closed form well conditioned, as in 2-D
    rng = np.random.default_rng(2003)
    cases = 0
    while cases < 12:
        shape = tuple(int(n) for n in rng.integers(4, 10, size=3))
        spacing = rng.uniform(0.5, 2.0, size=3)
        grid = Grid(shape, tuple(h * (n - 1) for h, n in zip(spacing, shape)))
        k = rng.uniform(0.05, 1.0, size=3)
        u = rng.uniform(0.0, 1.0, size=3)
        rho = np.sqrt(1 + u * spacing / k)
        if any(r ** (n - 1) > 1e3 for r, n in zip(rho, shape)):
            continue
        dt = float(rng.uniform(0.1, 0.95)) / sum(2 * k / spacing**2 + u / spacing)
        params = TransportParams(u=tuple(u), k=tuple(k))
        if not stability3d(params, grid, dt).ok:
            continue
        values = np.zeros((2, *shape))
        values[:, 1:-1, 1:-1, 1:-1] = rng.uniform(0.0, 1.0, size=(2, *(n - 2 for n in shape)))
        steps = int(rng.integers(1, 200))
        series, states, _ = _recorded_run(Field(grid, values), params, None, dt, steps * dt,
                                          [steps // 2 * dt, steps * dt])
        for step in series.steps:
            for s in range(2):
                exact = exact_upwind(values[s], u, k, grid.spacing, dt, step)
                err = np.abs(states[step][s] - exact).max() / np.abs(exact).max()
                assert err < 1e-12, (step, err)
        cases += 1


def test_ozone_invariants_step_as_pure_transport():
    # W.sto = 0 for NO+NO2 and NO2+O3, so each invariant of the bundled
    # network steps as transport alone, whatever the chemistry does: at every
    # cell and step it equals the closed form of its initial value.  The
    # tolerance comes from measured rounding: over rng seeds 0-7 the worst
    # error was 2.2e-14 of the step's maximum, no more than the closed form's
    # own error against a run without chemistry, while the chemistry moves NO
    # by over 60% of its transport-only maximum.
    grid = Grid((9, 8, 7), (8.0, 7.0, 6.0))
    params = TransportParams(u=(0.3, 0.2, 0.1), k=(0.15, 0.12, 0.09))
    net = bundled_ozone(k2=0.1)
    net = dataclasses.replace(net, rates=(ConstantRate(0.05), net.rates[1]))
    dt, steps = 0.5, 60
    values = np.zeros((3, *grid.shape))
    values[:, 1:-1, 1:-1, 1:-1] = np.random.default_rng(5).uniform(0.0, 1.0, size=(3, 7, 6, 5))
    _, states, _ = _recorded_run(Field(grid, values), params, net, dt, steps * dt,
                                 [steps * dt])
    for w in ([1.0, 1.0, 0.0], [0.0, 1.0, 1.0]):
        for n, state in enumerate(states):
            exact = exact_upwind(np.tensordot(w, values, 1), params.u, params.k,
                                 grid.spacing, dt, n)
            err = np.abs(np.tensordot(w, state, 1) - exact).max() / np.abs(exact).max()
            assert err < 1e-13, (w, n, err)
    alone = exact_upwind(values[0], params.u, params.k, grid.spacing, dt, steps)
    assert np.abs(states[-1][0] - alone).max() > 0.1 * np.abs(alone).max()


def test_norm_ratio_tends_to_leading_eigenvalue():
    # The paper's asymptotic decay in discrete form, as in 2-D: over dn steps
    # the L2 norm shrinks by a factor that tends to lambda_111**dn, and the
    # relative excess dies like (lambda_211 / lambda_111)**dn.
    grid = Grid((11, 9, 8), (10.0, 8.0, 7.0))
    params = TransportParams(u=(0.3, 0.2, 0.1), k=(0.2, 0.3, 0.25))
    dt, dn = 0.25, 40
    adv, dif = stability3d(params, grid, dt).coefficients

    def lam(p):
        return 1 + sum(-(a + 2 * d) + 2 * np.sqrt(d * (a + d)) * np.cos(q * np.pi / (n - 1))
                       for a, d, q, n in zip(adv, dif, p, grid.shape))

    lam111 = lam((1, 1, 1))
    assert lam((2, 1, 1)) > max(lam((1, 2, 1)), lam((1, 1, 2)))
    init = Field.zeros(grid)
    init.values[:, 1:-1, 1:-1, 1:-1] = np.random.default_rng(3).uniform(0.0, 1.0, (9, 7, 6))
    times = [n * dn * dt for n in range(1, 9)]
    series = run3d(init, params, None, dt, times[-1], times)
    assert series.steps == [n * dn for n in range(1, 9)]
    norms = series.l2_norms
    excess = [b / a / lam111**dn - 1.0 for a, b in zip(norms, norms[1:])]
    assert all(b < a for a, b in zip(excess, excess[1:])), excess
    assert 0.0 < excess[-1] < 1e-2, excess
    quotients = [b / a for a, b in zip(excess, excess[1:])]
    np.testing.assert_allclose(quotients[-3:], (lam((2, 1, 1)) / lam111) ** dn, rtol=0.05)


def test_run_outputs_equal_across_threads(monkeypatch):
    monkeypatch.setattr(solver3d, "_usable_cpus", lambda: 4)
    grid = Grid((12, 7, 6), (11.0, 6.0, 5.0))
    params = TransportParams(u=(0.1, 0.05, 0.1), k=(0.01, 0.02, 0.01))
    net = bundled_ozone(k2=1e-4, no_emission=1.0, cell=(6, 3, 3))
    init = Field.zeros(grid, 3)
    init.values[:, 5, 3, 2] = [1.0, 2.0, 3.0]
    runs = [run3d(init, params, net, 0.5, 10.0, [0.0, 5.0, 10.0],
                  slice_axis="x", slice_index=6,
                  trajectory_cells=[(1, 1, 1), (6, 3, 3), (10, 5, 4)],
                  trajectory_stride=3, threads=threads)
            for threads in (1, 2)]
    one, two = ([p.tobytes() for p in r.slices] + [list(trajectory_rows(r.trajectories))]
                for r in runs)
    assert one == two
    assert len(runs[0].trajectories.times) == 7


def test_step_matches_naive_loop_with_chemistry():
    grid = Grid((5, 5, 5), (50.0, 50.0, 50.0))
    params = TransportParams(u=(1.0, 1.0, 1.0), k=(2e-5, 2e-5, 2e-5))
    net = bundled_ozone(k2=1e-3, no_emission=5.0, cell=(1, 1, 1))
    dt = 0.5
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 2.0, size=(3, 5, 5, 5))
    field = Field(grid, values.copy())
    stepped = step3d(field, stability3d(params, grid, dt), net, NOON, dt)
    expected = naive_step(values, params.u, params.k,
                          grid.spacing, dt, network=net, t=NOON)
    np.testing.assert_allclose(stepped.values, expected, rtol=1e-13, atol=1e-300)


def test_chemistry_uses_previous_step_state():
    # unsplit forward Euler: both reactions and transport see the same old
    # field, so with u = k = 0 a step is exactly pointwise Euler chemistry
    grid = _box(5, 4.0)
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(0.0, 0.0, 0.0))
    net = bundled_ozone(k2=0.5)
    values = np.zeros((3, 5, 5, 5))
    values[:, 2, 2, 2] = [1.0, 2.0, 3.0]
    field = Field(grid, values.copy())
    dt = 0.1
    stepped = step3d(field, stability3d(params, grid, dt), net, NOON, dt)
    expected = values[:, 2, 2, 2] + dt * reaction_rates(
        net, NOON, values[:, 2, 2, 2], cell=(2, 2, 2)
    )
    np.testing.assert_allclose(stepped.values[:, 2, 2, 2], expected, rtol=1e-15)


def test_source_feeds_its_cell_only():
    grid = _box(5, 4.0)
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(0.0, 0.0, 0.0))
    net = bundled_ozone(k2=0.0, no_emission=3.0, cell=(1, 2, 3))
    field = Field.zeros(grid, 3)
    stepped = step3d(field, stability3d(params, grid, 2.0), net, 0.0, 2.0)
    assert stepped.values[0, 1, 2, 3] == 6.0  # NO only
    assert stepped.values.sum() == 6.0


def test_conservation_without_source_or_transport():
    # S has columns (1,-1,1) and (-1,1,-1): c1+c2 and c2+c3 are invariants
    grid = _box(5, 4.0)
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(0.0, 0.0, 0.0))
    net = bundled_ozone(k2=1e-3)
    rng = np.random.default_rng(5)
    values = rng.uniform(0.5, 2.0, size=(3, 5, 5, 5))
    field = Field(grid, values)
    from adr_lab import zero_dirichlet
    zero_dirichlet(field)
    s12 = field.values[0] + field.values[1]
    s23 = field.values[1] + field.values[2]
    rep = stability3d(params, grid, 0.1)
    for step in range(200):
        field = step3d(field, rep, net, NOON + step * 0.1, 0.1)
    np.testing.assert_allclose(field.values[0] + field.values[1], s12, rtol=1e-12)
    np.testing.assert_allclose(field.values[1] + field.values[2], s23, rtol=1e-12)


def test_boundary_stays_zero():
    grid = _box(6, 5.0)
    params = TransportParams(u=(0.5, 0.5, 0.5), k=(0.01, 0.01, 0.01))
    rng = np.random.default_rng(9)
    field = Field(grid, rng.uniform(0, 1, size=(1, 6, 6, 6)))
    rep = stability3d(params, grid, 0.5)
    for _ in range(3):
        field = step3d(field, rep, None, 0.0, 0.5)
        assert field.values[:, 0].max() == 0.0
        assert field.values[:, :, :, -1].max() == 0.0


def test_run_returns_slices_and_trajectories():
    grid = _box(7, 6.0)
    params = TransportParams(u=(0.1, 0.1, 0.1), k=(0.01, 0.01, 0.01))
    net = bundled_ozone(k2=1e-4, no_emission=1.0, cell=(1, 1, 1))
    init = Field.zeros(grid, 3)
    init.values[:, 1, 1, 1] = [1.0, 2.0, 3.0]
    series, states, _ = _recorded_run(
        init, params, net, 0.5, 10.0, [0.0, 5.0, 10.0],
        slice_axis="z", slice_index=1,
        trajectory_cells=[(1, 1, 1), (3, 3, 3)], trajectory_stride=4,
    )
    log = series.trajectories
    assert series.steps == [0, 10, 20]
    for step, plane in zip(series.steps, series.slices):
        np.testing.assert_array_equal(plane, states[step][:, :, :, 1])
    pts = trajectory_points(log)
    # 20 steps, sampled every 4th plus step 0: 6 samples x 2 cells
    assert pts.shape == (12, 3)
    assert series.stability.ok


def test_run_rejects_bad_slice_and_cells():
    grid = _box(7, 6.0)
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(0.01, 0.01, 0.01))
    init = Field.zeros(grid)
    with pytest.raises(ConfigurationError):
        run3d(init, params, None, 0.5, 1.0, [1.0], slice_axis="w")
    with pytest.raises(ConfigurationError):
        run3d(init, params, None, 0.5, 1.0, [1.0], slice_index=7)
    with pytest.raises(ConfigurationError):
        run3d(init, params, None, 0.5, 1.0, [1.0],
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
        run3d(init, params, None, 100.0, 10000.0, [10000.0],
              override_stability=True)
    assert exc.value.step >= 1
    where = re.search(r"after step (\d+) .* at species (\d+), cell \((\d+), (\d+), (\d+)\)",
                      str(exc.value))
    assert where, str(exc.value)
    step, species, *cell = map(int, where.groups())
    assert step == exc.value.step and species == 0
    assert all(1 <= c <= 3 for c in cell)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_location_with_blocks(monkeypatch):
    # the same forced divergence as above, in the second species, stepped as
    # three one-plane blocks on one thread and in a pool of three
    monkeypatch.setattr(solver3d, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(solver3d, "BLOCK_PLANES", 1)
    grid = _box(5, 4.0)
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(1.0, 1.0, 1.0))
    init = Field.zeros(grid, 2)
    init.values[1, 2, 2, 2] = 1e280
    messages = []
    for threads in (1, 3):
        with pytest.raises(DivergenceError) as exc:
            run3d(init, params, None, 100.0, 10000.0, [10000.0],
                  override_stability=True, threads=threads)
        where = re.search(r"after step (\d+) .* at species 1, cell \((\d), (\d), (\d)\)",
                          str(exc.value))
        assert where and int(where.group(1)) == exc.value.step >= 1, str(exc.value)
        assert all(1 <= int(c) <= 3 for c in where.groups()[1:])
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


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
        run3d(init, params, net, 1.0, 10.0, [10.0])
    assert exc.value.step == 1


def test_run_unstable_raises_stability_error():
    from adr_lab import StabilityError
    grid = _box(11, 10.0)
    params = TransportParams(u=(2.0, 0.0, 0.0), k=(0.0, 0.0, 0.0))
    with pytest.raises(StabilityError):
        run3d(Field.zeros(grid), params, None, 1.0, 5.0, [5.0])


def test_chemistry_rate_scale_hand_value(caplog):
    # The estimate is dt * max over species of the summed |dR/dc| bounds.  A has
    # zero maximum, so its bimolecular loss 2A -> B gives 5.0 * 2 * 0**1 = 0;
    # B -> 2C gives 0.4 * 1 * 3**0 times its largest |stoichiometry|, 2.
    grid = _box(5, 4.0)
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(0.0, 0.0, 0.0))
    net = ReactionNetwork(
        species=("A", "B", "C"),
        loss=np.array([[2, 0], [0, 1], [0, 0]]),
        gain=np.array([[0, 0], [1, 0], [0, 2]]),
        rates=(ConstantRate(5.0), ConstantRate(0.4)), sources=(),
    )
    init = Field.zeros(grid, 3)
    init.values[:, 2, 2, 2] = [0.0, 3.0, 1.0]
    with caplog.at_level("WARNING", logger="adr_lab.solver3d"):
        quiet = run3d(init, params, net, 0.5, 0.5, [0.5])
    assert quiet.chemistry_rate_scale == 0.5 * (2 * 0.4) and not caplog.records
    with caplog.at_level("WARNING", logger="adr_lab.solver3d"):
        loud = run3d(init, params, net, 1.0, 1.0, [1.0])
    assert loud.chemistry_rate_scale == 1.0 * (2 * 0.4)
    assert len(caplog.records) == 1 and "0.8 > 0.5" in caplog.records[0].getMessage()


# ---------------------------------------------------------------------------
# the active box: run3d steps only the cells the initial support and the
# sources can have reached, one cell per axis and step; the rest stay +0.0

BOX_PARAMS = TransportParams(u=(0.3, 0.2, 0.1), k=(0.05, 0.05, 0.05))
BOX_DT = 0.5
# a zero-order reaction (nothing -> A) makes A everywhere, then A -> B
ZERO_ORDER = ReactionNetwork(
    species=("A", "B"), loss=np.array([[0, 1], [0, 0]]), gain=np.array([[1, 0], [0, 1]]),
    rates=(ConstantRate(0.5), ConstantRate(0.25)),
)


def _spaced_grid(shape):
    return Grid(shape, tuple(float(n - 1) for n in shape))


def _whole_interior_run(init, network, steps):
    """The state after 0..steps steps, each step3d over the whole interior."""
    rep = stability3d(BOX_PARAMS, init.grid, BOX_DT)
    states, field = [init.values.copy()], init
    for n in range(steps):
        field = step3d(field, rep, network, n * BOX_DT, BOX_DT)
        states.append(field.values)
    return states


def _box_run(init, network, steps, threads=1):
    """run3d's state after 0..steps steps, the box each step was given and the series."""
    series, states, boxes = _recorded_run(init, BOX_PARAMS, network, BOX_DT, steps * BOX_DT,
                                          [n * BOX_DT for n in range(steps + 1)],
                                          threads=threads)
    assert series.steps == list(range(steps + 1)) and len(boxes) == steps
    return states, boxes, series


def _occupied(values):
    """Cells holding a value other than +0.0 in any species."""
    return ((values != 0) | np.signbit(values)).any(axis=0)


def _box_case(name):
    grid = _spaced_grid((14, 9, 8))
    values, network = np.zeros((3, *grid.shape)), None
    if name.startswith("sparse"):
        rng = np.random.default_rng(int(name[-1]))
        for _ in range(4):
            cell = tuple(int(rng.integers(1, n - 1)) for n in grid.shape)
            values[(int(rng.integers(0, 3)),) + cell] = rng.uniform(0.5, 2.0)
        network = bundled_ozone(k2=2.0**-10)
    elif name == "source-outside-support":
        values[:, 3, 3, 3] = [1.0, 2.0, 3.0]
        network = bundled_ozone(k2=2.0**-10, no_emission=5.0, cell=(11, 6, 5))
    elif name == "zero-order-reaction":
        values = np.zeros((2, *grid.shape))
        values[0, 6, 4, 4] = 1.0
        network = ZERO_ORDER
    elif name == "nonzero-boundary":
        values[0, 0, 4, 3] = 1.0
        values[2, 13, 2, 2] = 2.0
        values[1, 5, 0, 6] = 3.0
    elif name == "negative-zero":
        values[0, 3, 3, 3] = 1.0
        values[1, 9, 5, 5] = -0.0
    elif name == "all-zero":
        network = bundled_ozone(k2=2.0**-10)
    elif name == "negative-cell":
        values[0, 2, 2, 2] = 1.0
        values[1, 9, 5, 4] = -0.5
    elif name == "negative-interior":
        # every interior value of species 1 stays negative, so its box max is
        # below the +0.0 of the boundary
        values[0, 6, 4, 4] = 1.0
        values[1, 1:-1, 1:-1, 1:-1] = -np.random.default_rng(7).uniform(0.5, 1.0, (12, 7, 6))
    return Field(grid, values), network


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", ["sparse-1", "sparse-2", "source-outside-support",
                                  "zero-order-reaction", "nonzero-boundary",
                                  "negative-zero", "all-zero"])
def test_box_run_equals_whole_interior_steps_bitwise(monkeypatch, name, threads):
    monkeypatch.setattr(solver3d, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(solver3d, "BLOCK_PLANES", 3)
    init, network = _box_case(name)
    got, boxes, _ = _box_run(init, network, 8, threads)
    want = _whole_interior_run(init, network, 8)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    assert boxes[0] is not None


def _whole_field_positivity(values):
    """The first value below -1e-12 * max|values| as one scan of the whole field finds it."""
    tol = 1e-12 * float(np.abs(values).max())
    vmin = float(values.min())
    if not vmin < -tol:
        return None
    where = np.argwhere(values < -tol)[0]
    return {"species": int(where[0]), "cell": tuple(int(i) for i in where[1:]), "value": vmin}


@pytest.mark.parametrize("name", ["sparse-1", "sparse-2", "source-outside-support",
                                  "zero-order-reaction", "negative-cell", "negative-interior"])
def test_capture_records_equal_whole_field_reductions_bitwise(name):
    # a capture reduces over the box the last step wrote and folds in the
    # +0.0 outside it; every record must be what the whole field gives
    init, network = _box_case(name)
    states, _, series = _box_run(init, network, 6)
    for n, state in enumerate(states):
        assert series.maxima[n].tobytes() == np.array([v.max() for v in state]).tobytes()
        assert series.minima[n].tobytes() == np.array([v.min() for v in state]).tobytes()
        assert series.negatives[n] == _whole_field_positivity(state)
        assert series.l2_norms[n].hex() == l2_norm(Field(init.grid, state)).hex()
    found = [f for f in series.negatives if f is not None]
    assert bool(found) == name.startswith("negative"), found
    assert positivity_check(series) == (
        (False, {"snapshot": 0, "t": 0.0, **found[0]}) if found else (True, None))


@settings(max_examples=40, deadline=None)
@given(shape=st.tuples(*[st.integers(3, 8)] * 3), steps=st.integers(1, 5), data=st.data())
def test_box_holds_every_nonzero_cell_after_each_step(shape, steps, data):
    grid = _spaced_grid(shape)
    kind = data.draw(st.sampled_from(["transport", "source", "zero-order"]))
    values = np.zeros((2 if kind == "zero-order" else 3, *shape))
    cells = st.tuples(st.integers(0, values.shape[0] - 1),
                      *[st.integers(0, n - 1) for n in shape])
    for cell in data.draw(st.lists(cells, max_size=4)):
        values[cell] = data.draw(st.sampled_from([1.0, -0.0, 5e-324, -2.5, 1e3]))
    network = ZERO_ORDER if kind == "zero-order" else None
    if kind == "source":
        cell = data.draw(st.tuples(*[st.integers(1, n - 2) for n in shape]))
        network = bundled_ozone(k2=2.0**-10, no_emission=5.0, cell=cell)
    init = Field(grid, values)
    got, boxes, _ = _box_run(init, network, steps)
    want = _whole_interior_run(init, network, steps)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    for state, box in zip(want[1:], boxes):
        inside = np.zeros(shape, dtype=bool)
        inside[box] = True
        assert not (_occupied(state) & ~inside).any(), box


@pytest.mark.parametrize("value", [-0.0, np.nan, 5e-324, -np.inf])
def test_initial_box_counts_every_bitwise_non_zero_value(value):
    grid = _spaced_grid((9, 8, 7))
    values = np.zeros((3, *grid.shape))
    values[1, 2, 3, 4] = 1.0
    values[2, 6, 0, 5] = value  # on the boundary, below the other cell's box
    box = solver3d._initial_box(Field(grid, values), None)
    assert box == (slice(2, 7), slice(0, 4), slice(4, 6))


def test_step_writes_nothing_outside_its_box(monkeypatch):
    monkeypatch.setattr(solver3d, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(solver3d, "BLOCK_PLANES", 3)
    grid = _spaced_grid((16, 9, 8))
    net = bundled_ozone(k2=2.0**-10, no_emission=5.0, cell=(7, 4, 3))
    field = Field(grid, np.random.default_rng(31).uniform(0.0, 2.0, size=(3, *grid.shape)))
    rep = stability3d(BOX_PARAMS, grid, BOX_DT)
    whole = step3d(field, rep, net, NOON, BOX_DT).values
    box = (slice(5, 12), slice(2, 6), slice(3, 7))
    inside = (slice(None), *box)
    for threads in (1, 2):
        out = Field(grid, np.full(field.values.shape, np.nan))
        with ThreadPoolExecutor(1) as pool:
            step3d(field, rep, net, NOON, BOX_DT, out=out, pool=pool, threads=threads,
                   box=box)
        assert out.values[inside].tobytes() == whole[inside].tobytes()
        out.values[inside] = np.nan
        assert np.isnan(out.values).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("threads", [1, 2])
def test_divergence_location_inside_a_box_away_from_the_origin(monkeypatch, threads):
    # the finite check reads only the box, and must still name the cell by
    # its grid index: the first non-finite value of whole-interior steps
    monkeypatch.setattr(solver3d, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(solver3d, "BLOCK_PLANES", 3)
    grid = _spaced_grid((17, 16, 15))
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(1.0, 1.0, 1.0))
    init = Field.zeros(grid, 2)
    init.values[1, 10, 9, 8] = 1e300
    init.values[0, 11, 9, 8] = 1e290
    rep = stability3d(params, grid, 100.0)
    field, step = init, 0
    while np.isfinite(field.values).all():
        field = step3d(field, rep, None, step * 100.0, 100.0)
        step += 1
    bad = tuple(int(i) for i in np.argwhere(~np.isfinite(field.values))[0])
    assert 8 - step > 1  # the box still starts inside index 1 on every axis
    with pytest.raises(DivergenceError) as exc:
        run3d(init, params, None, 100.0, 1e5, [1e5], override_stability=True,
              threads=threads)
    assert exc.value.step == step
    assert f"after step {step} " in str(exc.value)
    assert f"at species {bad[0]}, cell {bad[1:]}" in str(exc.value)
