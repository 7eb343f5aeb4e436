"""End-to-end acceptance suite.

Each criterion is one test function, so `pytest -v` prints exactly one
pass/fail line per criterion.  The heavyweight 3-D scenario runs once per
thread setting in a session fixture and is shared by criteria 7, 8 and 10.
"""

import hashlib
import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from adr_lab import (
    ConstantRate,
    Field,
    Grid,
    PhotolysisK1,
    ReactionNetwork,
    TransportParams,
    build_series,
    convergence_order,
    l2_norm,
    run3d,
    stability2d,
    stability3d,
    step2d,
    step3d,
    zero_dirichlet,
)
from adr_lab.cli import bundled_config_path, execute, parse_config
from oracles import boundedness_check, bundled_ozone, compute_dbar, max_pairwise_distance

SINE = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)

# regression baselines for the 46x46 / dt=1e-4 / M=N=40 benchmark, frozen
# from an independent naive-loop solver checked against high-resolution
# adaptive quadrature (measured 1.2116e-3, 1.2844e-3, 7.283e-4; 0.5% slack)
ERROR_BASELINES = {0.05: 1.218e-3, 0.09: 1.291e-3, 0.12: 7.32e-4}

# reference values for the 3-D scenario's reported concentration maxima
REFERENCE_3D = {
    # NO2 and O3 are not asserted: these values cannot be global maxima of
    # the scenario.  Over 0-600 s photolysis is off (k1 = 1e-40), NO + O3
    # only makes NO2, and the plume stays far from the outflow faces, so the
    # grid keeps its NO2 mass of 5e11 per cm^3 * 1e7 cm^3 = 5e18 per-cell
    # units and the global maximum is at least 5e18 / 101^3 = 4.85e12
    # (4.85e5 per cm^3).  The values below fall under that bound in either
    # unit, and they drop 950x from t=200 to t=300, which the maximum of a
    # conserved passive plume cannot.  What they measure is not known; they
    # are kept in case their definition is found.  Criterion 7 checks both
    # maxima against the exact peak of the upwind scheme instead.
    "NO2": {200.0: 74.385, 300.0: 0.078},
    "O3": {200.0: 119.017, 300.0: 0.126},
    # steady state of the source cell: each step adds S*V*dt = 1e6 * 1e7 * 1
    # = 1e13 and the upwind stencil moves out a fraction sum(c_a) = 0.3, so
    # 1e13 / 0.3 = 3.333e13 (the program gives 3.33332e13).  This also shows
    # the reference set is in per-cell units.
    "NO": {200.0: 3.3e13},
}

# relative tolerance of the closed-form plume peak; the neglected diffusion
# term (diffusion number 2e-7) accounts for a residual of about 1.3e-5
PULSE_RTOL = 1e-4


def _upwind_pulse_peak(n_steps: int, courant) -> float:
    """Largest cell value, per unit mass, of a point pulse after n_steps.

    Without diffusion and chemistry, one step of the unsplit upwind stencil
    keeps a fraction 1 - sum(c) of each cell in place and moves a fraction
    c_a one cell along axis a.  After n steps the pulse is the multinomial
    pmf n! / (s! a! b! m!) (1 - sum c)^s c_x^a c_y^b c_z^m with s + a + b + m
    = n.  Every mode of a multinomial lies within 3 of n*c per count
    (Finucan, 1964), so a window of 4 around round(n*c) holds the peak.
    """
    stay = 1.0 - sum(courant)
    log_c = [math.log(c) for c in courant]
    ranges = [
        range(max(0, round(n_steps * c) - 4), round(n_steps * c) + 5)
        for c in courant
    ]
    best = -math.inf
    for a in ranges[0]:
        for b in ranges[1]:
            for m in ranges[2]:
                s = n_steps - a - b - m
                if s < 0:
                    continue
                log_p = (
                    math.lgamma(n_steps + 1) - math.lgamma(s + 1)
                    - math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(m + 1)
                    + s * math.log(stay)
                    + a * log_c[0] + b * log_c[1] + m * log_c[2]
                )
                best = max(best, log_p)
    return math.exp(best)


def _execute_bundled(name: str, out: Path, threads: int) -> int:
    return execute(parse_config(bundled_config_path(name)), out, threads=threads)


def _run_per_thread_setting(tmp_path_factory, name: str, prefix: str) -> dict:
    """Run a bundled config via the CLI layer with threads=1 and threads=4.

    The two runs are independent, so they run at the same time in two
    worker processes.
    """
    outs = {threads: tmp_path_factory.mktemp(f"{prefix}-t{threads}") for threads in (1, 4)}
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        codes = list(pool.map(_execute_bundled, [name] * 2, outs.values(), outs))
    assert codes == [0, 0]
    return outs


@pytest.fixture(scope="session")
def compare_runs(tmp_path_factory):
    """The 2-D benchmark, run once per thread setting."""
    return _run_per_thread_setting(tmp_path_factory, "benchmark-2d.yaml", "compare")


@pytest.fixture(scope="session")
def ozone_runs(tmp_path_factory):
    """The full 101^3 x 600-step 3-D scenario, once per thread setting."""
    return _run_per_thread_setting(tmp_path_factory, "ozone-3d.yaml", "ozone")


def _manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


def _csv_hashes(out_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir()) if p.suffix == ".csv"
    }


def test_criterion_01_stability_numbers():
    grid = Grid((46, 46), (1.0, 1.0))
    rep = stability2d(TransportParams(u=(5.0, 5.0), k=(0.5, 0.5)), grid, 1e-4)
    assert abs(rep.numbers["Rx"] - 0.10125) < 1e-6
    assert abs(rep.numbers["Px"] - 0.1111) < 1e-3
    assert rep.ok


def test_criterion_02_photolysis_peak_and_period():
    noon = 12 * 3600.0
    k1 = PhotolysisK1()
    assert abs(k1(noon) - 1.0966e-2) < 1e-5
    assert k1(2 * 3600.0) == 1e-40
    for t in (0.0, 7200.0, noon, 61200.0, 86399.5):
        assert k1(t + 86400.0) == k1(t)
        assert k1(t + 10 * 86400.0) == k1(t)


def test_criterion_03_2d_error_under_frozen_baseline(compare_runs):
    rows = (compare_runs[1] / "error_report.csv").read_text().splitlines()[1:]
    seen = {}
    for row in rows:
        t, emax, _ = (float(v) for v in row.split(","))
        # recorded times are step*dt and carry float rounding
        t_ref = min(ERROR_BASELINES, key=lambda r: abs(r - t))
        assert abs(t - t_ref) < 1e-9
        seen[t_ref] = emax
    assert set(seen) == set(ERROR_BASELINES)
    for t, baseline in ERROR_BASELINES.items():
        assert seen[t] < baseline, f"t={t}: {seen[t]} >= baseline {baseline}"


def test_criterion_04_spatial_convergence_order():
    sol = build_series(SINE, 5.0, 0.5, M=40, N=40)
    base = Grid((46, 46), (1.0, 1.0))
    levels = []
    for nx in (24, 46, 91):
        g = Grid((nx, nx), (1.0, 1.0))
        levels.append((g, 1e-4 * (g.spacing[0] / base.spacing[0]) ** 2))
    order, _ = convergence_order(levels, sol, 0.05, initial_profile=SINE)
    assert 1.7 <= order <= 2.3, f"measured order {order}"


def test_criterion_05_positivity_and_maximum_principle():
    rng = np.random.default_rng(20260826)
    accepted = 0
    while accepted < 100:
        nx = int(rng.integers(5, 24))
        ny = int(rng.integers(5, 24))
        k = float(rng.uniform(0.05, 2.0))
        grid = Grid((nx, ny), (1.0, 1.0))
        dx, dy = grid.spacing
        u = float(rng.uniform(0.0, 0.95)) * 2 * k / max(dx, dy)
        dt = float(rng.uniform(0.1, 0.95)) / (
            2 * k / dx**2 + 2 * k / dy**2
        )
        params = TransportParams(u=(u, u), k=(k, k))
        rep = stability2d(params, grid, dt)
        if not rep.ok:
            continue
        accepted += 1
        field = Field(grid, rng.uniform(0.0, 10.0, size=(1, nx, ny)))
        zero_dirichlet(field)
        m0 = field.values.max()
        for _ in range(5):
            field = step2d(field, rep)
            assert field.values.min() >= 0.0, f"negative value, config {accepted}"
            assert field.values.max() <= m0 * (1 + 1e-14), \
                f"max principle violated, config {accepted}"
    assert accepted == 100


def test_criterion_06_stoichiometric_conservation():
    grid = Grid((5, 5, 5), (40.0, 40.0, 40.0))
    params = TransportParams(u=(0.0, 0.0, 0.0), k=(0.0, 0.0, 0.0))
    net = bundled_ozone(k2=1e-23)
    rng = np.random.default_rng(1)
    field = Field(grid, rng.uniform(1e14, 1e18, size=(3, 5, 5, 5)))
    zero_dirichlet(field)
    s12 = field.values[0] + field.values[1]
    s23 = field.values[1] + field.values[2]
    dt = 1.0
    rep = stability3d(params, grid, dt)
    for step in range(10_000):
        field = step3d(field, rep, net, step * dt, dt)
    interior = (slice(1, -1),) * 3
    np.testing.assert_allclose(
        (field.values[0] + field.values[1])[interior], s12[interior], rtol=1e-12
    )
    np.testing.assert_allclose(
        (field.values[1] + field.values[2])[interior], s23[interior], rtol=1e-12
    )


def test_criterion_07_3d_scenario(ozone_runs):
    manifest = _manifest(ozone_runs[1])
    times = manifest["snapshot_times"]
    maxima = manifest["max_per_species"]
    failures = []

    no2 = maxima["NO2"]
    if not all(a > b for a, b in zip(no2, no2[1:])):
        failures.append(f"NO2 global max not monotonically decreasing: {no2}")

    for t_ref, expected in REFERENCE_3D["NO"].items():
        value = maxima["NO"][times.index(t_ref)]
        if not (expected / 2 <= value <= expected * 2):
            failures.append(
                f"NO max at t={t_ref}: {value:.4g} outside factor-2 "
                f"band of {expected} (offset x{value / expected:.3g})"
            )

    # NO2 and O3 start as a point pulse at night, so away from the source
    # their global maxima follow the upwind scheme's closed-form peak
    cfg = parse_config(bundled_config_path("ozone-3d.yaml"))
    grid = cfg.grid
    courant = [u * cfg.dt / d for u, d in
               zip(cfg.transport.u, grid.spacing)]
    for species in ("NO2", "O3"):
        s = cfg.network.species.index(species)
        mass = cfg.raw["initial"]["values"][s] * cfg.unit_factor
        for t_ref in (200.0, 300.0):
            value = maxima[species][times.index(t_ref)]
            expected = mass * _upwind_pulse_peak(round(t_ref / cfg.dt), courant)
            rel = value / expected - 1.0
            if not abs(rel) <= PULSE_RTOL:
                failures.append(
                    f"{species} max at t={t_ref}: {value:.7g} vs closed-form "
                    f"upwind peak {expected:.7g} (relative difference {rel:.3g})"
                )

    wall = manifest["wall_seconds"]
    if not wall < 600.0:
        failures.append(f"wall time {wall:.1f}s exceeds 600s")
    if not manifest["cell_updates_per_second"] > 0:
        failures.append("throughput missing from manifest")

    assert not failures, "; ".join(failures)


def test_criterion_08_bitwise_determinism_across_threads(compare_runs, ozone_runs):
    assert _csv_hashes(compare_runs[1]) == _csv_hashes(compare_runs[4])
    oz1, oz4 = _csv_hashes(ozone_runs[1]), _csv_hashes(ozone_runs[4])
    assert len(oz1) >= 10  # 9 slices plus trajectories
    assert oz1 == oz4


def test_bundled_csv_bytes_match_recorded_digests(compare_runs, ozone_runs):
    # SHA-256 of every CSV of the two bundled configs, recorded before the
    # 2-D and 3-D solvers shared one grid and one time loop; a refactor that
    # keeps the numerics must leave every byte in place
    recorded = json.loads(
        (Path(__file__).parent / "data" / "bundled_digests.json").read_text()
    )
    assert _csv_hashes(compare_runs[1]) == recorded["benchmark-2d.yaml"]
    assert _csv_hashes(ozone_runs[1]) == recorded["ozone-3d.yaml"]


def test_criterion_09_norm_growth_bound():
    # monomolecular two-species exchange evolved by the 3-D scheme
    net = ReactionNetwork(
        species=("A", "B"),
        loss=np.array([[1, 0], [0, 1]]),
        gain=np.array([[0, 1], [1, 0]]),
        rates=(ConstantRate(0.5), ConstantRate(0.25)),
        sources=(),
    )
    est = compute_dbar(net)
    grid = Grid((11, 11, 11), (100.0, 100.0, 100.0))
    params = TransportParams(u=(1.0, 1.0, 1.0), k=(2e-5, 2e-5, 2e-5))
    rng = np.random.default_rng(9)
    init = Field(grid, rng.uniform(0.0, 2.0, size=(2, 11, 11, 11)))
    zero_dirichlet(init)
    snapshot_times = [0.0, 10.0, 25.0, 50.0, 75.0, 100.0]
    series = run3d(init, params, net, 1.0, 100.0, snapshot_times)
    norms = series.l2_norms
    ok, margins = boundedness_check(series.times, norms, est, l2_norm(init))
    assert ok, f"bound violated, margins {margins}"


def test_criterion_10_trajectory_clustering(ozone_runs):
    data = np.loadtxt(ozone_runs[1] / "trajectories.csv",
                      delimiter=",", skiprows=1)
    t = data[:, 0]
    conc = data[:, 4:7]
    early = max_pairwise_distance(conc[t < 100.0])
    late = max_pairwise_distance(conc[t >= 400.0])
    assert late < early, f"late diameter {late} not below early {early}"
