"""adr-lab benchmark: one workload, closed loop, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ozone3d|compare2d|snapshots3d \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

Each repetition is a fresh child interpreter that imports adr_lab from the
checkout's src/, parses the generated config and calls cli.execute; the next
repetition starts only after the previous one ends, until the next would
overrun --seconds.  Every call's CSV outputs are checked against the digests
recorded for the seed.  With --trace 1, untraced and traced repetitions
alternate: the traced ones give the per-layer metrics, and the pair gives the
tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

import tracing
import workloads
from child import TRACE_GUARD_EXIT

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
STATE_DIR = ".perfbench"
THREADS = min(2, os.cpu_count() or 1)
RUN_BUDGET_S = 170.0
P90_MIN_CALLS = 100
# Children run with every BLAS/OpenMP pool at one thread.  With the default
# pool, an OpenBLAS worker keeps spinning on the second core after each matrix
# product, so a compare2d child burned two cores' CPU time per second of wall
# time and its timing depended on whether the second core was free.
CHILD_THREAD_ENV = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}

END_TO_END_UNITS = {
    "wall_s": "s",
    "run_s.p50": "s",
    "cell_updates_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (missing program, record or trace point)."""


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
        return int(out) if out.isdigit() else None
    except (OSError, subprocess.SubprocessError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_thread_env": CHILD_THREAD_ENV,
    }


def program_src(root: Path) -> Path:
    src = root / "src"
    if not (src / "adr_lab" / "__init__.py").is_file():
        raise BenchmarkError(f"no adr_lab package under {src}; run from a checkout root")
    return src


def write_config(config: dict, path: Path) -> None:
    text = yaml.safe_dump(config, sort_keys=False)
    if yaml.safe_load(text) != config:
        raise BenchmarkError("generated config does not survive a YAML round trip")
    path.write_text(text)


def run_child(root: Path, work: Path, tag: str, config_path: Path, calls: int,
              threads: int, trace: bool, timeout: float) -> tuple[dict | None, str]:
    """Run one repetition; returns (result or None, stderr tail)."""
    spec = {
        "src": str(program_src(root)),
        "config": str(config_path),
        "out_dir": str(work / f"out-{tag}"),
        "calls": calls,
        "threads": threads,
        "trace": trace,
        "result": str(work / f"result-{tag}.json"),
    }
    spec_path = work / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              cwd=root, env={**os.environ, **CHILD_THREAD_ENV},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repetition {tag} exceeded {timeout:.0f} s"
    if proc.returncode == TRACE_GUARD_EXIT:
        raise tracing.TraceGuardError(proc.stderr.strip())
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.is_file():
        return None, proc.stderr[-2000:]
    return json.loads(result_path.read_text()), proc.stderr[-2000:]


def load_record(path: Path, workload: str, scale: str, variant: int) -> dict:
    try:
        data = json.loads(path.read_text())
        return data["workloads"][workload][scale][str(variant)]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchmarkError(
            f"no recorded outputs for {workload}/{scale}/variant {variant} in {path}; "
            "record them with perfbench/record.py on the commit that defines them"
        ) from exc


def call_problems(call: dict, record: dict) -> list[str]:
    """Why one execute call fails the output check (empty when it passes)."""
    problems = []
    if call["exit_code"] != 0:
        problems.append(f"exit code {call['exit_code']}")
    if call["status"] != "ok":
        problems.append(f"manifest status {call['status']!r}")
    expected = record["files"]
    for name in sorted(expected.keys() | call["digests"].keys()):
        if call["digests"].get(name) != expected.get(name):
            problems.append(f"{name} differs from its recorded digest")
    if record.get("max_errors") is not None and call["max_errors"] != record["max_errors"]:
        problems.append(f"max_errors {call['max_errors']} != recorded {record['max_errors']}")
    return problems


def _fmt_bytes(n: int | None) -> str:
    return "unknown" if not n else f"{n / 2**20:.1f} MiB"


def end_to_end(children: list[dict], updates_per_call: int) -> tuple[dict, int, float | None]:
    """End-to-end metrics of untraced repetitions, the pooled call count and p90."""
    walls = [sum(c["seconds"] for c in ch["calls"]) for ch in children]
    per_call = [c["seconds"] for ch in children for c in ch["calls"]]
    rates = [len(ch["calls"]) * updates_per_call / w
             for ch, w in zip(children, walls)]
    m = {
        "wall_s": statistics.median(walls),
        "run_s.p50": statistics.median(per_call),
        "cell_updates_per_s": statistics.median(rates),
        "setup_s": statistics.median(ch["setup_s"] for ch in children),
        "peak_rss_mb": statistics.median(ch["peak_rss_mb"] for ch in children),
    }
    return m, len(per_call), (statistics.quantiles(per_call, n=10, method="inclusive")[-1]
                              if len(per_call) >= P90_MIN_CALLS else None)


def measure(args, root: Path, work: Path) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    variant = workloads.variant(args.seed)
    record = load_record(DIGESTS, workload.name, args.scale, variant)
    config = workload.config(args.seed, args.scale)
    config_path = work / f"{workload.name}.yaml"
    write_config(config, config_path)
    calls = workload.calls_per_child[args.scale]

    started = time.perf_counter()
    deadline = started + args.seconds
    children, traced, durations, failures = [], [], [], []
    attempted = failed = 0
    while True:
        trace_this = bool(args.trace) and len(durations) % 2 == 1
        t0 = time.perf_counter()
        timeout = max(5.0, RUN_BUDGET_S - (t0 - started))
        result, stderr = run_child(root, work, str(len(durations)), config_path, calls,
                                   THREADS, trace_this, timeout)
        durations.append(time.perf_counter() - t0)
        if result is None:
            attempted += calls
            failed += calls
            failures.append(stderr.strip().splitlines()[-1] if stderr.strip() else "crashed")
        else:
            for call in result["calls"]:
                attempted += 1
                problems = call_problems(call, record)
                if problems:
                    failed += 1
                    failures.append("; ".join(problems))
            (traced if trace_this else children).append(result)
        enough = children and (traced or not args.trace)
        if enough and time.perf_counter() + statistics.median(durations) > deadline:
            break
        if not enough and time.perf_counter() - started > RUN_BUDGET_S / 2:
            break
    if not children or (args.trace and not traced):
        raise BenchmarkError("no repetition completed: " + "; ".join(failures[-3:]))

    e2e, pooled, p90 = end_to_end(children, workloads.cell_updates(config))
    out = {
        "workload": workload.name, "seed": args.seed, "variant": variant,
        "scale": args.scale, "loop": "closed, 1 client", "threads": THREADS,
        "seconds": args.seconds, "field_bytes": workloads.field_bytes(config),
        "repetitions": len(children) + len(traced), "pooled_calls": pooled,
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "end_to_end": e2e, "run_s.p90": p90,
        "untraced_children": [{k: v for k, v in ch.items() if k != "spans"}
                              for ch in children],
    }
    if args.trace:
        untraced_call_s = [c["seconds"] for ch in children for c in ch["calls"]]
        per_layer, layer_calls, shares = tracing.layer_metrics(
            traced, untraced_call_s, workloads.field_bytes(config))
        tracing.check_expected(layer_calls, workload.expected_layers, workload.name)
        out.update(per_layer=per_layer, layer_calls=layer_calls, self_shares=shares)
    return out


def report(out: dict, machine: dict, trace: bool) -> dict:
    print(f"perfbench {out['workload']}: seed {out['seed']} (variant {out['variant']}), "
          f"scale {out['scale']}, {out['loop']}, --threads {out['threads']}, "
          f"{out['seconds']} s")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"field: {out['field_bytes'] / 1e6:.2f} MB per full field "
          f"(L2 {_fmt_bytes(machine['l2_bytes'])}, L3 {_fmt_bytes(machine['l3_bytes'])})")
    print(f"repetitions: {out['repetitions']}, untraced execute calls pooled: "
          f"{out['pooled_calls']}")
    for name, value in out["end_to_end"].items():
        print(f"  {name:<20} {value:.6g} {END_TO_END_UNITS[name]}")
    if out["run_s.p90"] is not None:
        print(f"  {'run_s.p90':<20} {out['run_s.p90']:.6g} s")
    else:
        print(f"  {'run_s.p90':<20} not reported: {out['pooled_calls']} calls pooled, "
              f"needs {P90_MIN_CALLS}")
    ratio = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"  {'failed_ratio':<20} {ratio:.6g} ratio ({out['failed']}/{out['attempted']})")
    for problem in out["failures"][:5]:
        print(f"  failed: {problem}")
    if trace:
        print("per layer (per execute call unless named per step or per call):")
        for name, value in out["per_layer"].items():
            print(f"  {name:<45} {value:.6g} {tracing.PER_LAYER_UNITS[name]}")
        print("self-time shares of traced execute time:")
        for layer, share in sorted(out["self_shares"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<45} {100 * share:6.2f} %  "
                  f"({out['layer_calls'][layer]:g} calls per execute)")
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]}
                   for k, v in out["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in out["end_to_end"].items()}
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    state = root / STATE_DIR
    work = state / f"work-{os.getpid()}"
    try:
        program_src(root)
        work.mkdir(parents=True)
        machine = machine_info()
        out = measure(args, root, work)
    except (BenchmarkError, tracing.TraceGuardError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = report(out, machine, bool(args.trace))
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": machine, **out, "result": line}, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
