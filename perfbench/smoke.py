"""Smoke test of the benchmark itself, at the tiny scale.

Usage (from the root of a checkout):  python3 perfbench/smoke.py

Checks that every workload runs untraced and traced, that the result line and
the printed report carry every metric of BENCHMARK.json with its unit, that the
held-out seed passes, that the trace guard reports a missing patch point and a
layer with zero calls, that a corrupted digest is counted as a failed run, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([*SPEC["command"], "--seconds", "1", "--scale", "tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines() + proc.stderr.splitlines()


def result_of(code: int, lines: list[str]) -> tuple[dict, str]:
    if code != 0:
        raise AssertionError("benchmark failed:\n" + "\n".join(lines[-20:]))
    printed = "\n".join(lines)
    json_lines = [ln for ln in lines if ln.startswith("{")]
    return json.loads(json_lines[-1]), printed


def check_metrics(result: dict, printed: str, declared: list[dict]) -> None:
    names = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != names:
        raise AssertionError(f"metrics {got} != declared {names}")
    for name, unit in names.items():
        if not any(ln.split()[:1] == [name] and ln.split()[-1] == unit
                   for ln in printed.splitlines() if ln.strip()):
            raise AssertionError(f"{name} is not printed with unit {unit}")


def expect_guard(probe, what: str) -> None:
    try:
        probe()
    except tracing.TraceGuardError:
        return
    raise AssertionError(f"{what} was not reported by the trace guard")


def main() -> int:
    for name in sorted(workloads.WORKLOADS):
        result, printed = result_of(*bench("--workload", name, "--seed", "0", "--trace", "0"))
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        check_metrics(result, printed, SPEC["end_to_end"])
        for extra in ("run_s.p90", "failed_ratio"):
            assert f"  {extra} " in printed, f"{extra} not printed"
        assert "failed_ratio         0 ratio" in printed, printed

        result, printed = result_of(*bench("--workload", name, "--seed", "0", "--trace", "1"))
        assert result["correct"], result
        check_metrics(result, printed, SPEC["per_layer"])
        print(f"ok  {name}: untraced and traced", flush=True)

    sys.path.insert(0, str(ROOT / "src"))
    expect_guard(lambda: tracing._resolve("adr_lab.cli", "no_such_function"),
                 "a missing patch point")
    expect_guard(lambda: tracing.check_expected(
        {"cli.execute": 1.0}, ("cli.execute", "solver3d.step3d"), "ozone3d"),
        "a layer with zero calls")
    print("ok  trace guard", flush=True)

    result, _ = result_of(*bench("--workload", "compare2d", "--trace", "0",
                                 "--seed", str(workloads.HELD_OUT)))
    assert result["correct"], result
    print("ok  held-out seed", flush=True)

    scratch = ROOT / run.STATE_DIR / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        data = json.loads(run.DIGESTS.read_text())
        files = data["workloads"]["compare2d"]["tiny"]["0"]["files"]
        first = sorted(files)[0]
        files[first] = ("0" if files[first][0] != "0" else "1") + files[first][1:]
        corrupted = scratch / "digests.json"
        corrupted.write_text(json.dumps(data))
        # main() reads run.DIGESTS when it is called, so point it at the copy
        recorded, run.DIGESTS = run.DIGESTS, corrupted
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = run.main(["--workload", "compare2d", "--seed", "0", "--trace", "0",
                                 "--seconds", "1", "--scale", "tiny"])
        finally:
            run.DIGESTS = recorded
        result, printed = result_of(code, stdout.getvalue().splitlines())
        assert not result["correct"] and result["failed"] == result["attempted"] > 0, result
        ratio_line = next(ln for ln in printed.splitlines() if "failed_ratio" in ln)
        assert float(ratio_line.split()[1]) > 0, ratio_line
        print("ok  corrupted digest raises failed_ratio", flush=True)

        bare = scratch / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "compare2d", "--seed", "0", "--trace", "0",
                            cwd=bare)
        assert code != 0 and not any(ln.startswith("{") for ln in lines), lines
        print("ok  refuses to run without the program", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
