"""Record the reference outputs the benchmark checks every run against.

Usage (from the root of a checkout):

    python3 perfbench/record.py [--scale full|tiny]

For every registered variant of each workload this runs one execute call at
--threads 1 and stores the SHA-256 digest of every CSV it writes (never the
manifest, which carries timings) and, for compare runs, the manifest's
max_errors as exact float hex strings.  Record on the commit whose outputs
define correctness; never re-record to make a failing run pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import run
import workloads


def record_variant(root: Path, work: Path, name: str, scale: str, variant: int) -> dict:
    config_path = work / f"{name}-{variant}.yaml"
    run.write_config(workloads.WORKLOADS[name].config(variant, scale), config_path)
    result, stderr = run.run_child(root, work, f"{name}-{variant}", config_path,
                                   calls=1, threads=1, trace=False, timeout=600)
    if result is None:
        raise run.BenchmarkError(f"{name} variant {variant} failed:\n{stderr}")
    call = result["calls"][0]
    if call["exit_code"] != 0 or call["status"] != "ok":
        raise run.BenchmarkError(
            f"{name} variant {variant}: exit code {call['exit_code']}, "
            f"status {call['status']!r}")
    return {"files": call["digests"], "max_errors": call["max_errors"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    data = (json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file()
            else {"threads": 1, "workloads": {}})
    work = root / run.STATE_DIR / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for name in sorted(workloads.WORKLOADS):
            entries = data["workloads"].setdefault(name, {}).setdefault(args.scale, {})
            for variant in workloads.registered_variants():
                entries[str(variant)] = record_variant(root, work, name, args.scale, variant)
                print(f"recorded {name}/{args.scale}/{variant}", flush=True)
    except run.BenchmarkError as exc:
        print(f"record: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
