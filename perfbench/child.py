"""One repetition: a fresh interpreter that sets up the program and runs it.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the checkout's src directory, the config to parse, the output
directory, how many execute calls to make, the --threads value, whether to
trace, and where to write the result.  Timing covers only `import adr_lab` plus
`parse_config` (set-up) and each `execute` call; hashing the outputs happens
outside both.
"""

import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

TRACE_GUARD_EXIT = 3  # run.py turns this exit code into a loud failure


def _outputs(out: Path) -> dict:
    """CSV digests, manifest status and compare max_errors of one call."""
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.glob("*.csv"))}
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.is_file() else {}
    max_errors = manifest.get("max_errors")
    return {
        "digests": digests,
        "status": manifest.get("status"),
        "max_errors": [float(v).hex() for v in max_errors] if max_errors else None,
    }


def _peak_rss_mb() -> float:
    """High-water RSS of this process since its exec (Linux VmHWM).

    getrusage's ru_maxrss is not used: Linux carries the parent's high-water
    mark across fork and exec into it, so it would report run.py's memory.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    t_setup = time.perf_counter()
    import adr_lab
    from adr_lab import cli
    cfg = cli.parse_config(spec["config"])
    setup_s = time.perf_counter() - t_setup
    if src not in Path(adr_lab.__file__).resolve().parents:
        raise SystemExit(f"imported {adr_lab.__file__}, not the package under {src}")

    tracer = None
    if spec["trace"]:
        from tracing import TraceGuardError, Tracer
        tracer = Tracer()
        try:
            tracer.install()
        except TraceGuardError as exc:
            print(f"trace guard: {exc}", file=sys.stderr)
            sys.exit(TRACE_GUARD_EXIT)

    calls = []
    for i in range(spec["calls"]):
        out = Path(spec["out_dir"]) / f"call{i}"
        if tracer is not None:
            tracer.run_id = i
        start = time.perf_counter()
        code = cli.execute(cfg, out, threads=spec["threads"])
        seconds = time.perf_counter() - start
        calls.append({"seconds": seconds, "exit_code": code, **_outputs(out)})
        shutil.rmtree(out)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "calls": calls,
        "spans": tracer.spans if tracer is not None else None,
    }
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
