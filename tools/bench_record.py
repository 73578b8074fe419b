"""Record one benchmark run of this checkout as ``BENCH_<label>.json``.

Runs ``BENCHMARK.json``'s command (``python3 perfbench/run.py``) with
``--workload all`` twice, as a subprocess: with ``--trace 0`` for the
end-to-end metrics and with ``--trace 1`` for the per-layer metrics (tracing
slows a run, so the two cannot share one).  Each run's output passes through
to stdout.  The file holds the commit
(``git rev-parse HEAD``), whether tracked files differed from it, and per run
the command line, its exit status, its ``env`` line and its summary (the last
line of its output)::

    python tools/bench_record.py --label NAME [--seconds S]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.  The exit
status is the first non-zero status of the two runs, else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def run_bench(manifest: dict, seconds: float, trace: int) -> dict:
    """One run of the benchmark's command: its command line, status, ``env`` line and summary."""
    command = [*manifest["command"], "--workload", "all", "--seconds", f"{seconds:g}", "--trace", str(trace)]
    env, last = None, ""
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            sys.stdout.write(line)
            if line.startswith("env "):
                env = json.loads(line[4:])
            if line.strip():
                last = line
    try:
        summary = json.loads(last)
    except json.JSONDecodeError:
        summary = None
    return {"command": command, "status": proc.returncode, "env": env, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    parser.add_argument("--seconds", type=float, default=None,
                        help="passed to perfbench/run.py; defaults to BENCHMARK.json's run_seconds")
    args = parser.parse_args(argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = manifest["run_seconds"] if args.seconds is None else args.seconds

    record = {
        "head": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "runs": {f"trace{trace}": run_bench(manifest, seconds, trace) for trace in (0, 1)},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return next((run["status"] for run in record["runs"].values() if run["status"]), 0)


if __name__ == "__main__":
    raise SystemExit(main())
