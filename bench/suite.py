#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json, each in a fresh process.

Usage, from the root of a checkout of the repository:

    python3 bench/suite.py --seed 42 --out bench/results/latest.json

For each workload it runs ``bench/run.py`` untraced (end-to-end metrics)
and then traced (per-layer metrics), prints every metric with its unit
and sample count, and writes all results with their provenance and output
checks to ``--out``. It exits non-zero if any run failed an output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
    except (IndexError, ValueError, KeyError):
        return {"exit": proc.returncode, "correct": False, "error": proc.stderr[-2000:]}
    metrics = {name: dict(m, samples=detail["samples"][name])
               for name, m in result["metrics"].items()}
    return {"exit": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics, "counts": detail["counts"], "checks": detail["checks"],
            "provenance": detail["provenance"]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=BENCH / "results" / "latest.json")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    runs = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            run = run_one(workload, args.seed, seconds, trace)
            runs[workload][kind] = run
            good = run["exit"] == 0 and run["correct"]
            ok &= good
            print(f"== {workload} {kind}: {'ok' if good else 'FAILED'}", flush=True)
            for name, m in run.get("metrics", {}).items():
                print(f"   {name:40s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}",
                      flush=True)
            for check in run.get("checks", []):
                if not check["ok"]:
                    print(f"   CHECK FAILED: {check['name']} ({check['detail']})")
            if "error" in run:
                print(run["error"])

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"seed": args.seed, "seconds": seconds,
                                    "runs": runs}, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
