"""Print every metric of every workload in one table.

Usage, from the root of a checkout::

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--workloads a,b]

For each workload this runs ``perfbench/run.py`` untraced, then traced,
and prints the end-to-end metrics by name with their units, the result
of the correctness check, and then the per-layer table.  Workloads not
listed in ``BENCHMARK.json`` (the sharded burst) are run too and marked
as ungated.  Exits 1 if any run fails or any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    completed = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
        return None
    lines = completed.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith(("environment:", "latency:", "check failed:")):
            print(f"  [{workload}{' traced' if trace else ''}] {line}")
    return json.loads(lines[-1])


def table(title: str, names: list[str], results: dict[str, dict]) -> None:
    workloads = list(results)
    width = max(len(name) for name in names) + 2
    column = max([14] + [len(w) + 2 for w in workloads])
    print(f"\n{title}")
    print(" " * width + "".join(f"{w:>{column}s}" for w in workloads) + "  unit")
    for name in names:
        cells = []
        unit = ""
        for workload in workloads:
            metric = results[workload]["metrics"].get(name)
            cells.append("-" if metric is None else f"{metric['value']:.6g}")
            unit = metric["unit"] if metric else unit
        print(f"{name:<{width}}" + "".join(f"{cell:>{column}s}" for cell in cells) + f"  {unit}")


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)

    untraced: dict[str, dict] = {}
    traced: dict[str, dict] = {}
    healthy = True
    for workload in args.workloads.split(","):
        label = workload if workload in gated else f"{workload} (ungated)"
        print(f"{label}: should move {WORKLOADS[workload].moves}; flat: {', '.join(WORKLOADS[workload].flat)}")
        for trace, into in ((0, untraced), (1, traced)):
            result = run_one(workload, args.seed, args.seconds, trace)
            if result is None:
                healthy = False
                continue
            into[label] = result
            healthy &= result["correct"]
            print(
                f"{label}{' traced' if trace else ''}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
    table(
        "end to end (tracing off)",
        [metric["name"] for metric in spec["end_to_end"]],
        untraced,
    )
    table(
        "per layer (traced run)",
        [metric["name"] for metric in spec["per_layer"]],
        traced,
    )
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
