"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-burst-active --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
timed phase twice, untraced then with every layer wrapped, and reports
the per-layer metrics plus the tracing overhead; the span log goes to
``.bench_out/`` in the checkout.  Human-readable lines come first; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib.util
import inspect
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from stats import median, percentile, quantile_or_zero, within_eps_frac
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "rounds_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ok_frac": "frac",
    "slo_ok_frac": "frac",
    "within_eps_frac": "frac",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Put the checkout's ``src/`` first on the path and import it."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source at {source}; run from a "
            f"checkout of the repository"
        )
    sys.path.insert(0, str(source))
    import repro  # noqa: F401


def environment() -> dict:
    """Where the numbers were measured."""
    import numpy
    from repro.sim.backends import active_backend

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": active_backend().name,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


class Runner:
    """Calls workload hooks, running coroutine hooks on one event loop."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()

    def __call__(self, hook, *args):
        result = hook(*args)
        if inspect.isawaitable(result):
            result = self.loop.run_until_complete(result)
        return result

    def close(self) -> None:
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()


def timed_setup(call, workload):
    started = time.perf_counter()
    session = call(workload.setup)
    return session, time.perf_counter() - started


def end_to_end(phase, setup_s: float) -> dict[str, float]:
    ok = [op for op in phase.ops if op.ok]
    p50 = percentile(phase.latency_samples, 0.5)
    p90 = percentile(phase.latency_samples, 0.9)
    print(
        f"latency: {p90.samples} samples; p50 has {p50.beyond} beyond, "
        f"p90 has {p90.beyond} beyond"
    )
    return {
        "setup_s": setup_s,
        "ops_per_s": median(phase.window_ops),
        "rounds_per_s": median(phase.window_rounds),
        "latency_p50_s": p50.value,
        "latency_p90_s": p90.value,
        "ok_frac": len(ok) / phase.attempted,
        "slo_ok_frac": sum(
            1 for op in ok if op.latency <= phase.latency_limit_s
        ) / phase.attempted,
        "within_eps_frac": within_eps_frac(
            answer for op in ok for answer in op.scored
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _failed(phase, failures) -> int:
    return sum(1 for op in phase.ops if not op.ok) + len(failures)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, seconds)
    call = Runner()
    try:
        if not trace:
            setups = []
            for attempt in range(workload.setups):
                session, seconds_taken = timed_setup(call, workload)
                setups.append(seconds_taken)
                if attempt < workload.setups - 1:
                    call(workload.teardown, session)
            phase = call(workload.measure, session, seconds)
            call(workload.teardown, session)
            failures = workload.check(phase)
            metrics = end_to_end(phase, median(setups))
            units = END_TO_END_UNITS
            attempted, failed = phase.attempted, _failed(phase, failures)
        else:
            import layers

            metrics, failures, attempted, failed = _traced(call, workload, name, seed, seconds)
            units = layers.UNITS
    finally:
        call.close()
    for failure in failures:
        print(f"check failed: {failure}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit} for key, unit in units.items()
        },
    }


def _traced(call, workload, name, seed, seconds):
    """Untraced phase, then the same schedule traced, per-layer out."""
    import layers

    session, _ = timed_setup(call, workload)
    baseline = call(workload.measure, session, seconds)
    call(workload.teardown, session)
    failures = workload.check(baseline)

    tracer = Tracer()
    layers.install(tracer)
    try:
        setup_start = time.perf_counter()
        session, _ = timed_setup(call, workload)
        cpu_before = os.times()
        phase = call(workload.measure, session, seconds)
        cpu_after = os.times()
        call(workload.teardown, session)
    finally:
        tracer.unpatch()
    failures += workload.check(phase)

    shards = getattr(workload, "shards", 1)
    metrics = layers.summarize(tracer, phase.start, phase.stop, shards=shards)
    setup_metrics = layers.summarize(tracer, setup_start, phase.start, shards=shards)
    metrics["tags.population.setup_build_s"] = setup_metrics["tags.population.build_s"]
    wall = phase.stop - phase.start
    metrics["proc.cpu_per_wall"] = (
        (cpu_after.user - cpu_before.user) + (cpu_after.system - cpu_before.system)
    ) / wall
    metrics["loadgen.lateness.p90_s"] = quantile_or_zero(phase.lateness, 0.9)
    metrics["loadgen.latency.samples"] = len(baseline.latency_samples)
    if getattr(workload, "open_loop", False):
        metrics["trace.overhead_frac"] = (
            percentile(phase.latency_samples, 0.5).value
            / percentile(baseline.latency_samples, 0.5).value
            - 1.0
        )
    else:
        metrics["trace.overhead_frac"] = (
            median(baseline.window_ops) / median(phase.window_ops) - 1.0
        )
    _write_spans(tracer, name, seed)
    attempted = baseline.attempted + phase.attempted
    failed = _failed(baseline, []) + _failed(phase, failures)
    return metrics, failures, attempted, failed


def _write_spans(tracer, name: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "environment": environment(),
                "columns": ["span_id", "parent_id", "name", "start", "end"],
                "spans": [span[:5] for span in tracer.spans],
            },
            handle,
        )
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{key:42s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
