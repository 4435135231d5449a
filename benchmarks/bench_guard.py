#!/usr/bin/env python
"""CI guard: the instrumented batched engine must stay fast and exact.

Re-times the fig-4-sized cell recorded in ``BENCH_batched_engine.json``
(n = 10 000, 300 repetitions, m = 4697 rounds) **with metrics enabled**
and fails when either

* the machine-relative speedup (reference loop vs batched engine, both
  timed here, on this machine) regresses more than ``--threshold``
  (default 15 %) below the recorded speedup, or
* the batched estimates stop being a bit-identical prefix match of the
  reference loop's, or
* the registry's slot accounting disagrees with the cell's own
  ``slots_per_run * repetitions``.

Comparing speedup-against-our-own-loop rather than raw rounds/second
keeps the guard meaningful across CI hardware generations: both sides
of the ratio move with the machine, so only a real relative regression
of the batched path trips it.

With ``--diagnostics`` the guard re-runs the same cell a second time
with the full diagnostics stack attached (round-trace recorder in
``outliers_only`` mode + estimator-health monitor) and additionally
fails when

* the diagnosed run is more than ``--diag-threshold`` (default 25 %)
  slower than the plain instrumented run on the same machine,
* the diagnosed estimates are not bit-identical to the plain run's, or
* any recorded outlier round fails deterministic replay.

``--json-out`` writes the diagnostics measurements as JSON (the
committed ``BENCH_obs_diag.json``); ``--metrics-out`` dumps the
diagnosed run's metric stream as JSON lines (uploaded as a CI
artifact).

With ``--profile`` the guard instead times the same fig-4 cell on the
null registry and on a real one (whose engine times every phase into
``profile.<phase>.seconds``), best of ``--profile-reps`` runs each,
and fails when

* the phase timers cost more than ``--threshold`` (default 5 %) of the
  instrumented cell: phase observations x the measured cost of one
  real-registry ``Histogram.time()`` / the cell's wall time,
* the instrumented estimates are not bit-identical to the null
  registry's,
* any canonical kernel phase (seed_matrix, hash_passes, reduction,
  finalize) is missing from the registry's phase report, or
* a small workers=2 sampled sweep's merged parent registry does not
  equal the serial run's on the deterministic parity view
  (:func:`repro.obs.parity_view` — counters, histogram buckets, event
  multiset).

``--profile-out`` writes the per-phase wall-time artifact;
``--json-out`` writes the guard's measurements (the committed
``BENCH_obs_parallel.json``).

With ``--protocols`` the guard instead checks the cross-protocol
batched comparison engine against ``BENCH_protocol_batched.json``:
every cell of :mod:`bench_protocol_batched` is re-measured on this
machine and the guard fails when

* any batched protocol cell stops being bit-identical to its scalar
  reference loop (or the sampled fig6 batch to its per-run loops),
* any cell's registry slot accounting disagrees with
  ``slots_per_run * repetitions``,
* a cell's machine-relative speedup regresses more than the threshold
  (default 30 % in this mode — cross-protocol cells are smaller and
  noisier than the fig-4 cell) below its committed figure, or
* the committed record itself no longer claims >= 10x on the
  ``fig6_fneb``, ``fig6_lof`` and ``table3_sweep`` cells (the PR's
  stated floor).

``--json-out`` in this mode writes the fresh measurements (same shape
as the committed record) for upload as a CI artifact.

With ``--backends`` the guard checks the kernel-backend tier against
``BENCH_backends.json``: every cell of :mod:`bench_backends` is
re-measured on this machine and the guard fails when

* any installed backend's kernels stop being bit-identical to the
  numpy reference (numba is *skipped*, not failed, when it is not
  installed — numpy-only environments stay green),
* numba, when installed, falls below the 1.5x microbench floor,
* the shared rounds-grid sweep stops being bit-identical to its
  per-cell re-derive baseline,
* the shared rounds-grid sweep falls below its absolute 1.2x floor or
  regresses more than the threshold (default 50 % in this mode — the
  worker-pool leg is scheduling-noisy on small cells and the absolute
  floor is the binding contract) below the committed figure, or
* the committed record itself claims a non-bit-identical cell.

``--json-out`` in this mode writes the fresh measurements for upload
as a CI artifact.

With ``--serve`` the guard checks the micro-batching estimation
service against ``BENCH_serve.json``: the acceptance workload (128
multi-tenant requests at concurrency 32) is re-served on this machine
— sequentially through the facade path and coalesced through
:func:`repro.serve.run_requests` — and the guard fails when

* any coalesced response stops being bit-identical to the sequential
  result for the same seed (coalescing must be semantically lossless),
* the coalesced/sequential speedup falls below the absolute 3x floor
  or regresses more than the threshold (default 50 % — asyncio
  scheduling is noisy on shared CI hardware; the absolute floor is the
  binding contract) below the committed figure,
* the p99 latency read from the service's obs histogram is not a
  finite positive figure,
* any cell of the sharded identity matrix (shards in {1, 2, 4} x
  cache {on, off}) stops matching the sequential results — identity
  binds on every machine; the sharded >= 2x throughput floor binds
  only when the machine has >= 4 CPUs (skipped, not failed, below
  that — same policy as the numba microbench floor),
* the warm cache replay is not a 100 % hit, not bit-identical to its
  cold pass, or slower than the absolute 10x replay floor, or
* the committed record itself claims a sub-floor speedup, a
  non-bit-identical run, a bad identity-matrix cell, or is missing
  the sharded/cache sections or its cpu/backend fingerprint.

``--json-out`` in this mode writes the fresh measurements for upload
as a CI artifact.

With ``--tracing`` the guard checks distributed-tracing overhead
against ``BENCH_obs_tracing.json``: the serve workload is re-served
with ``trace_requests`` off and on (both with a real registry, paired
CPU timings, median-of-ratios — see :mod:`bench_tracing`) and the
guard fails when

* the traced leg's CPU overhead exceeds the 10 % bound (override
  with ``--threshold``),
* the traced leg stops being bit-identical to the untraced leg,
* any of the request span set (admission, queue.wait, fusion,
  kernel, respond under ``serve.request``) stops being recorded, not
  every request gets a root span, or the latency histogram carries
  no exemplars, or
* the committed record itself claims an over-bound overhead or a
  non-bit-identical run.

``--json-out`` in this mode writes the fresh measurements for upload
as a CI artifact.

With ``--fleet`` the guard checks the live fleet telemetry tier
against ``BENCH_obs_fleet.json``: the snapshot-interval sweep of
:mod:`bench_fleet` ({off, 1 s, 0.25 s} heartbeats at 2 and 4 shards)
is re-measured on this machine and the guard fails when

* any streamed cell stops being bit-identical to the sequential
  facade results (telemetry must be semantically invisible),
* the 0.25 s-heartbeat run at 4 shards costs more than 5 % wall time
  over stop-time-only telemetry — enforced only on machines with
  >= 4 CPUs (skipped, not failed, below that — same policy as the
  sharded throughput floor),
* a mid-run scrape of the router registry fails to converge to the
  full merged request count, or ``stop()`` changes the merged
  serving counters (the final merge must be idempotent against the
  streamed deltas),
* SIGKILLing a worker does not flip fleet health off ``ok`` within
  ``heartbeat_misses * interval`` seconds or the dead shard is not
  named ``dead``, or
* the committed record itself claims a non-bit-identical cell, an
  over-bound overhead, a non-idempotent stop, or a missed watchdog
  bound.

``--json-out`` in this mode writes the fresh measurements for upload
as a CI artifact.

Run with::

    PYTHONPATH=src python benchmarks/bench_guard.py [--loop-reps K]
        [--threshold F] [--diagnostics] [--diag-threshold F]
        [--protocols] [--json-out PATH] [--metrics-out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.config import PAPER_RUNS_PER_POINT, PetConfig
from repro.core.accuracy import rounds_required
from repro.obs import (
    EstimatorHealth,
    JsonLinesExporter,
    MetricsRegistry,
    RoundTraceRecorder,
    SamplingPolicy,
    use_registry,
    verify_replay,
)
from repro.sim.experiment import ExperimentRunner
from repro.sim.workload import WorkloadSpec

BASELINE = (
    Path(__file__).resolve().parent.parent / "BENCH_batched_engine.json"
)

PROTOCOL_BASELINE = (
    Path(__file__).resolve().parent.parent
    / "BENCH_protocol_batched.json"
)

BACKENDS_BASELINE = (
    Path(__file__).resolve().parent.parent / "BENCH_backends.json"
)

SERVE_BASELINE = (
    Path(__file__).resolve().parent.parent / "BENCH_serve.json"
)

TRACING_BASELINE = (
    Path(__file__).resolve().parent.parent / "BENCH_obs_tracing.json"
)

FLEET_BASELINE = (
    Path(__file__).resolve().parent.parent / "BENCH_obs_fleet.json"
)

#: Cells whose *committed* speedup must stay at or above 10x (the
#: cross-protocol engine's stated performance floor).
PROTOCOL_TENX_CELLS = ("fig6_fneb", "fig6_lof", "table3_sweep")

#: Outlier records replay-verified per guard run (each replay rebuilds
#: its repetition's population, so the full set would dominate the
#: guard's runtime without adding coverage).
MAX_REPLAYS = 200


# ---------------------------------------------------------------------
# Helpers shared by every guard mode


def _environment() -> dict:
    """Interpreter/platform fingerprint stamped into every artifact."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _load_baseline(path: Path, regenerate_hint: str) -> dict:
    """Load a committed benchmark record or fail with the fix."""
    if not path.exists():
        print(
            f"FAIL: committed record {path.name} is missing; "
            f"regenerate it with `{regenerate_hint}`",
            file=sys.stderr,
        )
        raise SystemExit(1)
    return json.loads(path.read_text())


def _write_json(path: str, payload: dict, label: str) -> None:
    """Write a guard artifact as indented JSON and say where it went."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{label} written to {path}")


def _finish(failures: list[str], label: str) -> int:
    """Print every failure to stderr; report success otherwise."""
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"{label} passed")
    return 0


def run_protocol_guard(args: argparse.Namespace) -> int:
    """``--protocols`` mode: guard the cross-protocol batched engine."""
    import bench_protocol_batched as bench

    threshold = (
        args.threshold if args.threshold is not None else 0.30
    )
    baseline = _load_baseline(
        PROTOCOL_BASELINE,
        "PYTHONPATH=src python benchmarks/bench_protocol_batched.py",
    )
    recorded_cells = baseline["cells"]
    failures: list[str] = []

    for name in PROTOCOL_TENX_CELLS:
        recorded = float(recorded_cells[name]["speedup"])
        if recorded < 10.0:
            failures.append(
                f"committed record claims only {recorded:.1f}x on "
                f"{name}; the engine's floor is 10x"
            )

    fresh = bench.measure_all(loop_reps=args.loop_reps)
    for name, cell in fresh["cells"].items():
        recorded_cell = recorded_cells.get(name)
        if recorded_cell is None:
            failures.append(
                f"cell {name} is measured but missing from the "
                f"committed record (re-run bench_protocol_batched)"
            )
            continue
        if cell.get("bit_identical") is False:
            failures.append(
                f"{name}: batched path is no longer bit-identical to "
                f"the scalar reference"
            )
        if cell.get("slots_exact") is False:
            failures.append(
                f"{name}: registry slot accounting disagrees with "
                f"slots_per_run * repetitions"
            )
        recorded = float(recorded_cell["speedup"])
        floor = recorded * (1.0 - threshold)
        if cell["speedup"] < floor:
            failures.append(
                f"{name}: speedup regressed to {cell['speedup']:.1f}x "
                f"vs {recorded:.1f}x recorded "
                f"(floor {floor:.1f}x at {threshold:.0%} tolerance)"
            )
        checks = "".join(
            f"  {key}={cell[key]}"
            for key in ("bit_identical", "slots_exact")
            if key in cell
        )
        print(
            f"{name:14s} {cell['speedup']:6.1f}x on this machine "
            f"(recorded {recorded:.1f}x, floor {floor:.1f}x){checks}"
        )

    if args.json_out is not None:
        _write_json(args.json_out, fresh, "fresh measurements")

    return _finish(failures, "protocol bench guard")


def _phase_timer_seconds(calls: int = 100_000, repeats: int = 5) -> float:
    """Best-of-``repeats`` cost of one real-registry phase timer.

    Times the whole ``registry.histogram(name).time()`` lookup-enter-
    exit-observe sequence around an empty body — the most a phase
    boundary can add to a cell.
    """
    registry = MetricsRegistry()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            with registry.histogram("profile.guard.seconds").time():
                pass
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def run_profile_guard(args: argparse.Namespace) -> int:
    """``--profile`` mode: phase-timing overhead + merge parity."""
    from repro.obs import NULL_REGISTRY, parity_view
    from repro.obs.profile import (
        KERNEL_PHASES,
        registry_phase_report,
        write_phase_json,
    )

    threshold = args.threshold if args.threshold is not None else 0.05
    baseline = _load_baseline(
        BASELINE, "PYTHONPATH=src python benchmarks/bench_batched_engine.py"
    )
    cell = baseline["cell"]
    rounds = rounds_required(0.05, 0.01)
    spec = WorkloadSpec(size=cell["n"], seed=0)
    config = PetConfig(passive_tags=True)
    repetitions = PAPER_RUNS_PER_POINT
    failures: list[str] = []

    def timed_cell(registry):
        runner = ExperimentRunner(
            base_seed=cell["base_seed"],
            repetitions=repetitions,
            registry=registry,
        )
        with use_registry(registry):
            start = time.perf_counter()
            result = runner.run_vectorized(
                spec, config, rounds, engine="batched"
            )
            seconds = time.perf_counter() - start
        return seconds, result

    # Phases time on every real registry, so there is no timing-off
    # variant to compare against: the overhead is the number of phase
    # observations times the measured cost of one timer, over the
    # instrumented cell's best-of-N wall time.  The null-registry run
    # is the bit-identity reference.
    null_seconds = instrumented_seconds = float("inf")
    null_result = instrumented_result = instrumented_registry = None
    for _ in range(args.profile_reps):
        seconds, null_result = timed_cell(NULL_REGISTRY)
        null_seconds = min(null_seconds, seconds)
        registry = MetricsRegistry()
        seconds, instrumented_result = timed_cell(registry)
        if seconds < instrumented_seconds:
            instrumented_seconds = seconds
            instrumented_registry = registry
    assert null_result is not None and instrumented_result is not None
    assert instrumented_registry is not None

    bit_identical = (
        instrumented_result.estimates.tolist()
        == null_result.estimates.tolist()
    )
    if not bit_identical:
        failures.append(
            "phase timing perturbed the estimates: the instrumented "
            "run is no longer bit-identical to the NullRegistry run"
        )

    report = registry_phase_report(instrumented_registry)
    observations = sum(int(row["calls"]) for row in report.values())
    timer_seconds = _phase_timer_seconds()
    overhead = observations * timer_seconds / instrumented_seconds
    if overhead > threshold:
        failures.append(
            f"phase-timing overhead too high: {observations} phase "
            f"observations x {timer_seconds * 1e6:.2f} us = "
            f"{overhead:.1%} of the {instrumented_seconds:.3f}s cell "
            f"(bound {threshold:.0%})"
        )

    missing = [
        phase for phase in KERNEL_PHASES if phase not in report
    ]
    if missing:
        failures.append(
            f"kernel phases missing from the registry report: {missing}"
        )

    print(
        f"null registry: {null_seconds:.3f}s  instrumented: "
        f"{instrumented_seconds:.3f}s (best of {args.profile_reps})"
    )
    print(
        f"phase timing: {observations} observations x "
        f"{timer_seconds * 1e6:.2f} us = {overhead:.2%} of the cell "
        f"(bound {threshold:.0%})"
    )
    for name, row in report.items():
        print(
            f"  {name:12s} {row['seconds']:8.3f}s  "
            f"{row['fraction']:6.1%}  ({row['calls']} calls)"
        )

    # Snapshot/merge parity: a small workers=2 sampled sweep must land
    # the parent registry exactly where a serial sweep does.
    sweep_sizes = [200, 400, 800, 1600]
    sweep_rounds = 40
    serial_registry = MetricsRegistry()
    serial = ExperimentRunner(
        base_seed=cell["base_seed"],
        repetitions=20,
        registry=serial_registry,
    ).sweep(sweep_sizes, PetConfig(), sweep_rounds)
    parallel_registry = MetricsRegistry()
    parallel = ExperimentRunner(
        base_seed=cell["base_seed"],
        repetitions=20,
        registry=parallel_registry,
    ).sweep(sweep_sizes, PetConfig(), sweep_rounds, workers=2)
    sweep_identical = all(
        a.estimates.tolist() == b.estimates.tolist()
        for a, b in zip(serial, parallel)
    )
    if not sweep_identical:
        failures.append(
            "workers=2 sweep estimates diverged from the serial sweep"
        )
    serial_view = parity_view(serial_registry.snapshot())
    parallel_view = parity_view(parallel_registry.snapshot())
    parity_keys_off = [
        key
        for key in serial_view
        if serial_view[key] != parallel_view[key]
    ]
    if parity_keys_off:
        failures.append(
            "workers=2 merged registry diverged from the serial "
            f"registry on: {parity_keys_off}"
        )
    print(
        f"merge parity (workers=2 vs serial, {len(sweep_sizes)} "
        f"cells): estimates identical={sweep_identical}  "
        f"registry parity={'ok' if not parity_keys_off else parity_keys_off}"
    )

    if args.profile_out is not None:
        write_phase_json(
            args.profile_out,
            instrumented_registry,
            extra={"cell": cell, "guard": "profile"},
        )
        print(f"per-phase timings written to {args.profile_out}")

    if args.json_out is not None:
        _write_json(
            args.json_out,
            {
                "cell": cell,
                "null_registry": {"seconds": round(null_seconds, 3)},
                "instrumented": {
                    "seconds": round(instrumented_seconds, 3),
                    "bit_identical": bit_identical,
                },
                "phase_timing": {
                    "observations": observations,
                    "timer_us": round(timer_seconds * 1e6, 3),
                    "overhead": round(overhead, 4),
                    "bound": threshold,
                },
                "phases": {
                    name: {
                        "seconds": round(row["seconds"], 4),
                        "fraction": round(row["fraction"], 4),
                        "calls": int(row["calls"]),
                    }
                    for name, row in report.items()
                },
                "merge_parity": {
                    "workers": 2,
                    "cells": len(sweep_sizes),
                    "estimates_identical": sweep_identical,
                    "registry_parity": not parity_keys_off,
                },
                "environment": _environment(),
            },
            "profile measurements",
        )

    return _finish(failures, "profile bench guard")


def run_backends_guard(args: argparse.Namespace) -> int:
    """``--backends`` mode: kernel tier bit-identity + speedup floors."""
    import bench_backends as bench

    from repro.sim.backends import available_backends

    # Default tolerance is looser here than in --protocols: the grid
    # sweep's "after" leg runs a worker pool, and pool scheduling noise
    # on small cells swings the ratio; the absolute 1.2x floor is the
    # binding contract.
    threshold = (
        args.threshold if args.threshold is not None else 0.50
    )
    baseline = _load_baseline(
        BACKENDS_BASELINE,
        "PYTHONPATH=src python benchmarks/bench_backends.py",
    )
    recorded_cells = baseline["cells"]
    failures: list[str] = []

    fresh = bench.measure_all()
    installed = set(available_backends())

    # --- microbenchmark: per-backend bit-identity + the numba floor.
    micro = fresh["cells"]["splitmix_clz_micro"]
    for name, row in micro["backends"].items():
        if not row["bit_identical"]:
            failures.append(
                f"backend {name!r} is no longer bit-identical to the "
                f"numpy reference kernels"
            )
        print(
            f"micro[{name:5s}] {row['seconds']:7.4f}s  "
            f"{row['speedup_vs_numpy']:5.2f}x vs numpy  "
            f"bit_identical={row['bit_identical']}"
        )
    if "numba" in installed:
        numba_speedup = micro["backends"]["numba"]["speedup_vs_numpy"]
        if numba_speedup < bench.NUMBA_MICRO_FLOOR:
            failures.append(
                f"numba microbench speedup {numba_speedup:.2f}x is "
                f"below the {bench.NUMBA_MICRO_FLOOR:.1f}x floor"
            )
    else:
        print(
            "numba not installed here; microbench floor skipped "
            "(install the [jit] extra to exercise it)"
        )

    # --- the grid cell: bit-identity, an absolute floor, and a relative
    # bound against the committed record.
    name = "fig4_grid_shared"
    cell = fresh["cells"][name]
    if not cell["bit_identical"]:
        failures.append(
            f"{name}: shared grid is no longer bit-identical to the "
            f"per-cell re-derive baseline"
        )
    floor = bench.GRID_SHARED_FLOOR
    if cell["speedup"] < floor:
        failures.append(
            f"{name}: speedup {cell['speedup']:.2f}x is below "
            f"the absolute {floor:.1f}x floor"
        )
    line = (
        f"{name:22s} {cell['speedup']:5.2f}x on this machine  "
        f"bit_identical={cell['bit_identical']}"
    )
    recorded_cell = recorded_cells.get(name)
    if recorded_cell is None:
        failures.append(
            f"cell {name} is measured but missing from the "
            f"committed record (re-run bench_backends)"
        )
    else:
        recorded = float(recorded_cell["speedup"])
        relative_floor = recorded * (1.0 - threshold)
        if cell["speedup"] < relative_floor:
            failures.append(
                f"{name}: speedup regressed to "
                f"{cell['speedup']:.2f}x vs {recorded:.2f}x "
                f"recorded (floor {relative_floor:.2f}x at "
                f"{threshold:.0%} tolerance)"
            )
        line += (
            f"  (recorded {recorded:.2f}x, "
            f"floors {floor:.1f}x abs / {relative_floor:.2f}x rel)"
        )
    print(line)

    # The committed record itself must assert bit-identity everywhere —
    # a record regenerated from a broken tree must not pass review.
    for name, recorded_cell in recorded_cells.items():
        if name == "splitmix_clz_micro":
            bad = [
                backend
                for backend, row in recorded_cell["backends"].items()
                if not row["bit_identical"]
            ]
            if bad:
                failures.append(
                    f"committed record claims non-bit-identical "
                    f"backends: {bad}"
                )
        elif recorded_cell.get("bit_identical") is False:
            failures.append(
                f"committed record claims {name} is not bit-identical"
            )

    if args.json_out is not None:
        _write_json(args.json_out, fresh, "fresh measurements")

    return _finish(failures, "backends bench guard")


def run_serve_guard(args: argparse.Namespace) -> int:
    """``--serve`` mode: coalescing/sharding identity + the floors."""
    import math

    import bench_serve as bench

    # Same rationale as --backends: the coalesced leg runs an asyncio
    # scheduler and a worker thread, both scheduling-noisy on shared CI
    # hardware; the absolute floor is the binding contract.
    threshold = (
        args.threshold if args.threshold is not None else 0.50
    )
    baseline = _load_baseline(
        SERVE_BASELINE,
        "PYTHONPATH=src python benchmarks/bench_serve.py",
    )
    failures: list[str] = []

    recorded_speedup = float(baseline["speedup"])
    if baseline.get("bit_identical") is not True:
        failures.append(
            "committed record claims the coalesced run is not "
            "bit-identical to sequential serving"
        )
    if recorded_speedup < bench.SERVE_FLOOR:
        failures.append(
            f"committed record claims only {recorded_speedup:.2f}x; "
            f"the service's floor is {bench.SERVE_FLOOR:.1f}x"
        )
    # A record regenerated without the sharded/cache legs (or before
    # the environment carried its hardware fingerprint) must not pass.
    environment = baseline.get("environment", {})
    for key in ("cpu_count", "backend"):
        if key not in environment:
            failures.append(
                f"committed record's environment is missing {key!r}; "
                f"regenerate bench_serve"
            )
    for section in ("sharded", "cached_replay", "identity_matrix"):
        if section not in baseline:
            failures.append(
                f"committed record is missing the {section!r} "
                f"section; regenerate bench_serve"
            )
    recorded_matrix = baseline.get("identity_matrix", {})
    bad_cells = [
        cell for cell, ok in recorded_matrix.items() if ok is not True
    ]
    if bad_cells:
        failures.append(
            f"committed record claims non-identical sharded cells: "
            f"{bad_cells}"
        )
    recorded_replay = baseline.get("cached_replay", {})
    if recorded_replay:
        if recorded_replay.get("bit_identical") is not True:
            failures.append(
                "committed record claims a non-bit-identical cache "
                "replay"
            )
        if float(recorded_replay.get("hit_rate", 0.0)) < 1.0:
            failures.append(
                f"committed record claims a "
                f"{recorded_replay.get('hit_rate')!r} replay hit "
                f"rate; the cache contract is 100%"
            )
        if (
            float(recorded_replay.get("speedup", 0.0))
            < bench.CACHE_FLOOR
        ):
            failures.append(
                f"committed record claims only "
                f"{recorded_replay.get('speedup')}x cached replay; "
                f"the floor is {bench.CACHE_FLOOR:.0f}x"
            )
    recorded_sharded = baseline.get("sharded", {})
    if recorded_sharded.get("floor_enforced") and (
        float(recorded_sharded.get("speedup_vs_single_process", 0.0))
        < bench.SHARD_FLOOR
    ):
        failures.append(
            f"committed record enforces the sharded floor but claims "
            f"only "
            f"{recorded_sharded.get('speedup_vs_single_process')}x "
            f"(floor {bench.SHARD_FLOOR:.1f}x)"
        )

    fresh = bench.measure_all()
    coalesced = fresh["coalesced"]
    if not fresh["bit_identical"]:
        failures.append(
            "coalesced responses are no longer bit-identical to the "
            "sequential facade results"
        )
    if fresh["speedup"] < bench.SERVE_FLOOR:
        failures.append(
            f"coalesced speedup {fresh['speedup']:.2f}x is below the "
            f"absolute {bench.SERVE_FLOOR:.1f}x floor"
        )
    relative_floor = recorded_speedup * (1.0 - threshold)
    if fresh["speedup"] < relative_floor:
        failures.append(
            f"coalesced speedup regressed to {fresh['speedup']:.2f}x "
            f"vs {recorded_speedup:.2f}x recorded "
            f"(floor {relative_floor:.2f}x at {threshold:.0%} "
            f"tolerance)"
        )
    p99 = float(coalesced["p99_seconds"])
    if not (math.isfinite(p99) and p99 > 0):
        failures.append(
            f"p99 latency from the obs histogram is not a finite "
            f"positive figure: {p99!r}"
        )

    # --- sharded identity + floor.  Bit-identity across every shards
    # x cache combination is the binding contract everywhere; the
    # throughput floor only binds on machines with cores to shard
    # across (same skip-not-fail policy as the numba microbench).
    fresh_matrix = fresh["identity_matrix"]
    fresh_bad = [
        cell for cell, ok in fresh_matrix.items() if ok is not True
    ]
    if fresh_bad:
        failures.append(
            f"sharded responses diverged from sequential serving on: "
            f"{fresh_bad}"
        )
    sharded = fresh["sharded"]
    shard_speedup = float(sharded["speedup_vs_single_process"])
    cpu_count = int(fresh["environment"]["cpu_count"])
    if sharded["floor_enforced"]:
        if shard_speedup < bench.SHARD_FLOOR:
            failures.append(
                f"sharded speedup {shard_speedup:.2f}x is below the "
                f"absolute {bench.SHARD_FLOOR:.1f}x floor on a "
                f"{cpu_count}-cpu machine"
            )
    else:
        print(
            f"only {cpu_count} cpu(s) here (< "
            f"{bench.SHARD_MIN_CPUS}); sharded throughput floor "
            f"skipped, identity matrix still enforced"
        )

    # --- cached replay: 100% hits, bit-identical, >= the floor.
    replay = fresh["cached_replay"]
    if not replay["bit_identical"]:
        failures.append(
            "warm cache replay is no longer bit-identical to the "
            "cold pass"
        )
    if float(replay["hit_rate"]) < 1.0:
        failures.append(
            f"cache replay hit rate {replay['hit_rate']:.0%} is "
            f"below 100%"
        )
    if float(replay["speedup"]) < bench.CACHE_FLOOR:
        failures.append(
            f"cached replay speedup {replay['speedup']:.1f}x is "
            f"below the absolute {bench.CACHE_FLOOR:.0f}x floor"
        )

    print(
        f"sequential {fresh['sequential']['seconds']:.3f}s  "
        f"coalesced {coalesced['seconds']:.3f}s  "
        f"speedup {fresh['speedup']:.2f}x on this machine "
        f"(recorded {recorded_speedup:.2f}x, floors "
        f"{bench.SERVE_FLOOR:.1f}x abs / {relative_floor:.2f}x rel)  "
        f"bit_identical={fresh['bit_identical']}"
    )
    print(
        f"latency p50={coalesced['p50_seconds'] * 1e3:.2f}ms "
        f"p99={p99 * 1e3:.2f}ms  fused "
        f"{coalesced['fused_requests']} requests into "
        f"{coalesced['fusion_groups']} kernel groups"
    )
    # The canonical figures are machine-relative: this machine's
    # baseline over this machine's optimized leg — the committed
    # numbers are the same ratios on the box that recorded them, not
    # portable constants.
    print(
        f"canonical serve figures (machine-relative, "
        f"{cpu_count} cpus, backend "
        f"{fresh['environment']['backend']}): coalesced "
        f"{fresh['speedup']:.2f}x  sharded x{sharded['shards']} "
        f"{shard_speedup:.2f}x (floor enforced: "
        f"{sharded['floor_enforced']})  cached replay "
        f"{float(replay['speedup']):.1f}x at "
        f"{float(replay['hit_rate']):.0%} hits"
    )
    print(
        f"identity matrix: "
        f"{sum(1 for ok in fresh_matrix.values() if ok)}/"
        f"{len(fresh_matrix)} shards x cache cells identical to "
        f"sequential"
    )

    if args.json_out is not None:
        _write_json(args.json_out, fresh, "fresh measurements")

    return _finish(failures, "serve bench guard")


def run_tracing_guard(args: argparse.Namespace) -> int:
    """``--tracing`` mode: span/exemplar coverage + the 10% CPU bound."""
    import bench_tracing as bench

    bound = (
        args.threshold
        if args.threshold is not None
        else bench.TRACING_BOUND
    )
    baseline = _load_baseline(
        TRACING_BASELINE,
        "PYTHONPATH=src python benchmarks/bench_tracing.py",
    )
    failures: list[str] = []

    recorded = baseline["traced"]
    if float(recorded["overhead"]) > float(recorded["bound"]):
        failures.append(
            f"committed record claims {recorded['overhead']:+.1%} "
            f"tracing overhead, above its own "
            f"{recorded['bound']:.0%} bound"
        )
    if baseline.get("bit_identical") is not True:
        failures.append(
            "committed record claims the traced run is not "
            "bit-identical to the untraced run"
        )

    fresh = bench.measure_all()
    traced = fresh["traced"]
    if not fresh["bit_identical"]:
        failures.append(
            "tracing perturbed the estimates: traced responses are "
            "no longer bit-identical to the untraced leg"
        )
    if traced["overhead"] > bound:
        failures.append(
            f"tracing overhead {traced['overhead']:+.1%} exceeds the "
            f"{bound:.0%} CPU bound"
        )
    if not traced["span_names_complete"]:
        failures.append(
            "request span set incomplete: expected "
            f"{list(bench.EXPECTED_SPANS)}"
        )
    requests = int(fresh["workload"]["requests"])
    if traced["root_spans"] != requests:
        failures.append(
            f"only {traced['root_spans']}/{requests} requests got a "
            f"root serve.request span"
        )
    if traced["traces"] != requests:
        failures.append(
            f"expected {requests} distinct trace ids, got "
            f"{traced['traces']}"
        )
    if traced["exemplar_buckets"] < 1:
        failures.append(
            "latency histogram carries no exemplars"
        )

    print(
        f"untraced {fresh['untraced']['cpu_seconds']:.3f}s cpu  "
        f"traced {traced['cpu_seconds']:.3f}s cpu  overhead "
        f"{traced['overhead']:+.1%} on this machine (bound "
        f"{bound:.0%}, recorded {recorded['overhead']:+.1%})  "
        f"bit_identical={fresh['bit_identical']}"
    )
    print(
        f"traces {traced['traces']}  root spans "
        f"{traced['root_spans']}/{requests}  span set complete: "
        f"{traced['span_names_complete']}  exemplar buckets: "
        f"{traced['exemplar_buckets']}"
    )

    if args.json_out is not None:
        _write_json(args.json_out, fresh, "fresh measurements")

    return _finish(failures, "tracing bench guard")


def run_fleet_guard(args: argparse.Namespace) -> int:
    """``--fleet`` mode: streaming telemetry cost + watchdog latency."""
    import bench_fleet as bench

    baseline = _load_baseline(
        FLEET_BASELINE,
        "PYTHONPATH=src python benchmarks/bench_fleet.py",
    )
    failures: list[str] = []

    # --- the committed record must itself honour the contract.
    recorded_sweep = baseline.get("sweep", {})
    for section in ("sweep", "overhead", "live_scrape", "watchdog"):
        if section not in baseline:
            failures.append(
                f"committed record is missing the {section!r} "
                f"section; regenerate bench_fleet"
            )
    bad_cells = [
        cell
        for cell, data in recorded_sweep.items()
        if data.get("bit_identical") is not True
    ]
    if bad_cells:
        failures.append(
            f"committed record claims streaming perturbed the "
            f"estimates on: {bad_cells}"
        )
    recorded_overhead = baseline.get("overhead", {})
    if recorded_overhead.get("floor_enforced") and (
        float(recorded_overhead.get("overhead_ratio", 1.0))
        > bench.OVERHEAD_BOUND
    ):
        failures.append(
            f"committed record enforces the overhead bound but "
            f"claims "
            f"{recorded_overhead.get('overhead_ratio'):+.1%} "
            f"(bound {bench.OVERHEAD_BOUND:.0%})"
        )
    recorded_scrape = baseline.get("live_scrape", {})
    if recorded_scrape.get("converged") is not True:
        failures.append(
            "committed record claims the live scrape never saw the "
            "full merged request count"
        )
    if recorded_scrape.get("idempotent_stop") is not True:
        failures.append(
            "committed record claims stop() double-counted the "
            "streamed deltas"
        )
    recorded_watchdog = baseline.get("watchdog", {})
    if recorded_watchdog.get("within_bound") is not True:
        failures.append(
            "committed record claims the watchdog missed its "
            "detection bound"
        )

    # --- re-measure on this machine with the same floors.
    fresh = bench.measure_all()
    fresh_bad = [
        cell
        for cell, data in fresh["sweep"].items()
        if data["bit_identical"] is not True
    ]
    if fresh_bad:
        failures.append(
            f"streamed responses diverged from the sequential facade "
            f"results on: {fresh_bad}"
        )
    overhead = fresh["overhead"]
    cpu_count = int(fresh["environment"]["cpu_count"])
    if overhead["floor_enforced"]:
        if overhead["overhead_ratio"] > bench.OVERHEAD_BOUND:
            failures.append(
                f"streaming overhead "
                f"{overhead['overhead_ratio']:+.1%} at "
                f"{overhead['shards']} shards exceeds the "
                f"{bench.OVERHEAD_BOUND:.0%} bound on a "
                f"{cpu_count}-cpu machine"
            )
    else:
        print(
            f"only {cpu_count} cpu(s) here (< "
            f"{bench.FLEET_MIN_CPUS}); streaming overhead bound "
            f"skipped, bit-identity/scrape/watchdog still enforced"
        )
    scrape = fresh["live_scrape"]
    if not scrape["converged"]:
        failures.append(
            f"live scrape saw only {scrape['mid_run_ok']}/"
            f"{scrape['requests']} merged requests within "
            f"{scrape['convergence_deadline_seconds']}s"
        )
    if not scrape["idempotent_stop"]:
        failures.append(
            "stop() changed the merged serving counters: the final "
            "merge is not idempotent against the streamed deltas"
        )
    watchdog = fresh["watchdog"]
    if not watchdog["detected"]:
        failures.append(
            "killing a worker never flipped fleet health off ok"
        )
    elif not watchdog["within_bound"]:
        failures.append(
            f"watchdog took {watchdog['seconds_to_degraded']}s to "
            f"flag the dead shard (bound "
            f"{watchdog['bound_seconds']}s)"
        )
    if watchdog.get("dead_shard") != "dead":
        failures.append(
            f"health verdict named the killed shard "
            f"{watchdog.get('dead_shard')!r}, expected 'dead'"
        )

    for label, cell in fresh["sweep"].items():
        print(
            f"{label}: {cell['seconds']:.3f}s  "
            f"bit_identical={cell['bit_identical']}"
        )
    print(
        f"streaming overhead {overhead['overhead_ratio']:+.1%} at "
        f"{overhead['shards']} shards on this machine (bound "
        f"{bench.OVERHEAD_BOUND:.0%}, enforced="
        f"{overhead['floor_enforced']}, recorded "
        f"{recorded_overhead.get('overhead_ratio', 0.0):+.1%})"
    )
    print(
        f"live scrape: {scrape['mid_run_ok']}/{scrape['requests']} "
        f"merged mid-run in {scrape['seconds_to_converge']}s  "
        f"idempotent_stop={scrape['idempotent_stop']}"
    )
    print(
        f"watchdog: degraded in "
        f"{watchdog['seconds_to_degraded']}s (bound "
        f"{watchdog['bound_seconds']}s)  "
        f"dead_shard={watchdog['dead_shard']}"
    )

    if args.json_out is not None:
        _write_json(args.json_out, fresh, "fresh measurements")

    return _finish(failures, "fleet bench guard")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--loop-reps",
        type=int,
        default=20,
        help="repetitions to time the reference loop on (scaled up)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help=(
            "allowed relative speedup regression (default 0.15; "
            "0.30 in --protocols mode; 0.50 in --backends mode)"
        ),
    )
    parser.add_argument(
        "--protocols",
        action="store_true",
        help=(
            "guard the cross-protocol batched comparison engine "
            "against BENCH_protocol_batched.json instead of the PET "
            "fig-4 cell"
        ),
    )
    parser.add_argument(
        "--backends",
        action="store_true",
        help=(
            "guard the kernel-backend tier against BENCH_backends.json: "
            "per-backend bit-identity, the numba microbench floor "
            "(skipped when numba is not installed), and the "
            "shared-memory sweep floors"
        ),
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help=(
            "guard the micro-batching estimation service against "
            "BENCH_serve.json: coalesced/sequential bit-identity, the "
            "absolute 3x throughput floor at concurrency 32, and the "
            "obs-histogram latency percentiles"
        ),
    )
    parser.add_argument(
        "--tracing",
        action="store_true",
        help=(
            "guard distributed-tracing overhead against "
            "BENCH_obs_tracing.json: the 10%% CPU bound vs the "
            "untraced serve tier, per-request span/exemplar coverage, "
            "and traced/untraced bit-identity"
        ),
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "guard the live fleet telemetry tier against "
            "BENCH_obs_fleet.json: streamed runs bit-identical to the "
            "sequential facade, the 5%% snapshot-streaming overhead "
            "bound at 4 shards (skipped below 4 cpus), mid-run scrape "
            "convergence + idempotent stop, and the watchdog "
            "detection bound"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "guard the phase timers: their share of the instrumented "
            "cell (default bound 5%%), bit-identity with the null "
            "registry, kernel-phase coverage, and workers=2 "
            "snapshot/merge parity"
        ),
    )
    parser.add_argument(
        "--profile-reps",
        type=int,
        default=3,
        help=(
            "timing repetitions per variant in --profile mode (best "
            "of N; default 3)"
        ),
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help=(
            "in --profile mode, write the per-phase wall-time "
            "artifact as JSON to PATH"
        ),
    )
    parser.add_argument(
        "--diagnostics",
        action="store_true",
        help=(
            "also time the cell with the diagnostics stack attached "
            "(outliers_only trace + health monitor) and verify replay"
        ),
    )
    parser.add_argument(
        "--diag-threshold",
        type=float,
        default=0.25,
        help=(
            "allowed slowdown of the diagnosed run relative to the "
            "plain instrumented run (default 0.25)"
        ),
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="write the diagnostics measurements as JSON to PATH",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "write the diagnosed run's metric stream as JSON lines "
            "to PATH"
        ),
    )
    args = parser.parse_args()

    if args.protocols:
        return run_protocol_guard(args)
    if args.backends:
        return run_backends_guard(args)
    if args.serve:
        return run_serve_guard(args)
    if args.tracing:
        return run_tracing_guard(args)
    if args.fleet:
        return run_fleet_guard(args)
    if args.profile:
        return run_profile_guard(args)
    threshold = args.threshold if args.threshold is not None else 0.15

    baseline = _load_baseline(
        BASELINE, "PYTHONPATH=src python benchmarks/bench_batched_engine.py"
    )
    cell = baseline["cell"]
    recorded_speedup = float(baseline["speedup"])

    rounds = rounds_required(0.05, 0.01)
    assert rounds == cell["rounds"], (rounds, cell["rounds"])
    spec = WorkloadSpec(size=cell["n"], seed=0)
    config = PetConfig(passive_tags=True)
    repetitions = PAPER_RUNS_PER_POINT

    registry = MetricsRegistry()
    runner = ExperimentRunner(
        base_seed=cell["base_seed"],
        repetitions=repetitions,
        registry=registry,
    )
    with use_registry(registry):
        start = time.perf_counter()
        batched = runner.run_vectorized(
            spec, config, rounds, engine="batched"
        )
        batched_seconds = time.perf_counter() - start

    loop_reps = min(args.loop_reps, repetitions)
    loop_runner = ExperimentRunner(
        base_seed=cell["base_seed"], repetitions=loop_reps
    )
    start = time.perf_counter()
    loop_sample = loop_runner.run_vectorized(
        spec, config, rounds, engine="loop"
    )
    loop_seconds = (
        (time.perf_counter() - start) * repetitions / loop_reps
    )

    failures: list[str] = []

    prefix = batched.estimates[:loop_reps].tolist()
    if loop_sample.estimates.tolist() != prefix:
        failures.append(
            "instrumented batched engine is no longer bit-identical "
            "to the reference loop"
        )

    counters = registry.snapshot()["counters"]
    expected_slots = int(batched.slots_per_run * repetitions)
    recorded_slots = counters.get("sim.slots", 0)
    if recorded_slots != expected_slots:
        failures.append(
            f"slot accounting drifted: registry says "
            f"{recorded_slots}, cell says {expected_slots}"
        )

    speedup = loop_seconds / batched_seconds
    floor = recorded_speedup * (1.0 - threshold)
    if speedup < floor:
        failures.append(
            f"speedup regressed: {speedup:.1f}x on this machine vs "
            f"{recorded_speedup:.1f}x recorded "
            f"(floor {floor:.1f}x at {threshold:.0%} tolerance)"
        )

    print(
        f"batched: {batched_seconds:.3f}s  "
        f"loop (scaled from {loop_reps} reps): {loop_seconds:.3f}s  "
        f"speedup: {speedup:.1f}x (recorded {recorded_speedup:.1f}x, "
        f"floor {floor:.1f}x)"
    )
    # The canonical speedup figure is machine-relative: this machine's
    # loop over this machine's batched engine.  The committed number in
    # BENCH_batched_engine.json (17.1x) is the same ratio on the
    # machine that recorded it, not a portable constant.
    print(
        f"canonical batched-engine speedup (machine-relative): "
        f"{speedup:.1f}x here; committed record {recorded_speedup:.1f}x"
    )
    print(
        f"slots recorded: {recorded_slots:,}  "
        f"bit-identical prefix: {loop_sample.estimates.tolist() == prefix}"
    )

    if args.diagnostics:
        diag_registry = MetricsRegistry()
        recorder = RoundTraceRecorder(
            policy=SamplingPolicy(mode="outliers_only"),
            registry=diag_registry,
        )
        health = EstimatorHealth(registry=diag_registry)
        diag_registry.attach_diagnostics(
            round_trace=recorder, health=health
        )
        diag_runner = ExperimentRunner(
            base_seed=cell["base_seed"],
            repetitions=repetitions,
            registry=diag_registry,
        )
        with use_registry(diag_registry):
            start = time.perf_counter()
            diagnosed = diag_runner.run_vectorized(
                spec, config, rounds, engine="batched"
            )
            diag_seconds = time.perf_counter() - start

        if diagnosed.estimates.tolist() != batched.estimates.tolist():
            failures.append(
                "diagnostics perturbed the estimates: diagnosed run "
                "is no longer bit-identical to the plain batched run"
            )

        overhead = diag_seconds / batched_seconds - 1.0
        if diag_seconds > batched_seconds * (1.0 + args.diag_threshold):
            failures.append(
                f"diagnostics overhead too high: {diag_seconds:.3f}s "
                f"vs {batched_seconds:.3f}s plain "
                f"({overhead:+.1%}, bound {args.diag_threshold:.0%})"
            )

        outliers = recorder.outlier_records()
        replayed = outliers[:MAX_REPLAYS]
        replay_failures = sum(
            1 for record in replayed if not verify_replay(record)
        )
        if replay_failures:
            failures.append(
                f"{replay_failures}/{len(replayed)} recorded outlier "
                f"rounds failed deterministic replay"
            )

        print(
            f"diagnosed: {diag_seconds:.3f}s "
            f"({overhead:+.1%} vs plain, bound "
            f"{args.diag_threshold:.0%})  outlier records: "
            f"{len(outliers)}  replays verified: {len(replayed)}"
        )
        print(
            f"health: n_hat={health.n_hat:,.0f}  "
            f"rounds={health.rounds_observed:,}  "
            f"converged={health.converged}"
        )

        if args.json_out is not None:
            _write_json(
                args.json_out,
                {
                    "cell": cell,
                    "reference_seconds": baseline["after"]["seconds"],
                    "plain": {"seconds": round(batched_seconds, 3)},
                    "diagnosed": {
                        "seconds": round(diag_seconds, 3),
                        "overhead": round(overhead, 4),
                        "bound": args.diag_threshold,
                        "trace_policy": "outliers_only",
                        "rounds_seen": recorder.rounds_seen,
                        "outlier_records": len(outliers),
                        "replays_verified": len(replayed),
                        "replays_exact": replay_failures == 0,
                        "bit_identical": diagnosed.estimates.tolist()
                        == batched.estimates.tolist(),
                    },
                    "health": {
                        "n_hat": round(health.n_hat, 2),
                        "rounds_observed": health.rounds_observed,
                        "required_rounds": health.required_rounds,
                        "converged": health.converged,
                        "outlier_rounds": health.outlier_rounds,
                    },
                    "environment": _environment(),
                },
                "diagnostics measurements",
            )

        if args.metrics_out is not None:
            with JsonLinesExporter(args.metrics_out) as exporter:
                exporter.export(diag_registry)
            print(f"metrics stream written to {args.metrics_out}")

    return _finish(failures, "bench guard")


if __name__ == "__main__":
    raise SystemExit(main())
