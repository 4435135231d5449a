#!/usr/bin/env python
"""Benchmark the live fleet telemetry tier: streaming cost + watchdog.

The workload is the bench_serve acceptance shape (128 multi-tenant
requests, 4 reader fields, distinct request seeds) served through
:func:`repro.serve.run_sharded`.  Four sections land in the record:

* **sweep** — best-of-repeats wall time for every snapshot-interval ×
  shard-count cell in {off, 1.0 s, 0.25 s} × {2, 4}.  Streaming must
  be semantically invisible: every cell's responses are checked
  bit-identical to the sequential facade results;
* **overhead** — the binding contract: at 4 shards, serving with a
  0.25 s heartbeat must cost at most ``OVERHEAD_BOUND`` (5 %) more
  wall time than stop-time-only telemetry.  Like the sharded
  throughput floor in bench_serve, the ratio only means anything when
  worker processes have cores to run on, so the record carries
  ``floor_enforced = cpu_count >= FLEET_MIN_CPUS`` and the guard
  skips (not fails) the bound on smaller boxes;
* **live_scrape** — a streaming run whose router registry is read
  *mid-run* (after the last response, before ``stop()``): the merged
  worker counters must converge to the full request count within the
  heartbeat deadline, and the post-stop registry must agree exactly
  (the final merge is idempotent against the streamed deltas);
* **watchdog** — a streaming run where one worker is SIGKILLed: the
  fleet health verdict must leave ``ok`` within
  ``heartbeat_misses * interval`` seconds (plus the poll margin) and
  name the dead shard.

Run to regenerate the committed record::

    PYTHONPATH=src python benchmarks/bench_fleet.py

``bench_guard --fleet`` validates ``BENCH_obs_fleet.json`` and
re-measures this workload with the same floors.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from repro.api import EstimateRequest, execute_request, resolve_request
from repro.obs import MetricsRegistry
from repro.serve import ServiceConfig, ShardedService, run_sharded
from repro.sim.backends import active_backend

OUTPUT = (
    Path(__file__).resolve().parent.parent / "BENCH_obs_fleet.json"
)

#: Periodic snapshot streaming may cost at most this much wall time
#: over stop-time-only telemetry at the densest swept cadence.
OVERHEAD_BOUND = 0.05

#: Cores below which the overhead bound is recorded but not enforced
#: (worker processes time-slice one core; the heartbeat thread's cost
#: disappears into scheduling noise either way).
FLEET_MIN_CPUS = 4

#: The swept heartbeat cadences; ``None`` is stop-time-only telemetry.
INTERVALS = (None, 1.0, 0.25)

#: The swept fleet widths.
SHARD_COUNTS = (2, 4)

#: The shard count whose off-vs-0.25 s ratio is the binding contract.
OVERHEAD_SHARDS = 4

#: The heartbeat cadence of the live-scrape and watchdog sections.
LIVE_INTERVAL = 0.25

#: Missed beats before the watchdog may call a shard stalled.
HEARTBEAT_MISSES = 2

#: The acceptance workload — same shape as bench_serve.
WORKLOAD = {
    "requests": 128,
    "concurrency": 64,
    "tenants": 4,
    "population": 600,
    "rounds": 64,
    "protocol": "pet",
    "base_seed": 2011,
}


def build_requests() -> list[EstimateRequest]:
    """The deterministic benchmark request mix."""
    return [
        EstimateRequest(
            population=WORKLOAD["population"],
            protocol=WORKLOAD["protocol"],
            seed=WORKLOAD["base_seed"] + index,
            population_seed=1_000 + index % WORKLOAD["tenants"],
            rounds=WORKLOAD["rounds"],
            tenant=f"tenant-{index % WORKLOAD['tenants']}",
            request_id=f"bench-{index:04d}",
        )
        for index in range(WORKLOAD["requests"])
    ]


def _service_config(interval: float | None) -> ServiceConfig:
    return ServiceConfig(
        max_queue_depth=WORKLOAD["requests"],
        max_batch_size=32,
        tenant_quota=WORKLOAD["requests"],
        tick_seconds=0.001,
        snapshot_interval_seconds=interval,
        heartbeat_misses=HEARTBEAT_MISSES,
    )


def _identical(responses, results) -> bool:
    """Element-wise response/result identity on the estimate view."""
    return all(
        response.status == "ok"
        and response.result.n_hat == result.n_hat
        and response.result.total_slots == result.total_slots
        for response, result in zip(responses, results)
    )


def sequential_results(requests: list[EstimateRequest]):
    """The facade-path reference results (shared population cache)."""
    cache: dict = {}
    return [
        execute_request(
            resolve_request(request, population_cache=cache)
        )
        for request in requests
    ]


def time_cell(
    requests: list[EstimateRequest],
    shards: int,
    interval: float | None,
):
    """One sharded run at the given heartbeat cadence."""
    registry = MetricsRegistry()
    start = time.perf_counter()
    responses = run_sharded(
        requests,
        shards=shards,
        config=_service_config(interval),
        registry=registry,
        concurrency=WORKLOAD["concurrency"],
    )
    return time.perf_counter() - start, responses


def measure_sweep(
    requests: list[EstimateRequest],
    results,
    repeats: int,
) -> dict:
    """Best-of-``repeats`` wall time per interval × shards cell."""
    sweep: dict[str, dict] = {}
    for shards in SHARD_COUNTS:
        for interval in INTERVALS:
            label = (
                f"shards={shards}/interval="
                + ("off" if interval is None else f"{interval}s")
            )
            best = float("inf")
            responses = None
            for _ in range(repeats):
                seconds, fresh = time_cell(requests, shards, interval)
                best = min(best, seconds)
                responses = fresh
            sweep[label] = {
                "shards": shards,
                "interval_seconds": interval,
                "seconds": round(best, 4),
                "requests_per_second": round(len(requests) / best, 1),
                "bit_identical": _identical(responses, results),
            }
    return sweep


def measure_live_scrape(requests: list[EstimateRequest]) -> dict:
    """Mid-run merged state vs the post-stop registry."""
    registry = MetricsRegistry()
    config = _service_config(LIVE_INTERVAL)
    deadline_margin = 4 * LIVE_INTERVAL + 1.0
    with ShardedService(
        shards=2, config=config, registry=registry
    ) as service:
        for future in [service.submit(r) for r in requests]:
            future.result()
        answered = time.perf_counter()
        converged_at = None
        deadline = answered + deadline_margin
        while time.perf_counter() < deadline:
            counters = registry.snapshot()["counters"]
            if counters.get("serve.requests.ok", 0) >= len(requests):
                converged_at = time.perf_counter()
                break
            time.sleep(LIVE_INTERVAL / 10)
        mid = registry.snapshot()
        health = service.fleet_health()
    final = registry.snapshot()
    mid_ok = mid["counters"].get("serve.requests.ok", 0)

    # Shutdown itself does real (counted) work — e.g. workers unlink
    # their shared seed matrices — so the idempotency claim binds on
    # the serving namespace the heartbeats stream, not on teardown
    # bookkeeping.
    def _serve(counters):
        return {
            name: value
            for name, value in counters.items()
            if name.startswith("serve.")
        }

    return {
        "interval_seconds": LIVE_INTERVAL,
        "requests": len(requests),
        "mid_run_ok": mid_ok,
        "final_ok": final["counters"].get("serve.requests.ok", 0),
        "seconds_to_converge": (
            round(converged_at - answered, 4)
            if converged_at is not None
            else None
        ),
        "convergence_deadline_seconds": deadline_margin,
        "mid_run_health": health["status"],
        # The binding claims: the live scrape saw every worker-side
        # increment within the heartbeat deadline, and stop() added
        # nothing on top of what the heartbeats already shipped.
        "converged": mid_ok == len(requests),
        "idempotent_stop": _serve(mid["counters"])
        == _serve(final["counters"]),
    }


def measure_watchdog(requests: list[EstimateRequest]) -> dict:
    """Seconds from SIGKILL to a non-ok fleet health verdict."""
    registry = MetricsRegistry()
    config = _service_config(LIVE_INTERVAL)
    bound = HEARTBEAT_MISSES * LIVE_INTERVAL
    poll = LIVE_INTERVAL / 10
    service = ShardedService(
        shards=2, config=config, registry=registry
    ).start()
    try:
        for future in [service.submit(r) for r in requests[:16]]:
            future.result()
        victim = service._processes[1]
        victim.kill()
        killed_at = time.perf_counter()
        victim.join(timeout=5.0)
        flipped_at = None
        health = service.fleet_health()
        deadline = killed_at + bound + 2.0
        while time.perf_counter() < deadline:
            health = service.fleet_health()
            if health["status"] != "ok":
                flipped_at = time.perf_counter()
                break
            time.sleep(poll)
    finally:
        service.stop()
    detected = flipped_at is not None
    return {
        "interval_seconds": LIVE_INTERVAL,
        "heartbeat_misses": HEARTBEAT_MISSES,
        "seconds_to_degraded": (
            round(flipped_at - killed_at, 4) if detected else None
        ),
        "bound_seconds": round(bound + poll, 4),
        "detected": detected,
        "status": health["status"],
        "dead_shard": health["shards"].get("1", {}).get("status"),
        "within_bound": detected
        and (flipped_at - killed_at) <= bound + poll,
    }


def measure_all(repeats: int = 2) -> dict:
    """The full record: sweep + overhead + live scrape + watchdog."""
    requests = build_requests()
    cpu_count = os.cpu_count() or 1
    results = sequential_results(requests)

    sweep = measure_sweep(requests, results, repeats)
    off = sweep[f"shards={OVERHEAD_SHARDS}/interval=off"]["seconds"]
    dense = sweep[f"shards={OVERHEAD_SHARDS}/interval=0.25s"][
        "seconds"
    ]
    overhead = {
        "shards": OVERHEAD_SHARDS,
        "off_seconds": off,
        "streaming_seconds": dense,
        "overhead_ratio": round(dense / off - 1.0, 4),
        "bound": OVERHEAD_BOUND,
        "min_cpus": FLEET_MIN_CPUS,
        "floor_enforced": cpu_count >= FLEET_MIN_CPUS,
    }
    return {
        "workload": dict(WORKLOAD),
        "sweep": sweep,
        "overhead": overhead,
        "live_scrape": measure_live_scrape(requests),
        "watchdog": measure_watchdog(requests),
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": cpu_count,
            "backend": active_backend().name,
        },
    }


def main() -> int:
    record = measure_all()
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    overhead = record["overhead"]
    scrape = record["live_scrape"]
    watchdog = record["watchdog"]
    for label, cell in record["sweep"].items():
        print(
            f"{label}: {cell['seconds']:.3f}s  "
            f"{cell['requests_per_second']:.0f} req/s  "
            f"bit_identical={cell['bit_identical']}"
        )
    print(
        f"streaming overhead at {overhead['shards']} shards: "
        f"{overhead['overhead_ratio']:+.1%} "
        f"(bound {overhead['bound']:.0%}, "
        f"enforced={overhead['floor_enforced']} at "
        f"{record['environment']['cpu_count']} cpus)"
    )
    print(
        f"live scrape: mid-run ok={scrape['mid_run_ok']}/"
        f"{scrape['requests']} in "
        f"{scrape['seconds_to_converge']}s  "
        f"idempotent_stop={scrape['idempotent_stop']}"
    )
    print(
        f"watchdog: degraded in {watchdog['seconds_to_degraded']}s "
        f"(bound {watchdog['bound_seconds']}s)  "
        f"dead_shard={watchdog['dead_shard']}"
    )
    print(f"record written to {OUTPUT}")
    ok = (
        all(cell["bit_identical"] for cell in record["sweep"].values())
        and scrape["converged"]
        and scrape["idempotent_stop"]
        and watchdog["within_bound"]
        and watchdog["dead_shard"] == "dead"
        and (
            not overhead["floor_enforced"]
            or overhead["overhead_ratio"] <= overhead["bound"]
        )
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
