"""Per-layer tracing: which public functions are wrapped, and the
per-layer metrics computed from the spans they leave.

Each wrapper sits where the caller looks the function up, e.g.
``repro.serve.service.execute_micro_batch`` rather than its defining
module, because that is the name the call resolves at run time.
"""

from __future__ import annotations

import time

import repro.protocols.registry  # noqa: F401  (defines every engine class)
import repro.serve.batching as batching
import repro.serve.cache as cache
import repro.serve.service as service
import repro.serve.shard as shard
import repro.sim.batched as batched
import repro.sim.protocol_batched as protocol_batched
from repro.hashing.family import HashFamily
from repro.protocols.base import BatchedRoundEngine
from repro.tags.population import TagPopulation
from stats import quantile_or_zero
from tracer import SpanIndex, Tracer, busy, covered

#: Bytes per computed code: the hash output is one ``uint64``.
CODE_BYTES = 8
KERNEL_PREFIXES = ("sim.batched.fresh", "sim.batched.sorted", "hashing.")

#: Every per-layer metric, in report order, with its unit.
UNITS = {
    "api.resolve.calls": "count",
    "api.resolve.busy_s": "s",
    "tags.population.build_s": "s",
    "tags.population.setup_build_s": "s",
    "serve.queue_wait.p50_s": "s",
    "serve.queue_wait.p90_s": "s",
    "serve.respond.p50_s": "s",
    "serve.batches": "count",
    "serve.batch_size.mean": "count",
    "kernel.request_share": "frac",
    "serve.batching.busy_s": "s",
    "serve.batching.self_s": "s",
    "serve.batching.groups_per_batch": "count",
    "serve.batching.fused_frac": "frac",
    "serve.cache.lookups": "count",
    "serve.cache.hit_frac": "frac",
    "serve.cache.stores": "count",
    "serve.cache.busy_s": "s",
    "serve.shard.submit.busy_s": "s",
    "serve.shard.roundtrip.p50_s": "s",
    "serve.shard.balance": "ratio",
    "sim.batched.fresh.busy_s": "s",
    "sim.batched.fresh.ns_per_tag_round": "ns",
    "sim.batched.sorted.busy_s": "s",
    "sim.batched.sorted.ns_per_round": "ns",
    "sim.batched.grid.busy_s": "s",
    "sim.batched.grid.passive_share": "frac",
    "hashing.code_matrix.busy_s": "s",
    "hashing.code_matrix.elements": "count",
    "hashing.code_matrix.bytes_computed": "bytes",
    "hashing.clz.busy_s": "s",
    "core.accuracy.reduce.busy_s": "s",
    "protocols.engine.statistics.busy_s": "s",
    "protocols.engine.statistics.draws": "count",
    "sim.protocol_batched.seed_matrix.busy_s": "s",
    "proc.cpu_per_wall": "ratio",
    "loadgen.lateness.p90_s": "s",
    "loadgen.latency.samples": "count",
    "trace.overhead_frac": "frac",
}


def _engine_classes() -> list[type]:
    found, stack = [], [BatchedRoundEngine]
    while stack:
        for subclass in stack.pop().__subclasses__():
            found.append(subclass)
            stack.append(subclass)
    return found


def _batch_attrs(args, kwargs, result):
    batch, report = args[0], args[1]
    return (
        tuple(resolved.request.request_id for resolved in batch),
        len(report.groups),
        report.fused_requests,
        report.requests,
    )


def _shard_attrs(args, kwargs, future):
    """``[shard, resolved_at]``; the future's callback fills the time."""
    router, request = args[0], args[1]
    record = [shard.route_shard(request, router.shards), None]
    if future is not None:
        future.add_done_callback(
            lambda _future: record.__setitem__(1, time.perf_counter())
        )
    return record


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; ``tracer.unpatch()`` undoes it."""
    patch = tracer.patch
    # api + tags
    patch(service, "resolve_request", "api.resolve")
    patch(TagPopulation, "random", "tags.population.build")
    patch(batched, "build_population", "tags.population.build")
    patch(protocol_batched, "build_population", "tags.population.build")
    # serve.service, timed from outside: submit -> batch -> answer.
    # Submissions are matched to batches by request_id, which every
    # benchmark request carries uniquely within a phase.
    patch(service.EstimationService, "submit", "serve.submit",
          attrs=lambda args, kwargs, result: args[1].request_id)
    patch(service, "execute_micro_batch", "serve.batching", attrs=_batch_attrs)
    patch(cache.ResultCache, "lookup", "serve.cache.lookup",
          attrs=lambda args, kwargs, result: result is not None)
    patch(cache.ResultCache, "store", "serve.cache.store")
    patch(shard.ShardedService, "submit", "serve.shard.submit", attrs=_shard_attrs)
    # sim.batched + core.accuracy, in both modules that call them
    for module in (batching, batched):
        patch(module, "batched_gray_depths_fresh", "sim.batched.fresh",
              attrs=lambda args, kwargs, result: args[0].size * args[1].size)
        patch(module, "batched_gray_depths_sorted", "sim.batched.sorted",
              attrs=lambda args, kwargs, result: args[1].size)
        patch(module, "estimate_from_depths", "core.accuracy.reduce")
    patch(batched.BatchedExperimentEngine, "run_rounds_grid", "sim.batched.grid",
          attrs=lambda args, kwargs, result: bool(args[2].passive_tags))
    # hashing
    patch(HashFamily, "code_matrix", "hashing.code_matrix",
          attrs=lambda args, kwargs, result: len(args[1]) * len(args[2]))
    patch(batched, "leading_zeros64_vec", "hashing.clz")
    # protocols
    for engine in _engine_classes():
        if "round_statistics" in vars(engine):
            patch(engine, "round_statistics", "protocols.engine.statistics",
                  attrs=lambda args, kwargs, result: len(args[1]))
        if "reduce" in vars(engine):
            patch(engine, "reduce", "core.accuracy.reduce")
    patch(protocol_batched, "seed_matrix", "sim.protocol_batched.seed_matrix")


def summarize(
    tracer: Tracer, since: float, until: float, shards: int = 1
) -> dict[str, float]:
    """Per-layer metrics over the spans started in ``[since, until)``."""
    index = SpanIndex(tracer.spans)
    wall = until - since

    def outer(*names):
        return index.outermost(names, since, until)

    metrics: dict[str, float] = {}
    resolves = outer("api.resolve")
    metrics["api.resolve.calls"] = len(resolves)
    metrics["api.resolve.busy_s"] = busy(resolves)
    metrics["tags.population.build_s"] = busy(outer("tags.population.build"))

    # serve.service: submit -> batch start -> batch end -> answer.
    submits = {span[5]: span for span in outer("serve.submit")}
    batches = outer("serve.batching")
    waits, responds, kernel_share = [], [], 0.0
    for span in batches:
        kernel = covered(
            (
                (child[3], child[4])
                for child in index.descendants(span)
                if child[2].startswith(KERNEL_PREFIXES)
            ),
            span[3],
            span[4],
        )
        for request_id in span[5][0]:
            submit = submits.get(request_id)
            if submit is None:
                continue
            waits.append(span[3] - submit[3])
            responds.append(submit[4] - span[4])
            kernel_share += kernel / (submit[4] - submit[3])
    metrics["serve.queue_wait.p50_s"] = quantile_or_zero(waits, 0.5)
    metrics["serve.queue_wait.p90_s"] = quantile_or_zero(waits, 0.9)
    metrics["serve.respond.p50_s"] = quantile_or_zero(responds, 0.5)
    metrics["serve.batches"] = len(batches)
    requests = sum(span[5][3] for span in batches)
    metrics["serve.batch_size.mean"] = requests / len(batches) if batches else 0.0
    # Mean over every submitted request (cache hits hold no kernel).
    metrics["kernel.request_share"] = kernel_share / len(submits) if submits else 0.0

    # serve.batching
    metrics["serve.batching.busy_s"] = busy(batches)
    metrics["serve.batching.self_s"] = sum(index.self_time(span) for span in batches)
    metrics["serve.batching.groups_per_batch"] = (
        sum(span[5][1] for span in batches) / len(batches) if batches else 0.0
    )
    metrics["serve.batching.fused_frac"] = (
        sum(span[5][2] for span in batches) / requests if requests else 0.0
    )

    # serve.cache
    lookups = outer("serve.cache.lookup")
    stores = outer("serve.cache.store")
    metrics["serve.cache.lookups"] = len(lookups)
    metrics["serve.cache.hit_frac"] = (
        sum(1 for span in lookups if span[5]) / len(lookups) if lookups else 0.0
    )
    metrics["serve.cache.stores"] = len(stores)
    metrics["serve.cache.busy_s"] = busy(lookups) + busy(stores)

    # serve.shard
    routed = outer("serve.shard.submit")
    metrics["serve.shard.submit.busy_s"] = busy(routed)
    metrics["serve.shard.roundtrip.p50_s"] = quantile_or_zero(
        [span[5][1] - span[3] for span in routed if span[5][1] is not None], 0.5
    )
    per_shard = [0] * shards
    for span in routed:
        per_shard[span[5][0]] += 1
    metrics["serve.shard.balance"] = (
        max(per_shard) / (len(routed) / shards) if routed else 0.0
    )

    # sim.batched
    fresh = outer("sim.batched.fresh")
    fresh_busy = busy(fresh)
    metrics["sim.batched.fresh.busy_s"] = fresh_busy
    elements = sum(span[5] for span in fresh)
    metrics["sim.batched.fresh.ns_per_tag_round"] = (
        fresh_busy * 1e9 / elements if elements else 0.0
    )
    sorted_spans = outer("sim.batched.sorted")
    sorted_busy = busy(sorted_spans)
    metrics["sim.batched.sorted.busy_s"] = sorted_busy
    paths = sum(span[5] for span in sorted_spans)
    metrics["sim.batched.sorted.ns_per_round"] = (
        sorted_busy * 1e9 / paths if paths else 0.0
    )
    grids = outer("sim.batched.grid")
    metrics["sim.batched.grid.busy_s"] = busy(grids)
    metrics["sim.batched.grid.passive_share"] = (
        busy(span for span in grids if span[5]) / wall
    )

    # hashing
    codes = outer("hashing.code_matrix")
    metrics["hashing.code_matrix.busy_s"] = busy(codes)
    code_elements = sum(span[5] for span in codes)
    metrics["hashing.code_matrix.elements"] = code_elements
    metrics["hashing.code_matrix.bytes_computed"] = code_elements * CODE_BYTES
    metrics["hashing.clz.busy_s"] = busy(outer("hashing.clz"))

    # core.accuracy + protocols
    metrics["core.accuracy.reduce.busy_s"] = busy(outer("core.accuracy.reduce"))
    statistics = outer("protocols.engine.statistics")
    metrics["protocols.engine.statistics.busy_s"] = busy(statistics)
    metrics["protocols.engine.statistics.draws"] = sum(span[5] for span in statistics)
    metrics["sim.protocol_batched.seed_matrix.busy_s"] = busy(
        outer("sim.protocol_batched.seed_matrix")
    )
    return metrics
