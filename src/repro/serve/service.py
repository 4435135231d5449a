"""The asyncio estimation service: coalesce concurrent requests.

:class:`EstimationService` accepts :class:`~repro.api.EstimateRequest`
submissions from many concurrent tasks (tenants, reader fields) and
answers each with an :class:`~repro.api.EstimateResponse`.  Instead of
executing requests one by one, a scheduler task runs a *micro-batching
loop*: it sleeps one coalescing tick, drains the pending queue, and
hands the whole batch to :func:`repro.serve.batching.execute_micro_batch`,
which fuses compatible requests into single batched-kernel calls.
Under the same seed a request answered from a fused batch is
bit-identical to :func:`repro.estimate` — coalescing is a pure
throughput optimisation, never a semantics change.

Robustness semantics (the degradation ladder, top to bottom):

0. **Cache hit** — an idempotent replay (same canonical cache key,
   see :mod:`repro.serve.cache`) is answered inside ``submit`` with
   the byte-identical cached result, before any queueing or kernel.
1. **Fused vectorized execution** — the normal path.
2. **Degraded sampled execution** — when the backlog at drain time
   exceeds ``degrade_queue_depth``, requests the sampled tier can
   serve (active-variant PET via the exact gray-depth law, and any
   protocol exposing an ``estimate_sampled`` statistic law — FNEB,
   LoF, USE/UPE/EZB, ALOHA) are answered from sampled statistics
   instead of hashing the population: cheap per round regardless of
   the population size, marked ``status="degraded"``.
3. **Backpressure rejection** — submissions beyond the per-tenant
   quota or the global queue bound are answered immediately with
   ``status="rejected"`` and a ``retry_after`` hint; they are never
   enqueued.
4. **Deadline expiry** — a request that waited in the queue past its
   relative ``deadline`` is answered ``status="expired"`` at drain
   time and never reaches a kernel.

Nothing on this ladder raises into the caller except programming
errors (:class:`~repro.errors.ServiceError` for submitting to a
stopped service); load conditions always produce a response.

SLO metrics (all on the shared obs registry, merge/export-compatible):

==============================  =======================================
``serve.queue.depth``           gauge: pending requests after each event
``serve.requests.submitted``    counter: accepted submissions
``serve.requests.<status>``     counter per response status
``serve.request.latency_seconds``  histogram: submit-to-answer wall
                                time (p50/p99 via the fixed log2 grid),
                                with per-bucket trace-id exemplars
``serve.tenant.<tenant>.requests``  counter: responses per tenant
``serve.batch.size``            histogram: drained batch sizes
``serve.batch.fused_requests``  counter: requests served from fusions
``serve.batch.scalar_requests`` counter: scalar-fallback requests
``serve.batch.groups``          counter: kernel fusion groups executed
``serve.slo.burn_rate_fast``    gauge: error-budget burn over the fast
                                (60 s) window; ``_slow`` = 1 h window
``serve.slo.good_fast`` / ``serve.slo.bad_fast``  gauges: window totals
``serve.slo.budget_remaining_fast``  gauge: ``max(0, 1 - burn_fast)``
==============================  =======================================

**Distributed tracing.**  When the service runs with a real registry,
every request carries one trace: a ``serve.request`` root span (status,
degradation ``rung``, tenant, protocol) with ``admission``,
``queue.wait``, ``fusion``, ``kernel`` (fusion group size, kernel
backend, chunk bound), and ``respond`` children.  The request may join
an upstream :class:`~repro.obs.tracectx.TraceContext`
(``EstimateRequest.trace_context``) or start a fresh root; the
response echoes the ``trace_id``, the latency histogram attaches it as
a bucket exemplar, and the scrape endpoint's ``/traces/<id>`` route
replays the timeline.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from ..api import (
    EstimateRequest,
    EstimateResponse,
    ResolvedRequest,
    request_cache_key,
    respond,
    resolve_request,
)
from ..errors import ConfigurationError, ReproError, ServiceError
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.slo import SloTracker
from ..obs.tracectx import TraceContext, current_trace
from .batching import (
    MicroBatchReport,
    degradable,
    execute_degraded,
    execute_micro_batch,
)
from .cache import DEFAULT_CACHE_SIZE, ResultCache


@dataclass(frozen=True)
class ServiceConfig:
    """Operating envelope of one :class:`EstimationService`.

    Attributes
    ----------
    max_queue_depth:
        Global bound on pending requests; submissions past it are
        rejected with backpressure.
    max_batch_size:
        Most requests drained per scheduler tick (one micro-batch).
    tick_seconds:
        Coalescing window: how long the scheduler lets submissions
        accumulate before draining a batch.
    tenant_quota:
        Most pending requests any single tenant may hold; the
        per-tenant check runs *before* the global one, so one noisy
        tenant saturates its own quota, not the shared queue.
    degrade_queue_depth:
        Backlog (after draining a batch) at which degradable requests
        are answered from the sampled tier; ``None`` means half of
        ``max_queue_depth``.
    retry_after_seconds:
        Back-off hint carried by backpressure rejections.
    trace_requests:
        Whether each request gets a distributed trace (root
        :class:`~repro.obs.tracectx.TraceContext`, per-phase spans,
        latency exemplars).  On by default — the overhead is a few
        percent CPU (guarded by ``bench_guard --tracing``) — but can
        be switched off to serve with metrics only.
    cache:
        Kill switch for the cross-tick idempotent result cache
        (:class:`~repro.serve.cache.ResultCache`).  On by default;
        cache hits are answered inside ``submit`` before any queueing
        or kernel work and are byte-identical to a cold run.
    cache_size:
        LRU bound of the result cache (entries).
    snapshot_interval_seconds:
        When set (> 0) and the service runs as a worker shard, the
        worker streams a heartbeat plus a registry *delta* snapshot to
        the router every this many seconds, so the router's merged
        registry (and the live ``/metrics`` endpoint) tracks worker
        state mid-run.  ``None`` / ``0`` keeps the PR-9 behaviour:
        telemetry merges home only at shutdown.
    heartbeat_misses:
        Heartbeat intervals a worker may miss before the fleet
        watchdog marks it stalled and ``/healthz`` degrades.
    """

    max_queue_depth: int = 256
    max_batch_size: int = 64
    tick_seconds: float = 0.002
    tenant_quota: int = 64
    degrade_queue_depth: int | None = None
    retry_after_seconds: float = 0.05
    trace_requests: bool = True
    cache: bool = True
    cache_size: int = DEFAULT_CACHE_SIZE
    snapshot_interval_seconds: float | None = None
    heartbeat_misses: int = 2

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.tick_seconds < 0:
            raise ConfigurationError(
                f"tick_seconds must be >= 0, got {self.tick_seconds}"
            )
        if self.tenant_quota < 1:
            raise ConfigurationError(
                f"tenant_quota must be >= 1, got {self.tenant_quota}"
            )
        if (
            self.degrade_queue_depth is not None
            and self.degrade_queue_depth < 0
        ):
            raise ConfigurationError(
                f"degrade_queue_depth must be >= 0 when given, got "
                f"{self.degrade_queue_depth}"
            )
        if self.retry_after_seconds <= 0:
            raise ConfigurationError(
                f"retry_after_seconds must be > 0, got "
                f"{self.retry_after_seconds}"
            )
        if self.cache_size < 1:
            raise ConfigurationError(
                f"cache_size must be >= 1, got {self.cache_size}"
            )
        if (
            self.snapshot_interval_seconds is not None
            and self.snapshot_interval_seconds < 0
        ):
            raise ConfigurationError(
                f"snapshot_interval_seconds must be >= 0 when given, "
                f"got {self.snapshot_interval_seconds}"
            )
        if self.heartbeat_misses < 1:
            raise ConfigurationError(
                f"heartbeat_misses must be >= 1, got "
                f"{self.heartbeat_misses}"
            )

    @property
    def degrade_depth(self) -> int:
        """Effective overload threshold (see ``degrade_queue_depth``)."""
        if self.degrade_queue_depth is not None:
            return self.degrade_queue_depth
        return self.max_queue_depth // 2


@dataclass
class _Pending:
    """One queued request awaiting its scheduler tick."""

    request: EstimateRequest
    future: asyncio.Future
    submitted_at: float
    #: Root trace context of this request's ``serve.request`` span
    #: (``None`` when the service runs untraced).
    trace: TraceContext | None = None

    def expired(self, now: float) -> bool:
        deadline = self.request.deadline
        return deadline is not None and now - self.submitted_at > deadline


class EstimationService:
    """Long-running micro-batching estimation service.

    Usage::

        service = EstimationService()
        async with service:
            response = await service.submit(
                EstimateRequest(population=50_000, seed=7, tenant="dock-3")
            )

    One scheduler task serves every submitter; ``submit`` is safe to
    call from any number of concurrent tasks on the service's event
    loop.  Kernel execution happens in a worker thread
    (``asyncio.to_thread``) so new submissions keep accumulating —
    and coalescing — while a batch computes.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        registry: MetricsRegistry | None = None,
        shard_label: str | None = None,
    ):
        self.config = config or ServiceConfig()
        self._registry = (
            registry if registry is not None else get_registry()
        )
        if self._registry and self._registry.slo is None:
            self._registry.attach_diagnostics(slo=SloTracker())
        self._queue: deque[_Pending] = deque()
        self._pending_by_tenant: dict[str, int] = {}
        self._population_cache: dict = {}
        #: Shard identity stamped onto kernel / root request spans when
        #: this service runs as one worker of a sharded scheduler.
        self._shard_label = shard_label
        self._cache = (
            ResultCache(self.config.cache_size, registry=self._registry)
            if self.config.cache
            else None
        )
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._accepting = False
        self._stopping = False

    @property
    def cache(self) -> ResultCache | None:
        """The shard-local result cache (``None`` when disabled)."""
        return self._cache

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> "EstimationService":
        """Start the scheduler task; idempotent errors are explicit."""
        if self._task is not None:
            raise ServiceError("service is already started")
        self._accepting = True
        self._stopping = False
        self._task = asyncio.get_running_loop().create_task(
            self._scheduler()
        )
        return self

    async def stop(self) -> None:
        """Stop accepting, drain every queued request, join the task."""
        if self._task is None:
            raise ServiceError("service was never started")
        self._accepting = False
        self._stopping = True
        self._wake.set()
        await self._task
        self._task = None
        # Per-request publishes are throttled; a final forced publish
        # keeps exported SLO gauges consistent with the full run.
        slo = self._registry.slo if self._registry else None
        if slo is not None:
            slo.publish(self._registry, force=True)

    async def __aenter__(self) -> "EstimationService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a scheduler tick."""
        return len(self._queue)

    @property
    def inflight(self) -> int:
        """Accepted requests not yet answered (queued + executing)."""
        return sum(self._pending_by_tenant.values())

    # -- submission ---------------------------------------------------

    async def submit(
        self, request: EstimateRequest
    ) -> EstimateResponse:
        """Submit one request; always answers, never raises on load.

        Raises :class:`~repro.errors.ServiceError` only when the
        service is not running — every load condition (quota, full
        queue, deadline) is an explicit response status.
        """
        if not self._accepting:
            raise ServiceError(
                "service is not accepting requests (not started or "
                "already stopping)"
            )
        now = time.perf_counter()
        registry = self._registry
        trace: TraceContext | None = None
        if registry and self.config.trace_requests:
            # Join the caller's trace when the request carries one (or
            # one is active on this task); start a fresh root otherwise.
            parent = request.trace_context or current_trace()
            trace = (
                parent.child() if parent is not None
                else TraceContext.root()
            )
        if self._cache is not None:
            key = request_cache_key(request)
            if key is not None:
                cached = self._cache.lookup(key)
                if cached is not None:
                    # Answered before any queueing, quota accounting,
                    # or kernel work — the replay is byte-identical to
                    # the cold run that populated the entry.
                    return self._answer_cache_hit(
                        request, cached, trace, now
                    )
        tenant = request.tenant
        held = self._pending_by_tenant.get(tenant, 0)
        if held >= self.config.tenant_quota:
            return self._reject(
                request,
                trace,
                now,
                reason="tenant_quota",
                detail=(
                    f"tenant {tenant!r} quota exhausted "
                    f"({held}/{self.config.tenant_quota} pending)"
                ),
            )
        if len(self._queue) >= self.config.max_queue_depth:
            return self._reject(
                request,
                trace,
                now,
                reason="queue_full",
                detail=(
                    f"queue full "
                    f"({len(self._queue)}/"
                    f"{self.config.max_queue_depth})"
                ),
            )
        item = _Pending(
            request=request,
            future=asyncio.get_running_loop().create_future(),
            submitted_at=now,
            trace=trace,
        )
        self._queue.append(item)
        self._pending_by_tenant[tenant] = held + 1
        if registry:
            registry.counter("serve.requests.submitted").inc()
            registry.gauge("serve.queue.depth").set(len(self._queue))
            if trace is not None:
                registry.record_span(
                    "admission",
                    path="serve.request.admission",
                    start=now,
                    seconds=time.perf_counter() - now,
                    trace=trace.child(),
                    tenant=tenant,
                    queue_depth=len(self._queue),
                )
        self._wake.set()
        return await item.future

    def _answer_cache_hit(
        self,
        request: EstimateRequest,
        result,
        trace: TraceContext | None,
        submitted_at: float,
    ) -> EstimateResponse:
        """Answer an idempotent replay from the result cache."""
        response = respond(
            request,
            "ok",
            result=result,
            submitted_at=submitted_at,
            trace_id=trace.trace_id if trace is not None else None,
        )
        if trace is not None:
            attributes: dict[str, object] = {
                "status": "ok",
                "rung": "cache_hit",
                "reason": "idempotent replay from the result cache",
                "tenant": request.tenant,
                "protocol": request.protocol,
            }
            if request.request_id is not None:
                attributes["request_id"] = request.request_id
            if self._shard_label is not None:
                attributes["shard"] = self._shard_label
            self._registry.record_span(
                "serve.request",
                start=submitted_at,
                seconds=time.perf_counter() - submitted_at,
                trace=trace,
                **attributes,
            )
        return self._answer(response, deadline=request.deadline)

    def _reject(
        self,
        request: EstimateRequest,
        trace: TraceContext | None,
        submitted_at: float,
        reason: str,
        detail: str,
    ) -> EstimateResponse:
        """Answer a backpressure rejection (never enqueued)."""
        response = respond(
            request,
            "rejected",
            submitted_at=submitted_at,
            retry_after=self.config.retry_after_seconds,
            detail=detail,
            trace_id=trace.trace_id if trace is not None else None,
        )
        if trace is not None:
            self._registry.record_span(
                "serve.request",
                start=submitted_at,
                seconds=time.perf_counter() - submitted_at,
                trace=trace,
                status="rejected",
                rung="backpressure",
                reason=reason,
                tenant=request.tenant,
                protocol=request.protocol,
            )
        return self._answer(response, deadline=request.deadline)

    # -- scheduler ----------------------------------------------------

    async def _scheduler(self) -> None:
        """The micro-batching loop: tick, drain, fuse, answer."""
        while True:
            if not self._queue:
                if self._stopping:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            if self.config.tick_seconds and not self._stopping:
                # The coalescing window: let concurrent submitters
                # land in the same batch.
                await asyncio.sleep(self.config.tick_seconds)
            batch = [
                self._queue.popleft()
                for _ in range(
                    min(len(self._queue), self.config.max_batch_size)
                )
            ]
            try:
                await self._process(batch)
            except Exception as error:  # the never-crash contract
                for item in batch:
                    if not item.future.done():
                        self._resolve(
                            item,
                            self._respond(
                                item,
                                "error",
                                detail=f"scheduler failure: {error}",
                            ),
                            rung="scheduler_error",
                            reason=str(error),
                        )

    async def _process(self, batch: list[_Pending]) -> None:
        """Answer one drained batch through the fusion executor."""
        registry = self._registry
        if registry:
            registry.histogram("serve.batch.size").observe(len(batch))
            registry.gauge("serve.queue.depth").set(len(self._queue))
        overloaded = len(self._queue) > self.config.degrade_depth
        now = time.perf_counter()
        fused_items: list[_Pending] = []
        fused_plans: list[ResolvedRequest] = []
        degraded_items: list[tuple[_Pending, ResolvedRequest]] = []
        for item in batch:
            if item.trace is not None:
                registry.record_span(
                    "queue.wait",
                    path="serve.request.queue.wait",
                    start=item.submitted_at,
                    seconds=now - item.submitted_at,
                    trace=item.trace.child(),
                    tenant=item.request.tenant,
                )
            if item.expired(now):
                self._resolve(
                    item,
                    self._respond(
                        item,
                        "expired",
                        detail=(
                            f"deadline of {item.request.deadline}s "
                            f"passed while queued"
                        ),
                    ),
                    rung="deadline_expired",
                    reason=(
                        f"queued {now - item.submitted_at:.4f}s >"
                        f" deadline {item.request.deadline}s"
                    ),
                )
                continue
            try:
                resolved = resolve_request(
                    item.request,
                    registry=registry if registry else None,
                    population_cache=self._population_cache,
                )
            except ReproError as error:
                self._resolve(
                    item,
                    self._respond(item, "error", detail=str(error)),
                    rung="resolve_error",
                    reason=str(error),
                )
                continue
            if overloaded and degradable(resolved):
                degraded_items.append((item, resolved))
            else:
                fused_items.append(item)
                fused_plans.append(resolved)

        if fused_plans:
            report = MicroBatchReport()
            exec_start = time.perf_counter()
            outcomes = await asyncio.to_thread(
                execute_micro_batch, fused_plans, report
            )
            if registry:
                registry.counter("serve.batch.fused_requests").inc(
                    report.fused_requests
                )
                registry.counter("serve.batch.scalar_requests").inc(
                    report.scalar_requests
                )
                registry.counter("serve.batch.groups").inc(
                    report.fused_groups
                )
            for position, (item, resolved, outcome) in enumerate(
                zip(fused_items, fused_plans, outcomes)
            ):
                self._trace_kernel(item, report, position, exec_start)
                if isinstance(outcome, Exception):
                    self._resolve(
                        item,
                        self._respond(
                            item, "error", detail=str(outcome)
                        ),
                        rung="kernel_error",
                        reason=str(outcome),
                    )
                else:
                    # Only canonical (bit-identical) results enter the
                    # cache — degraded answers never do.
                    if (
                        self._cache is not None
                        and resolved.cache_key is not None
                    ):
                        self._cache.store(resolved.cache_key, outcome)
                    self._resolve(
                        item,
                        self._respond(item, "ok", result=outcome),
                        rung="fused",
                    )

        for item, resolved in degraded_items:
            kernel_start = time.perf_counter()
            try:
                outcome = await asyncio.to_thread(
                    execute_degraded, resolved
                )
                kernel_end = time.perf_counter()
                if item.trace is not None:
                    degraded_attributes: dict[str, object] = {
                        "backend": "sampled",
                        "group_kind": "degraded",
                        "group_size": 1,
                        "protocol": item.request.protocol,
                    }
                    if self._shard_label is not None:
                        degraded_attributes["shard"] = self._shard_label
                    registry.record_span(
                        "kernel",
                        path="serve.request.kernel",
                        start=kernel_start,
                        seconds=kernel_end - kernel_start,
                        trace=item.trace.child(),
                        **degraded_attributes,
                    )
                response = self._respond(
                    item,
                    "degraded",
                    result=outcome,
                    detail="overload: served from the sampled tier",
                )
                self._resolve(
                    item,
                    response,
                    rung="degraded_sampled",
                    reason=(
                        f"backlog {len(self._queue)} >"
                        f" degrade depth {self.config.degrade_depth}"
                    ),
                )
            except ReproError as error:
                self._resolve(
                    item,
                    self._respond(item, "error", detail=str(error)),
                    rung="kernel_error",
                    reason=str(error),
                )

    def _respond(
        self,
        item: _Pending,
        status: str,
        result=None,
        detail: str = "",
    ) -> EstimateResponse:
        """Build a response for a queued item, echoing its trace id."""
        return respond(
            item.request,
            status,
            result=result,
            submitted_at=item.submitted_at,
            detail=detail,
            trace_id=(
                item.trace.trace_id if item.trace is not None else None
            ),
        )

    def _trace_kernel(
        self,
        item: _Pending,
        report: MicroBatchReport,
        position: int,
        exec_start: float,
    ) -> None:
        """Record the fusion + kernel spans for one fused request."""
        if item.trace is None:
            return
        group = report.group_of(position)
        if group is None:
            return
        registry = self._registry
        registry.record_span(
            "fusion",
            path="serve.request.fusion",
            start=exec_start,
            seconds=max(group.start - exec_start, 0.0),
            trace=item.trace.child(),
            group_kind=group.kind,
            group_size=len(group.indices),
        )
        kernel_attributes = {
            "backend": group.backend,
            "group_kind": group.kind,
            "group_size": len(group.indices),
            "protocol": group.protocol,
        }
        if self._shard_label is not None:
            kernel_attributes["shard"] = self._shard_label
        registry.record_span(
            "kernel",
            path="serve.request.kernel",
            start=group.start,
            seconds=group.seconds,
            trace=item.trace.child(),
            **kernel_attributes,
        )

    # -- bookkeeping --------------------------------------------------

    def _resolve(
        self,
        item: _Pending,
        response: EstimateResponse,
        rung: str | None = None,
        reason: str = "",
    ) -> None:
        """Answer one queued request and release its tenant slot.

        ``rung`` names the degradation-ladder rung that produced the
        answer (``fused`` / ``degraded_sampled`` / ``deadline_expired``
        / ...) and ``reason`` why it fired; both land on the request's
        root ``serve.request`` span.
        """
        tenant = item.request.tenant
        held = self._pending_by_tenant.get(tenant, 1)
        if held <= 1:
            self._pending_by_tenant.pop(tenant, None)
        else:
            self._pending_by_tenant[tenant] = held - 1
        respond_start = time.perf_counter()
        self._answer(response, deadline=item.request.deadline)
        if item.trace is not None:
            end = time.perf_counter()
            attributes: dict[str, object] = {
                "status": response.status,
                "rung": rung if rung is not None else response.status,
                "tenant": tenant,
                "protocol": item.request.protocol,
            }
            if reason:
                attributes["reason"] = reason
            if item.request.request_id is not None:
                attributes["request_id"] = item.request.request_id
            if self._shard_label is not None:
                attributes["shard"] = self._shard_label
            self._registry.record_span(
                "respond",
                path="serve.request.respond",
                start=respond_start,
                seconds=end - respond_start,
                trace=item.trace.child(),
                status=response.status,
            )
            self._registry.record_span(
                "serve.request",
                start=item.submitted_at,
                seconds=end - item.submitted_at,
                trace=item.trace,
                **attributes,
            )
        if not item.future.done():
            item.future.set_result(response)

    def _answer(
        self,
        response: EstimateResponse,
        deadline: float | None = None,
    ) -> EstimateResponse:
        """Record one response's SLO metrics and pass it through."""
        registry = self._registry
        if registry:
            registry.counter(
                f"serve.requests.{response.status}"
            ).inc()
            registry.counter(
                f"serve.tenant.{response.tenant}.requests"
            ).inc()
            latency = response.latency_seconds
            if latency == latency:  # skip NaN (no submit timestamp)
                registry.histogram(
                    "serve.request.latency_seconds"
                ).observe(latency, trace_id=response.trace_id)
            registry.gauge("serve.queue.depth").set(len(self._queue))
            slo = registry.slo
            if slo is not None:
                good = response.status == "ok" and not (
                    deadline is not None
                    and latency == latency
                    and latency > deadline
                )
                slo.record(good)
                slo.publish(registry)
        return response


def run_requests(
    requests: Sequence[EstimateRequest],
    config: ServiceConfig | None = None,
    registry: MetricsRegistry | None = None,
    concurrency: int = 32,
) -> list[EstimateResponse]:
    """Drive ``requests`` through a fresh service, ``concurrency`` at
    a time, from synchronous code.

    The benchmark, the CLI, and the smoke tests all use this entry:
    it owns the event loop (``asyncio.run``), so call it only from
    non-async code.  Responses come back in request order.
    """
    if concurrency < 1:
        raise ConfigurationError(
            f"concurrency must be >= 1, got {concurrency}"
        )

    async def _main() -> list[EstimateResponse]:
        service = EstimationService(config=config, registry=registry)
        gate = asyncio.Semaphore(concurrency)

        async def _one(request: EstimateRequest) -> EstimateResponse:
            async with gate:
                return await service.submit(request)

        async with service:
            return list(
                await asyncio.gather(
                    *(_one(request) for request in requests)
                )
            )

    return asyncio.run(_main())
