"""The asyncio service: coalescing, backpressure, quotas, deadlines.

No pytest-asyncio in the toolchain — each test owns its loop through
``asyncio.run``.
"""

import asyncio

import pytest

import repro.serve.service as service_module
from repro.api import (
    RESPONSE_STATUSES,
    EstimateRequest,
    execute_request,
    resolve_request,
)
from repro.errors import ConfigurationError, ServiceError
from repro.obs import MetricsRegistry
from repro.serve import EstimationService, ServiceConfig, run_requests


def _request(seed, tenant="default", **overrides):
    defaults = dict(
        population=400, seed=seed, rounds=16, population_seed=1
    )
    defaults.update(overrides)
    return EstimateRequest(tenant=tenant, **defaults)


async def _submit_burst(service, requests):
    """Launch every submit concurrently and gather the responses."""
    return await asyncio.gather(
        *(service.submit(request) for request in requests)
    )


class TestServiceConfig:
    def test_defaults_validate(self):
        config = ServiceConfig()
        assert config.degrade_depth == config.max_queue_depth // 2

    def test_explicit_degrade_depth_wins(self):
        assert ServiceConfig(degrade_queue_depth=7).degrade_depth == 7

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_queue_depth", 0),
            ("max_batch_size", 0),
            ("tick_seconds", -0.1),
            ("tenant_quota", 0),
            ("degrade_queue_depth", -1),
            ("retry_after_seconds", 0.0),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ServiceConfig(**{field: value})


class TestLifecycle:
    def test_submit_before_start_raises(self):
        async def main():
            service = EstimationService()
            with pytest.raises(ServiceError, match="not accepting"):
                await service.submit(_request(1))

        asyncio.run(main())

    def test_double_start_raises(self):
        async def main():
            service = EstimationService()
            await service.start()
            with pytest.raises(ServiceError, match="already started"):
                await service.start()
            await service.stop()

        asyncio.run(main())

    def test_stop_without_start_raises(self):
        async def main():
            with pytest.raises(ServiceError, match="never started"):
                await EstimationService().stop()

        asyncio.run(main())

    def test_stop_drains_pending_requests(self):
        async def main():
            service = EstimationService(
                config=ServiceConfig(tick_seconds=0.2)
            )
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit(_request(s)))
                for s in range(5)
            ]
            await asyncio.sleep(0)  # enqueue before the stop
            await service.stop()
            responses = await asyncio.gather(*tasks)
            assert [r.status for r in responses] == ["ok"] * 5

        asyncio.run(main())


class TestCoalescedIdentity:
    """Concurrent requests through the service == solo facade results."""

    def test_pet_and_fneb_bit_identical_through_service(self):
        requests = [
            _request(s) for s in (1, 2, 3)
        ] + [
            _request(s, protocol="fneb") for s in (4, 5)
        ]
        responses = run_requests(requests, concurrency=len(requests))
        for request, response in zip(requests, responses):
            solo = execute_request(
                resolve_request(request, population_cache={})
            )
            assert response.status == "ok"
            assert response.result.n_hat == solo.n_hat
            assert response.result.total_slots == solo.total_slots
            assert (
                response.result.seed_provenance == solo.seed_provenance
            )

    def test_responses_come_back_in_request_order(self):
        requests = [
            _request(s, request_id=f"r{s}") for s in range(6)
        ]
        responses = run_requests(requests, concurrency=6)
        assert [r.request_id for r in responses] == [
            f"r{s}" for s in range(6)
        ]

    def test_concurrent_burst_actually_coalesces(self):
        registry = MetricsRegistry()
        requests = [_request(s) for s in range(8)]
        run_requests(
            requests,
            config=ServiceConfig(tick_seconds=0.05),
            registry=registry,
            concurrency=8,
        )
        # All eight shared population+config: at least one fusion
        # group served multiple requests.
        fused = registry.counter("serve.batch.fused_requests").value
        groups = registry.counter("serve.batch.groups").value
        assert fused == 8
        assert groups < 8

    def test_bad_request_gets_error_response_not_exception(self):
        requests = [
            _request(1),
            EstimateRequest(
                population=400, seed=2, rounds=0  # invalid rounds
            ),
            _request(3),
        ]
        responses = run_requests(requests, concurrency=3)
        assert [r.status for r in responses] == ["ok", "error", "ok"]
        assert "rounds" in responses[1].detail


    def test_bad_seed_answered_with_error_not_a_cache_hit(self):
        async def main():
            service = EstimationService()
            await service.start()
            try:
                good = await service.submit(_request(1))
                # 1.5 must not alias seed 1's cached answer.
                bad = await asyncio.gather(
                    service.submit(_request(-1)),
                    service.submit(_request(1.5)),
                )
            finally:
                await service.stop()
            return good, bad

        good, bad = asyncio.run(main())
        assert good.status == "ok"
        assert [r.status for r in bad] == ["error", "error"]
        assert all("seed must be" in r.detail for r in bad)


class TestBackpressure:
    def test_queue_full_rejected_with_retry_after(self):
        config = ServiceConfig(
            max_queue_depth=4,
            tick_seconds=0.2,
            retry_after_seconds=0.07,
        )

        async def main():
            async with EstimationService(config=config) as service:
                return await _submit_burst(
                    service, [_request(s) for s in range(10)]
                )

        responses = asyncio.run(main())
        by_status = {}
        for response in responses:
            by_status.setdefault(response.status, []).append(response)
        assert len(by_status["ok"]) == 4
        assert len(by_status["rejected"]) == 6
        for rejected in by_status["rejected"]:
            assert rejected.retry_after == pytest.approx(0.07)
            assert "queue full" in rejected.detail
            assert rejected.result is None

    def test_rejected_counter_recorded(self):
        registry = MetricsRegistry()
        config = ServiceConfig(max_queue_depth=2, tick_seconds=0.2)

        async def main():
            async with EstimationService(
                config=config, registry=registry
            ) as service:
                await _submit_burst(
                    service, [_request(s) for s in range(5)]
                )

        asyncio.run(main())
        assert registry.counter("serve.requests.rejected").value == 3
        assert registry.counter("serve.requests.ok").value == 2


class TestTenantQuota:
    def test_noisy_tenant_cannot_starve_quiet_tenant(self):
        config = ServiceConfig(
            max_queue_depth=100, tenant_quota=2, tick_seconds=0.2
        )

        async def main():
            async with EstimationService(config=config) as service:
                noisy = [
                    service.submit(_request(s, tenant="noisy"))
                    for s in range(6)
                ]
                quiet = [
                    service.submit(_request(s, tenant="quiet"))
                    for s in range(2)
                ]
                return await asyncio.gather(*noisy, *quiet)

        responses = asyncio.run(main())
        noisy, quiet = responses[:6], responses[6:]
        assert [r.status for r in quiet] == ["ok", "ok"]
        assert sorted(r.status for r in noisy) == [
            "ok",
            "ok",
            "rejected",
            "rejected",
            "rejected",
            "rejected",
        ]
        for rejected in (r for r in noisy if r.status == "rejected"):
            assert "quota" in rejected.detail
            assert rejected.retry_after is not None

    def test_quota_slot_released_after_answer(self):
        config = ServiceConfig(tenant_quota=1, tick_seconds=0)

        async def main():
            async with EstimationService(config=config) as service:
                first = await service.submit(_request(1, tenant="t"))
                second = await service.submit(_request(2, tenant="t"))
                return first, second

        first, second = asyncio.run(main())
        assert first.status == "ok"
        assert second.status == "ok"


class TestDeadlines:
    def test_expired_request_never_reaches_the_kernel(self, monkeypatch):
        resolved_requests = []
        original = service_module.resolve_request

        def recording_resolve(request, **kwargs):
            resolved_requests.append(request.request_id)
            return original(request, **kwargs)

        monkeypatch.setattr(
            service_module, "resolve_request", recording_resolve
        )
        config = ServiceConfig(tick_seconds=0.05)

        async def main():
            async with EstimationService(config=config) as service:
                return await asyncio.gather(
                    service.submit(
                        _request(1, deadline=1e-9, request_id="doomed")
                    ),
                    service.submit(
                        _request(2, deadline=60.0, request_id="fine")
                    ),
                )

        doomed, fine = asyncio.run(main())
        assert doomed.status == "expired"
        assert doomed.result is None
        assert "deadline" in doomed.detail
        assert fine.status == "ok"
        # The expired request was answered before resolution — it
        # never touched the protocol or the kernels.
        assert resolved_requests == ["fine"]

    def test_expired_counter_recorded(self):
        registry = MetricsRegistry()
        config = ServiceConfig(tick_seconds=0.05)

        async def main():
            async with EstimationService(
                config=config, registry=registry
            ) as service:
                await service.submit(_request(1, deadline=1e-9))

        asyncio.run(main())
        assert registry.counter("serve.requests.expired").value == 1


class TestOverloadDegradation:
    def test_overload_degrades_instead_of_crashing(self):
        config = ServiceConfig(
            max_queue_depth=64,
            max_batch_size=4,
            degrade_queue_depth=0,
            tick_seconds=0.01,
        )
        requests = [
            _request(s, population=20_000, rounds=64)
            for s in range(16)
        ]
        responses = run_requests(
            requests, config=config, concurrency=16
        )
        statuses = {r.status for r in responses}
        assert statuses <= {"ok", "degraded"}
        assert "degraded" in statuses
        for response in responses:
            if response.status == "degraded":
                assert response.ok  # still carries an estimate
                assert response.result is not None
                assert "sampled" in response.detail

    def test_twice_quota_load_every_request_answered(self):
        """The ISSUE's overload criterion: 2x quota, zero unhandled."""
        config = ServiceConfig(
            max_queue_depth=16,
            tenant_quota=8,
            max_batch_size=4,
            degrade_queue_depth=2,
            tick_seconds=0.01,
        )

        async def main():
            async with EstimationService(config=config) as service:
                return await _submit_burst(
                    service,
                    [
                        _request(s, tenant=f"t{s % 2}")
                        for s in range(32)  # 2x quota for both tenants
                    ],
                )

        responses = asyncio.run(main())
        assert len(responses) == 32
        for response in responses:
            assert response.status in RESPONSE_STATUSES
            assert response.status != "error"

    def test_passive_requests_stay_exact_under_overload(self):
        """Non-degradable requests ride the fused path even overloaded."""
        config = ServiceConfig(
            max_batch_size=2, degrade_queue_depth=0, tick_seconds=0.01
        )
        requests = [
            _request(s, config={"passive_tags": True})
            for s in range(6)
        ]
        responses = run_requests(requests, config=config, concurrency=6)
        assert [r.status for r in responses] == ["ok"] * 6
        for request, response in zip(requests, responses):
            solo = execute_request(
                resolve_request(request, population_cache={})
            )
            assert response.result.n_hat == solo.n_hat


class TestSloMetrics:
    def test_latency_histogram_and_tenant_counters(self):
        registry = MetricsRegistry()
        requests = [
            _request(s, tenant=f"tenant-{s % 2}") for s in range(6)
        ]
        run_requests(requests, registry=registry, concurrency=6)
        latency = registry.histogram("serve.request.latency_seconds")
        assert latency.count == 6
        assert latency.quantile(0.5) > 0
        assert latency.quantile(0.99) >= latency.quantile(0.5)
        assert (
            registry.counter("serve.tenant.tenant-0.requests").value
            == 3
        )
        assert (
            registry.counter("serve.tenant.tenant-1.requests").value
            == 3
        )
        assert registry.counter("serve.requests.submitted").value == 6
        assert registry.counter("serve.requests.ok").value == 6
        assert registry.gauge("serve.queue.depth").value == 0

    def test_population_cache_shared_across_batches(self):
        config = ServiceConfig(max_batch_size=2, tick_seconds=0)

        async def main():
            service = EstimationService(config=config)
            async with service:
                for seed in range(5):
                    await service.submit(_request(seed))
                return len(service._population_cache)

        assert asyncio.run(main()) == 1


class TestRunRequests:
    def test_rejects_bad_concurrency(self):
        with pytest.raises(ConfigurationError, match="concurrency"):
            run_requests([_request(1)], concurrency=0)

    def test_empty_request_list(self):
        assert run_requests([]) == []
