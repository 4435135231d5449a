"""Phase timings: registry timers, the per-phase report, the null path."""

from __future__ import annotations

import json

from repro.config import PetConfig
from repro.obs.profile import (
    KERNEL_PHASES,
    registry_phase_report,
    write_phase_json,
)
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.sim.batched import BatchedExperimentEngine
from repro.sim.workload import WorkloadSpec


def _phase(registry, name):
    return registry.histogram(f"profile.{name}.seconds").time()


class TestPhaseTimers:
    def test_accumulates_seconds_and_calls(self):
        registry = MetricsRegistry()
        for _ in range(3):
            with _phase(registry, "hash_passes"):
                pass
        stats = registry.snapshot()["histograms"][
            "profile.hash_passes.seconds"
        ]
        assert stats["count"] == 3
        assert stats["total"] >= 0

    def test_report_fractions_sum_to_one(self):
        registry = MetricsRegistry()
        for name in KERNEL_PHASES:
            with _phase(registry, name):
                sum(range(1000))
        report = registry_phase_report(registry)
        assert set(report) == set(KERNEL_PHASES)
        total = sum(row["fraction"] for row in report.values())
        assert abs(total - 1.0) < 1e-9

    def test_exception_inside_phase_still_recorded(self):
        registry = MetricsRegistry()
        try:
            with _phase(registry, "reduction"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert registry_phase_report(registry)["reduction"]["calls"] == 1

    def test_engine_cell_times_every_kernel_phase(self):
        registry = MetricsRegistry()
        BatchedExperimentEngine(
            base_seed=3, repetitions=2, registry=registry
        ).run_cell(WorkloadSpec(size=100, seed=1), PetConfig(), 4)
        report = registry_phase_report(registry)
        assert set(report) == set(KERNEL_PHASES)
        assert all(row["calls"] == 2 for row in report.values())


class TestNullPath:
    def test_null_phase_context_is_shared_and_inert(self):
        one = _phase(NULL_REGISTRY, "seed_matrix")
        two = _phase(NULL_REGISTRY, "hash_passes")
        assert one is two
        with one:
            pass  # no state, no error

    def test_null_registry_records_no_phases(self):
        BatchedExperimentEngine(
            base_seed=3, repetitions=2, registry=NULL_REGISTRY
        ).run_cell(WorkloadSpec(size=100, seed=1), PetConfig(), 4)
        assert registry_phase_report(NULL_REGISTRY) == {}


class TestRegistryPhaseReport:
    def test_report_reconstructed_from_histograms(self):
        registry = MetricsRegistry()
        for _ in range(4):
            with _phase(registry, "hash_passes"):
                pass
        with _phase(registry, "reduction"):
            pass
        report = registry_phase_report(registry)
        assert report["hash_passes"]["calls"] == 4
        assert report["reduction"]["calls"] == 1
        fractions = sum(row["fraction"] for row in report.values())
        assert abs(fractions - 1.0) < 1e-9

    def test_report_survives_snapshot_merge(self):
        # The cross-process path: worker phase timings merge into the
        # parent registry and the report reads the merged totals.
        parent = MetricsRegistry()
        for worker_index in range(2):
            worker = MetricsRegistry()
            with _phase(worker, "seed_matrix"):
                pass
            parent.merge(
                worker.snapshot(worker_id=f"pid:{worker_index}")
            )
        report = registry_phase_report(parent)
        assert report["seed_matrix"]["calls"] == 2

    def test_write_phase_json_prefers_registry_totals(self, tmp_path):
        registry = MetricsRegistry()
        with _phase(registry, "finalize"):
            pass
        path = tmp_path / "merged.json"
        write_phase_json(str(path), registry, extra={"k": "v"})
        payload = json.loads(path.read_text())
        assert payload["k"] == "v"
        assert payload["phases"]["finalize"]["calls"] == 1
        assert payload["phases"]["finalize"]["fraction"] == 1.0
