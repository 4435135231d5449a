"""Parallel sweeps report the same progress and phase counts as serial.

Each of the three process-pool sweeps — the sampled Fig. 4 sweep, the
batched comparison-cell sweep and the rounds grid — must tick its
progress tracker once per cell with the serial run's slot and round
totals, and must land the same number of ``profile.<phase>.seconds``
observations in the parent registry as the serial run.
"""

from __future__ import annotations

import pytest

from repro.config import PetConfig
from repro.obs import MetricsRegistry, ProgressTracker
from repro.sim.experiment import ExperimentRunner
from repro.sim.protocol_batched import (
    ProtocolCellSpec,
    sweep_protocol_cells,
)
from repro.sim.workload import WorkloadSpec

SIZES = (200, 400, 800)
PROTOCOL_SPECS = (
    ProtocolCellSpec("fneb", 150, 6),
    ProtocolCellSpec("lof", 150, 6),
    ProtocolCellSpec("fneb", 300, 4),
)
GRID = (8, 16, 32)


def _sampled(registry, workers, progress):
    runner = ExperimentRunner(base_seed=5, repetitions=4, registry=registry)
    return runner.sweep(
        SIZES, PetConfig(), rounds=8, workers=workers, progress=progress
    )


def _protocols(registry, workers, progress):
    return sweep_protocol_cells(
        PROTOCOL_SPECS,
        repetitions=3,
        base_seed=21,
        workers=workers,
        registry=registry,
        progress=progress,
    )


def _grid(registry, workers, progress):
    runner = ExperimentRunner(base_seed=5, repetitions=4, registry=registry)
    return runner.sweep_rounds(
        WorkloadSpec(size=300, seed=1),
        PetConfig(passive_tags=True),
        GRID,
        workers=workers,
        progress=progress,
    )


SWEEPS = {
    "sampled": (_sampled, len(SIZES)),
    "protocols": (_protocols, len(PROTOCOL_SPECS)),
    "grid": (_grid, len(GRID)),
}


def _phase_counts(registry):
    return {
        name: stats["count"]
        for name, stats in registry.snapshot()["histograms"].items()
        if name.startswith("profile.") and name.endswith(".seconds")
    }


def _run(sweep, workers):
    run, cells = SWEEPS[sweep]
    registry = MetricsRegistry()
    tracker = ProgressTracker(cells, registry=registry)
    results = run(registry, workers, tracker)
    return results, tracker, registry


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_parallel_progress_and_phases_match_serial(sweep):
    serial, serial_tracker, serial_registry = _run(sweep, None)
    parallel, tracker, registry = _run(sweep, 2)
    cells = SWEEPS[sweep][1]
    assert [r.estimates.tolist() for r in parallel] == [
        r.estimates.tolist() for r in serial
    ]
    assert serial_tracker.cells_done == cells
    assert tracker.cells_done == cells
    assert tracker.slots_done == serial_tracker.slots_done
    assert tracker.rounds_done == serial_tracker.rounds_done
    gauges = registry.snapshot()["gauges"]
    assert gauges["sweep.progress.cells_done"] == cells
    phases = _phase_counts(serial_registry)
    assert phases
    assert _phase_counts(registry) == phases
