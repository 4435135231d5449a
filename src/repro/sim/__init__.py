"""Simulation engine: three fidelity tiers plus experiment orchestration.

Tiers
-----
1. :class:`~repro.sim.slotsim.SlotLevelSimulator` — real tag and reader
   state machines exchanging commands over the slotted channel.  The
   gold standard; cost grows with ``n`` per slot.
2. :class:`~repro.sim.vectorized.VectorizedSimulator` — tag codes as
   sorted numpy arrays; the gray depth of a path equals the longest
   common prefix with the path's nearest neighbours in sorted order, so
   a round costs ``O(log n)`` after an ``O(n log n)`` sort.  Exact for
   both the active (fresh codes per round) and passive (fixed preloaded
   codes) variants.
3. :class:`~repro.sim.sampled.SampledSimulator` — draws the gray depth
   straight from its exact distribution, ``O(1)`` per round.  Valid for
   the active variant, where rounds are independent.

All tiers implement the :class:`repro.core.estimator.RoundDriver`
protocol and therefore compose with :class:`repro.core.PetEstimator`.

On top of the tiers, :class:`~repro.sim.batched.BatchedExperimentEngine`
computes entire *experiment cells* (all repetitions x rounds of one data
point) in batched numpy, bit-identical to the per-repetition reference
loop.

Orchestration
-------------
:mod:`~repro.sim.experiment` runs repeated estimations with managed
seeds (with process-parallel sweeps via ``workers=``);
:mod:`~repro.sim.metrics` aggregates them; :mod:`~repro.sim.report`
renders the paper-style tables; :mod:`~repro.sim.workload` synthesizes
populations and scenarios.

Execution substrate
-------------------
:mod:`~repro.sim.backends` selects the kernel backend every vectorized
hash pass runs on (``numpy`` reference, optional ``numba`` JIT).
Parallel sweeps need no shared state: every cell and repetition
re-derives its seeds from ``(base_seed, index)`` inside its worker.
"""

from .backends import (
    available_backends,
    get_backend,
    set_active_backend,
    use_backend,
)
from .batched import BatchedExperimentEngine
from .experiment import ExperimentRunner, RepeatedEstimate
from .multireader import MultiReaderSimulator
from .persist import load_experiment, save_experiment
from .protocol_batched import (
    ProtocolCellResult,
    ProtocolCellSpec,
    run_protocol_cell,
    seed_matrix,
    sweep_protocol_cells,
)
from .report import Table, format_series
from .sampled import SampledSimulator
from .slotsim import SlotLevelSimulator
from .vectorized import VectorizedSimulator
from .workload import WorkloadSpec, build_population

__all__ = [
    "SlotLevelSimulator",
    "VectorizedSimulator",
    "SampledSimulator",
    "MultiReaderSimulator",
    "BatchedExperimentEngine",
    "ExperimentRunner",
    "RepeatedEstimate",
    "ProtocolCellResult",
    "ProtocolCellSpec",
    "run_protocol_cell",
    "seed_matrix",
    "sweep_protocol_cells",
    "Table",
    "format_series",
    "WorkloadSpec",
    "build_population",
    "save_experiment",
    "load_experiment",
    "available_backends",
    "get_backend",
    "set_active_backend",
    "use_backend",
]
