"""The PET round path and the batched experiment engine.

Every PET round is the same computation, and this module holds it
once, for every caller — :meth:`repro.protocols.pet.PetProtocol.estimate`
(the facade), :class:`BatchedExperimentEngine` (the sweep engine) and
the serve tier's fused groups (:mod:`repro.serve.batching`):

1. :func:`pet_words` — the reader's words: one ``(rounds, 1|2)``
   ``uint64`` draw (path word, plus a seed word for active tags);
2. :func:`pet_depths` — words to gray depths: the path and seed shifts,
   then :func:`batched_gray_depths_sorted` over the sorted preloaded
   codes (passive tags, Sec. 4.5) or :func:`batched_gray_depths_fresh`
   over per-round hashed codes (active tags, Algorithm 2);
3. :meth:`~repro.protocols.pet.PetProtocol.result_from_depths` —
   depths to the observed result: ``phi^-1 * 2^mean(d)`` and the
   depth -> slots lookup table
   (:func:`repro.core.search.slots_lookup_table`).

No Python loop runs per round.  The scalar oracles the equivalence
tests check this path against are
:class:`~repro.sim.vectorized.VectorizedSimulator` (one round at a
time through :class:`~repro.core.estimator.PetEstimator`) and
:meth:`~repro.sim.experiment.ExperimentRunner.run_vectorized_loop`
(its repetition loop); ``tests/sim/test_equivalence.py`` and
``tests/protocols/test_pet_oracle.py`` enforce bit-for-bit agreement.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from ..config import PAPER_RUNS_PER_POINT, PetConfig
from ..core.accuracy import estimate_from_depths
from ..core.search import (
    slot_outcome_tables,
    slots_lookup_table,
    strategy_for,
)
from ..errors import ConfigurationError
from ..hashing.family import HashFamily
from ..hashing.geometric import leading_zeros64_vec
from ..obs.registry import MetricsRegistry, get_registry
from ..tags.population import TagPopulation
from .experiment import RepeatedEstimate
from .workload import WorkloadSpec, build_population


def batched_gray_depths_sorted(
    sorted_codes: np.ndarray, path_bits: np.ndarray, height: int
) -> np.ndarray:
    """Gray depths of many paths against one sorted fixed-code array.

    The gray depth of path ``r`` is the longest common prefix between
    ``r`` and any code, which is achieved by ``r``'s immediate
    neighbours in sorted code order — so the whole batch is one
    ``searchsorted`` plus two vectorized XOR/leading-zeros passes.
    """
    rounds = int(path_bits.shape[0])
    if sorted_codes.size == 0:
        return np.zeros(rounds, dtype=np.int64)
    shift = np.uint64(64 - height)
    positions = np.searchsorted(sorted_codes, path_bits, side="left")
    left = sorted_codes[np.maximum(positions - 1, 0)]
    right = sorted_codes[np.minimum(positions, sorted_codes.size - 1)]
    lcp_left = np.minimum(
        height, leading_zeros64_vec((left ^ path_bits) << shift)
    )
    lcp_right = np.minimum(
        height, leading_zeros64_vec((right ^ path_bits) << shift)
    )
    lcp_left[positions == 0] = 0
    lcp_right[positions == sorted_codes.size] = 0
    return np.maximum(lcp_left, lcp_right).astype(np.int64)


def batched_gray_depths_fresh(
    tag_ids: np.ndarray,
    seeds: np.ndarray,
    path_bits: np.ndarray,
    height: int,
    family: HashFamily,
    chunk_elements: int = 1 << 15,
) -> np.ndarray:
    """Gray depths of many paths, each against its own fresh code set.

    Active tags rehash per round, so the sort cannot be amortised;
    instead the ``(rounds, tags)`` code matrix is produced chunk-wise by
    the family's broadcast hash and reduced with one leading-zeros
    ``max`` per chunk.  Chunking never changes results (depths are
    elementwise in the round axis).  The ``2^15``-element default keeps
    the XOR/leading-zeros temporaries cache-resident: at 4,096-4,697
    rounds it ran 2.4-2.6x faster than ``2^21`` from 64 to 10,000 tags
    (2-CPU Xeon, numpy 2.4).
    """
    rounds = int(seeds.shape[0])
    population_size = int(tag_ids.size)
    if population_size == 0:
        return np.zeros(rounds, dtype=np.int64)
    shift = np.uint64(64 - height)
    depths = np.empty(rounds, dtype=np.int64)
    chunk = max(1, chunk_elements // population_size)
    for start in range(0, rounds, chunk):
        stop = min(start + chunk, rounds)
        codes = family.code_matrix(seeds[start:stop], tag_ids, height)
        aligned = (codes ^ path_bits[start:stop, None]) << shift
        zeros = leading_zeros64_vec(aligned)
        depths[start:stop] = np.minimum(height, zeros.max(axis=1))
    return depths


def pet_words(
    rng: np.random.Generator, rounds: int, passive: bool
) -> np.ndarray:
    """The reader's words for ``rounds`` PET rounds, one array draw.

    The scalar reader draws, per round, one full-range ``uint64`` path
    word (:meth:`~repro.core.path.EstimatingPath.random`) and — active
    variant — one seed word: ``integers(0, 2**63)`` is a one-word
    Lemire draw, i.e. ``word >> 1``.  A C-order ``(rounds, 1|2)``
    full-range draw consumes the generator's stream identically, and
    its first ``m`` rows equal the ``(m, 1|2)`` draw from the same
    state — so one call reproduces the scalar loop bit-for-bit, and
    the widest draw of a rounds grid serves every narrower cell.
    """
    return rng.integers(
        0, 2**64, size=(rounds, 1 if passive else 2), dtype=np.uint64
    )


def _pet_round_inputs(
    words: np.ndarray, height: int
) -> "tuple[np.ndarray, np.ndarray | None]":
    """Path bits and (active tags only) hash seeds of a word draw."""
    path_bits = words[:, 0] >> np.uint64(64 - height)
    if words.shape[1] == 1:
        return path_bits, None
    return path_bits, words[:, 1] >> np.uint64(1)


def pet_depths(
    population: TagPopulation, words: np.ndarray, config: PetConfig
) -> np.ndarray:
    """Gray depths of the rounds drawn as ``words`` (see :func:`pet_words`).

    Passive tags answer with their preloaded codes, sorted once per
    call; active tags rehash per round from the round's seed word.
    Raises :class:`~repro.errors.ConfigurationError` for tree heights
    above 62 on a non-empty population, like the scalar oracle.
    """
    height = config.tree_height
    if population.size > 0 and height > 62:
        raise ConfigurationError(
            "vectorized simulation supports tree heights up to 62"
        )
    path_bits, seeds = _pet_round_inputs(words, height)
    if seeds is None:
        codes = np.sort(population.preloaded_codes(height))
        return batched_gray_depths_sorted(codes, path_bits, height)
    return batched_gray_depths_fresh(
        population.tag_ids, seeds, path_bits, height, population.family
    )


def _repetition_depths(
    spec: WorkloadSpec,
    config: PetConfig,
    words: np.ndarray,
    index: int,
) -> np.ndarray:
    """Gray depths of repetition ``index`` of a cell.

    Each repetition resamples its population from ``spec.seed +
    index``; ``words`` is the repetition's :func:`pet_words` draw.
    """
    population = build_population(
        WorkloadSpec(
            size=spec.size, id_space=spec.id_space, seed=spec.seed + index
        )
    )
    return pet_depths(population, words, config)


class BatchedExperimentEngine:
    """Runs vectorized-tier experiment cells without per-round Python.

    Drop-in replacement for the reference repetition loop of
    :meth:`repro.sim.experiment.ExperimentRunner.run_vectorized`: same
    seed tree (one :class:`numpy.random.SeedSequence` child per
    repetition), same per-repetition population resampling, bit-for-bit
    identical estimates and slot counts, 1-2 orders of magnitude faster.

    Parameters
    ----------
    base_seed:
        Root of the seed tree for every repetition.
    repetitions:
        Independent runs per cell (paper default: 300).
    registry:
        Metrics registry for cell timing, slot-outcome counters, and
        the gray-depth histogram; defaults to the process-wide active
        registry.  Instrumentation reads the computed depth arrays and
        the wall clock only — never the seed tree — so results stay
        bit-identical to the reference loop with any registry.
    """

    def __init__(
        self,
        base_seed: int = 2011,
        repetitions: int = PAPER_RUNS_PER_POINT,
        registry: MetricsRegistry | None = None,
    ):
        if repetitions < 1:
            raise ConfigurationError(
                f"repetitions must be >= 1, got {repetitions}"
            )
        self.base_seed = base_seed
        self.repetitions = repetitions
        self.registry = (
            registry if registry is not None else get_registry()
        )

    def run_cell(
        self,
        spec: WorkloadSpec,
        config: PetConfig,
        rounds: int,
    ) -> RepeatedEstimate:
        """Compute one full experiment cell (all repetitions x rounds)."""
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        height = config.tree_height
        strategy = strategy_for(config.binary_search)
        slots_table = slots_lookup_table(strategy, height)
        registry = self.registry
        seed_timer = registry.histogram("profile.seed_matrix.seconds")
        hash_timer = registry.histogram("profile.hash_passes.seconds")
        finalize_timer = registry.histogram("profile.finalize.seconds")
        reduction_timer = registry.histogram("profile.reduction.seconds")
        recorder = registry.round_trace if registry else None
        health = registry.health if registry else None
        if registry:
            busy_table, idle_table = slot_outcome_tables(
                strategy, height
            )
            depth_histogram = registry.histogram("pet.gray_depth")
            busy_slots = 0
            idle_slots = 0
        start = time.perf_counter()
        with registry.span(
            "cell", tier="batched", n=spec.size, rounds=rounds
        ):
            word_draws = _repetition_words(
                self.base_seed,
                self.repetitions,
                rounds,
                config.passive_tags,
            )
            estimates = np.empty(self.repetitions)
            total_slots = 0
            for index in range(self.repetitions):
                with seed_timer.time():
                    words = next(word_draws)
                with hash_timer.time():
                    depths = _repetition_depths(spec, config, words, index)
                with finalize_timer.time():
                    estimates[index] = estimate_from_depths(depths)
                with reduction_timer.time():
                    total_slots += int(slots_table[depths].sum())
                    if registry:
                        busy_slots += int(busy_table[depths].sum())
                        idle_slots += int(idle_table[depths].sum())
                        depth_histogram.observe_many(depths)
                    if recorder is not None:
                        path_bits, seeds = _pet_round_inputs(
                            words, height
                        )
                        recorder.record_population_run(
                            tier="batched",
                            run_index=index,
                            depths=depths,
                            path_bits=path_bits,
                            round_seeds=seeds,
                            population_size=spec.size,
                            population_id_space=spec.id_space,
                            population_seed=spec.seed + index,
                            tree_height=height,
                            binary_search=config.binary_search,
                            slots_table=slots_table,
                            busy_table=busy_table,
                            idle_table=idle_table,
                        )
                    if health is not None:
                        health.observe_depths(depths)
        seconds = time.perf_counter() - start
        repeated = RepeatedEstimate(
            true_n=spec.size,
            rounds=rounds,
            estimates=estimates,
            slots_per_run=total_slots / self.repetitions,
        )
        if registry:
            rounds_done = rounds * self.repetitions
            registry.counter("experiment.cells").inc()
            registry.counter("experiment.rounds").inc(rounds_done)
            registry.counter("sim.rounds").inc(rounds_done)
            registry.counter("sim.slots").inc(total_slots)
            registry.counter("sim.slots.busy").inc(busy_slots)
            registry.counter("sim.slots.idle").inc(idle_slots)
            registry.histogram("experiment.cell_seconds").observe(
                seconds
            )
            if seconds > 0:
                registry.gauge("experiment.rounds_per_second").set(
                    rounds_done / seconds
                )
            if health is not None:
                health.observe_estimates(estimates, rounds)
            registry.event(
                "cell",
                tier="batched",
                n=spec.size,
                rounds=rounds,
                repetitions=self.repetitions,
                mean_estimate=float(estimates.mean()),
                slots_per_run=repeated.slots_per_run,
                seconds=seconds,
            )
        return repeated

    def run_rounds_grid(
        self,
        spec: WorkloadSpec,
        config: PetConfig,
        rounds_grid: "Sequence[int]",
        workers: "int | None" = None,
        progress: object = None,
    ) -> "list[RepeatedEstimate]":
        """Every rounds-grid cell of one workload from a single depth pass.

        The fig-4 drivers evaluate one population size at many round
        counts.  Calling :meth:`run_cell` per count re-derives the same
        per-repetition populations, sorted code arrays, and word
        streams for every grid value; this method exploits two prefix
        facts to pay for them exactly once:

        * word streams: each child's :func:`pet_words` draw for ``m``
          rounds is a row-prefix of its draw for ``max_m``, and
        * depths: per-round gray depths are elementwise independent,
          so the ``(repetitions, max_m)`` depth matrix computed at the
          widest grid value yields every narrower cell as the column
          prefix ``depths[:, :m]``.

        Each returned :class:`RepeatedEstimate` is therefore
        **bit-identical** to ``run_cell(spec, config, m)`` (enforced by
        the grid-equivalence tests), at roughly ``max_m / sum(grid)``
        of the work.

        ``workers`` fans the repetitions out over a process pool: each
        worker re-derives its row shard's words from ``(base_seed,
        index)``, returns its depth rows, and the parent stacks them and
        reduces every grid cell.  ``None``/``1`` runs serially
        in-process.  ``progress`` is a sweep-style tracker (``True`` or
        a :class:`~repro.obs.progress.ProgressTracker`); cells tick as
        they are reduced.

        Telemetry is cell-equivalent for counters (``experiment.*``,
        ``sim.*``, the gray-depth histogram) but grid-level for
        timing: the shared depth pass cannot be attributed to single
        cells, so per-cell ``cell_seconds`` are not recorded.
        """
        from .experiment import _check_workers, _make_tracker, _run_pool

        grid = [int(rounds) for rounds in rounds_grid]
        if not grid:
            raise ConfigurationError("rounds_grid must be non-empty")
        for rounds in grid:
            if rounds < 1:
                raise ConfigurationError(
                    f"rounds must be >= 1, got {rounds}"
                )
        _check_workers(workers)
        height = config.tree_height
        if spec.size > 0 and height > 62:
            raise ConfigurationError(
                "vectorized simulation supports tree heights up to 62"
            )
        max_rounds = max(grid)
        registry = self.registry
        strategy = strategy_for(config.binary_search)
        slots_table = slots_lookup_table(strategy, height)
        start = time.perf_counter()
        with registry.span(
            "grid",
            tier="batched",
            n=spec.size,
            cells=len(grid),
            max_rounds=max_rounds,
            workers=workers or 1,
        ):
            shard = partial(
                _grid_depth_rows,
                self.base_seed,
                self.repetitions,
                spec,
                config,
                max_rounds,
            )
            if workers is None or workers == 1:
                depths = shard(0, self.repetitions, registry)
            else:
                depths = np.concatenate(
                    _run_pool(
                        workers,
                        [
                            partial(shard, shard_start, shard_stop)
                            for shard_start, shard_stop in _shard_ranges(
                                self.repetitions, workers
                            )
                        ],
                        registry,
                    )
                )
            tracker = _make_tracker(progress, len(grid), registry)
            results = self._reduce_grid(
                spec, grid, depths, slots_table, strategy, tracker
            )
            if tracker is not None:
                tracker.finish()
        seconds = time.perf_counter() - start
        if registry:
            if seconds > 0:
                registry.gauge("experiment.cells_per_second").set(
                    len(grid) / seconds
                )
            registry.event(
                "grid",
                tier="batched",
                n=spec.size,
                cells=len(grid),
                max_rounds=max_rounds,
                repetitions=self.repetitions,
                workers=workers or 1,
                seconds=seconds,
            )
        return results

    def _reduce_grid(
        self,
        spec: WorkloadSpec,
        grid: "list[int]",
        depths: np.ndarray,
        slots_table: np.ndarray,
        strategy: object,
        tracker: object,
    ) -> "list[RepeatedEstimate]":
        """Reduce the shared depth matrix into one result per grid cell."""
        registry = self.registry
        finalize_timer = registry.histogram("profile.finalize.seconds")
        reduction_timer = registry.histogram("profile.reduction.seconds")
        health = registry.health if registry else None
        if registry:
            busy_table, idle_table = slot_outcome_tables(
                strategy, int(slots_table.size - 1)
            )
            depth_histogram = registry.histogram("pet.gray_depth")
        # Per-repetition running slot sums: cumulative along rounds, so
        # cell m's total is one column read instead of a fresh sum.
        slot_cumulative = slots_table[depths].cumsum(axis=1)
        results = []
        for rounds in grid:
            with finalize_timer.time():
                cell_depths = depths[:, :rounds]
                estimates = np.array(
                    [
                        estimate_from_depths(cell_depths[index])
                        for index in range(self.repetitions)
                    ]
                )
                total_slots = int(
                    slot_cumulative[:, rounds - 1].sum()
                )
            repeated = RepeatedEstimate(
                true_n=spec.size,
                rounds=rounds,
                estimates=estimates,
                slots_per_run=total_slots / self.repetitions,
            )
            with reduction_timer.time():
                if registry:
                    rounds_done = rounds * self.repetitions
                    registry.counter("experiment.cells").inc()
                    registry.counter("experiment.rounds").inc(
                        rounds_done
                    )
                    registry.counter("sim.rounds").inc(rounds_done)
                    registry.counter("sim.slots").inc(total_slots)
                    registry.counter("sim.slots.busy").inc(
                        int(busy_table[cell_depths].sum())
                    )
                    registry.counter("sim.slots.idle").inc(
                        int(idle_table[cell_depths].sum())
                    )
                    depth_histogram.observe_many(cell_depths.ravel())
                    if health is not None:
                        health.observe_estimates(estimates, rounds)
                    registry.event(
                        "cell",
                        tier="batched-grid",
                        n=spec.size,
                        rounds=rounds,
                        repetitions=self.repetitions,
                        mean_estimate=float(estimates.mean()),
                        slots_per_run=repeated.slots_per_run,
                        seconds=float("nan"),
                    )
            if tracker is not None:
                tracker.cell_done(
                    n=spec.size,
                    slots=total_slots,
                    rounds=rounds * self.repetitions,
                )
            results.append(repeated)
        return results


def _shard_ranges(
    total: int, shards: int
) -> "list[tuple[int, int]]":
    """Split ``range(total)`` into at most ``shards`` contiguous runs."""
    shards = max(1, min(shards, total))
    base, extra = divmod(total, shards)
    ranges = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _repetition_words(
    base_seed: int,
    repetitions: int,
    rounds: int,
    passive: bool,
    start: int = 0,
    stop: "int | None" = None,
):
    """Yield the :func:`pet_words` draws of repetitions ``start:stop``.

    Repetition ``i`` draws from child ``i`` of
    ``SeedSequence(base_seed).spawn(repetitions)``, so any row shard
    re-derives its words without the rest of the cell.
    """
    children = np.random.SeedSequence(base_seed).spawn(repetitions)
    for child in children[start:stop]:
        yield pet_words(np.random.default_rng(child), rounds, passive)


def _grid_depth_rows(
    base_seed: int,
    repetitions: int,
    spec: WorkloadSpec,
    config: PetConfig,
    max_rounds: int,
    start: int,
    stop: int,
    registry: MetricsRegistry,
) -> np.ndarray:
    """Rows ``start:stop`` of a grid's ``(repetitions, max_rounds)`` depths.

    Times each repetition's word draw as a ``seed_matrix`` phase and
    its depth pass as a ``hash_passes`` phase.  The serial grid runs
    it over every row; pool workers each run one shard and return
    their rows (module-level, so it pickles into the pool).
    """
    seed_timer = registry.histogram("profile.seed_matrix.seconds")
    hash_timer = registry.histogram("profile.hash_passes.seconds")
    depths = np.empty((stop - start, max_rounds), dtype=np.int64)
    word_draws = _repetition_words(
        base_seed, repetitions, max_rounds, config.passive_tags, start, stop
    )
    for row, index in enumerate(range(start, stop)):
        with seed_timer.time():
            words = next(word_draws)
        with hash_timer.time():
            depths[row] = _repetition_depths(spec, config, words, index)
    return depths
