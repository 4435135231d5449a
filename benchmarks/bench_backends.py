#!/usr/bin/env python
"""Measure the kernel-backend tier and the shared rounds-grid sweep.

Produces ``BENCH_backends.json``: the committed record
``bench_guard --backends`` enforces.  Two cells:

* ``splitmix_clz_micro`` — the three backend kernel primitives
  (vectorized SplitMix64, leading-zero count, clamped bucketing) on a
  benchmark-sized word array, timed per *available* backend.  The
  numpy reference defines the bit patterns; every other backend must
  match them exactly and (for numba) clear a ``>= 1.5x`` speedup
  floor.  Backends that are not installed are recorded as skipped, not
  failed — numpy-only environments stay first-class.
* ``fig4_grid_shared`` — a fig-4-shaped rounds grid (one population
  size, many round counts) computed two ways: the re-derive baseline
  (one :meth:`BatchedExperimentEngine.run_cell` per grid value, each
  re-deriving populations/codes/words) vs
  :meth:`ExperimentRunner.sweep_rounds`, which derives one shared
  depth matrix and reduces every cell as a prefix — over a worker
  pool whose workers each return their repetitions' depth rows.  The
  guard enforces ``>= 1.2x`` here; the honest win is avoided
  re-derivation, not parallelism, so the floor holds even on
  single-core runners.

Run with::

    PYTHONPATH=src python benchmarks/bench_backends.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.config import PetConfig
from repro.obs import MetricsRegistry
from repro.sim.backends import available_backends, get_backend
from repro.sim.experiment import ExperimentRunner
from repro.sim.workload import WorkloadSpec

DEFAULT_OUT = (
    Path(__file__).resolve().parent.parent / "BENCH_backends.json"
)

BASE_SEED = 2011

#: Words per microbenchmark pass — large enough that per-call overhead
#: (JIT dispatch, wrapper reshapes) is invisible next to the kernels.
MICRO_WORDS = 1 << 22

#: The fig-4 grid shape: one population, the paper's round counts.
GRID_N = 10_000
GRID_ROUNDS = (8, 16, 32, 64, 128, 256)

#: Repetitions for the grid cells — enough work for stable timing while
#: keeping the guard's wall time in seconds, not minutes.
GRID_REPETITIONS = 60

#: Timing repeats per measurement; the minimum is kept (same rationale
#: as bench_protocol_batched: shared CI hardware is noisy and the
#: guard's floors are relative to these numbers).
TIMING_REPEATS = 3

#: Speedup floors the guard enforces (also recorded into the JSON so
#: the committed artifact documents its own contract).
NUMBA_MICRO_FLOOR = 1.5
GRID_SHARED_FLOOR = 1.2


def _best_of(repeats: int, fn) -> tuple[float, object]:
    """Best-of-``repeats`` wall time of ``fn``; returns (seconds, last)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _micro_words() -> np.ndarray:
    rng = np.random.default_rng(BASE_SEED)
    return rng.integers(0, 2**64, size=MICRO_WORDS, dtype=np.uint64)


def _micro_pass(backend, words: np.ndarray):
    digests = backend.splitmix64_vec(words)
    zeros = backend.leading_zeros64_vec(digests)
    buckets = backend.clamped_buckets(digests, 52)
    return digests, zeros, buckets


def measure_micro() -> dict:
    """``splitmix_clz_micro``: the three kernels, per available backend."""
    words = _micro_words()
    reference = get_backend("numpy")
    # Warm-up defines the reference bit patterns (and compiles JITs).
    reference_out = _micro_pass(reference, words)
    backends: dict[str, dict] = {}
    numpy_seconds = None
    for name in available_backends():
        backend = get_backend(name)
        _micro_pass(backend, words)  # warm-up / JIT compile
        out = _micro_pass(backend, words)
        bit_identical = all(
            np.array_equal(ours, theirs)
            for ours, theirs in zip(out, reference_out)
        )
        seconds, _ = _best_of(
            TIMING_REPEATS, lambda b=backend: _micro_pass(b, words)
        )
        backends[name] = {
            "seconds": round(seconds, 4),
            "bit_identical": bit_identical,
        }
        if name == "numpy":
            numpy_seconds = seconds
    for name, row in backends.items():
        row["speedup_vs_numpy"] = round(numpy_seconds / row["seconds"], 2)
    return {
        "name": "splitmix_clz_micro",
        "words": MICRO_WORDS,
        "numba_floor": NUMBA_MICRO_FLOOR,
        "backends": backends,
        "skipped": sorted(
            set(("numpy", "numba")) - set(backends)
        ),
    }


def measure_fig4_grid(
    repetitions: int = GRID_REPETITIONS, workers: int = 2
) -> dict:
    """``fig4_grid_shared``: per-cell re-derivation vs the shared grid."""
    spec = WorkloadSpec(size=GRID_N, seed=0)
    config = PetConfig(passive_tags=True)

    def per_cell():
        runner = ExperimentRunner(
            base_seed=BASE_SEED,
            repetitions=repetitions,
            registry=MetricsRegistry(),
        )
        return [
            runner.run_vectorized(spec, config, rounds)
            for rounds in GRID_ROUNDS
        ]

    def shared_grid():
        runner = ExperimentRunner(
            base_seed=BASE_SEED,
            repetitions=repetitions,
            registry=MetricsRegistry(),
        )
        return runner.sweep_rounds(
            spec, config, GRID_ROUNDS, workers=workers
        )

    before_seconds, baseline = _best_of(TIMING_REPEATS, per_cell)
    after_seconds, shared = _best_of(TIMING_REPEATS, shared_grid)
    bit_identical = all(
        a.estimates.tolist() == b.estimates.tolist()
        and a.slots_per_run == b.slots_per_run
        for a, b in zip(baseline, shared)
    )
    return {
        "name": "fig4_grid_shared",
        "n": GRID_N,
        "rounds_grid": list(GRID_ROUNDS),
        "repetitions": repetitions,
        "workers": workers,
        "floor": GRID_SHARED_FLOOR,
        "before": "run_cell per grid value (re-derives every cell)",
        "after": "sweep_rounds shared depth matrix over pool workers",
        "before_seconds": round(before_seconds, 3),
        "after_seconds": round(after_seconds, 3),
        "speedup": round(before_seconds / after_seconds, 2),
        "bit_identical": bit_identical,
    }


def measure_all() -> dict:
    """Every bench cell, in the committed-JSON shape."""
    return {
        "base_seed": BASE_SEED,
        "cells": {
            "splitmix_clz_micro": measure_micro(),
            "fig4_grid_shared": measure_fig4_grid(),
        },
        "available_backends": list(available_backends()),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=str(DEFAULT_OUT),
        help="where to write the measurements JSON",
    )
    args = parser.parse_args()
    record = measure_all()
    micro = record["cells"]["splitmix_clz_micro"]
    for name, row in micro["backends"].items():
        print(
            f"micro[{name:5s}] {row['seconds']:7.4f}s  "
            f"{row['speedup_vs_numpy']:5.2f}x vs numpy  "
            f"bit_identical={row['bit_identical']}"
        )
    if micro["skipped"]:
        print(f"micro skipped (not installed): {micro['skipped']}")
    cell = record["cells"]["fig4_grid_shared"]
    print(
        f"fig4_grid_shared       before={cell['before_seconds']:8.3f}s  "
        f"after={cell['after_seconds']:7.3f}s  "
        f"speedup={cell['speedup']:5.2f}x  "
        f"bit_identical={cell['bit_identical']}"
    )
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"measurements written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
