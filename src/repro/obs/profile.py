"""Phase timings: where do batched-kernel cells spend their time?

The batched engines (:mod:`repro.sim.batched`,
:mod:`repro.sim.protocol_batched`) execute each cell as a short
pipeline of array passes, and time each pass on the registry with the
ordinary histogram timer::

    with registry.histogram("profile.seed_matrix.seconds").time():
        ...

The phases are

* ``seed_matrix`` — seed-tree spawn and the per-repetition word draws;
* ``hash_passes`` — population build, code hashing, and the gray-depth
  / sufficient-statistic matrix passes;
* ``reduction`` — slot-table lookups, bincounts, and the metric
  reductions;
* ``finalize`` — the estimator inversions that turn statistics into
  ``n_hat``.

On the null registry the timer is one shared no-op context manager, so
the uninstrumented path stays as cheap as it was.  On a real registry
every phase exit feeds a ``profile.<phase>.seconds`` histogram, which
rides the ordinary export surface: OpenMetrics via ``--prom-out``, JSON
lines via ``--metrics-out``, and cross-process aggregation via
:meth:`~repro.obs.registry.MetricsRegistry.merge`.  This module turns
those histograms into the per-phase report behind the CLI's
``--profile-out`` and the committed ``BENCH_obs_parallel.json``.
"""

from __future__ import annotations

import json

from .registry import MetricsRegistry

#: The canonical batched-kernel phases, in pipeline order: the ones the
#: engines emit and the guard asserts on.
KERNEL_PHASES = (
    "seed_matrix",
    "hash_passes",
    "reduction",
    "finalize",
)

#: Registry histogram names carrying phase timings look like this.
_PHASE_HISTOGRAM_PREFIX = "profile."
_PHASE_HISTOGRAM_SUFFIX = ".seconds"


def registry_phase_report(
    registry: MetricsRegistry,
) -> dict[str, dict[str, float]]:
    """Per-phase totals reconstructed from ``profile.*.seconds``.

    Those histograms survive :meth:`~MetricsRegistry.snapshot` /
    :meth:`~MetricsRegistry.merge`, so after a parallel sweep the
    parent registry holds every worker's phase timings.
    """
    report: dict[str, dict[str, float]] = {}
    snapshot = registry.snapshot()
    histograms = snapshot["histograms"]
    total = 0.0
    for name, stats in histograms.items():  # type: ignore[union-attr]
        if not (
            name.startswith(_PHASE_HISTOGRAM_PREFIX)
            and name.endswith(_PHASE_HISTOGRAM_SUFFIX)
        ):
            continue
        phase = name[
            len(_PHASE_HISTOGRAM_PREFIX) : -len(_PHASE_HISTOGRAM_SUFFIX)
        ]
        report[phase] = {
            "seconds": float(stats["total"]),
            "calls": int(stats["count"]),
        }
        total += float(stats["total"])
    for row in report.values():
        row["fraction"] = row["seconds"] / total if total > 0 else 0.0
    return dict(sorted(report.items()))


def write_phase_json(
    path: str,
    registry: MetricsRegistry,
    extra: dict[str, object] | None = None,
) -> None:
    """Write the registry-derived phase report as a JSON artifact."""
    report = registry_phase_report(registry)
    total = sum(row["seconds"] for row in report.values())
    payload: dict[str, object] = {
        "total_seconds": round(total, 6),
        "phases": {
            name: {
                "seconds": round(row["seconds"], 6),
                "calls": int(row["calls"]),
                "fraction": round(row["fraction"], 4),
            }
            for name, row in report.items()
        },
    }
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
