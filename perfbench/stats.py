"""Summary statistics the benchmark reports.

Percentiles follow the nearest-rank rule and are only reported when
they are *backed*: at least :data:`MIN_BEYOND` samples lie above the
reported rank, so a tail figure never rests on one or two outliers.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """One backed percentile with the sample count behind it."""

    q: float
    value: float
    samples: int
    beyond: int


def nearest_rank(count: int, q: float) -> int:
    """1-based nearest rank of quantile ``q`` among ``count`` samples."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {q}")
    return max(1, math.ceil(q * count - 1e-9))


def percentile(
    samples: Iterable[float], q: float, min_beyond: int = MIN_BEYOND
) -> Percentile:
    """The nearest-rank ``q`` percentile, refusing unbacked tails.

    Raises :class:`ValueError` when fewer than ``min_beyond`` samples
    lie above the rank, i.e. when the run holds too few samples to
    support that percentile.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count == 0:
        raise ValueError("no samples")
    rank = nearest_rank(count, q)
    beyond = count - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {count} samples has {beyond} beyond it; "
            f"needs {min_beyond}"
        )
    return Percentile(q=q, value=ordered[rank - 1], samples=count, beyond=beyond)


def quantile_or_zero(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile for per-layer tables; 0 without samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return float(ordered[nearest_rank(len(ordered), q) - 1])


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def within_eps_frac(
    answers: Iterable[tuple[float, float, float]],
) -> float:
    """Share of ``(n_hat, true_n, epsilon)`` answers within ``epsilon``.

    An answer is within its contract when ``|n_hat - n| <= eps * n``.
    A non-finite estimate never is.
    """
    total = 0
    within = 0
    for n_hat, true_n, epsilon in answers:
        total += 1
        if math.isfinite(n_hat) and abs(n_hat - true_n) <= epsilon * true_n:
            within += 1
    if total == 0:
        raise ValueError("no answers to score")
    return within / total


def window_rates(
    times: Sequence[float],
    start: float,
    stop: float,
    window: float,
    weights: Sequence[float] | None = None,
) -> list[float]:
    """Per-window event rates over the whole windows of ``[start, stop)``.

    ``times`` are completion instants; ``weights`` (default 1 each)
    are summed per window and divided by the window length.
    """
    windows = int((stop - start) // window)
    if windows < 1:
        raise ValueError("the span holds no whole window")
    totals = [0.0] * windows
    for index, instant in enumerate(times):
        slot = int((instant - start) // window)
        if 0 <= slot < windows:
            totals[slot] += 1.0 if weights is None else weights[index]
    return [total / window for total in totals]
