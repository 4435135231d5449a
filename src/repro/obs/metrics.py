"""Metric primitives and the registry that owns them.

Zero-dependency by design: the whole :mod:`repro.obs` subsystem uses
only the standard library, so it can be imported by every layer (radio,
protocols, sim, figures, CLI) without widening the dependency surface.
Numpy arrays are still first-class *inputs* — :meth:`Histogram.observe_many`
duck-types on ``.size``/``.sum`` so a batch of gray depths is reduced by
numpy itself, not a Python loop — and numpy is only imported lazily on
that path, never at module import time.

Three metric kinds, mirroring the usual Prometheus-style taxonomy:

* :class:`Counter` — monotone event count (slot outcomes, rounds run);
* :class:`Gauge` — last-written value (throughput of the latest cell);
* :class:`Histogram` — streaming moments + extrema of a distribution
  (gray depths, cell wall-clock), with a :meth:`Histogram.time` context
  manager for use as a timer.

Everything defaults to the process-wide :data:`NULL_REGISTRY`, a
:class:`NullRegistry` whose metric objects are shared do-nothing
singletons — instrumented hot paths pay one no-op method call and
nothing else, which keeps the batched engine bit-identical and within
noise of its uninstrumented benchmark numbers.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Iterator

from ..errors import ConfigurationError

#: Exponent of the smallest dedicated log2 bucket: values in
#: ``(0, 2**(BUCKET_LOW_EXP + 1))`` all land in bucket 1.
BUCKET_LOW_EXP = -20

#: Exponent of the overflow boundary: values ``>= 2**BUCKET_HIGH_EXP``
#: land in the last (overflow) bucket.
BUCKET_HIGH_EXP = 34

#: Total bucket count: one non-positive bucket (index 0), one bucket per
#: power of two between the low and high exponents, one overflow bucket.
BUCKET_COUNT = BUCKET_HIGH_EXP - BUCKET_LOW_EXP + 1

#: Cached upper bounds (see :func:`bucket_upper_bounds`).
_BUCKET_BOUNDS: tuple[float, ...] | None = None


def bucket_upper_bounds() -> tuple[float, ...]:
    """Inclusive upper bound of each histogram bucket.

    Bucket 0 collects ``value <= 0`` (bound ``0.0``); bucket ``i`` for
    ``1 <= i < BUCKET_COUNT - 1`` collects positive values below
    ``2.0 ** (BUCKET_LOW_EXP + i)``; the last bucket is the overflow
    (bound ``inf``).  The grid is fixed, so bucket arrays from any two
    processes merge by elementwise addition — the property the
    cross-process snapshot/merge algebra rests on.
    """
    global _BUCKET_BOUNDS
    if _BUCKET_BOUNDS is None:
        _BUCKET_BOUNDS = (
            (0.0,)
            + tuple(
                2.0 ** (BUCKET_LOW_EXP + index)
                for index in range(1, BUCKET_COUNT - 1)
            )
            + (math.inf,)
        )
    return _BUCKET_BOUNDS


def bucket_index(value: float) -> int:
    """The fixed-grid bucket a single observation falls into."""
    if value <= 0:
        return 0
    if math.isinf(value):
        return BUCKET_COUNT - 1
    # frexp(v) = (m, e) with v = m * 2**e and 0.5 <= m < 1, so v lies in
    # [2**(e-1), 2**e) and its (exclusive) bucket bound is 2**e.
    exponent = math.frexp(value)[1]
    return min(max(exponent - BUCKET_LOW_EXP, 1), BUCKET_COUNT - 1)


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount


class Gauge:
    """A value that can be set to anything at any time.

    Every write stamps :attr:`ts` with ``time.time()`` so gauges from
    different processes merge last-write-wins: whichever process wrote
    most recently owns the merged value (``ts == 0.0`` means never
    written, and always loses).
    """

    __slots__ = ("name", "value", "ts")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self.ts: float = 0.0

    def set(self, value: float) -> None:
        """Record the current level of the tracked quantity."""
        self.value = float(value)
        self.ts = time.time()


class Histogram:
    """Streaming distribution summary: count, mean, std, min, max,
    plus a fixed log2 bucket array.

    Keeps running moments and the fixed-grid bucket counts instead of
    samples, so observing millions of values costs O(1) memory.  The
    bucket grid (:func:`bucket_upper_bounds`) is identical in every
    process, which makes worker snapshots mergeable by elementwise
    addition.  Doubles as a timer via :meth:`time`.
    """

    __slots__ = (
        "name",
        "count",
        "total",
        "sum_squares",
        "min",
        "max",
        "buckets",
        "exemplars",
    )

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.sum_squares = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets = [0] * BUCKET_COUNT
        #: Lazy per-bucket exemplars: bucket index -> (trace_id, value,
        #: unix ts) for the *last* traced observation landing in that
        #: bucket.  ``None`` until the first traced observation, so
        #: untraced histograms carry no extra allocation.
        self.exemplars: dict[int, tuple[str, float, float]] | None = None

    def observe(self, value: float, trace_id: str | None = None) -> None:
        """Record one observation.

        ``trace_id`` (optional) attaches an OpenMetrics exemplar to the
        bucket the value lands in — last writer wins per bucket — so a
        scrape of a latency histogram points at a concrete trace for
        each latency band.
        """
        value = float(value)
        self.count += 1
        self.total += value
        self.sum_squares += value * value
        index = bucket_index(value)
        self.buckets[index] += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if trace_id is not None:
            exemplars = self.exemplars
            if exemplars is None:
                exemplars = self.exemplars = {}
            exemplars[index] = (trace_id, value, time.time())

    def observe_many(self, values: object) -> None:
        """Record a batch of observations.

        Numpy arrays (anything exposing ``size``/``sum``/``min``/``max``)
        are reduced natively — including the bucket counts, computed
        with one ``frexp``/``bincount`` pass; other iterables fall back
        to a loop.
        """
        try:
            count = int(values.size)  # type: ignore[attr-defined]
            if count == 0:
                return
            total = float(values.sum())  # type: ignore[attr-defined]
            low = float(values.min())  # type: ignore[attr-defined]
            high = float(values.max())  # type: ignore[attr-defined]
            sum_squares = float((values * values).sum())  # type: ignore[operator]
        except AttributeError:
            for value in values:  # type: ignore[attr-defined]
                self.observe(value)
            return
        import numpy as np  # lazy: repro.obs stays importable without it

        data = np.asarray(values, dtype=np.float64).ravel()
        exponents = np.frexp(data)[1]
        indices = np.where(
            data <= 0,
            0,
            np.clip(exponents - BUCKET_LOW_EXP, 1, BUCKET_COUNT - 1),
        )
        # np.frexp(+inf) reports exponent 0; route +inf to the overflow
        # bucket exactly as the scalar bucket_index does.
        indices[data == math.inf] = BUCKET_COUNT - 1
        bucketed = np.bincount(indices, minlength=BUCKET_COUNT)
        buckets = self.buckets
        for index in np.nonzero(bucketed)[0]:
            buckets[index] += int(bucketed[index])
        self.count += count
        self.total += total
        self.sum_squares += sum_squares
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high

    @property
    def mean(self) -> float:
        """Mean of all observations (NaN when empty)."""
        if self.count == 0:
            return math.nan
        return self.total / self.count

    @property
    def std(self) -> float:
        """Population standard deviation (NaN when empty)."""
        if self.count == 0:
            return math.nan
        variance = self.sum_squares / self.count - self.mean**2
        return math.sqrt(max(variance, 0.0))

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile from the fixed log2 bucket grid.

        Walks the cumulative bucket counts to the first bucket covering
        rank ``ceil(q * count)`` and reports that bucket's upper bound
        — the same resolution Prometheus would give for this grid, so
        service SLO p50/p99 readings match what the exported
        OpenMetrics buckets imply.  Clamped to the observed extrema
        (the first/last buckets are open-ended); ``NaN`` when empty.

        Degenerate inputs stay on the grid instead of walking off it:
        an empty histogram, a moments-only merge whose bucket array is
        all zeros, or invalid extrema (``min > max``, as in a partially
        reconstructed histogram) with an open-ended answer bucket all
        return ``NaN`` — never ``-inf``/``+inf``.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(
                f"quantile must be in [0, 1], got {q}"
            )
        if self.count == 0:
            return math.nan
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        bounds = bucket_upper_bounds()
        extrema_valid = self.min <= self.max
        for index, bucket_count in enumerate(self.buckets):
            seen += bucket_count
            if seen >= rank:
                bound = bounds[index]
                if extrema_valid:
                    return min(max(bound, self.min), self.max)
                # No trustworthy extrema to clamp with: report the
                # bucket bound when it is a real number, NaN for the
                # open-ended overflow bucket.
                return bound if math.isfinite(bound) else math.nan
        if seen == 0:
            # count > 0 but every bucket is zero: a moments-only
            # histogram (merged from stats without bucket occupancy).
            # There is no grid position to report.
            return math.nan
        return self.max if extrema_valid else math.nan

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager observing the elapsed seconds of its body."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start)


class _NullCounter(Counter):
    """Shared do-nothing counter handed out by :class:`NullRegistry`."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:  # noqa: ARG002
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:  # noqa: ARG002
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(
        self, value: float, trace_id: str | None = None  # noqa: ARG002
    ) -> None:
        pass

    def observe_many(self, values: object) -> None:  # noqa: ARG002
        pass

    def time(self) -> "_NullTimer":
        return _NULL_TIMER


class _NullTimer:
    """Shared reusable no-op context manager for the null histogram.

    One instance per process, so timing a phase against the null
    registry allocates nothing (a generator-based context would build
    a fresh generator per call).
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_TIMER = _NullTimer()
