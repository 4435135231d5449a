"""Tests of the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import asyncio
import math

import pytest

import stats
import workloads
from tracer import SpanIndex, Tracer, covered


class TestPercentile:
    def test_p90_of_100_has_exactly_ten_beyond(self):
        result = stats.percentile(range(1, 101), 0.9)
        assert result.value == 90
        assert result.samples == 100
        assert result.beyond == 10

    def test_p90_of_99_is_refused(self):
        with pytest.raises(ValueError, match="needs 10"):
            stats.percentile(range(99), 0.9)

    def test_median_needs_ten_beyond_too(self):
        assert stats.percentile(range(20), 0.5).beyond == 10
        with pytest.raises(ValueError):
            stats.percentile(range(19), 0.5)

    def test_sample_count_is_reported_unsorted(self):
        result = stats.percentile([5.0, 1.0, 3.0] * 40, 0.5)
        assert result.samples == 120
        assert result.value == 3.0

    def test_empty_is_refused(self):
        with pytest.raises(ValueError):
            stats.percentile([], 0.5)


class TestWithinEps:
    def test_hand_made_answers(self):
        answers = [
            (105.0, 100, 0.05),  # on the boundary: within
            (106.0, 100, 0.05),  # just outside
            (95.0, 100, 0.05),  # lower boundary: within
            (float("nan"), 100, 0.05),  # no estimate: never within
            (1200.0, 1000, 0.20),  # loose contract: within
        ]
        assert stats.within_eps_frac(answers) == pytest.approx(3 / 5)

    def test_no_answers_is_an_error(self):
        with pytest.raises(ValueError):
            stats.within_eps_frac([])


def test_window_rates_count_whole_windows_only():
    rates = stats.window_rates([0.1, 0.2, 1.5, 2.9, 3.2], start=0.0, stop=3.5, window=1.0)
    assert rates == [2.0, 1.0, 1.0]
    weighted = stats.window_rates([0.5, 1.5], 0.0, 2.0, 1.0, weights=[10, 4])
    assert weighted == [10.0, 4.0]


class TestSchedules:
    def test_burst_schedule_is_a_function_of_the_seed(self):
        first = workloads.burst_schedule(7, 3.0)
        assert first == workloads.burst_schedule(7, 3.0)
        assert first != workloads.burst_schedule(8, 3.0)
        assert len(first.bursts) == math.ceil(3.0 / workloads.BURST_INTERVAL_S)

    def test_burst_fields_split_evenly_over_the_shards(self):
        schedule = workloads.burst_schedule(3, 1.0)
        shards = [
            workloads.route_shard(request, workloads.BURST_SHARDS)
            for request in schedule.bursts[0][:: workloads.BURST_PER_FIELD]
        ]
        assert sorted(shards) == [0, 0, 1, 1]

    def test_warmup_identities_never_recur(self):
        schedule = workloads.burst_schedule(5, 2.0)
        timed = {request.seed for burst in schedule.bursts for request in burst}
        assert not timed & {request.seed for request in schedule.warmup}
        assert len(timed) == sum(len(burst) for burst in schedule.bursts)

    def test_mixed_stream_is_a_function_of_the_seed(self):
        def take(seed, count=400):
            stream = workloads.MixedSchedule(seed)
            return [next(stream) for _ in range(count)]

        assert take(11) == take(11)
        assert take(11) != take(12)
        assert [position for _, _, position in take(11, 5)] == [0, 1, 2, 3, 4]
        replays = sum(1 for _, fresh, _ in take(11) if not fresh)
        assert 0.4 < replays / 400 < 0.6

    def test_mixed_warmup_is_disjoint_from_the_stream(self):
        schedule = workloads.MixedSchedule(4)
        warm = {request.seed for request in schedule.warmup()}
        stream = {next(schedule)[0].seed for _ in range(300)}
        assert not warm & stream

    def test_check_positions_are_a_function_of_the_seed(self):
        chosen = workloads.check_positions(3, 100, 4)
        assert chosen == workloads.check_positions(3, 100, 4)
        assert len(chosen) == 4 and all(0 <= p < 100 for p in chosen)

    def test_sweep_seeds_are_stable(self):
        assert workloads.sweep_seeds(1, 2, 3) == workloads.sweep_seeds(1, 2, 3)
        assert workloads.sweep_seeds(1, 2, 3) != workloads.sweep_seeds(1, 2, 4)
        assert workloads.sweep_seeds(1, 0, 0) != workloads.sweep_seeds(1, 0, 0, warm=True)


def _span(span_id, parent, start, end, name="x"):
    return (span_id, parent, name, start, end, None)


class TestSelfTime:
    def test_nested_children_count_once(self):
        spans = [
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 4.0),
            _span(2, 1, 2.0, 3.0),  # grandchild inside its parent
        ]
        index = SpanIndex(spans)
        assert index.self_time(spans[0]) == pytest.approx(7.0)
        assert index.self_time(spans[1]) == pytest.approx(2.0)

    def test_overlapping_children_are_unioned(self):
        spans = [
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 5.0),
            _span(2, 0, 3.0, 7.0),  # overlaps the first child
            _span(3, 0, 9.0, 12.0),  # runs past the parent's end
        ]
        assert SpanIndex(spans).self_time(spans[0]) == pytest.approx(10.0 - 6.0 - 1.0)

    def test_covered_clips_to_the_window(self):
        assert covered([(0, 2), (1, 3), (5, 6)], 1.0, 5.5) == pytest.approx(2.5)
        assert covered([], 0.0, 1.0) == 0.0

    def test_outermost_skips_same_layer_descendants(self):
        spans = [
            _span(0, None, 0.0, 4.0, "a"),
            _span(1, 0, 1.0, 2.0, "b"),
            _span(2, 1, 1.2, 1.5, "a"),
            _span(3, None, 5.0, 6.0, "a"),
        ]
        found = SpanIndex(spans).outermost(["a"])
        assert sorted(span[0] for span in found) == [0, 3]


class TestTracer:
    def test_wraps_and_restores_module_attributes(self):
        import types

        module = types.SimpleNamespace()
        module.inner = lambda value: value + 1
        vars(module)["outer"] = lambda value: module.inner(value) * 2
        original = module.inner
        tracer = Tracer()
        tracer.patch(module, "inner", "inner", attrs=lambda args, kwargs, result: result)
        tracer.patch(module, "outer", "outer")
        assert module.outer(1) == 4
        tracer.unpatch()
        assert module.inner is original
        inner, outer = sorted(tracer.spans, key=lambda span: span[2])
        assert inner[1] == outer[0]  # parent link
        assert inner[5] == 2

    def test_async_spans_keep_their_task_parent(self):
        class Service:
            async def submit(self, value):
                await asyncio.sleep(0)
                return value

        tracer = Tracer()
        tracer.patch(Service, "submit", "submit")

        async def main():
            service = Service()
            return await asyncio.gather(*(service.submit(v) for v in range(3)))

        try:
            assert asyncio.run(main()) == [0, 1, 2]
        finally:
            tracer.unpatch()
        assert len(tracer.spans) == 3
        assert all(span[1] is None for span in tracer.spans)


def test_benchmark_json_lists_every_reported_metric():
    import json
    from pathlib import Path

    import layers
    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
