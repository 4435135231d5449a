"""The four benchmark workloads: inputs, set-up, timed phase, checks.

Every input is a pure function of the workload seed.  Costs do not
depend on the seed: population sizes, burst shapes, client counts and
sweep grids are fixed here, and the seed only picks tag IDs, request
seeds and the replay pattern.  The program sees the generated requests
and nothing else.

A workload exposes ``setup() -> session``, ``measure(session,
seconds) -> Phase``, ``teardown(session)`` and ``check(phase)``; any
of them may be a coroutine (the in-process service needs an event
loop).  :mod:`run` times them.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.api import (
    RESPONSE_STATUSES,
    EstimateRequest,
    execute_request,
    resolve_request,
)
from repro.config import AccuracyRequirement, PetConfig
from repro.obs.registry import MetricsRegistry
from repro.protocols.registry import make_protocol
from repro.serve.service import EstimationService, ServiceConfig
from repro.serve.shard import ShardedService, route_shard
from repro.sim.batched import BatchedExperimentEngine
from repro.sim.protocol_batched import (
    ProtocolCellSpec,
    run_protocol_cell,
    sweep_protocol_cells,
)
from repro.sim.workload import WorkloadSpec
from stats import window_rates

#: The paper's default contract: 5 % error at 99 % confidence.
PAPER_CONTRACT = AccuracyRequirement(0.05, 0.01)
#: W2's loose contract: 20 % error at 95 % confidence.
LOOSE_CONTRACT = AccuracyRequirement(0.20, 0.05)


@dataclass
class Op:
    """One timed operation: a served request or one sweep engine call."""

    due: float  # when it was due (open loop) or sent (closed loop)
    done: float
    ok: bool
    rounds: int = 0  # rounds of new work the answer carries
    status: str = "ok"
    # (n_hat, true_n, epsilon) scored against the stated contract.
    scored: list = field(default_factory=list)
    # What check() needs to recompute the answer; kept only for the
    # operations chosen for checking, so memory does not grow with
    # the number of operations.
    payload: object = None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Phase:
    """What one timed phase did."""

    start: float
    stop: float
    ops: list[Op]
    attempted: int
    latency_limit_s: float
    #: Per-window (ops, rounds) rates; the reported rates are medians.
    window_ops: list[float] = field(default_factory=list)
    window_rounds: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    latency_samples: list[float] = field(default_factory=list)


def _seeds(rng: np.random.Generator, count: int, parity: int) -> list[int]:
    """``count`` distinct 63-bit request seeds of the given parity, so
    warm-up identities (odd) never collide with timed ones (even)."""
    seeds: set[int] = set()
    ordered = []
    while len(ordered) < count:
        value = int(rng.integers(0, 2**61)) * 2 + parity
        if value not in seeds:
            seeds.add(value)
            ordered.append(value)
    return ordered


def _statuses_add_up(phase: Phase) -> list[str]:
    """``sent == ok + rejected + expired + degraded + error``."""
    counts = {status: 0 for status in RESPONSE_STATUSES}
    for op in phase.ops:
        if op.status not in counts:
            return [f"unknown status {op.status!r}"]
        counts[op.status] += 1
    answered = sum(counts.values())
    if answered != phase.attempted:
        return [
            f"{phase.attempted} sent but {answered} answered "
            f"({counts})"
        ]
    return []


def _same_result(got, expected) -> str | None:
    """Field-by-field comparison with the scalar request path."""
    for name in ("n_hat", "rounds", "total_slots"):
        if getattr(got, name) != getattr(expected, name):
            return (
                f"{name}: served {getattr(got, name)!r}, "
                f"recomputed {getattr(expected, name)!r}"
            )
    left = got.per_round_statistics
    right = expected.per_round_statistics
    if (left is None) != (right is None) or (
        left is not None and not np.array_equal(left, right)
    ):
        return "per-round statistics differ"
    return None


def check_positions(seed: int, submissions: int, sample: int) -> frozenset[int]:
    """Submission positions, chosen from the seed before the run, whose
    answers :func:`check_served` recomputes."""
    rng = np.random.default_rng([seed, 0xC4EC])
    return frozenset(int(v) for v in rng.choice(submissions, size=sample, replace=False))


def check_served(phase: Phase) -> list[str]:
    """Recompute every kept ``ok`` answer through the scalar path."""
    failures = _statuses_add_up(phase)
    checked = 0
    for op in phase.ops:
        if op.payload is None or not op.ok:
            continue
        request, result = op.payload
        problem = _same_result(result, execute_request(resolve_request(request)))
        if problem is not None:
            failures.append(f"{request.request_id}: {problem}")
        checked += 1
    if checked == 0:
        failures.append("no answer was checked")
    return failures


def _op_from_response(request, response, due, done, epsilon, fresh, keep):
    ok = response.status == "ok"
    return Op(
        due=due,
        done=done,
        ok=ok,
        rounds=response.result.rounds if ok and fresh else 0,
        status=response.status,
        scored=[(response.result.n_hat, request.population, epsilon)] if ok else [],
        payload=(request, response.result) if ok and keep else None,
    )


# -- W1 / W4: open-loop bursts ----------------------------------------

#: Tags per reader field; four fields send at once every burst.
BURST_FIELDS = (128, 192, 256, 320)
#: Requests each field sends per burst.
BURST_PER_FIELD = 2
#: Burst period: well below one process's capacity, so latency is
#: measured without a standing queue.  A burst of 8 takes 0.17-0.35 s
#: on a shared 2-CPU x86 box (fast and slow host phases), so the load
#: is 20-45 % of capacity.  Few large bursts gave a steadier p90 than
#: many small ones, whose tail followed short host stalls.
BURST_INTERVAL_S = 0.80
BURST_LATENCY_LIMIT_S = 1.0
#: Shards of the sharded variant.
BURST_SHARDS = 2


@dataclass(frozen=True)
class BurstSchedule:
    """The open-loop schedule: warm-up burst and timed bursts."""

    warmup: tuple[EstimateRequest, ...]
    bursts: tuple[tuple[EstimateRequest, ...], ...]
    interval: float


def burst_schedule(seed: int, seconds: float) -> BurstSchedule:
    """W1/W4 inputs as a pure function of ``seed``.

    Field population seeds are drawn so hash routing puts two fields
    on each of the two shards: the sharded variant then serves at a
    fixed balance rather than one that changes with the seed.
    """
    rng = np.random.default_rng([seed, 0xB1])
    per_shard: dict[int, int] = {}
    population_seeds: list[int] = []
    cap = len(BURST_FIELDS) // BURST_SHARDS
    for size in BURST_FIELDS:
        while True:
            candidate = int(rng.integers(0, 2**31))
            probe = EstimateRequest(population=size, population_seed=candidate)
            shard = route_shard(probe, BURST_SHARDS)
            if per_shard.get(shard, 0) < cap:
                per_shard[shard] = per_shard.get(shard, 0) + 1
                population_seeds.append(candidate)
                break
    count = max(1, math.ceil(seconds / BURST_INTERVAL_S))
    per_burst = len(BURST_FIELDS) * BURST_PER_FIELD
    timed_seeds = iter(_seeds(rng, count * per_burst, parity=0))
    warm_seeds = iter(_seeds(rng, per_burst, parity=1))

    def burst(label: str, seeds) -> tuple[EstimateRequest, ...]:
        return tuple(
            EstimateRequest(
                population=size,
                population_seed=population_seeds[field_index],
                seed=next(seeds),
                accuracy=PAPER_CONTRACT,
                tenant=f"field-{field_index}",
                request_id=f"{label}-f{field_index}-{copy}",
            )
            for field_index, size in enumerate(BURST_FIELDS)
            for copy in range(BURST_PER_FIELD)
        )

    return BurstSchedule(
        warmup=burst("warm", warm_seeds),
        bursts=tuple(burst(f"b{index}", timed_seeds) for index in range(count)),
        interval=BURST_INTERVAL_S,
    )


def _burst_phase(schedule, records, start, lateness, checked) -> Phase:
    ops = [
        _op_from_response(
            request, response, due, done, PAPER_CONTRACT.epsilon,
            fresh=True, keep=position in checked,
        )
        for position, (request, response, due, done) in enumerate(records)
    ]
    stop = max(op.done for op in ops)
    ok = [op for op in ops if op.ok]
    window = stop - start
    return Phase(
        start=start,
        stop=stop,
        ops=ops,
        attempted=sum(len(burst) for burst in schedule.bursts),
        latency_limit_s=BURST_LATENCY_LIMIT_S,
        window_ops=[len(ok) / window],
        window_rounds=[sum(op.rounds for op in ok) / window],
        lateness=lateness,
        latency_samples=[op.latency for op in ops],
    )


class ServeBurstActive:
    """W1: open-loop bursts of active-PET requests, in-process service."""

    name = "serve-burst-active"
    #: Layer metric prefixes -> the end-to-end metrics they should move.
    moves = {
        "sim.batched.fresh, hashing": "latency_p50_s, latency_p90_s, rounds_per_s",
        "serve.batching.self_s, serve.queue_wait": "latency_p90_s",
        "tags.population.setup_build_s": "setup_s",
    }
    #: Layers predicted flat on this workload's timed phase.
    flat = ("serve.cache", "api.resolve", "tags.population.build_s")
    open_loop = True
    setups = 7
    check_sample = 4

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.schedule = burst_schedule(seed, seconds)
        submissions = sum(len(burst) for burst in self.schedule.bursts)
        self.checked = check_positions(seed, submissions, min(self.check_sample, submissions))

    async def setup(self) -> EstimationService:
        service = EstimationService(ServiceConfig(), registry=MetricsRegistry())
        await service.start()
        await asyncio.gather(*(service.submit(r) for r in self.schedule.warmup))
        return service

    async def teardown(self, service: EstimationService) -> None:
        await service.stop()

    async def measure(self, service: EstimationService, seconds: float) -> Phase:
        schedule = self.schedule
        clock = time.perf_counter

        async def one(request, due):
            response = await service.submit(request)
            return request, response, due, clock()

        tasks = []
        lateness = []
        start = clock() + 0.01
        for index, burst in enumerate(schedule.bursts):
            due = start + index * schedule.interval
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = clock()
            lateness.append(sent - due)
            tasks.extend(asyncio.ensure_future(one(request, due)) for request in burst)
        records = await asyncio.gather(*tasks)
        return _burst_phase(schedule, records, start, lateness, self.checked)

    def check(self, phase: Phase) -> list[str]:
        return check_served(phase)


class ServeBurstSharded(ServeBurstActive):
    """W4: W1's exact schedule through a 2-shard router."""

    name = "serve-burst-sharded"
    moves = {"serve.shard": "latency_p50_s, latency_p90_s"}
    flat = ("serve.cache",)
    shards = BURST_SHARDS
    setups = 3

    def setup(self) -> ShardedService:
        # Sharded runs stream worker telemetry once a second, as the
        # serve CLI configures them by default.
        service = ShardedService(
            shards=BURST_SHARDS,
            config=ServiceConfig(snapshot_interval_seconds=1.0),
            registry=MetricsRegistry(),
        ).start()
        for future in [service.submit(r) for r in self.schedule.warmup]:
            future.result()
        return service

    def teardown(self, service: ShardedService) -> None:
        service.stop()

    def measure(self, service: ShardedService, seconds: float) -> Phase:
        schedule = self.schedule
        clock = time.perf_counter
        pending = []
        lateness = []
        # A future's result can be read before its callbacks have run,
        # so wait for every callback, not for the futures.
        answered = threading.Semaphore(0)

        def stamp(box: list[float]):
            def callback(_future):
                box.append(clock())
                answered.release()

            return callback

        start = clock() + 0.01
        for index, burst in enumerate(schedule.bursts):
            due = start + index * schedule.interval
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            sent = clock()
            lateness.append(sent - due)
            for request in burst:
                future = service.submit(request)
                done_at: list[float] = []
                future.add_done_callback(stamp(done_at))
                pending.append((request, future, due, done_at))
        for _ in pending:
            if not answered.acquire(timeout=120):
                raise RuntimeError("the sharded service left a request unanswered")
        records = [
            (request, future.result(), due, done_at[0])
            for request, future, due, done_at in pending
        ]
        return _burst_phase(schedule, records, start, lateness, self.checked)


# -- W2: closed loop, light mixed requests ----------------------------

#: Concurrent closed-loop clients on one event loop.
MIXED_CLIENTS = 64
#: Tags per reader field: 16 fields spaced evenly over 64..600.
MIXED_FIELDS = tuple(int(round(64 + index * (600 - 64) / 15)) for index in range(16))
#: (protocol, config) pairs of the mix, drawn with equal weight.
MIXED_PROTOCOLS = (
    ("pet", {}),
    ("pet", {"passive_tags": True}),
    ("fneb", {}),
    ("lof", {}),
)
#: Share of requests that replay an earlier identity.
MIXED_REPLAY_SHARE = 0.5
#: Replays pick from the most recent fresh identities: a working set
#: well inside the result cache's default 1,024 entries.
MIXED_REPLAY_WINDOW = 256
MIXED_LATENCY_LIMIT_S = 0.25
MIXED_WINDOW_S = 1.0
#: Checked answers are drawn from the first this many submissions,
#: which every run of a few seconds reaches.
MIXED_CHECK_HORIZON = 2000


class MixedSchedule:
    """W2's request stream: an endless pure function of the seed.

    ``next()`` returns ``(request, fresh, position)``; a replay is a
    new request object (its own ``request_id``) with an earlier
    request's identity, so the cache may answer it.  Timed seeds are
    even and drawn from 2^61 values, so a fresh identity repeats only
    by a negligible chance.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng([seed, 0x2B])
        self._population_seeds = [
            int(v) for v in self._rng.integers(0, 2**31, size=len(MIXED_FIELDS))
        ]
        self._fresh: deque[EstimateRequest] = deque(maxlen=MIXED_REPLAY_WINDOW)
        self._count = 0

    def __iter__(self):
        return self

    def request(self, field_index: int, protocol_index: int, seed: int, request_id: str):
        protocol, config = MIXED_PROTOCOLS[protocol_index]
        return EstimateRequest(
            population=MIXED_FIELDS[field_index],
            population_seed=self._population_seeds[field_index],
            protocol=protocol,
            config=dict(config),
            seed=seed,
            accuracy=LOOSE_CONTRACT,
            tenant=f"field-{field_index}",
            request_id=request_id,
        )

    def warmup(self) -> list[EstimateRequest]:
        """One request per (field, protocol), with odd seeds the timed
        stream (even seeds) never uses."""
        combos = [
            (field_index, protocol_index)
            for field_index in range(len(MIXED_FIELDS))
            for protocol_index in range(len(MIXED_PROTOCOLS))
        ]
        seeds = _seeds(self._rng, len(combos), parity=1)
        return [
            self.request(field_index, protocol_index, seed, f"warm{index}")
            for index, ((field_index, protocol_index), seed) in enumerate(zip(combos, seeds))
        ]

    def __next__(self) -> tuple[EstimateRequest, bool, int]:
        rng = self._rng
        position = self._count
        self._count += 1
        request_id = f"m{position}"
        if self._fresh and rng.random() < MIXED_REPLAY_SHARE:
            original = self._fresh[int(rng.integers(len(self._fresh)))]
            return dataclasses.replace(original, request_id=request_id), False, position
        field_index = int(rng.integers(len(MIXED_FIELDS)))
        protocol_index = int(rng.integers(len(MIXED_PROTOCOLS)))
        seed = int(rng.integers(0, 2**61)) * 2
        request = self.request(field_index, protocol_index, seed, request_id)
        self._fresh.append(request)
        return request, True, position


class ServeLightMixed:
    """W2: closed loop of light mixed requests, half of them replays."""

    name = "serve-light-mixed"
    moves = {
        "api.resolve, serve.cache, serve.respond": "ops_per_s, latency_p50_s",
        "serve.queue_wait, protocols.engine, core.accuracy": "ops_per_s",
        "core.accuracy (estimator changes)": "within_eps_frac",
    }
    flat = ("sim.batched",)
    setups = 9
    check_sample = 16

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.checked = check_positions(seed, MIXED_CHECK_HORIZON, self.check_sample)

    async def setup(self) -> EstimationService:
        service = EstimationService(ServiceConfig(), registry=MetricsRegistry())
        await service.start()
        # Warm every field and protocol with identities the timed
        # phase never uses.
        requests = MixedSchedule(self.seed).warmup()
        await asyncio.gather(*(service.submit(r) for r in requests))
        return service

    async def teardown(self, service: EstimationService) -> None:
        await service.stop()

    async def measure(self, service: EstimationService, seconds: float) -> Phase:
        schedule = MixedSchedule(self.seed)
        clock = time.perf_counter
        ops: list[Op] = []
        start = clock()
        stop = start + seconds

        async def client():
            while clock() < stop:
                request, fresh, position = next(schedule)
                sent = clock()
                response = await service.submit(request)
                ops.append(
                    _op_from_response(
                        request, response, sent, clock(), LOOSE_CONTRACT.epsilon,
                        fresh=fresh, keep=position in self.checked,
                    )
                )

        await asyncio.gather(*(client() for _ in range(MIXED_CLIENTS)))
        ok = [op for op in ops if op.ok]
        return Phase(
            start=start,
            stop=clock(),
            ops=ops,
            attempted=len(ops),
            latency_limit_s=MIXED_LATENCY_LIMIT_S,
            window_ops=window_rates([op.done for op in ok], start, stop, MIXED_WINDOW_S),
            window_rounds=window_rates(
                [op.done for op in ok], start, stop, MIXED_WINDOW_S,
                weights=[op.rounds for op in ok],
            ),
            latency_samples=[op.latency for op in ops],
        )

    def check(self, phase: Phase) -> list[str]:
        return check_served(phase)


# -- W3: serial research sweep ----------------------------------------

#: Fig-4-style rounds grid; the widest cell is the paper contract.
SWEEP_GRID = (64, 128, 256, 512, 1024, 2048, 4697)
#: (n, repetitions) of the active (fresh-hash) grid calls.
SWEEP_ACTIVE = ((64, 4), (128, 2), (256, 1))
#: (n, repetitions) of the passive (sorted-code) grid calls.
SWEEP_PASSIVE = ((64, 48), (1024, 32), (16384, 8), (65536, 3))
#: (protocol, n, repetitions) cells at each protocol's contract plan.
SWEEP_PROTOCOLS = (
    ("fneb", 64, 48),
    ("fneb", 1024, 3),
    ("lof", 64, 32),
    ("lof", 1024, 3),
)
SWEEP_LATENCY_LIMIT_S = 1.0


@dataclass(frozen=True)
class SweepCall:
    kind: str  # "grid" | "cell"
    n: int
    repetitions: int
    passive: bool = False
    protocol: str = "pet"


def sweep_plan() -> tuple[SweepCall, ...]:
    """One pass of the sweep, in execution order."""
    calls = [SweepCall("grid", n, reps) for n, reps in SWEEP_ACTIVE]
    calls += [SweepCall("grid", n, reps, passive=True) for n, reps in SWEEP_PASSIVE]
    calls += [SweepCall("cell", n, reps, protocol=name) for name, n, reps in SWEEP_PROTOCOLS]
    return tuple(calls)


def sweep_seeds(seed: int, pass_index: int, call_index: int, warm: bool = False) -> tuple[int, int]:
    """(base seed of the repetition tree, population seed) of one call;
    warm-up calls draw from their own stream."""
    entropy = [seed, 0x57 if warm else 0x53, pass_index, call_index]
    words = np.random.default_rng(entropy).integers(0, 2**31, size=2)
    return int(words[0]), int(words[1])


class SweepGridSerial:
    """W3: the serial research path, no serve layer at all."""

    name = "sweep-grid-serial"
    moves = {
        "sim.batched, hashing, tags.population.build_s": "rounds_per_s, ops_per_s",
        "core.accuracy, protocols.engine, sim.protocol_batched": "rounds_per_s",
        "core.accuracy (estimator changes)": "within_eps_frac",
    }
    flat = ("serve",)
    setups = 15

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.plan = sweep_plan()
        self.contract_rounds = {
            name: make_protocol(name).plan_rounds(PAPER_CONTRACT)
            for name in {call.protocol for call in self.plan}
        }
        # The check recomputes one grid call's cell and one protocol
        # cell of the first pass, chosen here from the seed.
        rng = np.random.default_rng([seed, 0xC3])
        kinds = [call.kind for call in self.plan]
        self.checked_calls = frozenset(
            int(rng.choice([i for i, kind in enumerate(kinds) if kind == wanted]))
            for wanted in ("grid", "cell")
        )
        self.checked_cell = int(rng.integers(len(SWEEP_GRID)))

    def _call(self, call: SweepCall, base_seed: int, population_seed: int):
        """Run one engine call; returns (cells, rounds, scored, result)."""
        epsilon = PAPER_CONTRACT.epsilon
        if call.kind == "grid":
            engine = BatchedExperimentEngine(base_seed=base_seed, repetitions=call.repetitions)
            results = engine.run_rounds_grid(
                WorkloadSpec(size=call.n, seed=population_seed),
                PetConfig(passive_tags=call.passive),
                SWEEP_GRID,
            )
            contract = results[-1]
            scored = [(float(v), call.n, epsilon) for v in contract.estimates]
            return len(results), call.repetitions * max(SWEEP_GRID), scored, results
        rounds = self.contract_rounds[call.protocol]
        (result,) = sweep_protocol_cells(
            [ProtocolCellSpec(call.protocol, call.n, rounds, population_seed=population_seed)],
            repetitions=call.repetitions,
            base_seed=base_seed,
            workers=None,
        )
        scored = [(float(v), call.n, epsilon) for v in result.estimates]
        return 1, call.repetitions * rounds, scored, result

    def setup(self) -> str:
        # Engine construction plus one warm-up cell of each path.
        warm = (SweepCall("grid", 64, 1), SweepCall("grid", 64, 1, passive=True),
                SweepCall("cell", 64, 1, protocol="fneb"))
        for index, call in enumerate(warm):
            self._call(call, *sweep_seeds(self.seed, 0, index, warm=True))
        return "warm"

    def teardown(self, session) -> None:
        return None

    def measure(self, session, seconds: float) -> Phase:
        clock = time.perf_counter
        ops: list[Op] = []
        window_ops: list[float] = []
        window_rounds: list[float] = []
        start = clock()
        pass_index = 0
        while clock() - start < seconds:
            pass_start = clock()
            pass_cells = pass_rounds = 0
            for call_index, call in enumerate(self.plan):
                base_seed, population_seed = sweep_seeds(self.seed, pass_index, call_index)
                sent = clock()
                try:
                    cells, rounds, scored, result = self._call(call, base_seed, population_seed)
                except Exception as error:  # a failed cell is a failed op
                    ops.append(Op(due=sent, done=clock(), ok=False, status=f"error: {error}"))
                    continue
                keep = pass_index == 0 and call_index in self.checked_calls
                ops.append(Op(due=sent, done=clock(), ok=True, rounds=rounds, scored=scored,
                              payload=(call, base_seed, population_seed, result) if keep else None))
                pass_cells += cells
                pass_rounds += rounds
            elapsed = clock() - pass_start
            window_ops.append(pass_cells / elapsed)
            window_rounds.append(pass_rounds / elapsed)
            pass_index += 1
        return Phase(
            start=start,
            stop=clock(),
            ops=ops,
            attempted=pass_index * len(self.plan),
            latency_limit_s=SWEEP_LATENCY_LIMIT_S,
            window_ops=window_ops,
            window_rounds=window_rounds,
            latency_samples=[op.latency for op in ops],
        )

    def check(self, phase: Phase) -> list[str]:
        """Recompute one grid cell with ``run_cell`` and one protocol
        cell with ``run_protocol_cell``; both must match bit for bit."""
        failures = [op.status for op in phase.ops if not op.ok]
        kept = {op.payload[0].kind: op.payload for op in phase.ops if op.payload is not None}
        if set(kept) != {"grid", "cell"}:
            return failures + ["the calls chosen for checking did not complete"]
        call, base_seed, population_seed, results = kept["grid"]
        position = self.checked_cell
        engine = BatchedExperimentEngine(base_seed=base_seed, repetitions=call.repetitions)
        expected = engine.run_cell(
            WorkloadSpec(size=call.n, seed=population_seed),
            PetConfig(passive_tags=call.passive),
            SWEEP_GRID[position],
        )
        got = results[position]
        if not (np.array_equal(got.estimates, expected.estimates)
                and got.slots_per_run == expected.slots_per_run):
            failures.append(f"grid cell n={call.n} rounds={SWEEP_GRID[position]} differs from run_cell")
        call, base_seed, population_seed, result = kept["cell"]
        spec = ProtocolCellSpec(call.protocol, call.n, self.contract_rounds[call.protocol],
                                population_seed=population_seed)
        expected = run_protocol_cell(*spec.build(), rounds=spec.rounds,
                                     repetitions=call.repetitions, base_seed=base_seed,
                                     on_error="nan")
        if not np.array_equal(result.estimates, expected.estimates, equal_nan=True):
            failures.append(f"{spec.label} cell differs from run_protocol_cell")
        return failures


WORKLOADS = {
    cls.name: cls
    for cls in (ServeBurstActive, ServeLightMixed, SweepGridSerial, ServeBurstSharded)
}
