"""Micro-batch execution: fuse compatible requests into one kernel call.

The scheduler (:mod:`repro.serve.service`) drains a tick's worth of
pending requests and hands them here as resolved plans.  This module
groups them by *fusion key* — same protocol class/config and same
population object — and executes each group through the batched
kernels:

* **PET (vectorized tier)**: every request's words are drawn from its
  own generator by :func:`~repro.sim.batched.pet_words`, exactly as
  :meth:`~repro.protocols.pet.PetProtocol.estimate` draws them; the
  group's words are concatenated into one
  :func:`~repro.sim.batched.pet_depths` call, and the depth vector is
  split back per request through
  :meth:`~repro.protocols.pet.PetProtocol.result_from_depths`.
* **Engine protocols** (FNEB, LoF, USE/UPE/EZB, ALOHA): per-request
  seed vectors are concatenated and evaluated through the protocol's
  :class:`~repro.protocols.base.BatchedRoundEngine` in one chunked
  pass, then each request's statistic row is reduced by the
  protocol's own scalar inversion.
* Everything else (sampled-tier PET, protocols without an engine)
  falls back to the scalar request path, one request at a time.

The contract is **bit-identity**: because per-round statistics are
elementwise in the seed/path vector and each request's words come from
its own generator, a request served through a fused batch returns the
same :class:`~repro.protocols.base.ProtocolResult` — estimate, slots,
per-round statistics — as :func:`repro.estimate` with the same seed.
The serve test-suite asserts this for PET and FNEB; the per-request
observability (``protocol.<NAME>.*`` counters) mirrors the scalar path
through the same :meth:`_observe_result` funnel.

Fusion only amortises kernel launches for requests that share a
population *object* — which is what the request model's
``population_seed`` field and the service's population cache arrange.
Requests with private populations still execute vectorized across
their own rounds (no Python round loop), they just don't share the
kernel call.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..api import ResolvedRequest
from ..core.accuracy import estimate_from_depths  # noqa: F401
from ..errors import ConfigurationError
from ..protocols.base import ProtocolResult
from ..protocols.pet import PetProtocol
from ..sim.backends import active_backend
from ..sim.batched import (  # noqa: F401
    batched_gray_depths_fresh,
    batched_gray_depths_sorted,
    pet_depths,
    pet_words,
)
from ..sim.protocol_batched import _chunked_statistics, round_seeds
from ..tags.population import TagPopulation

# ``estimate_from_depths`` and the two kernels are not called here (PET
# groups go through ``pet_depths``); they stay bound because
# perfbench/layers.py wraps them by name in this module too.


@dataclass(frozen=True)
class GroupExecution:
    """Timing + attributes of one kernel execution inside a micro-batch.

    The service turns each row into per-request ``kernel`` spans: every
    request in ``indices`` (batch-local positions) shares the same
    kernel call, so its span carries the fusion group's size and the
    active kernel backend — the attributes an exemplar-driven trace
    lookup needs to explain a latency band.
    """

    kind: str  # "pet" | "engine" | "scalar"
    indices: tuple[int, ...]
    start: float  # perf_counter at kernel start
    seconds: float
    backend: str
    protocol: str


@dataclass
class MicroBatchReport:
    """What one :func:`execute_micro_batch` call did, for telemetry."""

    requests: int = 0
    fused_groups: int = 0
    fused_requests: int = 0
    scalar_requests: int = 0
    degraded_requests: int = 0
    groups: list[GroupExecution] = field(default_factory=list)

    def group_of(self, index: int) -> GroupExecution | None:
        """The execution row covering batch position ``index``."""
        for group in self.groups:
            if index in group.indices:
                return group
        return None


def _config_key(resolved: ResolvedRequest) -> tuple:
    """Hashable identity of a request's protocol configuration."""
    request = resolved.request
    return (
        request.protocol,
        tuple(
            sorted(
                (key, repr(value))
                for key, value in request.config.items()
            )
        ),
    )


def _pet_fusible(resolved: ResolvedRequest) -> bool:
    """Whether the direct PET kernel path can serve this request."""
    protocol = resolved.protocol
    return isinstance(protocol, PetProtocol) and (
        protocol.tier == "vectorized" or protocol.config.passive_tags
    )


def _fused_pet_group(
    group: list[tuple[int, ResolvedRequest, np.ndarray]],
    population: TagPopulation,
    results: list,
) -> None:
    """Run one PET fusion group through a single depth-kernel call."""
    config = group[0][1].protocol.config
    depths = pet_depths(
        population,
        np.concatenate([words for _, _, words in group]),
        config,
    )
    offset = 0
    for index, resolved, _ in group:
        request_depths = depths[offset : offset + resolved.rounds]
        offset += resolved.rounds
        results[index] = resolved.protocol.result_from_depths(
            request_depths, resolved.seed_provenance
        )


def _fused_engine_group(
    group: list[tuple[int, ResolvedRequest, np.ndarray]],
    population: TagPopulation,
    results: list,
) -> None:
    """Run one engine fusion group through a single statistics pass."""
    engine = group[0][1].protocol.batched_engine()
    all_seeds = np.concatenate([seeds for _, _, seeds in group])
    statistics = _chunked_statistics(engine, all_seeds, population)
    offset = 0
    for index, resolved, seeds in group:
        row = statistics[offset : offset + seeds.size]
        offset += seeds.size
        protocol = resolved.protocol
        try:
            n_hat = engine.reduce(row)
        except Exception as error:  # saturation etc. — per request
            results[index] = error
            continue
        result = ProtocolResult(
            protocol=protocol.name,
            n_hat=n_hat,
            rounds=resolved.rounds,
            total_slots=resolved.rounds * protocol.slots_per_round(),
            per_round_statistics=row,
            seed_provenance=resolved.seed_provenance,
        )
        results[index] = protocol._observe_result(result)


def execute_micro_batch(
    batch: Sequence[ResolvedRequest],
    report: MicroBatchReport | None = None,
) -> list:
    """Execute one tick's requests, fusing compatible ones.

    Returns one entry per request, in input order: a
    :class:`~repro.protocols.base.ProtocolResult` on success or the
    raised exception (so the service can answer that request with an
    ``error`` response without losing the rest of the batch).
    """
    if report is None:
        report = MicroBatchReport()
    report.requests += len(batch)
    results: list = [None] * len(batch)
    pet_groups: dict[tuple, list] = {}
    engine_groups: dict[tuple, list] = {}
    scalar: list[tuple[int, ResolvedRequest]] = []

    for index, resolved in enumerate(batch):
        try:
            if _pet_fusible(resolved):
                key = (
                    _config_key(resolved),
                    id(resolved.population),
                )
                # Words are drawn at classification time, from the
                # request's own generator — group membership can never
                # change what any single request consumes.
                words = pet_words(
                    resolved.rng,
                    resolved.rounds,
                    resolved.protocol.config.passive_tags,
                )
                pet_groups.setdefault(key, []).append(
                    (index, resolved, words)
                )
            elif resolved.protocol.batched_engine() is not None:
                key = (
                    _config_key(resolved),
                    id(resolved.population),
                )
                engine = resolved.protocol.batched_engine()
                draws = resolved.rounds * engine.draws_per_round
                seeds = round_seeds(resolved.rng, draws)
                engine_groups.setdefault(key, []).append(
                    (index, resolved, seeds)
                )
            else:
                scalar.append((index, resolved))
        except Exception as error:
            results[index] = error

    backend_name = active_backend().name

    for key, group in pet_groups.items():
        report.fused_groups += 1
        report.fused_requests += len(group)
        population = group[0][1].population
        started = time.perf_counter()
        try:
            _fused_pet_group(group, population, results)
        except Exception as error:
            for index, _, _ in group:
                if results[index] is None:
                    results[index] = error
        report.groups.append(
            GroupExecution(
                kind="pet",
                indices=tuple(index for index, _, _ in group),
                start=started,
                seconds=time.perf_counter() - started,
                backend=backend_name,
                protocol=group[0][1].protocol.name,
            )
        )

    for key, group in engine_groups.items():
        report.fused_groups += 1
        report.fused_requests += len(group)
        population = group[0][1].population
        started = time.perf_counter()
        try:
            _fused_engine_group(group, population, results)
        except Exception as error:
            for index, _, _ in group:
                if results[index] is None:
                    results[index] = error
        report.groups.append(
            GroupExecution(
                kind="engine",
                indices=tuple(index for index, _, _ in group),
                start=started,
                seconds=time.perf_counter() - started,
                backend=backend_name,
                protocol=group[0][1].protocol.name,
            )
        )

    for index, resolved in scalar:
        report.scalar_requests += 1
        started = time.perf_counter()
        try:
            result = resolved.protocol.estimate(
                resolved.population, resolved.rounds, resolved.rng
            )
            results[index] = dataclasses.replace(
                result, seed_provenance=resolved.seed_provenance
            )
        except Exception as error:
            results[index] = error
        report.groups.append(
            GroupExecution(
                kind="scalar",
                indices=(index,),
                start=started,
                seconds=time.perf_counter() - started,
                backend=backend_name,
                protocol=resolved.protocol.name,
            )
        )

    return results


def degradable(resolved: ResolvedRequest) -> bool:
    """Whether the sampled fallback tier can serve this request.

    The ladder's cheap rung draws per-round *statistics* from their
    exact law instead of hashing every tag: active-variant PET through
    :class:`~repro.sim.sampled.SampledSimulator`, and any protocol
    exposing an ``estimate_sampled(n, rounds, rng)`` statistic law
    (FNEB, LoF, USE/UPE/EZB, ALOHA).  Sampled laws need the true
    population *size* only, so a request qualifies exactly when its
    protocol has a law for it.
    """
    protocol = resolved.protocol
    if isinstance(protocol, PetProtocol):
        return not protocol.config.passive_tags
    return callable(getattr(protocol, "estimate_sampled", None))


def execute_degraded(resolved: ResolvedRequest):
    """Serve one request from the sampled tier (overload fallback).

    Draws per-round statistics from their exact distribution instead
    of hashing the population — cheap per round regardless of ``n``.
    The estimate follows the same law but is *not* bit-identical to
    the vectorized tier (different randomness consumption), which is
    why the service marks these responses ``degraded`` and the result
    cache never stores them.
    """
    from ..sim.sampled import SampledSimulator

    protocol = resolved.protocol
    if not degradable(resolved):
        raise ConfigurationError(
            f"protocol {protocol.name!r} has no sampled fallback tier"
        )
    if not isinstance(protocol, PetProtocol):
        result = protocol.estimate_sampled(
            resolved.population.size, resolved.rounds, resolved.rng
        )
        # estimate_sampled already funnels through _observe_result;
        # only the request's provenance stamp is missing.
        return dataclasses.replace(
            result, seed_provenance=resolved.seed_provenance
        )
    simulator = SampledSimulator(
        resolved.population.size,
        config=protocol.config.with_rounds(resolved.rounds),
        rng=resolved.rng,
    )
    outcome = simulator.estimate()
    result = ProtocolResult(
        protocol=protocol.name,
        n_hat=outcome.n_hat,
        rounds=outcome.num_rounds,
        total_slots=outcome.total_slots,
        per_round_statistics=outcome.depths,
        seed_provenance=resolved.seed_provenance,
    )
    return protocol._observe_result(result)
