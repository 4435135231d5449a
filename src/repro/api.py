"""The unified request API and the one-call facade :func:`repro.estimate`.

Everything the library does — population synthesis, protocol
construction through the registry, round planning from an accuracy
contract, optional instrumentation — converges on a single typed
request model:

* :class:`EstimateRequest` — what a caller wants estimated: population
  spec, protocol + config, explicit seed-or-rng provenance, accuracy
  contract, tenant identity, and an optional deadline;
* :func:`resolve_request` — the single validation/dispatch path that
  turns a request into a :class:`ResolvedRequest` execution plan
  (protocol instance, materialised population, planned rounds, rng);
* :func:`execute_request` — runs a resolved plan through the scalar
  protocol path and stamps seed provenance into the result;
* :class:`EstimateResponse` — the service-shaped answer (status,
  result, latency, retry-after) that :mod:`repro.serve` returns.

:func:`estimate` is a thin synchronous wrapper over the same path, so
the facade, the CLI, and the async service share one pipeline::

    import repro

    result = repro.estimate(50_000, seed=7)
    result = repro.estimate(50_000, protocol="fneb", frame_size=2**16)
    result = repro.estimate(
        my_population,
        protocol="pet",
        accuracy=repro.AccuracyRequirement(0.05, 0.01),
    )

The first argument is either a true cardinality (a population of that
many random tags is synthesized from ``seed``), an existing
:class:`~repro.tags.population.TagPopulation`, or an iterable of tag
IDs.  Remaining keywords are forwarded to
:func:`repro.protocols.registry.make_protocol`, so every protocol's
constructor configuration is reachable from here.

Seed-or-rng provenance is explicit: pass ``seed=`` *or* ``rng=``,
never both — the combination is rejected with a
:class:`~repro.errors.ConfigurationError` instead of silently ignoring
the seed (the pre-service facade used to ignore it).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, MutableMapping

import numpy as np

from .config import AccuracyRequirement
from .errors import ConfigurationError
from .obs.registry import MetricsRegistry
from .obs.tracectx import TraceContext
from .protocols.base import CardinalityEstimatorProtocol, ProtocolResult
from .protocols.registry import make_protocol
from .tags.population import TagPopulation


def _resolve_population(
    tags_or_n: int | TagPopulation | Iterable[int],
    rng: np.random.Generator,
) -> TagPopulation:
    if isinstance(tags_or_n, TagPopulation):
        return tags_or_n
    if isinstance(tags_or_n, (int, np.integer)):
        if tags_or_n < 0:
            raise ConfigurationError(
                f"population size must be >= 0, got {tags_or_n}"
            )
        return TagPopulation.random(int(tags_or_n), rng)
    return TagPopulation(tags_or_n)


@dataclass(frozen=True)
class EstimateRequest:
    """One estimation request — the unit the whole library serves.

    Attributes
    ----------
    population:
        A true cardinality (random tags are synthesized from this
        request's rng), a :class:`~repro.tags.population.TagPopulation`,
        or an iterable of tag IDs.
    protocol:
        Registry name (see
        :func:`repro.protocols.registry.available_protocols`).
    config:
        Keywords forwarded to the protocol constructor via
        :func:`~repro.protocols.registry.make_protocol`.
    seed:
        Seed for all randomness (population synthesis and the
        estimation run).  Mutually exclusive with ``rng``.
    rng:
        Bring-your-own generator alternative to ``seed``.  Requests
        carrying a live generator cannot be replayed and report
        ``"rng"`` provenance.
    population_seed:
        Optional separate seed for population synthesis (integer
        populations only).  When set, the population is synthesized
        from its own ``default_rng(population_seed)`` stream — stable
        across requests, so the service can cache and share it — while
        round randomness still comes from ``seed``/``rng``.  Equivalent
        to passing the pre-built population explicitly.
    rounds:
        Estimation rounds.  Defaults to the protocol's own plan for
        ``accuracy`` (or the paper's 5 %/1 % contract when neither is
        given).  Explicit rounds win over ``accuracy``.
    accuracy:
        ``(epsilon, delta)`` contract used to plan ``rounds`` when they
        are not pinned explicitly.
    tenant:
        Multi-tenant identity; the service enforces per-tenant quotas
        and labels SLO metrics with it.
    deadline:
        Relative deadline in seconds.  The service answers ``expired``
        without touching a kernel when the request waits longer than
        this in the queue.  ``None`` means no deadline.
    request_id:
        Caller-chosen correlation id, echoed in the response.
    trace_context:
        Optional upstream :class:`~repro.obs.tracectx.TraceContext`.
        When set, the service joins the caller's distributed trace
        (its ``serve.request`` root span becomes a child of this
        context) instead of starting a fresh one; the response echoes
        the resulting ``trace_id``.
    """

    population: int | TagPopulation | Iterable[int]
    protocol: str = "pet"
    config: Mapping[str, object] = field(default_factory=dict)
    seed: int | None = None
    rng: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )
    population_seed: int | None = None
    rounds: int | None = None
    accuracy: AccuracyRequirement | None = None
    tenant: str = "default"
    deadline: float | None = None
    request_id: str | None = None
    trace_context: TraceContext | None = field(
        default=None, repr=False, compare=False
    )

    def seed_provenance(self) -> str:
        """Human/machine-readable description of the randomness source."""
        parts = []
        if self.rng is not None:
            parts.append("rng")
        elif self.seed is not None:
            parts.append(f"seed={self.seed}")
        else:
            parts.append("unseeded")
        if self.population_seed is not None:
            parts.append(f"population_seed={self.population_seed}")
        elif isinstance(self.population, TagPopulation):
            parts.append("population=explicit")
        elif not isinstance(self.population, (int, np.integer)):
            parts.append("population=ids")
        return "&".join(parts)


def _is_seed(value: object) -> bool:
    """Whether ``value`` can seed a generator: an integer ``>= 0``."""
    return (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and value >= 0
    )


def request_cache_key(request: EstimateRequest) -> tuple | None:
    """Canonical idempotency key of a request, or ``None`` if uncacheable.

    Two requests with the same key are guaranteed to produce
    byte-identical ``ok`` results: the key captures every input the
    estimate depends on — protocol + canonical config, the population
    fingerprint (synthesized size + ``population_seed``), the request
    seed, and the round plan inputs (explicit ``rounds`` or the
    accuracy contract).  The serve tier's result cache
    (:class:`repro.serve.cache.ResultCache`) answers repeat keys
    without touching a kernel.

    Uncacheable (returns ``None``): requests carrying a live ``rng``
    (not replayable), unseeded requests, and explicit
    populations/ID-iterables (their identity is the object, not a
    cheap fingerprint).
    """
    if request.seed is None or request.rng is not None:
        return None
    seeds = (request.seed, request.population_seed)
    if not all(seed is None or _is_seed(seed) for seed in seeds):
        return None  # invalid: resolve_request answers with the error
    if not isinstance(request.population, (int, np.integer)):
        return None
    accuracy = request.accuracy
    return (
        request.protocol,
        tuple(
            sorted(
                (key, repr(value))
                for key, value in request.config.items()
            )
        ),
        (
            int(request.population),
            None
            if request.population_seed is None
            else int(request.population_seed),
        ),
        int(request.seed),
        None if request.rounds is None else int(request.rounds),
        None
        if accuracy is None
        else (float(accuracy.epsilon), float(accuracy.delta)),
    )


@dataclass
class ResolvedRequest:
    """A validated execution plan for one :class:`EstimateRequest`.

    Produced by :func:`resolve_request`; consumed by
    :func:`execute_request` (scalar path) and by the micro-batching
    executor in :mod:`repro.serve.batching` (fused path).  Both paths
    are bit-identical for the same plan.
    """

    request: EstimateRequest
    protocol: CardinalityEstimatorProtocol
    population: TagPopulation
    rounds: int
    rng: np.random.Generator
    seed_provenance: str
    #: Idempotency key from :func:`request_cache_key`; ``None`` when
    #: the request is not replayable (live rng, explicit population).
    cache_key: tuple | None = None


def resolve_request(
    request: EstimateRequest,
    registry: MetricsRegistry | None = None,
    population_cache: MutableMapping[object, TagPopulation]
    | None = None,
) -> ResolvedRequest:
    """The single validation path every estimate goes through.

    Resolves, in order: seed-vs-rng provenance (passing both, or a
    negative or non-integer ``seed``/``population_seed``, raises a
    :class:`~repro.errors.ConfigurationError`), the protocol instance
    (unknown names/keywords fail here), the population (synthesized,
    cached-by-``population_seed``, or passed through), and the round
    plan (explicit ``rounds`` beat the protocol's pinned config
    rounds, which beat planning from ``accuracy``, which beats the
    paper's default contract — the facade's historical precedence).

    ``population_cache`` lets the service share synthesized populations
    across requests that name the same ``(size, population_seed)``
    reader field; entries are keyed so different fields never collide.
    """
    if request.seed is not None and request.rng is not None:
        raise ConfigurationError(
            "pass seed= or rng=, not both; an explicit generator "
            "already carries its own seed state"
        )
    for name in ("seed", "population_seed"):
        value = getattr(request, name)
        if value is not None and not _is_seed(value):
            raise ConfigurationError(
                f"{name} must be a non-negative integer, got {value!r}"
            )
    rng = (
        request.rng
        if request.rng is not None
        else np.random.default_rng(request.seed)
    )
    estimator = make_protocol(request.protocol, **dict(request.config))
    if registry is not None:
        estimator.instrument(registry)
    if request.population_seed is not None:
        if not isinstance(request.population, (int, np.integer)):
            raise ConfigurationError(
                "population_seed= applies to integer population specs "
                "only; explicit populations carry their own identity"
            )
        key = (int(request.population), int(request.population_seed))
        population = (
            population_cache.get(key)
            if population_cache is not None
            else None
        )
        if population is None:
            population = _resolve_population(
                request.population,
                np.random.default_rng(request.population_seed),
            )
            if population_cache is not None:
                population_cache[key] = population
    else:
        population = _resolve_population(request.population, rng)
    rounds = request.rounds
    if rounds is None:
        configured = getattr(
            getattr(estimator, "config", None), "rounds", None
        )
        if configured is not None:
            rounds = int(configured)
        else:
            rounds = estimator.plan_rounds(
                request.accuracy
                if request.accuracy is not None
                else AccuracyRequirement()
            )
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    return ResolvedRequest(
        request=request,
        protocol=estimator,
        population=population,
        rounds=rounds,
        rng=rng,
        seed_provenance=request.seed_provenance(),
        cache_key=request_cache_key(request),
    )


def execute_request(resolved: ResolvedRequest) -> ProtocolResult:
    """Run a resolved plan through the scalar protocol path."""
    result = resolved.protocol.estimate(
        resolved.population, resolved.rounds, resolved.rng
    )
    return dataclasses.replace(
        result, seed_provenance=resolved.seed_provenance
    )


#: Responses the service can answer with.  ``ok`` and ``degraded``
#: carry a result; the rest explain why there is none.
RESPONSE_STATUSES = ("ok", "degraded", "rejected", "expired", "error")


@dataclass(frozen=True)
class EstimateResponse:
    """The service-shaped answer to one :class:`EstimateRequest`.

    Attributes
    ----------
    status:
        One of :data:`RESPONSE_STATUSES`.  ``ok`` is a normal estimate
        (bit-identical to :func:`repro.estimate` under the same seed);
        ``degraded`` carries an estimate from the sampled fallback tier
        under overload; ``rejected`` is explicit backpressure (see
        ``retry_after``); ``expired`` means the deadline passed before
        a kernel ran; ``error`` wraps an execution failure.
    result:
        The full :class:`~repro.protocols.base.ProtocolResult` for
        ``ok``/``degraded`` answers, ``None`` otherwise.
    tenant / request_id:
        Echoed from the request.
    seed_provenance:
        The request's randomness description (see
        :meth:`EstimateRequest.seed_provenance`).
    latency_seconds:
        Submit-to-answer wall time as measured by the service; ``NaN``
        for synchronous facade calls.
    retry_after:
        For ``rejected`` answers, the seconds the caller should back
        off before retrying.
    detail:
        Human-readable explanation (quota name, error text, ...).
    trace_id:
        The distributed-trace id this request was served under (query
        the scrape endpoint's ``/traces/<id>`` for the full span
        timeline); ``None`` when the service ran untraced.
    """

    status: str
    result: ProtocolResult | None = None
    tenant: str = "default"
    request_id: str | None = None
    seed_provenance: str = "unseeded"
    latency_seconds: float = float("nan")
    retry_after: float | None = None
    detail: str = ""
    trace_id: str | None = None

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise ConfigurationError(
                f"status must be one of {RESPONSE_STATUSES}, "
                f"got {self.status!r}"
            )

    @property
    def ok(self) -> bool:
        """Whether the response carries an estimate (ok or degraded)."""
        return self.status in ("ok", "degraded")

    @property
    def estimate(self) -> float:
        """The estimate, or ``NaN`` for answers without one."""
        return (
            float(self.result.n_hat)
            if self.result is not None
            else float("nan")
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready view, embedding the result's common schema."""
        return {
            "status": self.status,
            "tenant": self.tenant,
            "request_id": self.request_id,
            "seed_provenance": self.seed_provenance,
            "latency_seconds": float(self.latency_seconds),
            "retry_after": self.retry_after,
            "detail": self.detail,
            "trace_id": self.trace_id,
            "result": (
                self.result.to_dict()
                if self.result is not None
                else None
            ),
        }


def respond(
    request: EstimateRequest,
    status: str,
    result: ProtocolResult | None = None,
    submitted_at: float | None = None,
    retry_after: float | None = None,
    detail: str = "",
    trace_id: str | None = None,
) -> EstimateResponse:
    """Build an :class:`EstimateResponse` echoing ``request`` identity."""
    latency = (
        time.perf_counter() - submitted_at
        if submitted_at is not None
        else float("nan")
    )
    return EstimateResponse(
        status=status,
        result=result,
        tenant=request.tenant,
        request_id=request.request_id,
        seed_provenance=request.seed_provenance(),
        latency_seconds=latency,
        retry_after=retry_after,
        detail=detail,
        trace_id=trace_id,
    )


def estimate(
    tags_or_n: int | TagPopulation | Iterable[int],
    protocol: str = "pet",
    *,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    rounds: int | None = None,
    accuracy: AccuracyRequirement | None = None,
    registry: MetricsRegistry | None = None,
    **config: object,
) -> ProtocolResult:
    """Estimate a tag population's cardinality in one call.

    A thin synchronous wrapper over the unified request path: builds an
    :class:`EstimateRequest`, validates it through
    :func:`resolve_request`, and executes the plan — exactly the
    pipeline :mod:`repro.serve` coalesces concurrent requests through.

    Parameters
    ----------
    tags_or_n:
        A true cardinality (random tags are synthesized), a
        :class:`~repro.tags.population.TagPopulation`, or an iterable
        of tag IDs.
    protocol:
        Registry name (see
        :func:`repro.protocols.registry.available_protocols`).
    seed:
        Seed for all randomness (population synthesis and the
        estimation run).  Two calls with the same arguments and seed
        return identical results.  Mutually exclusive with ``rng`` —
        passing both raises a
        :class:`~repro.errors.ConfigurationError`.
    rng:
        Alternative to ``seed``: bring your own generator.
    rounds:
        Estimation rounds.  Defaults to the protocol's own plan for
        ``accuracy`` (or the paper's 5 %/1 % contract when neither is
        given).
    accuracy:
        ``(epsilon, delta)`` contract used to plan ``rounds`` when they
        are not pinned explicitly.
    registry:
        Metrics registry the run is recorded against (see
        :mod:`repro.obs`); defaults to the process-wide active one.
    **config:
        Forwarded to the protocol constructor via
        :func:`~repro.protocols.registry.make_protocol` —
        ``frame_size=`` for FNEB, ``tree_height=`` for PET, ...

    Returns
    -------
    ProtocolResult
        The estimate with its round/slot accounting and seed
        provenance.
    """
    request = EstimateRequest(
        population=tags_or_n,
        protocol=protocol,
        config=config,
        seed=seed,
        rng=rng,
        rounds=rounds,
        accuracy=accuracy,
    )
    return execute_request(resolve_request(request, registry=registry))
