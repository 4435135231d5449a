"""PET as a zoo protocol: the paper's contribution behind the common API.

Puts PET behind the
:class:`~repro.protocols.base.CardinalityEstimatorProtocol` interface so
benchmarks can compare it against the baselines uniformly.  The
vectorized tier runs the one PET round path of :mod:`repro.sim.batched`
(:func:`~repro.sim.batched.pet_words`, then
:func:`~repro.sim.batched.pet_depths`, then
:meth:`PetProtocol.result_from_depths`) that the experiment engine and
the serve tier use too.

Variants (all selectable through :class:`repro.config.PetConfig`):

* ``binary_search=True`` (default) — Algorithm 3, ``ceil(log2 H)``
  slots/round: the O(log log n) protocol.
* ``binary_search=False`` — Algorithm 1, linear prefix scan: the
  O(log n) basic protocol.
* ``passive_tags=True`` — Sec. 4.5 preloaded-code operation.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import AccuracyRequirement, PetConfig
from ..core.accuracy import PHI, estimate_from_depths, rounds_required
from ..core.search import slots_lookup_table, strategy_for
from ..sim.batched import pet_depths, pet_words
from ..sim.sampled import SampledSimulator
from ..tags.population import TagPopulation
from .base import CardinalityEstimatorProtocol, ProtocolResult


class PetProtocol(CardinalityEstimatorProtocol):
    """The Probabilistic Estimating Tree protocol.

    Parameters
    ----------
    config:
        PET parameters (tree height, search strategy, tag variant).
    tier:
        Simulation tier for :meth:`estimate`: ``"vectorized"`` (default,
        exact w.r.t. actual tag codes) or ``"sampled"`` (fast, active
        variant only).
    """

    name = "PET"
    round_statistic_kind = "gray_depth"

    def __init__(
        self,
        config: PetConfig | None = None,
        tier: str = "vectorized",
    ):
        self.config = config or PetConfig()
        if tier not in ("vectorized", "sampled"):
            raise ValueError(
                f"tier must be 'vectorized' or 'sampled', got {tier!r}"
            )
        self.tier = tier

    def plan_rounds(self, requirement: AccuracyRequirement) -> int:
        """Eq. 20: constant in ``n``."""
        return rounds_required(requirement.epsilon, requirement.delta)

    def slots_per_round(self) -> int:
        """5 for binary search at H=32; H worst-case for linear scan."""
        if self.config.binary_search:
            return max(1, (self.config.tree_height - 1).bit_length())
        return self.config.tree_height

    def expected_slots_per_round(self, n: int) -> float:
        """Expected slots/round: constant for binary search,
        ``~ log2(phi n) + 1`` for the linear scan (Algorithm 1)."""
        if self.config.binary_search:
            return float(self.slots_per_round())
        return min(
            float(self.config.tree_height), math.log2(PHI * max(n, 1)) + 1.0
        )

    def estimate(
        self,
        population: TagPopulation,
        rounds: int,
        rng: np.random.Generator,
    ) -> ProtocolResult:
        config = self.config.with_rounds(rounds)
        if self.tier == "sampled" and not config.passive_tags:
            simulator = SampledSimulator(
                population.size, config=config, rng=rng
            )
            result = simulator.estimate()
            return self._observe_result(
                ProtocolResult(
                    protocol=self.name,
                    n_hat=result.n_hat,
                    rounds=result.num_rounds,
                    total_slots=result.total_slots,
                    per_round_statistics=result.depths,
                )
            )
        words = pet_words(rng, rounds, config.passive_tags)
        return self.result_from_depths(
            pet_depths(population, words, config)
        )

    def result_from_depths(
        self, depths: np.ndarray, seed_provenance: str | None = None
    ) -> ProtocolResult:
        """The observed result of one run's gray depths.

        ``n_hat = phi^-1 * 2^mean(d)``; slots come from the depth ->
        slots table of the configured search strategy.  Shared by
        :meth:`estimate` and the serve tier's fused PET groups, which
        split one depth vector across many requests.
        """
        config = self.config
        slots_table = slots_lookup_table(
            strategy_for(config.binary_search), config.tree_height
        )
        return self._observe_result(
            ProtocolResult(
                protocol=self.name,
                n_hat=estimate_from_depths(depths),
                rounds=int(depths.size),
                total_slots=int(slots_table[depths].sum()),
                per_round_statistics=depths.astype(np.float64),
                seed_provenance=seed_provenance,
            )
        )
