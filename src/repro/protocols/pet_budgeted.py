"""Budgeted PET: fixed slots per round + censored-MLE decoding.

An extension enabled by the MLE machinery: instead of letting each
round run its search to completion, give every round a *hard slot
budget* ``k`` — the reader linearly scans prefixes ``1..k`` and stops,
observing ``min(d, k)``.  Rounds are then perfectly periodic (useful
for schedulers interleaving estimation with other inventory traffic),
and the censored maximum-likelihood estimator of
:mod:`repro.analysis.mle` decodes the truncated observations without
bias.

Choosing ``k`` near ``E[d] = log2(phi n_max)`` keeps the censored
fraction moderate; the information loss (and hence the extra rounds
needed) is quantified by the accompanying tests.
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis.mle import mle_estimate_censored
from ..config import AccuracyRequirement, PetConfig
from ..core.accuracy import PHI, rounds_required
from ..errors import ConfigurationError
from ..sim.batched import pet_depths, pet_words
from ..sim.sampled import SampledSimulator
from ..tags.population import TagPopulation
from .base import CardinalityEstimatorProtocol, ProtocolResult


class BudgetedPetProtocol(CardinalityEstimatorProtocol):
    """PET with exactly ``slot_budget`` slots per round.

    Parameters
    ----------
    slot_budget:
        Slots per round (linear prefix scan truncated at this length).
    config:
        Underlying PET parameters (height, tag variant).
    censor_inflation:
        Multiplier on the Eq. 20 round count compensating for the
        information lost to censoring (the per-round Fisher information
        drops as the censored fraction grows; 1.5 covers budgets down
        to ``E[d] - 2``, per the calibration tests).
    """

    name = "PET-budgeted"

    def __init__(
        self,
        slot_budget: int,
        config: PetConfig | None = None,
        censor_inflation: float = 1.5,
    ):
        self.config = config or PetConfig()
        if not 1 <= slot_budget <= self.config.tree_height:
            raise ConfigurationError(
                f"slot_budget must lie in [1, "
                f"{self.config.tree_height}], got {slot_budget}"
            )
        if censor_inflation < 1.0:
            raise ConfigurationError(
                "censor_inflation must be >= 1.0"
            )
        self.slot_budget = slot_budget
        self.censor_inflation = censor_inflation

    @classmethod
    def for_max_population(
        cls, n_max: int, config: PetConfig | None = None, margin: int = 2
    ) -> "BudgetedPetProtocol":
        """Pick the budget from a population upper bound.

        ``k = ceil(log2(phi n_max)) + margin`` keeps the censored
        fraction small at every population up to ``n_max``.
        """
        if n_max < 1:
            raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
        config = config or PetConfig()
        budget = min(
            config.tree_height,
            math.ceil(math.log2(PHI * n_max)) + margin,
        )
        return cls(slot_budget=budget, config=config)

    def plan_rounds(self, requirement: AccuracyRequirement) -> int:
        """Eq. 20 inflated for the censoring information loss."""
        base = rounds_required(requirement.epsilon, requirement.delta)
        return math.ceil(base * self.censor_inflation)

    def slots_per_round(self) -> int:
        """Exactly the budget — that's the point."""
        return self.slot_budget

    def _observe_rounds(
        self,
        population: TagPopulation,
        rounds: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Censored depth observations, ``min(d, budget)`` per round."""
        if self.config.passive_tags:
            words = pet_words(rng, rounds, passive=True)
            depths = pet_depths(population, words, self.config)
        else:
            simulator = SampledSimulator(
                population.size, config=self.config, rng=rng
            )
            depths = simulator.sample_depths(rounds)
        return np.minimum(depths, self.slot_budget)

    def estimate(
        self,
        population: TagPopulation,
        rounds: int,
        rng: np.random.Generator,
    ) -> ProtocolResult:
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        observations = self._observe_rounds(population, rounds, rng)
        n_hat = mle_estimate_censored(
            observations,
            self.config.tree_height,
            censor_at=self.slot_budget,
        )
        return self._observe_result(
            ProtocolResult(
                protocol=self.name,
                n_hat=n_hat,
                rounds=rounds,
                total_slots=rounds * self.slot_budget,
                per_round_statistics=observations.astype(np.float64),
            )
        )

    def censored_fraction(self, n: int) -> float:
        """Expected fraction of rounds hitting the budget at truth n.

        ``P(d >= k) = 1 - (1 - 2^-k)^n`` — used to size budgets.
        """
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        return 1.0 - (1.0 - 2.0**-self.slot_budget) ** n
