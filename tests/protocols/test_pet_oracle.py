"""The PET round path against its scalar oracle, round by round.

``PetProtocol.estimate`` (and with it ``repro.estimate`` and the serve
tier's fused groups) runs ``pet_words -> pet_depths ->
result_from_depths``; :class:`~repro.sim.vectorized.VectorizedSimulator`
runs the same rounds one at a time through ``PetEstimator``.  Same
generator state in, same bits out.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.analysis.mle import mle_estimate_censored
from repro.config import PetConfig
from repro.core.path import EstimatingPath
from repro.errors import ConfigurationError
from repro.protocols import BudgetedPetProtocol, PetProtocol
from repro.sim.vectorized import VectorizedSimulator
from repro.sim.workload import WorkloadSpec, build_population

ROUNDS = 48


def _oracle(population, config, seed):
    simulator = VectorizedSimulator(
        population, config=config, rng=np.random.default_rng(seed)
    )
    return simulator.estimate(ROUNDS)


@pytest.mark.parametrize(
    "passive, binary_search, height, n",
    list(
        itertools.product(
            [False, True], [True, False], [16, 32, 62], [0, 1, 17, 600]
        )
    ),
)
def test_estimate_matches_per_round_oracle(
    passive, binary_search, height, n
):
    config = PetConfig(
        tree_height=height,
        binary_search=binary_search,
        passive_tags=passive,
    )
    population = build_population(WorkloadSpec(size=n, seed=n + height))
    seed = 1000 + n
    result = PetProtocol(config).estimate(
        population, ROUNDS, np.random.default_rng(seed)
    )
    expected = _oracle(population, config, seed)
    assert result.n_hat == expected.n_hat
    assert result.total_slots == expected.total_slots
    assert result.rounds == expected.num_rounds == ROUNDS
    assert result.per_round_statistics.dtype == np.float64
    assert np.array_equal(result.per_round_statistics, expected.depths)


@pytest.mark.parametrize("passive", [False, True])
def test_empty_population_at_full_height_matches_oracle(passive):
    config = PetConfig(tree_height=64, passive_tags=passive)
    population = build_population(WorkloadSpec(size=0, seed=3))
    result = PetProtocol(config).estimate(
        population, ROUNDS, np.random.default_rng(5)
    )
    expected = _oracle(population, config, 5)
    assert result.n_hat == expected.n_hat
    assert result.total_slots == expected.total_slots


def test_budgeted_passive_matches_per_round_loop():
    config = PetConfig(tree_height=32, passive_tags=True)
    population = build_population(WorkloadSpec(size=300, seed=9))
    budget = 10
    rng = np.random.default_rng(77)
    simulator = VectorizedSimulator(population, config=config, rng=rng)
    depths = np.array(
        [
            simulator.gray_depth(EstimatingPath.random(32, rng), None)
            for _ in range(ROUNDS)
        ]
    )
    expected = np.minimum(depths, budget)
    result = BudgetedPetProtocol(budget, config).estimate(
        population, ROUNDS, np.random.default_rng(77)
    )
    assert np.array_equal(result.per_round_statistics, expected)
    assert result.n_hat == mle_estimate_censored(
        expected, 32, censor_at=budget
    )


class TestTypedErrors:
    @pytest.mark.parametrize("passive", [False, True])
    def test_rounds_below_one(self, passive):
        population = build_population(WorkloadSpec(size=10, seed=1))
        protocols = [
            PetProtocol(PetConfig(passive_tags=passive)),
            BudgetedPetProtocol(8, PetConfig(passive_tags=passive)),
        ]
        for protocol in protocols:
            with pytest.raises(ConfigurationError, match="rounds"):
                protocol.estimate(
                    population, 0, np.random.default_rng(0)
                )

    @pytest.mark.parametrize("passive", [False, True])
    def test_height_above_62_on_nonempty_population(self, passive):
        population = build_population(WorkloadSpec(size=10, seed=1))
        config = PetConfig(tree_height=63, passive_tags=passive)
        with pytest.raises(ConfigurationError, match="62"):
            PetProtocol(config).estimate(
                population, 4, np.random.default_rng(0)
            )
        with pytest.raises(ConfigurationError, match="62"):
            VectorizedSimulator(population, config=config)

    def test_budgeted_passive_height_above_62(self):
        population = build_population(WorkloadSpec(size=10, seed=1))
        config = PetConfig(tree_height=63, passive_tags=True)
        with pytest.raises(ConfigurationError, match="62"):
            BudgetedPetProtocol(8, config).estimate(
                population, 4, np.random.default_rng(0)
            )
