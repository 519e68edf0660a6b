import numpy as np

from gridtrade.generators import random_market


class TestRandomMarket:
    def test_medium_tier_prices_distinct_and_separated(self):
        # Forty participants draw more prices than one 26-entry pool holds.
        for seed in range(20):
            market = random_market(
                np.random.default_rng(seed), max_buses=20, max_scenarios=16, max_participants=40
            )
            costs = [-m for p in market.participants if p.kind == "producer" for m in p.utility[0].slopes]
            values = [-m for p in market.participants if p.kind == "load" for m in p.utility[0].slopes]
            assert max(costs) < min(values), seed
            assert len(set(costs)) == len(costs) and len(set(values)) == len(values), seed
