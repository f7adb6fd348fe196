"""Pair emission and heralding statistics for a single source.

Compares the analytic per-cycle pair distribution against a large batch
of sampled cycles and shows how the two click probabilities that drive
everything else (any pair, more than one pair) depend on pump power.
"""

import numpy as np

from spdcmux import herald_probabilities, pair_pmf, sample_cycle_emissions

MEAN_PAIRS = 0.3
DRAWS = 200_000

rng = np.random.default_rng(1)
counts = sample_cycle_emissions(DRAWS, MEAN_PAIRS, rng)

print(f"mean pairs per cycle: {MEAN_PAIRS}")
print(f"sampled cycles:       {DRAWS}")
print()
print("pairs   analytic      sampled")
for n in range(6):
    analytic = pair_pmf(n, MEAN_PAIRS)
    sampled = np.mean(counts == n)
    print(f"  {n}     {analytic:.6f}    {sampled:.6f}")
print()
print(f"sample mean {counts.mean():.5f} vs {MEAN_PAIRS}")

print()
print("click probabilities versus pump power")
print("mean       p_herald    p_multi     p_multi/p_herald")
for mean in (0.01, 0.02, 0.049, 0.1, 0.2):
    probs = herald_probabilities(mean)
    ratio = probs.p_multi / probs.p_herald
    print(f"{mean:<9}  {probs.p_herald:.6f}    {probs.p_multi:.6f}    {ratio:.6f}")

print()
print("the conditional ratio is what a filled output slot inherits: the")
print("herald detector cannot tell one pair from several, so raising the")
print("pump buys click rate at the price of multi-pair contamination")
