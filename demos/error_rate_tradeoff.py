"""The lack / multi-pair tradeoff and the balanced operating point.

Sweeps pump power through the exact chain solution, locates the crossing
where the two error rates match, and confirms it with a Monte Carlo run.
If matplotlib is importable the curves are also saved as a PNG.
"""

from dataclasses import replace

import numpy as np

from spdcmux import SimConfig, optimized_power, run_simulation, stationary_rates

SOURCES = 100
MULTIPLE = 4
STEPS = 3

# one bank description for both engines: the boundary-free bank the
# optimizer balances, run at each pump below
bank = SimConfig(
    source_count=SOURCES,
    multiple=MULTIPLE,
    mean_pairs=0.05,
    step_count=STEPS,
    cycles=50_000,
    seed=12,
    boundary="unconstrained",
)

means = np.linspace(0.01, 0.12, 23)
lacks = []
multis = []
for mean in means:
    rates = stationary_rates(replace(bank, mean_pairs=float(mean)))
    lacks.append(rates.lack_rate)
    multis.append(rates.multi_rate)

print("mean      lack       multi")
for mean, lack, multi in zip(means, lacks, multis):
    marker = "  <- crossing region" if abs(lack - multi) < 0.005 else ""
    print(f"{mean:.3f}   {lack:.5f}    {multi:.5f}{marker}")

optimum, balanced = optimized_power(bank)
config = replace(bank, mean_pairs=optimum)
print()
print(f"balanced pump: mean {optimum:.6f} pairs per cycle")
print(f"both error rates there: {balanced.lack_rate:.5f}")

metrics = run_simulation(config)
print()
print(f"Monte Carlo at the optimum ({config.cycles} cycles, unconstrained):")
print(f"  lack  {metrics.lack_rate:.5f}")
print(f"  multi {metrics.multi_rate:.5f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print()
    print("matplotlib not available, skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(means, lacks, label="lack rate")
    ax.plot(means, multis, label="multi-pair rate")
    ax.axvline(optimum, color="grey", linestyle=":", label=f"balance {optimum:.4f}")
    ax.set_xlabel("mean pairs per source per cycle")
    ax.set_ylabel("rate per emitted slot")
    ax.set_yscale("log")
    ax.legend()
    fig.tight_layout()
    fig.savefig("error_rate_tradeoff.png", dpi=120)
    print()
    print("saved error_rate_tradeoff.png")
