"""How bank size, register depth and pump feedback move the error rates.

Three quick experiments on the Monte Carlo engine:
  1. growing the bank at fixed pump starves the train less and less,
  2. a deeper register (more storage behind the train) mops up lacks,
  3. storage-aware pump feedback trades extra multi-pair events for
     fewer lacks without touching the hardware.
"""

from spdcmux import FeedbackMode, SimConfig, run_simulation

CYCLES = 30_000


def show(tag: str, config: SimConfig) -> None:
    metrics = run_simulation(config)
    print(f"  {tag:<28} lack {metrics.lack_rate:.5f}   multi {metrics.multi_rate:.5f}"
          f"   mean storage {metrics.mean_storage_level:.2f}")


print("1. bank size at mean 0.05, train of 4, 3 steps")
for sources in (25, 50, 100, 200):
    show(
        f"{sources} sources",
        SimConfig(source_count=sources, multiple=4, mean_pairs=0.05,
                  cycles=CYCLES, seed=31),
    )

print()
print("2. register depth at 60 sources, mean 0.08, train of 4")
# pump chosen so heralds slightly outrun the train: storage has work to do
for steps in (2, 3, 4):
    capacity = 2**steps - 4
    show(
        f"{steps} steps (storage {capacity})",
        SimConfig(source_count=60, multiple=4, mean_pairs=0.08,
                  step_count=steps, cycles=CYCLES, seed=32),
    )

print()
print("3. feedback at 60 sources, mean 0.04, train of 4")
for mode in FeedbackMode:
    config = SimConfig(source_count=60, multiple=4, mean_pairs=0.04,
                       cycles=CYCLES, seed=33, feedback=mode)
    show(f"{mode.value} (strength {config.feedback_strength})", config)

print()
print("boost pumps harder whenever storage has room; turbo_boost backs")
print("off as storage fills, so it adds fewer multi-pair events for a")
print("similar cut in lacks")
