"""A few clock cycles, step by step.

Shows the routing decisions the planner makes each cycle: storage drains
into the leading slots, fresh heralds fill the rest in row order, the
surplus parks behind the train, and anything that would break the
monotone switching pattern is discarded.  The pump here is deliberately
hot so that interesting cycles come up quickly.
"""

import numpy as np

from spdcmux import SimConfig, StorageState, run_cycle

config = SimConfig(
    source_count=11,
    multiple=4,
    mean_pairs=0.25,
    step_count=3,
    seed=8,
)
rng = np.random.default_rng(config.seed)
storage = StorageState.empty(config.capacity)

print(f"bank of {config.source_count}, train of {config.multiple}, "
      f"storage capacity {config.capacity}")
print()

for cycle in range(8):
    level_in = storage.level
    plan = run_cycle(config, storage, rng)
    slots = []
    for slot in plan.slots:
        if not slot.filled:
            slots.append("lack")
        elif slot.from_storage:
            slots.append("store")
        else:
            slots.append(f"row{slot.source}")
    print(f"cycle {cycle}: heralds={plan.herald_count}  storage {level_in}"
          f" -> {plan.storage_out.level}")
    print(f"  train: [{', '.join(slots)}]")
    if plan.new_assignments:
        routed = ", ".join(f"row {s} -> delay {d}" for s, d in plan.new_assignments)
        print(f"  routed: {routed}")
    if plan.discarded:
        print(f"  discarded: {plan.discarded}")
    storage = plan.storage_out

print()
print("every routed list above is monotone: faster rows always take")
print("shorter delays, which is what a single pass through the switch")
print("fabric can realise")
