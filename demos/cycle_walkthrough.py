"""A few clock cycles, step by step.

Shows the routing decisions the planner makes each cycle: storage drains
into the leading slots, fresh heralds fill the rest in row order, the
surplus parks behind the train, and anything that would break the
monotone switching pattern is discarded.  The pump here is deliberately
hot so that interesting cycles come up quickly.
"""

from spdcmux import SimConfig, run_cycles

config = SimConfig(
    source_count=11,
    multiple=4,
    mean_pairs=0.25,
    step_count=3,
    cycles=8,
    seed=13,
)
level = 0

print(f"bank of {config.source_count}, train of {config.multiple}, "
      f"storage capacity {config.capacity}")
print()

for cycle, (_, plan) in enumerate(run_cycles(config)):
    # the leading slots drain storage; each routed row names its delay
    source_at = {delay: source for source, delay in plan.assignments}
    slots = []
    for delay in range(config.multiple):
        if delay < level:
            slots.append("store")
        elif delay in source_at:
            slots.append(f"row{source_at[delay]}")
        else:
            slots.append("lack")
    print(f"cycle {cycle}: heralds={plan.herald_count}  storage {level}"
          f" -> {plan.storage_level}")
    print(f"  train: [{', '.join(slots)}]")
    if plan.assignments:
        routed = ", ".join(f"row {s} -> delay {d}" for s, d in plan.assignments)
        print(f"  routed: {routed}")
    if plan.discarded:
        print(f"  discarded: {plan.discarded}")
    level = plan.storage_level

print()
print("every routed list above is monotone: faster rows always take")
print("shorter delays, which is what a single pass through the switch")
print("fabric can realise")
