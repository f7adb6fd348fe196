"""Which delays each source row can reach through the delay register.

An 11-row bank with a 3-step register is small enough to print in full.
Interior rows can route to any of the 8 delay values; rows near the top
and bottom lose options because the crossing geometry caps how many
stages they can take (top) or forces stages on them (bottom).
"""

import numpy as np

from spdcmux import RegisterTopology, step_count_bounds

topology = RegisterTopology(source_count=11, step_count=3)
table = topology.access_table
stages = tuple(2**j for j in range(topology.step_count))

print(f"bank: {topology.source_count} rows, stages {stages}")
print(f"delay range: 0 .. {topology.max_delay} cycles")
print()

header = "row   window   " + " ".join(f"d{d}" for d in range(topology.delay_count))
print(header)
for source in range(1, topology.source_count + 1):
    low, high = step_count_bounds(topology, source)
    cells = "  ".join("x" if reachable else "." for reachable in table[source - 1])
    print(f" {source:>2}   ({low},{high})    {cells}")

print()
print("row 2 in detail: every delay is a choice of stages to take")
for delay in np.flatnonzero(table[1]):
    # stage 2**j is taken exactly when bit j of the delay is set
    taken = [str(s) for s in stages if delay & s]
    print(f"  delay {delay}: {'+'.join(taken) if taken else 'bypass all'}")

print()
print("note the mirror symmetry: row i reaching delay d is the same")
print("statement as row 12-i reaching delay 7-d, the bank upside down")
