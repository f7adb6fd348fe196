"""Delay register topology and reachability.

The switching network is a stack of source rows feeding a binary delay
register: K crossing stages with fixed delays of 1, 2, ..., 2**(K-1)
clock cycles, each of which a photon can take or bypass.  A photon that
takes a subset k of the stages is delayed by sum(k) cycles, so the full
register spans every integer delay from 0 to 2**K - 1.

Rows are ordered fastest to slowest from top to bottom.  The crossing
geometry is diagonal, which limits how many stages each row can reach:
a photon from row i (1-based, out of S rows) takes between
max(0, K - (S - i)) and min(K, i - 1) stages, the rows near the bottom
being forced through the closing stages.  Read the other way round, the
rows that reach a delay of popcount c are exactly rows c+1 .. S-K+c.
Routing uses this interval rule, and everything here follows from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .errors import check_source_count, check_step_count, check_whole

__all__ = [
    "RegisterTopology",
    "step_count_bounds",
]


@dataclass(frozen=True)
class RegisterTopology:
    """Geometry of one source bank and its delay register.

    Parameters
    ----------
    source_count : int
        Number of source rows S, at least 1.
    step_count : int
        Number of binary delay stages K, at least 1.
    """

    source_count: int
    step_count: int

    def __post_init__(self) -> None:
        # whole floats become ints, as in SimConfig
        object.__setattr__(self, "source_count", check_source_count(self.source_count))
        object.__setattr__(self, "step_count", check_step_count(self.step_count))

    @property
    def delay_count(self) -> int:
        """Number of distinct delays the register spans."""
        return 2**self.step_count

    @property
    def max_delay(self) -> int:
        return 2**self.step_count - 1

    @cached_property
    def access_table(self) -> np.ndarray:
        """Boolean matrix, entry [i - 1, d] true when row i can reach delay d.

        A delay d is reachable exactly when its binary popcount lies inside
        the row's stage-count window, since each set bit of d corresponds to
        taking one distinct stage.
        """
        delays = np.arange(self.delay_count)
        taken = ((delays[:, None] >> np.arange(self.step_count)) & 1).sum(axis=1)
        low, high = _stage_window(self, np.arange(1, self.source_count + 1))
        table = (low[:, None] <= taken) & (taken <= high[:, None])
        table.flags.writeable = False
        return table


def step_count_bounds(topology: RegisterTopology, source: int) -> tuple[int, int]:
    """Smallest and largest number of stages a row's photon can take.

    Returns the inclusive window (low, high).  Rows in the interior of a
    tall bank see the full window (0, K); rows within K of either edge
    are clipped by the crossing geometry.
    """
    low, high = _stage_window(topology, check_whole(source, "source index", 1, topology.source_count))
    return int(low), int(high)


def _stage_window(topology: RegisterTopology, rows: int | np.ndarray):
    """Inclusive stage-count window of 1-based row index (or index array) ``rows``."""
    s = topology.source_count
    k = topology.step_count
    return np.maximum(0, k - (s - rows)), np.minimum(k, rows - 1)
