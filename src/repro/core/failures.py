"""Failure scenarios (OC4): sets of simultaneously cut fiber ducts.

A "fiber cut" destroys a whole duct — every fiber in it (§3.1). The planner
must keep OC1-OC3 holding under any combination of up to ``tolerance`` cuts.
This module provides the brute-force enumeration (used by tests and small
regions); :mod:`repro.core.topology` layers an exact pruning on top for
realistic maps.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from repro.region.fibermap import Duct

#: A failure scenario: the set of ducts cut simultaneously.
Scenario = frozenset


def all_failure_scenarios(
    ducts: Sequence[Duct], tolerance: int
) -> Iterator[Scenario]:
    """Every scenario of 0..``tolerance`` simultaneous duct cuts.

    Yields the no-failure scenario first, then single cuts, then pairs, etc.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    for k in range(tolerance + 1):
        for combo in itertools.combinations(sorted(ducts), k):
            yield Scenario(combo)


def scenario_count(n_ducts: int, tolerance: int) -> int:
    """Number of scenarios brute-force enumeration would visit."""
    total = 0
    for k in range(tolerance + 1):
        c = 1
        for i in range(k):
            c = c * (n_ducts - i) // (i + 1)
        total += c
    return total

