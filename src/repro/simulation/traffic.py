"""DC-DC traffic matrices and their evolution (§6.3).

"Based on experience, we use heavy-tailed traffic between DCs, with a few
pairs exchanging most of the traffic; unbounded changes in traffic patterns
occur when, e.g., a low-traffic DC-DC pair becomes a high-traffic one.
Otherwise, we bound the changes to a maximum % value."
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.exceptions import SimulationError
from repro.region.fibermap import pair_key

Pair = tuple[str, str]


@dataclass(frozen=True)
class TrafficMatrix:
    """Normalized pair weights: the share of total regional traffic."""

    weights: Mapping[Pair, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise SimulationError("traffic matrix cannot be empty")
        if any(w < 0 for w in self.weights.values()):
            raise SimulationError("weights must be non-negative")
        total = sum(self.weights.values())
        if not (0.999 <= total <= 1.001):
            raise SimulationError(f"weights must sum to 1, got {total}")

    def pairs(self) -> list[Pair]:
        """All pairs carrying weight, canonically ordered."""
        return sorted(self.weights)

    def dc_load_share(self, dc: str) -> float:
        """Fraction of regional traffic entering or leaving ``dc``."""
        return sum(w for pair, w in self.weights.items() if dc in pair)

    def top_heavy_fraction(self, k: int = 3) -> float:
        """Traffic share of the k busiest pairs (heavy-tail diagnostic)."""
        ranked = sorted(self.weights.values(), reverse=True)
        return sum(ranked[:k])

    def relabel(self, mapping: Mapping[str, str]) -> "TrafficMatrix":
        """The same matrix with DCs renamed through a bijection.

        Robust-design capacity plans must be equivariant under relabeling
        (renaming DCs renames the plan, nothing more); this is the test
        harness's handle on that symmetry.
        """
        values = list(mapping.values())
        if len(set(values)) != len(values):
            raise SimulationError("relabeling must be a bijection")
        raw: dict[Pair, float] = {}
        for (a, b), w in self.weights.items():
            raw[pair_key(mapping.get(a, a), mapping.get(b, b))] = w
        if len(raw) != len(self.weights):
            raise SimulationError("relabeling collapsed distinct pairs")
        return TrafficMatrix(weights=raw)


def _normalized(raw: Mapping[Pair, float]) -> TrafficMatrix:
    total = sum(raw.values())
    if total <= 0:
        raise SimulationError("cannot normalize all-zero weights")
    return TrafficMatrix(weights={p: w / total for p, w in raw.items()})


def heavy_tailed_matrix(
    dcs: Sequence[str], rng: random.Random, skew: float = 1.4
) -> TrafficMatrix:
    """A Zipf-over-pairs matrix: a few pairs exchange most of the traffic.

    Pair ranks are shuffled so the hot pairs differ across seeds.
    """
    if len(dcs) < 2:
        raise SimulationError("need at least two DCs")
    if skew <= 0:
        raise SimulationError("skew must be positive")
    pairs = [pair_key(a, b) for a, b in itertools.combinations(sorted(dcs), 2)]
    rng.shuffle(pairs)
    raw = {pair: 1.0 / (rank + 1) ** skew for rank, pair in enumerate(pairs)}
    return _normalized(raw)


def perturb_matrix(
    tm: TrafficMatrix,
    rng: random.Random,
    max_change: float | None,
) -> TrafficMatrix:
    """One traffic change step.

    ``max_change`` bounds each pair's multiplicative change (0.5 = ±50%);
    ``None`` means *unbounded*: besides re-jittering, a cold pair swaps
    weights with a hot pair — the paper's "a low-traffic DC-DC pair becomes
    a high-traffic one".
    """
    weights = dict(tm.weights)
    if max_change is not None:
        if max_change < 0:
            raise SimulationError("max_change must be non-negative")
        raw = {
            pair: w * (1.0 + rng.uniform(-max_change, max_change))
            for pair, w in weights.items()
        }
        return _normalized(raw)

    # Unbounded: full rejitter plus a hot/cold swap.
    raw = {pair: w * rng.uniform(0.5, 2.0) for pair, w in weights.items()}
    ranked = sorted(raw, key=lambda p: raw[p])
    if len(ranked) >= 2:
        cold, hot = ranked[0], ranked[-1]
        raw[cold], raw[hot] = raw[hot], raw[cold]
    return _normalized(raw)


def sample_ensemble(
    dcs: Sequence[str],
    rng: random.Random,
    *,
    count: int = 5,
    skew: float = 1.4,
    max_change: float | None = 0.5,
) -> list[TrafficMatrix]:
    """A TM ensemble for robust (METTEOR-style) planning.

    The first matrix is a fresh heavy-tailed draw; each subsequent one is
    a perturbation step of its predecessor, so the ensemble spans the
    trajectory of plausible operating points rather than ``count``
    unrelated draws. Consumes only the explicit ``rng``.
    """
    if count < 1:
        raise SimulationError("ensemble needs at least one matrix")
    tms = [heavy_tailed_matrix(dcs, rng, skew=skew)]
    for _ in range(count - 1):
        tms.append(perturb_matrix(tms[-1], rng, max_change))
    return tms
