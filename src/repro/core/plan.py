"""Plan datatypes: what Iris planning produces (§4).

The pipeline is: Algorithm 1 yields a :class:`TopologyPlan` (which ducts are
used, at what base fiber capacity, with the shortest paths per failure
scenario). Amplifier placement (Algorithm 2) yields an
:class:`AmplifierPlan`. Cut-through placement yields
:class:`CutThroughLink` objects and per-path bypasses. Residual fibers add
the n-squared fractional-capacity provisioning. Everything lands in an
:class:`IrisPlan`, which can describe any path as an optical
:class:`~repro.optics.constraints.PathProfile` and reduce itself to a cost
:class:`~repro.cost.estimator.Inventory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro import obs
from repro.cost.estimator import Inventory
from repro.core.engine import PlanTimings
from repro.obs import SpanRecord
from repro.exceptions import PlanningError
from repro.optics.constraints import PathProfile, violations
from repro.region.fibermap import Duct, FiberMap, RegionSpec, duct_key
from repro.core.failures import Scenario

#: Canonical DC pair.
Pair = tuple[str, str]


@dataclass(frozen=True)
class EffectivePath:
    """A routed path viewed as its OSS switching points.

    ``nodes``
        The switching points, source DC first. Initially every physical node
        on the shortest path; cut-throughs remove interior entries.
    ``hop_lengths_km``
        Fiber length of each effective hop.
    ``hop_chains``
        The underlying physical node chain of each hop (endpoints included);
        a plain duct hop has a 2-node chain, a cut-through hop a longer one.
    ``amp_node``
        The switching point hosting the in-line amplifier, or ``None``.
    """

    nodes: tuple[str, ...]
    hop_lengths_km: tuple[float, ...]
    hop_chains: tuple[tuple[str, ...], ...]
    amp_node: str | None = None

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise PlanningError("an effective path needs at least two nodes")
        if len(self.hop_lengths_km) != len(self.nodes) - 1:
            raise PlanningError("hop lengths must match node count")
        if len(self.hop_chains) != len(self.hop_lengths_km):
            raise PlanningError("hop chains must match hop count")
        for (u, v), chain in zip(
            zip(self.nodes, self.nodes[1:]), self.hop_chains
        ):
            if chain[0] != u or chain[-1] != v:
                raise PlanningError(f"hop chain {chain} does not join {u}-{v}")
        if self.amp_node is not None and self.amp_node not in self.nodes[1:-1]:
            raise PlanningError("amplifier must sit at an interior switching point")

    @classmethod
    def from_path(cls, fmap: FiberMap, path: Sequence[str]) -> "EffectivePath":
        """The un-optimized effective path: one hop per physical duct."""
        nodes = tuple(path)
        lengths = tuple(
            fmap.duct_length(u, v) for u, v in zip(nodes, nodes[1:])
        )
        chains = tuple((u, v) for u, v in zip(nodes, nodes[1:]))
        return cls(nodes=nodes, hop_lengths_km=lengths, hop_chains=chains)

    @property
    def total_km(self) -> float:
        """End-to-end fiber distance."""
        return sum(self.hop_lengths_km)

    @property
    def endpoints(self) -> Pair:
        """Source and destination DCs."""
        return self.nodes[0], self.nodes[-1]

    def amp_index(self) -> int | None:
        """Hop index after which the in-line amplifier sits."""
        if self.amp_node is None:
            return None
        return self.nodes.index(self.amp_node) - 1

    def profile(self) -> PathProfile:
        """The optical profile used by the TC1-TC4 checkers."""
        return PathProfile(
            span_lengths_km=self.hop_lengths_km,
            inline_amp_after_span=self.amp_index(),
        )

    def with_amp(self, node: str | None) -> "EffectivePath":
        """This path with the in-line amplifier placed at ``node``."""
        return EffectivePath(self.nodes, self.hop_lengths_km, self.hop_chains, node)

    def bypass(self, start: int, end: int) -> "EffectivePath":
        """Merge hops so nodes ``start``..``end`` become one unswitched hop.

        ``start`` and ``end`` index :attr:`nodes`; interior nodes (which must
        not include the amplifier site) are crossed without switching.
        """
        if not (0 <= start < end <= len(self.nodes) - 1) or end - start < 2:
            raise PlanningError(f"invalid bypass range {start}..{end}")
        interior = self.nodes[start + 1 : end]
        if self.amp_node is not None and self.amp_node in interior:
            raise PlanningError("cannot bypass the amplification point")
        merged_length = sum(self.hop_lengths_km[start:end])
        merged_chain: list[str] = [self.nodes[start]]
        for chain in self.hop_chains[start:end]:
            merged_chain.extend(chain[1:])
        nodes = self.nodes[: start + 1] + self.nodes[end:]
        lengths = (
            self.hop_lengths_km[:start]
            + (merged_length,)
            + self.hop_lengths_km[end:]
        )
        chains = (
            self.hop_chains[:start]
            + (tuple(merged_chain),)
            + self.hop_chains[end:]
        )
        return EffectivePath(nodes, lengths, chains, self.amp_node)

    def find_subchain(self, via: tuple[str, ...]) -> tuple[int, int] | None:
        """Locate ``via`` as a contiguous run of switching points.

        Returns (start, end) node indices suitable for :meth:`bypass`, or
        ``None`` if ``via`` does not appear (in either direction).
        """
        for candidate in (via, tuple(reversed(via))):
            n = len(candidate)
            for start in range(len(self.nodes) - n + 1):
                if self.nodes[start : start + n] == candidate:
                    return start, start + n - 1
        return None


@dataclass(frozen=True)
class TopologyPlan:
    """Algorithm 1's output: which ducts at what base capacity.

    ``edge_capacity``
        Leased base fiber-pairs per duct: the max over failure scenarios of
        the hose max-flow across that duct.
    ``scenario_paths``
        Shortest paths per enumerated (pruned) scenario: scenario ->
        pair -> node tuple. The no-failure scenario is always present.
    ``scenario_count_total``
        How many raw scenarios the pruned enumeration stands for.
    ``timings``
        Where planning wall time went (:class:`~repro.core.engine.PlanTimings`).
        Instrumentation only: excluded from equality so serial and parallel
        plans of the same region compare equal.
    ``trace``
        The ``plan.topology`` span tree this plan was produced under
        (:class:`~repro.obs.SpanRecord`): coarse phase spans by default,
        full per-chunk detail when planned inside :func:`repro.obs.tracing`.
        Instrumentation only, like ``timings``: excluded from equality and
        ``repr`` so traced and untraced plans compare equal and test diffs
        stay readable.
    """

    edge_capacity: Mapping[Duct, int]
    scenario_paths: Mapping[Scenario, Mapping[Pair, tuple[str, ...]]]
    scenario_count_total: int
    timings: PlanTimings | None = field(default=None, compare=False, repr=False)
    trace: SpanRecord | None = field(default=None, compare=False, repr=False)

    @property
    def scenarios(self) -> list[Scenario]:
        """Enumerated scenarios, no-failure first, then by size and name."""
        return sorted(self.scenario_paths, key=lambda s: (len(s), sorted(s)))

    @property
    def base_paths(self) -> Mapping[Pair, tuple[str, ...]]:
        """Shortest paths with no failures."""
        return self.scenario_paths[Scenario()]

    @property
    def used_ducts(self) -> list[Duct]:
        """Ducts with non-zero leased capacity."""
        return sorted(d for d, c in self.edge_capacity.items() if c > 0)

    def used_nodes(self) -> set[str]:
        """Nodes appearing on any scenario's shortest paths.

        Huts absent from this set are unused (§4.1): the plan needs no
        equipment there.
        """
        out: set[str] = set()
        for paths in self.scenario_paths.values():
            for path in paths.values():
                out.update(path)
        return out

    def total_fiber_pairs(self) -> int:
        """Sum of leased base fiber-pairs over all ducts."""
        return sum(self.edge_capacity.values())

    def fiber_pair_spans(self) -> int:
        """Base (fiber-pair, span) leases: one per pair per duct."""
        return self.total_fiber_pairs()


@dataclass(frozen=True)
class AmplifierPlan:
    """Algorithm 2's output.

    ``site_counts``
        Amplifiers installed per node — sized for the worst failure scenario
        (each amplifier serves one fiber, in loopback through the site OSS).
    ``assignments``
        (scenario, pair) -> amplification node, for paths that need one.
    """

    site_counts: Mapping[str, int]
    assignments: Mapping[tuple[Scenario, Pair], str]

    @property
    def total_amplifiers(self) -> int:
        """Installed in-line amplifiers across all sites."""
        return sum(self.site_counts.values())

    def site_for(self, scenario: Scenario, pair: Pair) -> str | None:
        """Where (if anywhere) this path amplifies in this scenario."""
        return self.assignments.get((scenario, pair))


@dataclass(frozen=True)
class CutThroughLink:
    """An uninterrupted fiber bypassing switching points (§4.3, App. A).

    ``via``
        The underlying physical node chain, endpoints included.
    ``fiber_pairs``
        Leased pairs, sized (hose max-flow) for the paths that use it.
    ``length_km``
        Total fiber length along the chain.
    """

    via: tuple[str, ...]
    fiber_pairs: int
    length_km: float

    def __post_init__(self) -> None:
        if len(self.via) < 3:
            raise PlanningError("a cut-through must bypass at least one node")
        if self.fiber_pairs <= 0:
            raise PlanningError("a cut-through must carry at least one pair")

    @property
    def endpoints(self) -> tuple[str, str]:
        """The switching points the link joins."""
        return self.via[0], self.via[-1]

    @property
    def spans(self) -> int:
        """Leased spans per fiber-pair: one per underlying duct crossed."""
        return len(self.via) - 1

    @property
    def fiber_pair_spans(self) -> int:
        """Total (fiber-pair, span) leases this link adds."""
        return self.fiber_pairs * self.spans


@dataclass(frozen=True)
class IrisPlan:
    """A complete Iris network plan for a region."""

    region: RegionSpec
    topology: TopologyPlan
    amplifiers: AmplifierPlan
    cut_throughs: tuple[CutThroughLink, ...]
    residual: Mapping[Duct, int]
    effective_paths: Mapping[tuple[Scenario, Pair], EffectivePath]

    # -- provisioning summaries ------------------------------------------------

    def residual_fiber_pairs(self) -> int:
        """Total residual (fractional-capacity) fiber-pair spans (§4.3)."""
        return sum(self.residual.values())

    def total_fiber_pair_spans(self) -> int:
        """All (fiber-pair, span) leases: base + residual + cut-throughs."""
        return (
            self.topology.fiber_pair_spans()
            + self.residual_fiber_pairs()
            + sum(link.fiber_pair_spans for link in self.cut_throughs)
        )

    def duct_fiber_pairs(self) -> dict[Duct, int]:
        """Leased fiber-pairs per duct, all provisioning classes combined."""
        out: dict[Duct, int] = dict(self.topology.edge_capacity)
        for duct, count in self.residual.items():
            out[duct] = out.get(duct, 0) + count
        for link in self.cut_throughs:
            for u, v in zip(link.via, link.via[1:]):
                key = duct_key(u, v)
                out[key] = out.get(key, 0) + link.fiber_pairs
        return {d: c for d, c in out.items() if c > 0}

    # -- failure handling -----------------------------------------------------

    def scenario_for_failures(
        self, failed_ducts: Iterable[tuple[str, str]]
    ) -> Scenario:
        """The enumerated scenario whose paths survive ``failed_ducts``.

        The pruned enumeration guarantees an equivalent scenario exists for
        any failure set within tolerance: starting from the no-failure
        scenario, repeatedly add whichever failed duct the current
        scenario's paths still use; once none is used, those paths are
        valid under the full failure set. Raises :class:`PlanningError`
        when the failure set exceeds the planned tolerance.
        """
        failed = {duct_key(u, v) for u, v in failed_ducts}
        tolerance = self.region.constraints.failure_tolerance
        scenario = Scenario()
        guard = 0
        while True:
            guard += 1
            if guard > len(failed) + 2:
                raise PlanningError("failure-scenario resolution diverged")
            paths = self.topology.scenario_paths.get(scenario)
            if paths is None:
                raise PlanningError(
                    f"failure set {sorted(failed)} has no enumerated "
                    f"scenario (tolerance {tolerance})"
                )
            used = {
                duct_key(u, v)
                for path in paths.values()
                for u, v in zip(path, path[1:])
            }
            conflict = sorted(used & (failed - scenario))
            if not conflict:
                return scenario
            if len(scenario) >= tolerance:
                raise PlanningError(
                    f"failure set {sorted(failed)} exceeds the planned "
                    f"tolerance of {tolerance} cuts"
                )
            scenario = scenario | {conflict[0]}

    # -- validation ---------------------------------------------------------------

    def validate(self) -> list[str]:
        """Constraint violations across every scenario path (empty = valid).

        Each distinct effective path is checked once; its violations are
        then reported for every (scenario, pair) that routes over it,
        ordered by scenario size, scenario and pair.
        """
        sla = self.region.constraints.sla_fiber_km
        checked: dict[EffectivePath, list[str]] = {}
        failing: list[tuple[tuple[Scenario, Pair], list[str]]] = []
        for key, path in self.effective_paths.items():
            found = checked.get(path)
            if found is None:
                found = checked[path] = violations(
                    path.profile(), sla_fiber_km=sla
                )
            if found:
                failing.append((key, found))
        obs.incr("validate.paths_checked", len(checked))
        problems: list[str] = []
        for (scenario, pair), found in sorted(
            failing, key=lambda kv: (len(kv[0][0]), sorted(kv[0][0]), kv[0][1])
        ):
            for problem in found:
                problems.append(
                    f"{pair} under {sorted(scenario) or 'no failures'}: {problem}"
                )
        return problems

    # -- cost ---------------------------------------------------------------------

    def inventory(self) -> Inventory:
        """Reduce the plan to the §3.3 component counts.

        Transceivers exist only at the DCs (the whole point of Iris): f x
        lambda per DC, each backed by an electrical switch port. Every
        leased fiber-pair terminates 2 fibers at OSS ports on both ends
        (4 ports per pair per duct, per the §3.4 accounting); in-line
        amplifiers add 2 loopback OSS ports each. Terminal amplifiers: one
        per fiber direction at each DC-terminating fiber-pair, plus the
        in-line sites. DC-internal OSS fan-in (OSS1/OSS2) is tracked
        separately and excluded from headline totals, as in §3.4.
        """
        lam = self.region.wavelengths_per_fiber
        dcs = self.region.dcs
        n = len(dcs)
        dc_transceivers = sum(self.region.fibers(dc) * lam for dc in dcs)

        fiber_pair_spans = self.total_fiber_pair_spans()
        # Base and residual pairs terminate at OSS ports on both ends of
        # every duct (4 unidirectional ports per pair per duct, §3.4).
        # Cut-through pairs cross their interior huts unswitched, so they
        # only pay 4 ports at their endpoints regardless of span count.
        switched_pairs = self.topology.total_fiber_pairs() + self.residual_fiber_pairs()
        cut_through_pairs = sum(link.fiber_pairs for link in self.cut_throughs)
        oss_ports = (
            4 * switched_pairs
            + 4 * cut_through_pairs
            + 2 * self.amplifiers.total_amplifiers
        )

        # Fibers terminating at each DC: its capacity plus one residual per
        # other DC (§4.3's worst-case fractional provisioning).
        dc_terminating_pairs = sum(
            self.region.fibers(dc) + (n - 1) for dc in dcs
        )
        terminal_amps = 2 * dc_terminating_pairs
        amplifiers = terminal_amps + self.amplifiers.total_amplifiers

        # OSS1 (transceiver fan-in) + OSS2 (fiber-level) at the DCs: one
        # input and one output port per transceiver direction.
        dc_oss_ports = 4 * dc_transceivers

        return Inventory(
            dc_transceivers=dc_transceivers,
            dc_electrical_ports=dc_transceivers,
            innetwork_transceivers=0,
            innetwork_electrical_ports=0,
            oss_ports=oss_ports,
            oxc_ports=0,
            amplifiers=amplifiers,
            fiber_pair_spans=fiber_pair_spans,
            dc_oss_ports=dc_oss_ports,
        )
