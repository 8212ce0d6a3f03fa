"""Technology constraint checkers TC1-TC4 (§3.2) as used by the planner.

A planned DC-DC path is summarized as a :class:`PathProfile`: its effective
hops (fiber runs between consecutive OSS switching points), where the (at
most one) in-line amplifier sits, and the resulting OSS traversal layout.

The operative physical rule is a per-run power budget. A "run" is the fiber
between consecutive amplification points (path ends count: the source
transmits and the destination amplifies before the demux, Fig 11). Each
amplifier contributes its 20 dB of gain to the run it terminates, so each
run's total loss — fiber at 0.25 dB/km plus 1.5 dB per OSS traversal — must
fit within 20 dB. This single rule reproduces the paper's discrete limits:

* TC1: an OSS-free run reaches at most 20/0.25 = 80 km;
* TC2: the 9 dB cascaded-amplifier OSNR budget allows 3 amplifiers
  end-to-end, i.e. at most one *in-line* amplifier;
* TC4: at 120 km with one in-line amplifier, 40 dB total minus 30 dB of
  fiber leaves 10 dB, i.e. at most 6 OSS traversals end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConstraintViolation
from repro.optics.budget import LinkBudgetResult
from repro.optics.components import Transceiver
from repro.units import (
    AMPLIFIER_GAIN_DB,
    FIBER_LOSS_DB_PER_KM,
    MAX_INLINE_AMPLIFIERS,
    MAX_OSS_PER_PATH,
    OSS_INSERTION_LOSS_DB,
    SLA_MAX_FIBER_KM,
)


def max_oss_traversals() -> int:
    """TC4: at most 6 OSSes fit the 10 dB reconfiguration budget (§3.2)."""
    return MAX_OSS_PER_PATH


@dataclass(frozen=True)
class RunBudget:
    """Loss accounting for one unamplified run."""

    fiber_km: float
    oss_traversals: int
    fiber_loss_db_per_km: float = FIBER_LOSS_DB_PER_KM
    oss_loss_db: float = OSS_INSERTION_LOSS_DB

    @property
    def loss_db(self) -> float:
        """Total run loss: fiber plus OSS insertion."""
        return (
            self.fiber_km * self.fiber_loss_db_per_km
            + self.oss_traversals * self.oss_loss_db
        )

    def fits(self, gain_db: float = AMPLIFIER_GAIN_DB) -> bool:
        """Whether the terminating amplifier can compensate this run."""
        return self.loss_db <= gain_db + 1e-9


@dataclass(frozen=True)
class PathProfile:
    """The optical shape of one planned DC-DC path.

    ``span_lengths_km``
        Fiber length of each effective hop — the runs between consecutive
        OSS switching points. Hops merged by a cut-through link appear as a
        single (longer) entry: the bypassed huts are passed unswitched.
    ``inline_amp_after_span``
        Index of the hop after which the single in-line amplifier sits
        (i.e. the amplifier lives at the switching point ending that hop),
        or ``None``. Must be strictly interior.
    """

    span_lengths_km: tuple[float, ...]
    inline_amp_after_span: int | None = None

    def __post_init__(self) -> None:
        if not self.span_lengths_km:
            raise ConstraintViolation("a path must contain at least one span")
        if any(s < 0 for s in self.span_lengths_km):
            raise ConstraintViolation("span lengths must be non-negative")
        amp = self.inline_amp_after_span
        if amp is not None and not (0 <= amp < len(self.span_lengths_km) - 1):
            raise ConstraintViolation(
                "in-line amplifier must sit strictly inside the path"
            )

    @property
    def total_km(self) -> float:
        """End-to-end fiber distance."""
        return sum(self.span_lengths_km)

    @property
    def inline_amp_count(self) -> int:
        """Number of in-line amplifiers (0 or 1 by construction)."""
        return 0 if self.inline_amp_after_span is None else 1

    @property
    def oss_traversals(self) -> int:
        """Total OSS passes end-to-end.

        One per switching point (source egress OSS, each interior point,
        destination ingress OSS) plus one extra at the amplification hut,
        whose loopback amplifier makes the signal cross its OSS twice.
        """
        return len(self.span_lengths_km) + 1 + self.inline_amp_count

    def runs(self) -> list[RunBudget]:
        """The unamplified runs with their fiber and OSS loads (see module
        docstring for the traversal arithmetic)."""
        spans = self.span_lengths_km
        k = len(spans)
        amp = self.inline_amp_after_span
        if amp is None:
            return [RunBudget(fiber_km=sum(spans), oss_traversals=k + 1)]
        first = RunBudget(
            fiber_km=sum(spans[: amp + 1]),
            oss_traversals=amp + 2,
        )
        second = RunBudget(
            fiber_km=sum(spans[amp + 1 :]),
            oss_traversals=k - amp,
        )
        return [first, second]

    def with_amp_after_span(self, index: int | None) -> "PathProfile":
        """This profile with the in-line amplifier (re)positioned."""
        return PathProfile(self.span_lengths_km, index)


def violations(
    profile: PathProfile,
    sla_fiber_km: float = SLA_MAX_FIBER_KM,
    amplifier_gain_db: float = AMPLIFIER_GAIN_DB,
    max_inline_amps: int = MAX_INLINE_AMPLIFIERS,
) -> list[str]:
    """All constraint violations of ``profile`` (empty list = compliant)."""
    problems: list[str] = []
    if profile.total_km > sla_fiber_km + 1e-9:
        problems.append(
            f"OC1: path length {profile.total_km:.1f} km exceeds the "
            f"{sla_fiber_km:.0f} km SLA"
        )
    if profile.inline_amp_count > max_inline_amps:
        problems.append(
            f"TC2: {profile.inline_amp_count} in-line amplifiers exceed "
            f"the budget of {max_inline_amps}"
        )
    for i, run in enumerate(profile.runs()):
        if not run.fits(amplifier_gain_db):
            problems.append(
                f"TC1/TC4: run {i} loses {run.loss_db:.1f} dB "
                f"({run.fiber_km:.1f} km fiber + {run.oss_traversals} OSS) "
                f"against a {amplifier_gain_db:.0f} dB amplifier budget"
            )
    return problems


def check_path(
    profile: PathProfile,
    sla_fiber_km: float = SLA_MAX_FIBER_KM,
    amplifier_gain_db: float = AMPLIFIER_GAIN_DB,
) -> None:
    """Raise :class:`ConstraintViolation` if ``profile`` breaks any rule."""
    problems = violations(profile, sla_fiber_km, amplifier_gain_db)
    if problems:
        raise ConstraintViolation("; ".join(problems), path=profile)


def amp_fix_candidates(profile: PathProfile) -> list[int]:
    """Span indices where one in-line amplifier would make ``profile`` meet
    every run budget. Empty when no single amplifier suffices."""
    if profile.inline_amp_after_span is not None:
        return []
    out = []
    for index in range(len(profile.span_lengths_km) - 1):
        candidate = profile.with_amp_after_span(index)
        if all(run.fits() for run in candidate.runs()):
            out.append(index)
    return out


def budget_for_profile(
    profile: PathProfile, transceiver: Transceiver | None = None
) -> LinkBudgetResult:
    """Run ``profile`` through the full link-budget engine.

    The chain mirrors the profile's traversal arithmetic: source OSS, each
    effective hop followed by its switching OSS, the in-line amplifier in
    loopback (+1 OSS) where placed, terminal amplifier and ingress OSS at
    the destination. Tests use this to confirm that the closed-form rules
    imply a link the budget engine also closes.
    """
    from repro.optics.budget import evaluate_chain
    from repro.optics.components import (
        Amplifier,
        FiberSpan,
        OpticalSpaceSwitch,
        PowerLimiter,
    )

    spans = profile.span_lengths_km
    amp_index = profile.inline_amp_after_span
    chain: list = [OpticalSpaceSwitch()]  # source egress OSS
    for i, length in enumerate(spans):
        chain.append(FiberSpan(length))
        if i < len(spans) - 1:
            chain.append(OpticalSpaceSwitch())  # switching point OSS pass
            if amp_index is not None and i == amp_index:
                # Loopback amplification: amplify, then cross the OSS again
                # on the way out (the +1 traversal charged to run 2).
                chain.append(PowerLimiter(-15.0))
                chain.append(Amplifier())
                chain.append(OpticalSpaceSwitch())
    chain.append(PowerLimiter(-15.0))
    chain.append(Amplifier())  # terminal amplifier at the destination
    chain.append(OpticalSpaceSwitch())  # destination ingress OSS
    return evaluate_chain(chain, transceiver)
