"""repro.lint.fix — the conservative autofixer behind ``iris lint --fix``.

Rules attach a :class:`repro.lint.findings.TextEdit` to a finding only
when the rewrite is provably meaning-preserving:

* **R004 / R009** — wrap an expression in ``sorted(...)``, only when the
  expression is a set by syntactic shape or by flow origin (a container
  merely *tainted* by a set gets no fix: sorting it would change what is
  iterated, not just the order).
* **R006** — insert ``*, `` before the first defaulted parameter of a
  public planner entry point, only when the signature has no ``*args``,
  positional-only, or existing keyword-only parameters.
* **R900** — delete a stale ``# repro: noqa`` comment (the whole line
  when it stands alone, the trailing comment otherwise).

The fixer loops lint → apply → re-lint to a **fixpoint**: an applied fix
can expose the next fixable finding (a freshly sorted value no longer
taints its aliases, say) and edits computed against stale offsets must
never be applied. Per round, edits are applied bottom-up (highest offset
first) and any edit overlapping an already-applied one is deferred to the
next round, so offsets stay valid without rebasing. The loop is bounded
by :data:`MAX_ROUNDS` as a belt-and-braces guard; every shipped fix is
idempotent, so a second :func:`fix_sources` run applies zero edits
(the property the fixer's tests pin).

``--fix --dry-run`` routes through the same machinery but returns
unified diffs instead of writing files, byte-preserving the originals.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.lint.findings import Finding, TextEdit
from repro.lint.registry import Rule

__all__ = [
    "MAX_ROUNDS",
    "FixReport",
    "apply_edits",
    "fix_sources",
    "unified_diff",
]

#: Hard bound on lint→apply rounds. Fixes are idempotent, so real runs
#: converge in one or two rounds; the bound only guards against a buggy
#: future fix that re-introduces its own finding.
MAX_ROUNDS = 10


@dataclass
class FixReport:
    """What one :func:`fix_sources` run did."""

    #: path -> fixed source text (equal to the input when nothing applied).
    files: dict[str, str] = field(default_factory=dict)
    #: path -> number of edits applied across all rounds.
    applied: dict[str, int] = field(default_factory=dict)
    #: lint→apply rounds that applied at least one edit.
    rounds: int = 0
    #: Findings still present after the fixpoint (the unfixable rest).
    remaining: list[Finding] = field(default_factory=list)

    def changed_paths(self) -> list[str]:
        """Paths whose fixed text differs from the input, sorted."""
        return sorted(path for path, count in self.applied.items() if count)

    @property
    def total_applied(self) -> int:
        return sum(self.applied.values())


def apply_edits(source: str, edits: Iterable[TextEdit]) -> tuple[str, int]:
    """Apply non-overlapping edits to ``source``; returns (text, applied).

    Edits are applied bottom-up (highest start offset first) so earlier
    offsets stay valid. An edit overlapping one already applied is
    *skipped*, not rebased — the caller re-lints and picks it up with
    fresh offsets in the next round.
    """
    out = source
    applied = 0
    low_water = len(source) + 1
    for edit in sorted(set(edits), key=lambda e: (e.start, e.end), reverse=True):
        if edit.end > low_water or edit.start > len(out):
            continue
        out = out[: edit.start] + edit.text + out[edit.end :]
        low_water = edit.start
        applied += 1
    return out, applied


def fix_sources(
    sources: Sequence[tuple[str, str]],
    *,
    rules: Sequence[Rule] | None = None,
    report_unused_noqa: bool = False,
) -> FixReport:
    """Fix every fixable finding in ``sources`` to a fixpoint.

    The whole set is linted as one project each round (fixes can depend
    on interprocedural facts).
    """
    from repro.lint.project import lint_project

    report = FixReport(
        files={path: text for path, text in sources},
        applied={path: 0 for path, _ in sources},
    )
    for _ in range(MAX_ROUNDS):
        findings = lint_project(
            sorted(report.files.items()),
            rules=rules,
            report_unused_noqa=report_unused_noqa,
        )
        by_file: dict[str, list[TextEdit]] = {}
        for finding in findings:
            if finding.fix is not None and finding.path in report.files:
                by_file.setdefault(finding.path, []).append(finding.fix)
        if not by_file:
            report.remaining = findings
            return report
        round_applied = 0
        for path, edits in by_file.items():
            fixed, count = apply_edits(report.files[path], edits)
            report.files[path] = fixed
            report.applied[path] += count
            round_applied += count
        if round_applied == 0:  # every edit overlapped: nothing can move
            report.remaining = findings
            return report
        report.rounds += 1
    report.remaining = lint_project(
        sorted(report.files.items()),
        rules=rules,
        report_unused_noqa=report_unused_noqa,
    )
    return report


def unified_diff(
    originals: Mapping[str, str], report: FixReport
) -> str:
    """One unified diff over every file the fixer changed (dry-run output)."""
    chunks: list[str] = []
    for path in report.changed_paths():
        before = originals.get(path, "")
        after = report.files[path]
        if before == after:
            continue
        chunks.extend(
            difflib.unified_diff(
                before.splitlines(keepends=True),
                after.splitlines(keepends=True),
                fromfile=f"a/{path}",
                tofile=f"b/{path}",
            )
        )
    return "".join(chunks)
