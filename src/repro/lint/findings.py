"""Structured findings emitted by the reprolint rules.

A finding pins one rule violation to a file position. Findings sort by
(path, line, col, rule id) so reports are stable across runs and across
the order files were visited in.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a concrete source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        """The canonical one-line report form (``path:line:col: RXXX msg``)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form, used by ``iris lint --format json``."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }
