"""The reprolint driver: file discovery, suppressions, and the entry points.

Since v3 the analysis itself lives in :mod:`repro.lint.project`: all
files of one invocation are linted as a single project in three phases
(per-file local analysis → project-wide summary propagation → rule
dispatch with interprocedural facts). This module keeps the pieces that
are per-file by nature — reading sources, the ``# repro: noqa``
suppression machinery, and the public ``lint_source``/``lint_file``/
``lint_paths`` entry points the CLI and tests call.

Findings whose *statement* carries a ``# repro: noqa`` comment are
suppressed — either wholesale (``# repro: noqa``) or per rule
(``# repro: noqa-R004`` or ``# repro: noqa-R001,R004``). A suppression
matches anywhere in the flagged statement's line span, so a comment on the
closing line of a black-wrapped call still covers the finding reported on
the call's first line. ``report_unused_noqa=True`` adds an ``R900``
finding for every suppression comment that matched nothing, so stale
escapes get cleaned up instead of silently disabling future rules.

Unparseable files produce a single ``R000`` finding at the syntax error —
and undecodable (non-UTF-8) files an ``R000`` at line 1 — rather than
aborting the run, so one broken file cannot hide findings in the rest of
the tree.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Iterable, Sequence

from repro.exceptions import ReproError
from repro.lint.findings import Finding, TextEdit
from repro.lint.registry import Rule

# Rules live in their own module purely for readability; importing it runs
# the @rule registrations.
from repro.lint import rules as _rules  # noqa: F401


class LintUsageError(ReproError):
    """The lint invocation itself is wrong (bad path, nothing to lint)."""


_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:-(?P<rules>R\d{3}(?:\s*,\s*R\d{3})*))?",
    re.IGNORECASE,
)

#: The R015 blessing: a ``guarded-by`` comment naming the lock (in
#: square brackets after the keyword) declares that an unguarded access
#: to a majority-guarded attribute is intentional — the attribute is
#: immutable after start, read racily on purpose, etc. It suppresses
#: exactly R015 on its statement and is tracked like any noqa: a
#: blessing that blesses nothing is an R900.
_GUARDED_RE = re.compile(
    r"#\s*repro:\s*guarded-by\[(?P<lock>[^\]]+)\]",
    re.IGNORECASE,
)

#: Sentinel for "suppress every rule on this line".
_ALL = frozenset({"*"})


def _noqa_comments(source: str) -> list[tuple[int, int, frozenset[str], str]]:
    """(line, col, rule-set, comment text) for every real suppression
    comment — ``# repro: noqa`` variants and ``# repro: guarded-by[...]``.

    Tokenized, not regexed over raw lines, so the string ``"# repro: noqa"``
    inside a docstring or help text neither suppresses findings nor shows
    up as an unused suppression. Most files carry no such comment at all,
    so a source without either keyword is not tokenized.
    """
    out: list[tuple[int, int, frozenset[str], str]] = []
    lowered = source.lower()
    if "noqa" not in lowered and "guarded-by" not in lowered:
        return out
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(token.string)
        if match is not None:
            listed = match.group("rules")
            if listed is None:
                ids = _ALL
            else:
                ids = frozenset(
                    part.strip().upper()
                    for part in listed.split(",")
                    if part.strip()
                )
            out.append(
                (token.start[0], token.start[1] + 1, ids, match.group(0))
            )
            continue
        guarded = _GUARDED_RE.search(token.string)
        if guarded is not None:
            out.append(
                (
                    token.start[0],
                    token.start[1] + 1,
                    frozenset({"R015"}),
                    guarded.group(0),
                )
            )
    return out


def suppressions(source: str) -> dict[int, frozenset[str]]:
    """Per-line suppression sets parsed from ``# repro: noqa`` comments."""
    out: dict[int, frozenset[str]] = {}
    for lineno, _col, ids, _label in _noqa_comments(source):
        if ids is _ALL:
            out[lineno] = _ALL
        else:
            existing = out.get(lineno, frozenset())
            out[lineno] = _ALL if existing is _ALL else existing | ids
    return out


def _statement_spans(tree: ast.AST) -> list[tuple[int, int]]:
    """(start, end) line spans a suppression comment extends over.

    Simple statements span all their lines. Compound statements (``for``,
    ``if``, ``def`` ...) contribute only their *header* — a noqa inside a
    function body must not suppress findings on the ``def`` line — but the
    header includes any decorator lines above it.
    """
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        for decorator in getattr(node, "decorator_list", []):
            start = min(start, decorator.lineno)
        end = getattr(node, "end_lineno", None) or node.lineno
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = max(node.lineno, body[0].lineno - 1)
        spans.append((start, end))
    return spans


class Suppressions:
    """Resolved ``# repro: noqa`` comments for one file, with usage tracking.

    Each comment covers the full line span of every statement its line
    belongs to (falling back to just its own line), so suppressions keep
    working when a formatter wraps the flagged statement. ``suppresses``
    marks matching comments used; :meth:`unused` reports the rest.
    """

    def __init__(self, source: str, tree: ast.AST | None = None) -> None:
        self._source = source
        self.by_comment: dict[int, frozenset[str]] = {}
        self._cols: dict[int, int] = {}
        self._labels: dict[int, str] = {}
        for lineno, col, ids, label in _noqa_comments(source):
            if ids is _ALL or self.by_comment.get(lineno) is _ALL:
                self.by_comment[lineno] = _ALL
            else:
                existing = self.by_comment.get(lineno, frozenset())
                self.by_comment[lineno] = existing | ids
            self._cols.setdefault(lineno, col)
            self._labels.setdefault(lineno, label)
        spans = (
            _statement_spans(tree)
            if tree is not None and self.by_comment
            else []
        )
        self._covering: dict[int, list[int]] = {}
        for comment_line in self.by_comment:
            covered = {comment_line}
            for start, end in spans:
                if start <= comment_line <= end:
                    covered.update(range(start, end + 1))
            for line in sorted(covered):
                self._covering.setdefault(line, []).append(comment_line)
        self._used: set[int] = set()

    def covers(self, rule_id: str, line: int) -> bool:
        """Whether a comment covers ``(rule_id, line)`` — without marking
        it used. The summary pass uses this to *bless* effects: a noqa'd
        origin is vouched for and must not propagate to call sites, but
        only the suppressed finding itself counts as the comment's use.
        """
        for comment_line in self._covering.get(line, ()):
            active = self.by_comment[comment_line]
            if active is _ALL or "*" in active or rule_id in active:
                return True
        return False

    def suppresses(self, finding: Finding) -> bool:
        """Whether any comment covers this finding (marking it used)."""
        hit = False
        for comment_line in self._covering.get(finding.line, ()):
            active = self.by_comment[comment_line]
            if active is _ALL or "*" in active or finding.rule_id in active:
                self._used.add(comment_line)
                hit = True
        return hit

    def unused(self) -> list[int]:
        """Comment lines that suppressed nothing."""
        return sorted(set(self.by_comment) - self._used)

    def _comment_fix(self, line: int) -> TextEdit | None:
        """An edit deleting the comment on ``line`` (the R900 autofix).

        A comment alone on its line goes with the whole line; a trailing
        comment goes along with the whitespace separating it from the code.
        """
        col = self._cols.get(line)
        if col is None:
            return None
        lines = self._source.splitlines(keepends=True)
        if line > len(lines):
            return None
        line_start = sum(len(text) for text in lines[: line - 1])
        text = lines[line - 1]
        content = text.rstrip("\r\n")
        prefix = text[: col - 1]
        if prefix.strip() == "":
            return TextEdit(line_start, line_start + len(text), "")
        return TextEdit(
            line_start + len(prefix.rstrip()), line_start + len(content), ""
        )

    def unused_findings(self, path: str) -> list[Finding]:
        """One ``R900`` finding per suppression that never matched."""
        out = []
        for line in self.unused():
            active = self.by_comment[line]
            label = self._labels.get(line) or (
                "# repro: noqa"
                if active is _ALL
                else "# repro: noqa-" + ",".join(sorted(active))
            )
            out.append(
                Finding(
                    path,
                    line,
                    self._cols.get(line, 1),
                    "R900",
                    f"unused suppression {label!r}: no finding matched; "
                    "delete it so it cannot mask future violations",
                    fix=self._comment_fix(line),
                )
            )
        return out


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    rules: Sequence[Rule] | None = None,
    report_unused_noqa: bool = False,
) -> list[Finding]:
    """Lint one source string; returns sorted, suppression-filtered findings.

    ``path`` is used both for reporting and for rule exemption matching
    (e.g. R002 is exempt under ``repro/obs/``). ``rules`` restricts the
    pass to a subset (tests use this to exercise one rule in isolation).
    ``report_unused_noqa`` adds R900 findings for suppression comments
    that matched nothing.

    This runs the full interprocedural pipeline on a single-file
    project, so call-depth fixtures written in one file exercise the
    same machinery as a repo-wide pass.
    """
    from repro.lint.project import lint_project

    return lint_project(
        [(str(path), source)],
        rules=rules,
        report_unused_noqa=report_unused_noqa,
    )


def lint_file(
    path: str | Path,
    *,
    rules: Sequence[Rule] | None = None,
    report_unused_noqa: bool = False,
) -> list[Finding]:
    """Lint one file on disk.

    A file that is not valid UTF-8 yields an ``R000`` finding (like a
    syntax error) instead of crashing the whole run; unreadable paths are
    a :class:`LintUsageError`.
    """
    file_path = Path(path)
    source = _read_source(file_path)
    if isinstance(source, Finding):
        return [source]
    return lint_source(
        source,
        path=str(file_path),
        rules=rules,
        report_unused_noqa=report_unused_noqa,
    )


def _read_source(file_path: Path) -> str | Finding:
    """The file's text, or the ``R000`` finding explaining why not."""
    try:
        return file_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return Finding(
            str(file_path),
            1,
            1,
            "R000",
            f"file is not valid UTF-8 ({exc.reason} at byte {exc.start}); "
            "reprolint only analyzes UTF-8 Python sources",
        )
    except OSError as exc:
        raise LintUsageError(f"cannot read {file_path}: {exc}") from exc


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.update(path.rglob("*.py"))
        elif path.is_file():
            out.add(path)
        else:
            raise LintUsageError(f"no such file or directory: {path}")
    return sorted(out)


def lint_paths(
    paths: Iterable[str | Path],
    *,
    rules: Sequence[Rule] | None = None,
    report_unused_noqa: bool = False,
) -> list[Finding]:
    """Lint files and/or directory trees; the ``iris lint`` workhorse.

    All files are analyzed as **one project**: the interprocedural phase
    sees every call edge between them.

    Raises :class:`LintUsageError` when a path does not exist or no Python
    files are found at all — an empty pass is a misconfigured gate, not a
    clean one.
    """
    from repro.lint.project import lint_project

    files = iter_python_files(paths)
    if not files:
        raise LintUsageError("no Python files to lint under the given paths")
    findings: list[Finding] = []
    sources: list[tuple[str, str]] = []
    for file_path in files:
        source = _read_source(file_path)
        if isinstance(source, Finding):
            findings.append(source)
        else:
            sources.append((str(file_path), source))
    findings.extend(
        lint_project(
            sources,
            rules=rules,
            report_unused_noqa=report_unused_noqa,
        )
    )
    return sorted(findings)
