"""SARIF 2.1.0 output for reprolint findings.

``iris lint --format sarif`` serializes a run into the Static Analysis
Results Interchange Format so CI can upload it via
``github/codeql-action/upload-sarif`` and findings annotate pull requests
natively, file-and-line, instead of living in a job log.

Kept deliberately minimal: one ``run``, the reprolint tool descriptor
with every registered rule (id, short description, the invariant it
protects as the full description), and one ``result`` per finding with a
``physicalLocation``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.lint.findings import Finding
from repro.lint.registry import Rule

__all__ = ["SARIF_SCHEMA_URI", "SARIF_VERSION", "to_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Findings produced by the driver itself rather than a registered rule.
_SYNTHETIC_RULES: Mapping[str, tuple[str, str]] = {
    "R000": (
        "file is analyzable",
        "every linted file parses as UTF-8 Python; a broken file is "
        "reported, not skipped",
    ),
    "R900": (
        "no unused suppressions",
        "every `# repro: noqa` / `# repro: guarded-by[...]` comment "
        "suppresses at least one finding; stale escapes are deleted "
        "before they can mask future violations",
    ),
}


def _rule_descriptor(rule_id: str, rules: Mapping[str, Rule]) -> dict[str, Any]:
    rule = rules.get(rule_id)
    if rule is not None:
        title, invariant = rule.title, rule.invariant
    else:
        title, invariant = _SYNTHETIC_RULES.get(
            rule_id, (rule_id, "reprolint finding")
        )
    return {
        "id": rule_id,
        "name": rule_id,
        "shortDescription": {"text": title},
        "fullDescription": {"text": invariant},
        "defaultConfiguration": {"level": "error"},
    }


def _result(finding: Finding) -> dict[str, Any]:
    return {
        "ruleId": finding.rule_id,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": max(finding.col, 1),
                    },
                }
            }
        ],
    }


def to_sarif(
    findings: Sequence[Finding],
    rules: Sequence[Rule],
    *,
    version: str = "unknown",
) -> dict[str, Any]:
    """A SARIF 2.1.0 log object for one reprolint run.

    ``rules`` is the selected rule set (normally
    :func:`repro.lint.registry.all_rules`); rule ids that appear only in
    findings (R000/R900) still get a descriptor, so every ``result`` has
    a resolvable ``ruleId``.
    """
    by_id = {rule.rule_id: rule for rule in rules}
    ids = sorted(set(by_id) | {f.rule_id for f in findings})
    descriptors = [_rule_descriptor(rule_id, by_id) for rule_id in ids]
    index = {rule_id: i for i, rule_id in enumerate(ids)}
    results = []
    for finding in sorted(findings):
        result = _result(finding)
        result["ruleIndex"] = index[finding.rule_id]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "informationUri": (
                            "https://example.invalid/repro/reprolint"
                        ),
                        "version": version,
                        "rules": descriptors,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
