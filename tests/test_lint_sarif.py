"""SARIF 2.1.0 output: structure, schema validation, and the CLI path."""

import json
import subprocess
import sys

import pytest

from repro.lint import Finding, all_rules, to_sarif
from tests.test_lint import KEPT_RULES

jsonschema = pytest.importorskip("jsonschema")


#: A faithful subset of the official OASIS SARIF 2.1.0 schema covering
#: everything reprolint emits: the required log shape, run/tool/driver
#: with rule descriptors, and results with physical locations. Field
#: names, required sets, and enums mirror sarif-schema-2.1.0.json; the
#: full schema only adds optional objects reprolint never produces.
SARIF_21_SUBSET_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "version": {"type": "string"},
                                    "informationUri": {
                                        "type": "string",
                                        "format": "uri",
                                    },
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "name": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                                "fullDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                                "defaultConfiguration": {
                                                    "type": "object",
                                                    "properties": {
                                                        "level": {
                                                            "enum": [
                                                                "none",
                                                                "note",
                                                                "warning",
                                                                "error",
                                                            ]
                                                        }
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "columnKind": {
                        "enum": ["utf16CodeUnits", "unicodeCodePoints"]
                    },
                    "originalUriBaseIds": {"type": "object"},
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer",
                                    "minimum": -1,
                                },
                                "level": {
                                    "enum": [
                                        "none",
                                        "note",
                                        "warning",
                                        "error",
                                    ]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string"}
                                    },
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {
                                                                "type": "string"
                                                            },
                                                            "uriBaseId": {
                                                                "type": "string"
                                                            },
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def _findings():
    return [
        Finding("src/repro/x.py", 10, 5, "R018", "socket never released"),
        Finding("src/repro/y.py", 1, 1, "R000", "syntax error: bad"),
        Finding("src\\win\\z.py", 3, 2, "R015", "unguarded access"),
    ]


def test_sarif_validates_against_schema():
    log = to_sarif(_findings(), all_rules(), version="1.2.3")
    jsonschema.validate(log, SARIF_21_SUBSET_SCHEMA)


def test_sarif_empty_run_validates_too():
    jsonschema.validate(to_sarif([], all_rules()), SARIF_21_SUBSET_SCHEMA)


def test_sarif_declares_version_and_schema_uri():
    log = to_sarif([], all_rules())
    assert log["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in log["$schema"]


def test_sarif_every_result_rule_has_a_descriptor():
    log = to_sarif(_findings(), all_rules())
    run = log["runs"][0]
    ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert ids == sorted(ids)
    for result in run["results"]:
        assert result["ruleId"] in ids
        # ruleIndex points at the matching descriptor.
        assert ids[result["ruleIndex"]] == result["ruleId"]


def test_sarif_descriptors_are_the_kept_rules():
    log = to_sarif([], all_rules())
    ids = [r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]]
    assert ids == KEPT_RULES


def test_sarif_windows_paths_normalized_to_uri():
    log = to_sarif(_findings(), all_rules())
    uris = [
        result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        for result in log["runs"][0]["results"]
    ]
    assert all("\\" not in uri for uri in uris)


def test_sarif_results_are_sorted_and_carry_messages():
    log = to_sarif(_findings(), all_rules(), version="9.9.9")
    run = log["runs"][0]
    assert run["tool"]["driver"]["version"] == "9.9.9"
    texts = [r["message"]["text"] for r in run["results"]]
    assert all(texts)
    assert len(run["results"]) == 3


def test_cli_format_sarif_round_trips(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrandom.seed(1)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", str(bad), "--format", "sarif"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1  # findings present
    log = json.loads(proc.stdout)
    jsonschema.validate(log, SARIF_21_SUBSET_SCHEMA)
    results = log["runs"][0]["results"]
    assert any(r["ruleId"] == "R001" for r in results)


def test_cli_format_sarif_clean_tree_exits_zero(tmp_path):
    clean = tmp_path / "ok.py"
    clean.write_text("x = 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", str(clean), "--format", "sarif"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    log = json.loads(proc.stdout)
    assert log["runs"][0]["results"] == []
