"""reprolint v4: thread-safety & resource-lifecycle rules (R015, R018).

Acceptance bar per rule: a positive fixture that must flag, a negative
fixture that must stay quiet, and for the interprocedural rules a
violation buried at call depth ≥ 2 that still flags. Plus the blessing
semantics R015 adds: a ``guarded-by`` comment suppresses exactly one
access and shows up as R900 when stale.
"""

import ast

import pytest

from repro.lint import (
    analyze_file,
    get_rule,
    lint_source,
)
from repro.lint.summaries import canonical_lock


def only(rule_id, source, path="mod.py", **kwargs):
    return lint_source(source, path, rules=[get_rule(rule_id)], **kwargs)


# --- canonical lock names ----------------------------------------------------


def _lock_of(src, class_name=None, module="mod"):
    expr = ast.parse(src, mode="eval").body
    return canonical_lock(expr, class_name, module)


def test_canonical_lock_self_attribute_uses_class_name():
    assert _lock_of("self._lock", class_name="Service") == "Service._lock"


def test_canonical_lock_module_level_name():
    assert _lock_of("_REGISTRY_LOCK") == "mod._REGISTRY_LOCK"


def test_canonical_lock_rejects_non_lockish_names():
    assert _lock_of("self._jobs", class_name="Service") is None


def test_canonical_lock_condition_alias_counts():
    assert _lock_of("self._cv", class_name="S") == "S._cv"


# --- R015: guarded-by inference ----------------------------------------------

R015_POSITIVE = """\
import threading


class Service:
    def __init__(self):
        self._lock = threading.Lock()
        self._jobs = {}

    def start(self):
        t = threading.Thread(target=self.run, daemon=True)
        t.start()

    def run(self):
        with self._lock:
            self._jobs["a"] = 1
        with self._lock:
            self._jobs.pop("a", None)

    def peek(self):
        return len(self._jobs)
"""


def test_r015_flags_unguarded_minority_access():
    findings = only("R015", R015_POSITIVE, "svc.py")
    assert len(findings) == 1
    (finding,) = findings
    assert finding.rule_id == "R015"
    assert finding.line == 20
    assert "`self._jobs`" in finding.message
    assert "Service._lock" in finding.message
    # The guarded example sites are quoted so the reader can compare.
    assert "svc.py:15" in finding.message
    assert "guarded-by[_lock]" in finding.message


def test_r015_quiet_without_thread_spawn():
    # Same access pattern, but nothing spawns threads: single-threaded
    # classes may be lock-free wherever they like.
    src = R015_POSITIVE.replace(
        "        t = threading.Thread(target=self.run, daemon=True)\n"
        "        t.start()\n",
        "        self.run()\n",
    )
    assert only("R015", src) == []


def test_r015_quiet_when_all_accesses_guarded():
    src = R015_POSITIVE.replace(
        "        return len(self._jobs)",
        "        with self._lock:\n            return len(self._jobs)",
    )
    assert only("R015", src) == []


R015_HELPER_INHERITS = """\
import threading


class Service:
    def __init__(self):
        self._lock = threading.Lock()
        self._jobs = {}

    def start(self):
        t = threading.Thread(target=self.run, daemon=True)
        t.start()

    def run(self):
        with self._lock:
            self._evict()
        with self._lock:
            self._jobs["x"] = 1
        with self._lock:
            self._jobs["y"] = 2

    def _evict(self):
        self._jobs.clear()
"""


def test_r015_helper_called_under_lock_inherits_lockset():
    # _evict touches _jobs with no local lock, but every call site holds
    # it — the must-fixpoint credits the helper, so nothing fires.
    assert only("R015", R015_HELPER_INHERITS, "svc.py") == []


def test_r015_helper_with_one_unlocked_call_site_does_not_inherit():
    src = R015_HELPER_INHERITS + (
        "\n    def sweep(self):\n        self._evict()\n"
    )
    findings = only("R015", src, "svc.py")
    assert any("_jobs" in f.message for f in findings)


def test_r015_guarded_by_blessing_suppresses_and_tracks():
    blessed = R015_POSITIVE.replace(
        "        return len(self._jobs)",
        "        return len(self._jobs)  # repro: guarded-by[_lock]",
    )
    assert only("R015", blessed, "svc.py") == []
    # A blessing that blesses nothing is an unused suppression (R900).
    stale = R015_POSITIVE.replace(
        "        with self._lock:\n            self._jobs.pop(\"a\", None)",
        "        with self._lock:\n"
        "            self._jobs.pop(\"a\", None)  # repro: guarded-by[_lock]",
    )
    findings = lint_source(stale, "svc.py", report_unused_noqa=True)
    r900 = [f for f in findings if f.rule_id == "R900"]
    assert len(r900) == 1
    assert "guarded-by[_lock]" in r900[0].message


def test_r015_plain_noqa_also_suppresses():
    blessed = R015_POSITIVE.replace(
        "        return len(self._jobs)",
        "        return len(self._jobs)  # repro: noqa-R015",
    )
    assert only("R015", blessed, "svc.py") == []


# --- R018: resource lifecycle ------------------------------------------------


def test_r018_never_released_socket():
    src = """\
import socket


def probe(host):
    s = socket.create_connection((host, 80))
    s.sendall(b"x")
"""
    findings = only("R018", src)
    assert len(findings) == 1
    assert "never released" in findings[0].message


def test_r018_release_only_on_normal_path():
    src = """\
import socket


def probe(host):
    s = socket.create_connection((host, 80))
    s.sendall(b"x")
    s.close()
"""
    findings = only("R018", src)
    assert len(findings) == 1
    assert "leaks if line 6 raises" in findings[0].message


@pytest.mark.parametrize(
    "body",
    [
        # with-statement ownership
        "    with socket.create_connection((host, 80)) as s:\n"
        "        s.sendall(b'x')\n",
        # try/finally release
        "    s = socket.create_connection((host, 80))\n"
        "    try:\n"
        "        s.sendall(b'x')\n"
        "    finally:\n"
        "        s.close()\n",
        # returned to the caller: ownership transfers
        "    s = socket.create_connection((host, 80))\n"
        "    return s\n",
    ],
)
def test_r018_safe_shapes_are_quiet(body):
    src = "import socket\n\n\ndef probe(host):\n" + body
    assert only("R018", src) == []


def test_r018_interprocedural_acquisition_depth_two():
    # The acquisition hides two calls deep: _fresh() returns _connect()'s
    # socket; the caller owns it and never closes it.
    src = """\
import socket


def _connect(host):
    return socket.create_connection((host, 80))


def _fresh(host):
    return _connect(host)


def probe(host):
    s = _fresh(host)
    s.sendall(b"x")
"""
    findings = only("R018", src)
    assert len(findings) == 1
    assert findings[0].line == 13


def test_r018_self_stored_without_class_release():
    src = """\
import socket


class Probe:
    def __init__(self, host):
        self._sock = socket.create_connection((host, 80))
"""
    findings = only("R018", src)
    assert len(findings) == 1
    assert "no method of `Probe` releases" in findings[0].message


def test_r018_self_stored_with_close_method_is_quiet():
    src = """\
import socket


class Probe:
    def __init__(self, host):
        self._sock = socket.create_connection((host, 80))

    def close(self):
        self._sock.close()
"""
    assert only("R018", src) == []


def test_r018_half_open_init_flags_risky_tail():
    # The client bug shape: the store succeeds, a later __init__ line can
    # raise, the instance is never handed out, close() is unreachable.
    src = """\
import socket


class Probe:
    def __init__(self, host):
        self._sock = socket.create_connection((host, 80))
        self._stream = self._sock.makefile("rb")

    def close(self):
        self._sock.close()
        self._stream.close()
"""
    findings = only("R018", src)
    assert len(findings) == 1
    assert "half" in findings[0].message or "__init__" in findings[0].message


def test_r018_half_open_init_quiet_when_guarded():
    src = """\
import socket


class Probe:
    def __init__(self, host):
        self._sock = socket.create_connection((host, 80))
        try:
            self._stream = self._sock.makefile("rb")
        except OSError:
            self._sock.close()
            raise

    def close(self):
        self._sock.close()
        self._stream.close()
"""
    assert only("R018", src) == []


def test_r018_alias_release_pattern_is_recognized():
    # The daemon's close() shape: detach to a local, then close the local.
    src = """\
import socket


class Probe:
    def __init__(self, host):
        self._sock = socket.create_connection((host, 80))

    def close(self):
        sock = self._sock
        sock.close()
"""
    assert only("R018", src) == []


def test_r018_pool_backend_requires_terminate():
    src = """\
from repro.core.engine import ProcessBackend


def sweep(chunks):
    backend = ProcessBackend(jobs=2)
    return list(backend.iter_chunks(print, None, chunks))
"""
    findings = only("R018", src)
    assert len(findings) == 1
    assert "worker pool" in findings[0].message


# --- per-file facts: extraction ----------------------------------------------


def _facts(source, path="m.py"):
    return analyze_file(ast.parse(source), path)


def test_extraction_records_acquires_and_guarded_accesses():
    facts = _facts(R015_POSITIVE, "svc.py")
    run = facts.functions["Service.run"]
    assert [lock for lock, _ in run.acquires] == [
        "Service._lock",
        "Service._lock",
    ]
    attrs = {(a, locks) for a, _l, _c, locks, _k in run.accesses}
    assert ("_jobs", ("Service._lock",)) in attrs
    peek = facts.functions["Service.peek"]
    assert peek.accesses[0][3] == ()  # unguarded
    assert facts.functions["Service.start"].spawns_thread


def test_constructed_locks_are_recorded():
    src = """\
import threading


class S:
    def __init__(self):
        self._lock = threading.RLock()
        self._jobs = {}


_REGISTRY_LOCK = threading.Lock()
"""
    facts = _facts(src, "m.py")
    assert facts.locks == {"S._lock", "m._REGISTRY_LOCK"}
