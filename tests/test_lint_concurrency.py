"""reprolint v4: thread-safety & resource-lifecycle rules (R015–R019).

Acceptance bar per rule: a positive fixture that must flag, a negative
fixture that must stay quiet, and for the interprocedural rules a
violation buried at call depth ≥ 2 that still flags with the chain
quoted. Plus the blessing semantics R015 adds: a ``guarded-by`` comment
suppresses exactly one access and shows up as R900 when stale.
"""

import ast

import pytest

from repro.lint import (
    analyze_file,
    get_rule,
    lint_project,
    lint_source,
)
from repro.lint.concurrency import canonical_lock


def only(rule_id, source, path="mod.py", **kwargs):
    return lint_source(source, path, rules=[get_rule(rule_id)], **kwargs)


def only_project(rule_id, sources):
    return lint_project(sources, rules=[get_rule(rule_id)])


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


# --- R016: blocking under lock -----------------------------------------------

R016_DIRECT = """\
import queue
import threading


class S:
    def __init__(self):
        self._lock = threading.Lock()
        self._queue = queue.Queue()

    def pump(self):
        with self._lock:
            item = self._queue.get()
        return item
"""


def test_r016_direct_blocking_call_under_lock():
    findings = only("R016", R016_DIRECT)
    assert len(findings) == 1
    assert "Queue.get" in findings[0].message
    assert "S._lock" in findings[0].message


def test_r016_nonblocking_queue_get_is_fine():
    src = R016_DIRECT.replace(
        "self._queue.get()", "self._queue.get(block=False)"
    )
    assert only("R016", src) == []


def test_r016_blocking_call_outside_lock_is_fine():
    src = R016_DIRECT.replace(
        "        with self._lock:\n            item = self._queue.get()",
        "        with self._lock:\n            pass\n"
        "        item = self._queue.get()",
    )
    assert only("R016", src) == []


R016_DEEP = """\
import queue
import threading


class S:
    def __init__(self):
        self._lock = threading.Lock()
        self._queue = queue.Queue()

    def entry(self):
        with self._lock:
            self._h1()

    def _h1(self):
        self._h2()

    def _h2(self):
        self._queue.get()
"""


def test_r016_transitive_blocking_at_depth_two_quotes_chain():
    findings = only("R016", R016_DEEP, "s.py")
    assert len(findings) == 1
    message = findings[0].message
    assert "self._h1" in message
    assert "via `self._h2()`" in message
    assert "Queue.get at s.py:18" in message


def test_r016_event_wait_and_thread_join_block():
    src = """\
import threading


class S:
    def __init__(self):
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._worker = threading.Thread(target=print, daemon=True)

    def bad_wait(self):
        with self._lock:
            self._done.wait()

    def bad_join(self):
        with self._lock:
            self._worker.join()
"""
    findings = only("R016", src)
    assert len(findings) == 2


def test_r016_planner_entry_point_counts_as_blocking():
    src = """\
import threading

from repro.core.planner import plan_region

_CACHE_LOCK = threading.Lock()


def cached_plan(region):
    with _CACHE_LOCK:
        return plan_region(region)
"""
    findings = only("R016", src)
    assert len(findings) == 1
    assert "plan_region" in findings[0].message


# --- R017: lock-order cycles -------------------------------------------------

R017_DIRECT = """\
import threading

LOCK_A = threading.Lock()
LOCK_B = threading.Lock()


def ab():
    with LOCK_A:
        with LOCK_B:
            pass


def ba():
    with LOCK_B:
        with LOCK_A:
            pass
"""


def test_r017_direct_nested_cycle_reports_both_directions():
    findings = only("R017", R017_DIRECT, "l.py")
    assert len(findings) == 1
    message = findings[0].message
    assert "LOCK_A" in message and "LOCK_B" in message
    assert "→" in message
    # Both acquisition chains are quoted.
    assert message.count("acquired at") >= 2


def test_r017_consistent_order_is_quiet():
    src = R017_DIRECT.replace(
        "    with LOCK_B:\n        with LOCK_A:",
        "    with LOCK_A:\n        with LOCK_B:",
    )
    assert only("R017", src) == []


R017_DEEP = """\
import threading

LOCK_A = threading.Lock()
LOCK_B = threading.Lock()


def f():
    with LOCK_A:
        mid_b()


def mid_b():
    take_b()


def take_b():
    with LOCK_B:
        pass


def g():
    with LOCK_B:
        mid_a()


def mid_a():
    take_a()


def take_a():
    with LOCK_A:
        pass
"""


def test_r017_cycle_through_depth_two_calls():
    findings = only("R017", R017_DEEP, "l.py")
    assert len(findings) == 1
    message = findings[0].message
    assert "via `mid_b()`" in message
    assert "via `mid_a()`" in message


def test_r017_nonreentrant_self_deadlock_via_helper():
    src = """\
import threading


class S:
    def __init__(self):
        self._lock = threading.Lock()

    def outer(self):
        with self._lock:
            self._inner()

    def _inner(self):
        with self._lock:
            pass
"""
    findings = only("R017", src)
    assert findings
    assert all("re-acquired" in f.message for f in findings)


def test_r017_rlock_reentry_is_fine():
    src = """\
import threading


class S:
    def __init__(self):
        self._lock = threading.RLock()

    def outer(self):
        with self._lock:
            self._inner()

    def _inner(self):
        with self._lock:
            pass
"""
    assert only("R017", src) == []


def test_r017_cross_file_cycle():
    a = """\
import threading

LOCK_A = threading.Lock()


def with_a(fn):
    with LOCK_A:
        fn()
"""
    b = """\
import threading

from a import LOCK_A, with_a

LOCK_B = threading.Lock()


def grab_both():
    with LOCK_B:
        with LOCK_A:
            pass


def other_way():
    with LOCK_A:
        with LOCK_B:
            pass
"""
    findings = only_project("R017", [("a.py", a), ("b.py", b)])
    assert len(findings) == 1


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


# --- R019: thread discipline -------------------------------------------------


def test_r019_unjoined_non_daemon_thread():
    src = """\
import threading


def fire():
    t = threading.Thread(target=print)
    t.start()
"""
    findings = only("R019", src)
    assert len(findings) == 1
    assert "daemon" in findings[0].message


@pytest.mark.parametrize(
    "body",
    [
        # explicit daemon decision
        "    t = threading.Thread(target=print, daemon=True)\n"
        "    t.start()\n",
        # joined directly
        "    t = threading.Thread(target=print)\n"
        "    t.start()\n"
        "    t.join()\n",
        # list comprehension joined in a loop (the test-suite shape)
        "    ts = [threading.Thread(target=print) for _ in range(3)]\n"
        "    for t in ts:\n"
        "        t.start()\n"
        "    for t in ts:\n"
        "        t.join()\n",
    ],
)
def test_r019_daemon_or_joined_shapes_are_quiet(body):
    src = "import threading\n\n\ndef fire():\n" + body
    assert only("R019", src) == []


def test_r019_wait_without_timeout_in_worker_loop():
    src = """\
import threading


def worker(event, should_stop):
    while not should_stop():
        event.wait()
"""
    findings = only("R019", src)
    assert len(findings) == 1
    assert "timeout" in findings[0].message


def test_r019_wait_with_timeout_is_quiet():
    src = """\
import threading


def worker(event, should_stop):
    while not should_stop():
        event.wait(timeout=0.5)
"""
    assert only("R019", src) == []


def test_r019_wait_outside_loop_is_quiet():
    src = """\
def once(event):
    event.wait()
"""
    assert only("R019", src) == []


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


def test_lock_kind_extraction_distinguishes_rlock():
    src = """\
import threading


class S:
    def __init__(self):
        self._lock = threading.RLock()


_REGISTRY_LOCK = threading.Lock()
"""
    facts = _facts(src, "m.py")
    assert facts.lock_kinds["S._lock"] == "rlock"
    assert facts.lock_kinds["m._REGISTRY_LOCK"] == "lock"
