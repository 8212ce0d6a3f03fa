"""The reprolint domain rules (R001-R014).

Each rule guards one invariant the planner's correctness rests on — the
properties the parity, golden-count, and serialization-determinism tests
probe dynamically, enforced here at review time instead of as flaky test
failures:

=====  ==========================================================
R001   no global RNG state (seeded instances only)
R002   no wall-clock reads outside ``repro.obs``
R003   no float ``==``/``!=`` on unit-tagged quantities
R004   no iteration over unordered collections without ``sorted()``
R005   no module-level mutable state outside the whitelist
R006   public planner entry points keep config params keyword-only
R007   no arithmetic/comparison mixing different unit tags
R008   no non-atomic file writes inside ``repro.store``
R009   no unordered value reaching a serialization/store-key sink
R010   function return unit matches its ``_km``/``_db`` name suffix
R011   obs spans entered via the facade; counter keys deterministic
R012   pool-submitted callables are picklable (no lambdas/nested defs)
R013   pool-submitted callables are deterministic (``@worker_safe`` held)
R014   pool chunk functions perform no hidden I/O or unordered iteration
=====  ==========================================================

Since v2 the rules are *flow-sensitive*: the driver's pass 1
(:mod:`repro.lint.flow`) propagates unit and orderedness tags through
assignments, branches, comprehensions, and returns, so
``s = set(...); for x in s`` is just as visible to R004 as the literal
form, and R007 catches ``x = span_km; y = x + loss_db`` through the
alias.

Since v3 they are also *interprocedural*: the project pipeline
(:mod:`repro.lint.project`) resolves calls across the whole lint set and
closes determinism effects transitively over the call graph
(:mod:`repro.lint.summaries`), so R001/R002/R004/R005 fire at a call
site whose callee reaches the violation three calls deep — the finding
quotes the full chain ("via ``helper()`` at line N → ...") back to the
root cause. R007/R010 see unit tags through resolved return summaries,
and R012-R014 check every callable submitted to the execution backends.
Findings that are intentional carry a ``# repro: noqa-RXXX``
suppression, which matches anywhere in the flagged statement's line
span; a suppressed (blessed) origin also stops its effect from
propagating to callers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import function_id
from repro.lint.findings import Finding, TextEdit
from repro.lint.flow import (
    AbstractValue,
    Orderedness,
    unit_dimension,
    unit_suffix,
)
from repro.lint.registry import FileContext, rule
from repro.lint.summaries import (
    EFFECT_LABELS,
    NP_RANDOM_OK,
    RANDOM_OK,
    TIME_WALL,
    FunctionFacts,
    chain_text,
    rng_attribute_violation,
    wall_clock_violation,
)


def _dotted_root(node: ast.expr) -> str | None:
    """The leftmost name of a dotted attribute chain, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


# --- v3 interprocedural helpers ------------------------------------------------

#: Rule id -> the propagated effect whose presence it reports at call sites.
_RULE_EFFECTS = {
    "R001": "global_rng",
    "R002": "wall_clock",
    "R004": "unordered_iter",
    "R005": "module_state",
}


def _call_effect_findings(
    node: ast.Call, ctx: FileContext, rule_id: str
) -> Iterator[Finding]:
    """Call-site finding when the callee transitively has the rule's effect.

    This is how R001/R002/R004/R005 fire at the entry point even when the
    violation is three calls deep: the effect closure carries the origin
    and the chain of calls it travelled, which the message quotes.
    """
    resolved = ctx.resolve_call(node)
    if resolved is None:
        return
    fid, label = resolved
    origin = ctx.project.effects_of(fid).get(_RULE_EFFECTS[rule_id])
    if origin is None:
        return
    yield ctx.finding(
        node,
        rule_id,
        f"call to `{label}()` reaches code that "
        f"{EFFECT_LABELS[origin.effect]} ({chain_text(origin)}); fix or "
        "bless the origin — every caller inherits the nondeterminism",
    )


#: Origin markers that prove a flow value really is a set (not merely a
#: container tainted by one), making a ``sorted(...)`` wrap meaning-safe.
_SET_ORIGIN_MARKERS = (
    "set literal",
    "set comprehension",
    "set(...)",
    "frozenset(...)",
    "set iteration",
    "parameter annotated",
)


def _sorted_wrap_fix(
    expr: ast.expr, value: AbstractValue, ctx: FileContext
) -> TextEdit | None:
    """A ``sorted(...)`` wrap for ``expr``, when provably meaning-safe.

    Conservative on purpose: only offered when the expression is a set by
    shape or by flow origin. A container merely *tainted* by a set (a
    dict holding sets, say) stays fix-less — wrapping it in ``sorted``
    would change what the program iterates, not just the order.
    """
    safe = _syntactically_unordered(expr) or any(
        marker in (value.origin or "") for marker in _SET_ORIGIN_MARKERS
    )
    if not safe:
        return None
    span = ctx.span_of(expr)
    if span is None:
        return None
    start, end = span
    return TextEdit(start, end, f"sorted({ctx.source[start:end]})")


# --- R001: global RNG state ---------------------------------------------------

# The attribute predicates and whitelists are shared with the summary
# extractor so the intra-procedural rules and the interprocedural effect
# pass can never disagree about what counts as global RNG state or a
# wall-clock read.


@rule(
    "R001",
    title="no global RNG state",
    invariant=(
        "scenario enumeration and synthetic regions must replay bit-identically "
        "from an explicit seed; the shared module RNG is mutated by anyone"
    ),
    nodes=(ast.Attribute, ast.ImportFrom, ast.Call),
)
def no_global_rng(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    if isinstance(node, ast.Call):
        yield from _call_effect_findings(node, ctx, "R001")
        return
    if isinstance(node, ast.ImportFrom):
        if node.module == "random":
            for alias in node.names:
                if alias.name not in RANDOM_OK:
                    yield ctx.finding(
                        node,
                        "R001",
                        f"'from random import {alias.name}' exposes the shared "
                        "module RNG; instantiate a seeded random.Random instead",
                    )
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in NP_RANDOM_OK:
                    yield ctx.finding(
                        node,
                        "R001",
                        f"'from numpy.random import {alias.name}' uses numpy's "
                        "global RNG; use numpy.random.default_rng(seed)",
                    )
        return
    assert isinstance(node, ast.Attribute)
    rng = rng_attribute_violation(node)
    if rng is None:
        return
    if rng.startswith("random."):
        advice = "mutates the shared module RNG; use a seeded random.Random instance"
    else:
        advice = "mutates numpy's global RNG; use numpy.random.default_rng(seed)"
    yield ctx.finding(node, "R001", f"{rng} {advice}")


# --- R002: wall-clock reads ---------------------------------------------------


@rule(
    "R002",
    title="no wall-clock reads",
    invariant=(
        "plan serialization is environment-invariant and all durations come "
        "from the monotonic clock owned by repro.obs; wall-clock reads leak "
        "the run environment into outputs and go backwards under NTP steps"
    ),
    nodes=(ast.Attribute, ast.ImportFrom, ast.Call),
    exempt=("repro/obs/",),
)
def no_wall_clock(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    if isinstance(node, ast.Call):
        yield from _call_effect_findings(node, ctx, "R002")
        return
    if isinstance(node, ast.ImportFrom):
        if node.module == "time":
            for alias in node.names:
                if alias.name in TIME_WALL:
                    yield ctx.finding(
                        node,
                        "R002",
                        f"'from time import {alias.name}' reads the wall clock; "
                        "use time.monotonic()/perf_counter() (repro.obs owns timing)",
                    )
        return
    assert isinstance(node, ast.Attribute)
    clock = wall_clock_violation(node)
    if clock is None:
        return
    if clock.startswith("time."):
        advice = "use time.monotonic()/perf_counter() (repro.obs owns timing)"
    else:
        advice = "planner outputs must not depend on when they were produced"
    yield ctx.finding(node, "R002", f"{clock} reads the wall clock; {advice}")


# --- R003: float equality on quantities --------------------------------------


def _quantity_leaves(node: ast.expr) -> Iterator[ast.expr]:
    """Leaf operands of an arithmetic expression (through BinOp/UnaryOp)."""
    if isinstance(node, ast.BinOp):
        yield from _quantity_leaves(node.left)
        yield from _quantity_leaves(node.right)
    elif isinstance(node, ast.UnaryOp):
        yield from _quantity_leaves(node.operand)
    else:
        yield node


def _quantity_label(leaf: ast.expr) -> str:
    if isinstance(leaf, ast.Name):
        return leaf.id
    if isinstance(leaf, ast.Attribute):
        return leaf.attr
    if isinstance(leaf, ast.Constant):
        return repr(leaf.value)
    return ast.unparse(leaf)


def _is_float_quantity(leaf: ast.expr, ctx: FileContext) -> bool:
    """A float literal, a unit-suffixed name, or a flow-tagged quantity."""
    if isinstance(leaf, ast.Constant):
        return isinstance(leaf.value, float)
    if isinstance(leaf, ast.Name) and unit_suffix(leaf.id) is not None:
        return True
    if isinstance(leaf, ast.Attribute) and unit_suffix(leaf.attr) is not None:
        return True
    # Flow-sensitive: an alias of a quantity is a quantity.
    return ctx.value_of(leaf).unit is not None


@rule(
    "R003",
    title="no float equality on quantities",
    invariant=(
        "capacity/length comparisons must be tolerance-based (math.isclose) "
        "or integer-valued; float == breaks under the engine's chunked "
        "re-association and makes plans differ across platforms"
    ),
    nodes=(ast.Compare,),
)
def no_float_equality(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    assert isinstance(node, ast.Compare)
    if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
        return
    operands = [node.left, *node.comparators]
    for operand in operands:
        for leaf in _quantity_leaves(operand):
            if _is_float_quantity(leaf, ctx):
                value = ctx.value_of(leaf)
                yield ctx.finding(
                    node,
                    "R003",
                    f"float equality on quantity {_quantity_label(leaf)!r}"
                    f"{value.describe()}; use math.isclose or an integer "
                    "unit (fibers, wavelengths)",
                )
                return


# --- R004: unordered iteration ------------------------------------------------

_SET_ALGEBRA_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}

#: Builtins whose result order follows the iteration order of their input.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter", "reversed"}

#: Consumers for which input order provably cannot matter.
_ORDER_INSENSITIVE_CALLS = {
    "sorted",
    "set",
    "frozenset",
    "sum",
    "min",
    "max",
    "any",
    "all",
    "len",
}


def _syntactically_unordered(expr: ast.expr) -> bool:
    """Whether ``expr`` is an unordered set by shape alone (no flow)."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and _syntactically_unordered(func.value)
        ):
            return True
        return False
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_ALGEBRA_OPS):
        return _syntactically_unordered(expr.left) or _syntactically_unordered(
            expr.right
        )
    return False


def _unordered_value(expr: ast.expr, ctx: FileContext) -> AbstractValue | None:
    """The expression's abstract value if it may iterate nondeterministically.

    Flow-sensitive: ``s = set(...); for x in s`` resolves through the
    symbol table; the syntactic shapes remain as a fallback so the rule
    keeps working even on expressions the flow pass did not reach.
    """
    value = ctx.value_of(expr)
    if value.is_unordered:
        return value
    if _syntactically_unordered(expr):
        return AbstractValue(ordered=Orderedness.UNORDERED)
    return None


def _consumed_order_insensitively(node: ast.AST, ctx: FileContext) -> bool:
    """Whether ``node``'s enclosing expression discards iteration order."""
    parent = ctx.parent(node)
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id in _ORDER_INSENSITIVE_CALLS
    )


_R004_MSG = (
    "iteration order of an unordered collection is undefined across "
    "processes and runs; wrap in sorted(...) before it reaches "
    "serialization or scenario enumeration"
)


def _r004_finding(
    node: ast.AST, value: AbstractValue, ctx: FileContext
) -> Finding:
    fix = _sorted_wrap_fix(node, value, ctx) if isinstance(node, ast.expr) else None
    return ctx.finding(node, "R004", _R004_MSG + value.describe(), fix=fix)


def _r004_argument_findings(
    node: ast.Call, ctx: FileContext
) -> Iterator[Finding]:
    """Unordered values passed into parameters the callee iterates.

    The callee's summary records which of its parameters it iterates
    order-sensitively while their orderedness is still the caller's to
    decide; handing such a parameter a set is the same bug as iterating
    the set here, just one call later.
    """
    resolved = ctx.resolve_call(node)
    if resolved is None:
        return
    fid, label = resolved
    info = ctx.project.function(fid)
    if info is None or not info.iterated_params:
        return
    params = list(info.params)
    bound_method = (
        info.class_name is not None
        and isinstance(node.func, ast.Attribute)
        and bool(params)
        and params[0] in ("self", "cls")
    )
    offset = 1 if bound_method else 0
    pairs: list[tuple[str, ast.expr]] = []
    for position, arg in enumerate(node.args):
        if isinstance(arg, ast.Starred):
            break
        index = position + offset
        if index >= len(params):
            break
        pairs.append((params[index], arg))
    for keyword in node.keywords:
        if keyword.arg is not None:
            pairs.append((keyword.arg, keyword.value))
    for name, arg in pairs:
        if name not in info.iterated_params:
            continue
        value = _unordered_value(arg, ctx)
        if value is None:
            continue
        yield ctx.finding(
            arg,
            "R004",
            f"unordered value passed as {name!r} to `{label}()`, which "
            f"iterates it order-sensitively{value.describe()}; sort it "
            "before the call",
            fix=_sorted_wrap_fix(arg, value, ctx),
        )


@rule(
    "R004",
    title="no unordered iteration",
    invariant=(
        "serialized plans and enumerated scenarios are byte-identical across "
        "runs, worker counts, and PYTHONHASHSEED; set iteration order is none "
        "of those — even through an alias"
    ),
    nodes=(ast.For, ast.AsyncFor, ast.comprehension, ast.Call),
)
def no_unordered_iteration(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    if isinstance(node, (ast.For, ast.AsyncFor)):
        value = _unordered_value(node.iter, ctx)
        if value is not None:
            yield _r004_finding(node.iter, value, ctx)
        return
    if isinstance(node, ast.comprehension):
        value = _unordered_value(node.iter, ctx)
        if value is None:
            return
        # The enclosing comprehension decides whether order can matter: a
        # SetComp's own result is unordered (flagged where *it* is consumed),
        # and a generator fed straight into sorted()/sum()/... is fine.
        enclosing = ctx.parent(node)
        if isinstance(enclosing, ast.SetComp):
            return
        if isinstance(enclosing, ast.GeneratorExp) and _consumed_order_insensitively(
            enclosing, ctx
        ):
            return
        yield _r004_finding(node.iter, value, ctx)
        return
    assert isinstance(node, ast.Call)
    yield from _call_effect_findings(node, ctx, "R004")
    yield from _r004_argument_findings(node, ctx)
    func = node.func
    arg = node.args[0] if node.args else None
    if arg is None:
        return
    value = _unordered_value(arg, ctx)
    if value is None:
        return
    is_conversion = isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS
    is_join = isinstance(func, ast.Attribute) and func.attr == "join"
    if (is_conversion or is_join) and not _consumed_order_insensitively(node, ctx):
        yield _r004_finding(arg, value, ctx)


# --- R005: module-level mutable state -----------------------------------------

#: Files allowed to rebind module globals: the PID-pinned hose cache (built
#: to detect and survive process-pool forks) and the obs tracer facade
#: (explicitly per-process; worker traces cross the pool via capture/attach).
_R005_WHITELIST = ("repro/core/hose.py", "repro/obs/tracer.py")


@rule(
    "R005",
    title="no module-level mutable state",
    invariant=(
        "worker processes must not inherit or race on module state; the "
        "PID-pinned hose cache is the only blessed module-level cache and "
        "the obs tracer facade the only blessed process-local singleton"
    ),
    nodes=(ast.Global, ast.Call),
    exempt=_R005_WHITELIST,
)
def no_module_state(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    if isinstance(node, ast.Call):
        yield from _call_effect_findings(node, ctx, "R005")
        return
    assert isinstance(node, ast.Global)
    for name in node.names:
        yield ctx.finding(
            node,
            "R005",
            f"rebinding module-level {name!r} breaks process-pool isolation; "
            "only the PID-pinned hose cache (repro.core.hose) and the obs "
            "tracer facade may hold module state",
        )


# --- R006: keyword-only config params ----------------------------------------

#: Entry-point names whose defaulted parameters must be keyword-only.
_R006_NAMES = {"get_design", "register_design"}


@rule(
    "R006",
    title="planner config params keyword-only",
    invariant=(
        "public plan_*/design-registry signatures grow options over time; "
        "keyword-only config keeps call sites unambiguous and lets params "
        "reorder without silently changing meaning"
    ),
    nodes=(ast.FunctionDef, ast.AsyncFunctionDef),
)
def keyword_only_config(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    name = node.name
    if name.startswith("_"):
        return
    if not (name.startswith("plan_") or name in _R006_NAMES):
        return
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    defaulted = positional[len(positional) - len(args.defaults) :]
    # The autofix inserts "*, " before the first defaulted parameter. Only
    # safe when no *args / positional-only / existing keyword-only params
    # complicate the signature — anything fancier needs a human.
    fixable = (
        args.vararg is None and not args.posonlyargs and not args.kwonlyargs
    )
    for index, param in enumerate(defaulted):
        fix = None
        if fixable and index == 0:
            anchor = ctx.offset_of(param.lineno, param.col_offset)
            fix = TextEdit(anchor, anchor, "*, ")
        yield ctx.finding(
            param,
            "R006",
            f"config parameter {param.arg!r} of public entry point {name}() "
            "must be keyword-only (move it after '*')",
            fix=fix,
        )


# --- R007: unit-suffix mixing -------------------------------------------------

#: Unit pairs whose +/- arithmetic is the legitimate link-budget idiom:
#: absolute power (dBm) shifted by a relative gain/loss (dB).
_LINK_BUDGET_PAIR = frozenset({"db", "dbm"})


def _operand_unit(expr: ast.expr, ctx: FileContext) -> str | None:
    """The unit tag of an operand: declared suffix first, then flow."""
    if isinstance(expr, ast.Name):
        suffix = unit_suffix(expr.id)
        if suffix is not None:
            return suffix
    elif isinstance(expr, ast.Attribute):
        suffix = unit_suffix(expr.attr)
        if suffix is not None:
            return suffix
    return ctx.value_of(expr).unit


def _unit_origin_note(expr: ast.expr, expr_unit: str, ctx: FileContext) -> str | None:
    """Where an operand's unit tag came from, when it crossed a call.

    ``dist_km() + loss_db`` flags like any other mix, but the resolved
    return summary knows the km came out of ``dist_km()`` — quoting that
    saves the reader a hop when the operand is an alias or a call chain.
    """
    value = ctx.value_of(expr)
    if value.unit == expr_unit and value.origin and value.origin.startswith("via "):
        return f"'_{expr_unit}' {value.origin}"
    return None


def _mixing_message(left_unit: str, right_unit: str) -> str:
    left_dim = unit_dimension(left_unit)
    right_dim = unit_dimension(right_unit)
    if left_dim != right_dim:
        scale = f"{left_dim} with {right_dim} never makes sense"
    else:
        scale = "convert through repro.units first"
    return (
        f"mixing unit tags '_{left_unit}' and '_{right_unit}' in one "
        f"expression; {scale}"
    )


@rule(
    "R007",
    title="no unit-tag mixing",
    invariant=(
        "distances are km, times are seconds, rates are Gbps, powers are "
        "dBm throughout; adding or comparing quantities with different "
        "unit tags — directly or through an alias — bypasses the "
        "repro.units conversion helpers"
    ),
    nodes=(ast.BinOp, ast.Compare),
)
def no_unit_mixing(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    if isinstance(node, ast.BinOp):
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return
        operand_pairs = [(node.left, node.right)]
        link_budget_ok = True
    else:
        assert isinstance(node, ast.Compare)
        chain = [node.left, *node.comparators]
        operand_pairs = list(zip(chain, chain[1:]))
        # Comparing a relative dB level against an absolute dBm power is
        # a bug even though their +/- arithmetic is the budget idiom.
        link_budget_ok = False
    for left, right in operand_pairs:
        left_unit = _operand_unit(left, ctx)
        right_unit = _operand_unit(right, ctx)
        if not left_unit or not right_unit or left_unit == right_unit:
            continue
        if link_budget_ok and {left_unit, right_unit} == _LINK_BUDGET_PAIR:
            continue
        message = _mixing_message(left_unit, right_unit)
        notes = [
            note
            for operand, operand_unit in ((left, left_unit), (right, right_unit))
            if (note := _unit_origin_note(operand, operand_unit, ctx)) is not None
        ]
        if notes:
            message += " (" + "; ".join(notes) + ")"
        yield ctx.finding(node, "R007", message)


# --- R008: atomic writes in repro.store ---------------------------------------

#: ``open()`` mode characters that make a call a write.
_WRITE_MODE_CHARS = set("wax+")

#: Method names that write a file in one call.
_WRITE_METHODS = {"write_text", "write_bytes"}


def _iter_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """All descendants of ``scope`` that belong to its own function scope.

    Nested function bodies are skipped — they are dispatched to the rule
    as scopes of their own — while classes and other compound statements
    are traversed.
    """
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from _iter_scope(child)


def _open_mode(call: ast.Call) -> str | None:
    """The literal mode of an ``open()`` call, or None if absent/dynamic."""
    mode: ast.expr | None = call.args[1] if len(call.args) >= 2 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


@rule(
    "R008",
    title="atomic writes in repro.store",
    invariant=(
        "every artifact-store write lands via a same-directory tmp file "
        "published with os.replace, so concurrent readers observe either "
        "the old file or the complete new one — never a torn blob"
    ),
    nodes=(ast.Module, ast.FunctionDef, ast.AsyncFunctionDef),
)
def atomic_store_writes(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    if "repro/store" not in ctx.module_path:
        return
    writes: list[tuple[ast.Call, str]] = []
    for child in _iter_scope(node):
        if not isinstance(child, ast.Call):
            continue
        func = child.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _open_mode(child)
            if mode is not None and set(mode) & _WRITE_MODE_CHARS:
                writes.append((child, f"open(..., {mode!r})"))
        elif isinstance(func, ast.Attribute):
            if func.attr in _WRITE_METHODS:
                writes.append((child, f".{func.attr}(...)"))
            elif func.attr == "replace" and _dotted_root(func) == "os":
                # The scope publishes through os.replace: its tmp-file
                # writes are the atomic idiom, not torn-write hazards.
                return
    for call, label in writes:
        yield ctx.finding(
            call,
            "R008",
            f"{label} in repro.store without os.replace in the same scope; "
            "write a same-directory tmp file and publish it with os.replace",
        )


# --- R009: unordered data escaping into serialization --------------------------

#: Callables whose output bytes depend on input iteration order: the
#: store's canonical encoding and key construction (repro.store.canonical
#: / repro.store.keys), lossless plan serialization, and raw json.dumps.
#: canonical_json sorts *dict keys* but a set value crashes it and a
#: list-built-from-a-set silently changes the digest run to run.
_SERIALIZATION_SINKS = frozenset(
    {
        "canonical_json",
        "digest",
        "sha256_hex",
        "artifact_key",
        "plan_key",
        "plan_to_dict",
        "plan_to_json",
        "topology_to_dict",
        "dumps",
    }
)


@rule(
    "R009",
    title="no unordered data into serialization",
    invariant=(
        "cache keys and serialized artifacts are byte-identical across "
        "runs and PYTHONHASHSEED; any set — even buried in a dict passed "
        "through an alias — that reaches canonical_json/digest/plan_key "
        "makes the same plan hash differently on the next run"
    ),
    nodes=(ast.Call,),
)
def no_unordered_serialization(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    assert isinstance(node, ast.Call)
    func = node.func
    fname = (
        func.id
        if isinstance(func, ast.Name)
        else func.attr
        if isinstance(func, ast.Attribute)
        else None
    )
    if fname not in _SERIALIZATION_SINKS:
        return
    arguments = [*node.args, *(kw.value for kw in node.keywords)]
    for arg in arguments:
        value = _unordered_value(arg, ctx)
        if value is not None:
            yield ctx.finding(
                arg,
                "R009",
                f"unordered value reaches serialization sink {fname}()"
                f"{value.describe()}; its iteration order would leak into "
                "canonical bytes — sort it into a list first",
                fix=_sorted_wrap_fix(arg, value, ctx),
            )


# --- R010: return unit consistent with the function's name suffix --------------


@rule(
    "R010",
    title="return unit matches name suffix",
    invariant=(
        "a function named *_km returns kilometres — callers convert based "
        "on the suffix alone, so a body that returns a value tagged with a "
        "different unit silently corrupts every downstream computation"
    ),
    nodes=(ast.FunctionDef, ast.AsyncFunctionDef),
)
def return_unit_matches_suffix(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    declared = unit_suffix(node.name)
    if declared is None:
        return
    for return_stmt, value in ctx.returns_of(node):
        if value.unit is None or value.unit == declared:
            continue
        yield ctx.finding(
            return_stmt,
            "R010",
            f"{node.name}() is suffixed '_{declared}' but this return is "
            f"tagged '_{value.unit}'; convert through repro.units or "
            "rename the function",
        )


# --- R011: obs span/counter discipline ------------------------------------------

#: Span types that must never be constructed directly outside repro.obs:
#: hand-built records bypass the tracer's nesting stack and the disabled-
#: tracing NULL_SPAN fast path.
_SPAN_TYPES = frozenset({"Span", "SpanRecord"})


@rule(
    "R011",
    title="obs span/counter discipline",
    invariant=(
        "trace trees are well-nested and counter namespaces deterministic: "
        "spans come from tracer.span()/obs.span() and are entered with "
        "'with'; counter keys never embed unordered iteration, or shard "
        "merges stop being comparable across runs"
    ),
    nodes=(ast.Call,),
    exempt=("repro/obs/",),
)
def obs_span_discipline(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    assert isinstance(node, ast.Call)
    func = node.func
    fname = (
        func.id
        if isinstance(func, ast.Name)
        else func.attr
        if isinstance(func, ast.Attribute)
        else None
    )
    if fname in _SPAN_TYPES:
        yield ctx.finding(
            node,
            "R011",
            f"direct {fname}(...) construction bypasses the tracer facade; "
            "open spans with obs.span()/tracer.span() so nesting and the "
            "disabled fast path hold",
        )
        return
    if fname == "span":
        # A span statement that is never entered records nothing: the
        # duration only exists between __enter__ and __exit__.
        parent = ctx.parent(node)
        if isinstance(parent, ast.Expr):
            yield ctx.finding(
                node,
                "R011",
                "span(...) is never entered, so it records nothing; use "
                "'with ... span(...):' around the timed block",
            )
        return
    if fname == "incr" and node.args:
        key = node.args[0]
        value = _unordered_value(key, ctx)
        if value is not None:
            yield ctx.finding(
                key,
                "R011",
                f"counter key built from unordered iteration{value.describe()};"
                " keys must be deterministic or shard merges diverge run to "
                "run",
            )


# --- R012-R014: pool-submitted callable safety ----------------------------------

#: Backend method names that submit their first argument to a worker pool.
_SUBMIT_METHODS = {"run_chunks": 0, "iter_chunks": 0, "submit": 0}

#: Free functions that submit one of their arguments to a worker pool.
_SUBMIT_FUNCS = {"map_in_chunks": 1}

#: The engine owns the pool: it forwards already-checked callables into
#: ``pool.submit`` and wraps them for tracing, which is not a submission
#: decision of its own.
_POOL_EXEMPT = ("repro/core/engine.py",)

#: Effects that make pool work nondeterministic per chunk (R013).
_POOL_DETERMINISM = ("global_rng", "wall_clock", "module_state")

#: Effects that make a chunk function impure (R014).
_POOL_PURITY = ("io", "unordered_iter")


def _unwrap_partial(expr: ast.expr) -> ast.expr:
    """The callable inside ``functools.partial(fn, ...)``, else ``expr``."""
    if isinstance(expr, ast.Call):
        func = expr.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name == "partial" and expr.args:
            return _unwrap_partial(expr.args[0])
    return expr


def _submitted_callable(node: ast.Call) -> tuple[ast.expr, str] | None:
    """(callable expr, submit-site label) when this call feeds a pool.

    Matches the repo's submission shapes — ``backend.run_chunks(fn, ...)``,
    ``backend.iter_chunks(fn, ...)``, ``pool.submit(fn, ...)``, and
    ``map_in_chunks(backend, fn, ...)`` — and unwraps ``functools.partial``
    so a partially-applied chunk function is still checked.
    """
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _SUBMIT_METHODS:
        index = _SUBMIT_METHODS[func.attr]
        label = f".{func.attr}()"
    elif isinstance(func, ast.Name) and func.id in _SUBMIT_FUNCS:
        index = _SUBMIT_FUNCS[func.id]
        label = f"{func.id}()"
    else:
        return None
    if index >= len(node.args) or any(
        isinstance(arg, ast.Starred) for arg in node.args[: index + 1]
    ):
        return None
    return _unwrap_partial(node.args[index]), label


def _submitted_function(
    expr: ast.expr, ctx: FileContext
) -> tuple[str, FunctionFacts] | None:
    """(fid, facts) of a project function passed by reference, if any."""
    fid = ctx.resolve_callable(expr, ctx.scope_qualname(expr))
    if fid is None:
        return None
    info = ctx.project.function(fid)
    return (fid, info) if info is not None else None


def _worker_safe_findings(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    ctx: FileContext,
    effect_names: tuple[str, ...],
    rule_id: str,
) -> Iterator[Finding]:
    """``@worker_safe`` declarations are verified, not trusted.

    The decorator is the author's claim that a function may run in pool
    workers; the transitive effect closure is the proof obligation.
    """
    qualname = ctx.facts.node_qualnames.get(node)
    if qualname is None:
        return
    fid = function_id(ctx.facts.path, qualname)
    info = ctx.project.function(fid)
    if info is None or not info.worker_safe:
        return
    for effect in effect_names:
        origin = ctx.project.effects_of(fid).get(effect)
        if origin is None:
            continue
        yield ctx.finding(
            node,
            rule_id,
            f"`{node.name}()` is declared @worker_safe but "
            f"{EFFECT_LABELS[effect]} ({chain_text(origin)}); fix the "
            "effect or drop the decorator",
        )


@rule(
    "R012",
    title="pool submissions picklable",
    invariant=(
        "the process-pool backends pickle the submitted callable into "
        "spawned workers; a lambda or nested function fails at pickle "
        "time — inside the pool, far from the call site — so it is "
        "rejected at review time instead"
    ),
    nodes=(ast.Call,),
    exempt=_POOL_EXEMPT,
)
def pool_picklable(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    assert isinstance(node, ast.Call)
    submitted = _submitted_callable(node)
    if submitted is None:
        return
    expr, label = submitted
    if isinstance(expr, ast.Lambda):
        yield ctx.finding(
            expr,
            "R012",
            f"lambda submitted to {label} cannot be pickled into spawned "
            "pool workers; define a module-level function",
        )
        return
    resolved = _submitted_function(expr, ctx)
    if resolved is not None and resolved[1].is_nested:
        yield ctx.finding(
            expr,
            "R012",
            f"nested function `{resolved[1].name}()` submitted to {label} "
            "cannot be pickled into spawned pool workers; move it to "
            "module level",
        )


@rule(
    "R013",
    title="pool submissions deterministic",
    invariant=(
        "chunked execution must produce the same plan at every worker "
        "count; a submitted callable that reaches global RNG state, the "
        "wall clock, or module state makes chunk results depend on which "
        "worker ran them and in what order"
    ),
    nodes=(ast.Call, ast.FunctionDef, ast.AsyncFunctionDef),
    exempt=_POOL_EXEMPT,
)
def pool_deterministic(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield from _worker_safe_findings(node, ctx, _POOL_DETERMINISM, "R013")
        return
    assert isinstance(node, ast.Call)
    submitted = _submitted_callable(node)
    if submitted is None:
        return
    expr, label = submitted
    resolved = _submitted_function(expr, ctx)
    if resolved is None:
        return
    fid, info = resolved
    for effect in _POOL_DETERMINISM:
        origin = ctx.project.effects_of(fid).get(effect)
        if origin is None:
            continue
        yield ctx.finding(
            expr,
            "R013",
            f"`{info.name}()` submitted to {label} "
            f"{EFFECT_LABELS[effect]} ({chain_text(origin)}); pool work "
            "must be deterministic per chunk",
        )


@rule(
    "R014",
    title="pool chunk functions pure",
    invariant=(
        "chunk functions run concurrently in spawned workers; hidden "
        "filesystem I/O races between workers, and unordered iteration "
        "inside a chunk ties the merged plan to each worker's hash "
        "seeding"
    ),
    nodes=(ast.Call, ast.FunctionDef, ast.AsyncFunctionDef),
    exempt=_POOL_EXEMPT,
)
def pool_pure(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield from _worker_safe_findings(node, ctx, _POOL_PURITY, "R014")
        return
    assert isinstance(node, ast.Call)
    submitted = _submitted_callable(node)
    if submitted is None:
        return
    expr, label = submitted
    resolved = _submitted_function(expr, ctx)
    if resolved is None:
        return
    fid, info = resolved
    for effect in _POOL_PURITY:
        origin = ctx.project.effects_of(fid).get(effect)
        if origin is None:
            continue
        yield ctx.finding(
            expr,
            "R014",
            f"`{info.name}()` submitted to {label} "
            f"{EFFECT_LABELS[effect]} ({chain_text(origin)}); chunk "
            "functions must not touch the filesystem or iterate "
            "unordered data",
        )
