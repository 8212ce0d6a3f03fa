"""repro.lint.callgraph — the project-wide call graph under reprolint.

The per-file facts (:mod:`repro.lint.summaries`) record every call site
with a **symbolic** target — ``local:helper`` or
``import:repro.core.hose.solve`` — derivable from the file alone. This
module turns those references into a graph over the whole lint set:

* :class:`ModuleIndex` — dotted-module-name → file resolution over the
  whole lint set, tolerant of the ``src/`` layout prefix;
* :func:`resolve_target` — symbolic reference → project function id
  (``"path::qualname"``);
* :func:`tarjan_scc` — strongly connected components of the resolved
  graph, in reverse-topological (bottom-up) order, which is the order
  the summary pass (:mod:`repro.lint.summaries`) propagates effects in.

Resolution is best-effort and silent on failure (an unresolved call
contributes no edge and no finding): precision lives in what *does*
resolve — module-level functions, ``from m import f`` aliases, dotted
``mod.func`` chains, ``self.method()``/``cls.method()`` within a class,
and nested functions visible from their enclosing scopes.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lint.summaries import FileFacts

__all__ = [
    "ModuleIndex",
    "decorator_names",
    "dotted_parts",
    "function_id",
    "module_name_for_path",
    "resolve_target",
    "scope_chain",
    "split_function_id",
    "tarjan_scc",
]

#: Separator between file path and qualname in a project function id.
_ID_SEP = "::"


def function_id(path: str, qualname: str) -> str:
    """The project-wide id of one function (``"src/repro/x.py::f"``)."""
    return f"{path}{_ID_SEP}{qualname}"


def split_function_id(func_id: str) -> tuple[str, str]:
    """Inverse of :func:`function_id`."""
    path, _, qualname = func_id.rpartition(_ID_SEP)
    return path, qualname


def module_name_for_path(path: str) -> str:
    """The dotted module name a file path corresponds to.

    ``src/repro/core/hose.py`` → ``src.repro.core.hose`` (imports match by
    dotted suffix, so the ``src.`` layout prefix is harmless); package
    ``__init__.py`` files name the package itself.
    """
    dotted = path.replace("\\", "/").strip("/").removesuffix(".py")
    parts = [p for p in dotted.split("/") if p not in ("", ".", "..")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def scope_chain(scope: str | None) -> list[str]:
    """Scope-name prefixes to search, innermost first, ending at module.

    A scope ``"f.<locals>.g"`` sees names defined in ``g`` (prefix
    ``"f.<locals>.g"``), in ``f`` (prefix ``"f"``), and at module level
    (prefix ``""``).
    """
    if not scope:
        return [""]
    chain = [scope]
    parts = scope.split(".<locals>.")
    while len(parts) > 1:
        parts = parts[:-1]
        chain.append(".<locals>.".join(parts))
    if chain[-1] != "":
        chain.append("")
    return chain


def dotted_parts(node: ast.expr) -> list[str] | None:
    """``a.b.c`` → ``["a", "b", "c"]``; None when the chain has calls etc."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    """Dotted display names of a function's decorators (best effort)."""
    names: list[str] = []
    for dec in node.decorator_list:
        expr = dec.func if isinstance(dec, ast.Call) else dec
        parts = dotted_parts(expr) if isinstance(expr, (ast.Name, ast.Attribute)) else None
        if parts:
            names.append(".".join(parts))
    return tuple(names)


class ModuleIndex:
    """Dotted-module-name resolution over the whole lint set.

    Imports are matched by dotted suffix so a file under ``src/repro/...``
    still resolves ``import repro....``; ambiguous suffixes (two files
    whose dotted names share a tail) resolve to nothing rather than to
    the wrong file.
    """

    def __init__(self, files: Iterable[FileFacts]) -> None:
        self._exact: dict[str, str] = {}
        suffix_hits: dict[str, list[str]] = {}
        for facts in sorted(files, key=lambda f: f.path):
            if not facts.module:
                continue
            self._exact.setdefault(facts.module, facts.path)
            parts = facts.module.split(".")
            for i in range(len(parts)):
                suffix = ".".join(parts[i:])
                suffix_hits.setdefault(suffix, []).append(facts.path)
        self._by_suffix: dict[str, str] = {
            suffix: paths[0]
            for suffix, paths in suffix_hits.items()
            if len(set(paths)) == 1
        }

    def file_for_module(self, dotted: str) -> str | None:
        """The lint-set file a dotted module name refers to, if unambiguous."""
        return self._exact.get(dotted) or self._by_suffix.get(dotted)


def resolve_target(
    target: str,
    own: FileFacts,
    index: ModuleIndex,
    files: Mapping[str, FileFacts],
) -> str | None:
    """Resolve one symbolic call target to a project function id.

    ``local:`` targets resolve within ``own``; ``import:`` targets
    split the dotted path into the longest module prefix known to the
    index plus a trailing function (or ``Class.method``) qualname.
    """
    kind, _, ref = target.partition(":")
    if kind == "local":
        if ref in own.functions:
            return function_id(own.path, ref)
        return None
    if kind != "import":
        return None
    parts = ref.split(".")
    # Longest module prefix first: "repro.core.hose.solve" tries the
    # module "repro.core.hose" before "repro.core" (+ "hose.solve").
    for cut in range(len(parts) - 1, 0, -1):
        module = ".".join(parts[:cut])
        path = index.file_for_module(module)
        if path is None:
            continue
        qualname = ".".join(parts[cut:])
        facts = files.get(path)
        if facts is not None and qualname in facts.functions:
            return function_id(path, qualname)
        return None
    return None


def tarjan_scc(graph: Mapping[str, Sequence[str]]) -> list[list[str]]:
    """Strongly connected components, bottom-up (callees before callers).

    Iterative Tarjan over a deterministic (sorted) traversal: the output
    order and the order within each component depend only on the graph,
    never on dict insertion or hash order.
    """
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    def neighbors(node: str) -> list[str]:
        return sorted(set(graph.get(node, ())) & graph.keys())

    for root in sorted(graph):
        if root in index_of:
            continue
        work: list[tuple[str, Iterator[str]]] = [(root, iter(neighbors(root)))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(neighbors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
    return components
