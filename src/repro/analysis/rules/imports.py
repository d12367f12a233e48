"""``lazy-import-hygiene``: the import graph stays lazy, guarded and acyclic.

The library's import-time contract has four legs:

* the PEP-562 façades (:data:`FACADES`) import eagerly only what their
  table allows; everything else resolves lazily through ``__getattr__``.
  ``repro/api/__init__.py`` may load only the registry module: component
  modules do ``from repro.api.registry import DATASETS`` at import time,
  and one eager import of ``session`` or ``specs`` there makes every
  component registration a cycle.  ``repro/obs/__init__.py`` may load only
  ``repro.obs.profile``: the trainer, LOO and ALS hot paths import its
  ``phase`` guard, and one eager import of the metrics, export, adapter or
  trace modules puts them in every process;
* optional accelerators (``numba``, ``torch``) must never be imported
  eagerly by a ``repro`` module outside a ``try/except ImportError`` guard —
  the library has to import (and the CPU paths have to run) on machines
  without them;
* heavy modules only a rare path needs (``scipy`` and every ``scipy.*``
  submodule, which only the test-time LOO posterior uses and which would
  otherwise dominate the package's cold-start import) may only be imported
  inside the function that uses them, never at module level of a ``repro``
  module.  The ``scipy.special`` and ``scipy.stats`` packages may not be
  imported even there: the posterior's two kernels load without them
  (``repro.quality._scipy_kernels``), so an import of either would put
  dozens of modules back into every serving process.  The kernel module's
  own fallback is the one reasoned exception;
* the explicit top-level import graph between ``repro`` modules must stay
  acyclic.  Implicit package-parent edges are normal Python and ignored;
  it is the *explicit* ``import repro.x`` edges that, once circular, make
  import order start to matter and turn refactors into landmines.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.finding import Finding
from repro.analysis.project import Project, SourceFile
from repro.analysis.registry import AnalysisRule, RULES

#: PEP-562 façades: path suffix -> the only modules the façade may import eagerly.
FACADES = {
    "repro/api/__init__.py": frozenset({"__future__", "typing", "repro.api.registry"}),
    "repro/obs/__init__.py": frozenset({"__future__", "typing", "repro.obs.profile"}),
}

#: Optional heavy dependencies that must stay behind ImportError guards.
GUARDED_MODULES = frozenset({"numba", "torch"})

#: Modules a ``repro`` module may only import inside a function: each costs
#: far more import time than the one code path that needs it.  An entry
#: covers its submodules too, so ``scipy`` covers ``scipy.special``.
FUNCTION_ONLY_MODULES = frozenset({"scipy"})

#: Packages a ``repro`` module may not import at all, not even inside a
#: function; an entry covers its submodules too.
UNIMPORTED_PACKAGES = frozenset({"scipy.special", "scipy.stats"})


def _is_type_checking_guard(node: ast.If) -> bool:
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _handles_import_error(node: ast.Try) -> bool:
    for handler in node.handlers:
        types = handler.type
        if types is None:
            return True  # bare except catches ImportError too
        elements = types.elts if isinstance(types, ast.Tuple) else [types]
        for element in elements:
            name = element.attr if isinstance(element, ast.Attribute) else getattr(element, "id", "")
            if name in ("ImportError", "ModuleNotFoundError", "Exception", "BaseException"):
                return True
    return False


def _covered_import(
    node: ast.AST, imported: str, modules: frozenset
) -> Optional[Tuple[str, str]]:
    """The most specific name this import loads that ``modules`` covers, and its entry.

    ``from scipy import stats`` names the module through the imported
    alias, so ``from`` imports are checked as ``module.alias`` first and the
    most specific name is reported (``scipy.stats``, not ``scipy``).
    """
    candidates = [imported]
    if isinstance(node, ast.ImportFrom):
        candidates = [f"{imported}.{alias.name}" for alias in node.names] + candidates
    for candidate in candidates:
        for module in modules:
            if candidate == module or candidate.startswith(module + "."):
                return candidate, module
    return None


def _nested_imports(tree: ast.Module, top_level: Set[int]) -> Iterator[Tuple[ast.AST, str]]:
    """Yield ``(node, module)`` for the absolute imports not in ``top_level``."""
    for node in ast.walk(tree):
        if id(node) in top_level:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node, node.module


def _top_level_imports(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, str, bool, bool]]:
    """Yield ``(node, module, guarded, type_checking)`` for top-level imports.

    Recurses through ``if``/``try`` statements (still import time) but not
    into functions or classes (lazy by construction).
    """

    def visit(
        statements: List[ast.stmt], guarded: bool, type_checking: bool
    ) -> Iterator[Tuple[ast.AST, str, bool, bool]]:
        for statement in statements:
            if isinstance(statement, ast.Import):
                for alias in statement.names:
                    yield statement, alias.name, guarded, type_checking
            elif isinstance(statement, ast.ImportFrom):
                if statement.level == 0 and statement.module:
                    yield statement, statement.module, guarded, type_checking
            elif isinstance(statement, ast.If):
                checking = type_checking or _is_type_checking_guard(statement)
                yield from visit(statement.body, guarded, checking)
                yield from visit(statement.orelse, guarded, type_checking)
            elif isinstance(statement, ast.Try):
                shields = _handles_import_error(statement)
                yield from visit(statement.body, guarded or shields, type_checking)
                for handler in statement.handlers:
                    yield from visit(handler.body, guarded, type_checking)
                yield from visit(statement.orelse, guarded, type_checking)
                yield from visit(statement.finalbody, guarded, type_checking)

    yield from visit(tree.body, False, False)


@RULES.register("lazy-import-hygiene")
class LazyImportHygieneRule(AnalysisRule):
    id = "lazy-import-hygiene"
    description = (
        "the repro.api and repro.obs facades import only their allowed modules "
        "eagerly, numba/torch stay behind "
        "ImportError guards, scipy is imported only inside functions and "
        "scipy.special/scipy.stats not at all, and the explicit top-level import "
        "graph is acyclic"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        modules: Dict[str, SourceFile] = {}
        edges: Dict[str, List[Tuple[str, SourceFile, ast.AST]]] = {}

        for source in project.files:
            module = source.module_name
            if module is not None:
                modules[module] = source

        for source in project.files:
            yield from self._check_file(source, modules, edges)

        yield from self._check_cycles(edges)

    def _check_file(
        self,
        source: SourceFile,
        modules: Dict[str, SourceFile],
        edges: Dict[str, List[Tuple[str, SourceFile, ast.AST]]],
    ) -> Iterator[Finding]:
        facade_allows = next(
            (allowed for suffix, allowed in FACADES.items() if source.rel_path.endswith(suffix)),
            None,
        )
        module = source.module_name
        in_repro = module is not None

        top_level: Set[int] = set()
        for node, imported, guarded, type_checking in _top_level_imports(source.tree):
            top_level.add(id(node))
            if type_checking:
                continue  # never executed at runtime
            root = imported.split(".")[0]
            if in_repro and root in GUARDED_MODULES and not guarded:
                yield source.finding(
                    self.id,
                    node,
                    f"eager top-level import of optional dependency `{root}`; wrap "
                    "it in try/except ImportError so the library imports without it",
                )
            lazy_only = _covered_import(node, imported, FUNCTION_ONLY_MODULES) if in_repro else None
            if lazy_only is not None:
                yield source.finding(
                    self.id,
                    node,
                    f"module-level import of `{lazy_only[0]}`; import it inside the "
                    "function that needs it so importing the package stays cheap",
                )
            if facade_allows is not None and imported not in facade_allows:
                yield source.finding(
                    self.id,
                    node,
                    f"{module} facade eagerly imports `{imported}`; only "
                    f"{sorted(facade_allows)} may load at import time — "
                    "everything else goes through the PEP-562 __getattr__",
                )
            if module is not None:
                target = self._resolve_project_module(imported, modules)
                if target is not None and target != module:
                    edges.setdefault(module, []).append((target, source, node))

        if not in_repro:
            return
        for node, imported in _nested_imports(source.tree, top_level):
            banned = _covered_import(node, imported, UNIMPORTED_PACKAGES)
            if banned is not None:
                yield source.finding(
                    self.id,
                    node,
                    f"function-level import of `{banned[1]}` loads the whole package; "
                    "call the standalone kernels in repro.quality._scipy_kernels",
                )

    @staticmethod
    def _resolve_project_module(
        imported: str, modules: Dict[str, SourceFile]
    ) -> Optional[str]:
        """Map an imported dotted name onto a scanned project module.

        ``from repro.api.registry import Registry`` hits ``repro.api.registry``
        directly; ``from repro.utils import seeding`` can only be resolved to
        the package, which is close enough for cycle purposes.
        """
        if imported in modules:
            return imported
        # ``from package import submodule`` — try one level down is not
        # distinguishable from importing a name; stay with the longest prefix.
        parts = imported.split(".")
        for length in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:length])
            if prefix in modules:
                return prefix
        return None

    def _check_cycles(
        self, edges: Dict[str, List[Tuple[str, SourceFile, ast.AST]]]
    ) -> Iterator[Finding]:
        graph = {
            module: sorted({target for target, _, _ in targets})
            for module, targets in edges.items()
        }
        seen: Set[str] = set()
        reported: Set[frozenset] = set()

        def dfs(module: str, stack: List[str], on_stack: Set[str]) -> Iterator[List[str]]:
            seen.add(module)
            stack.append(module)
            on_stack.add(module)
            for target in graph.get(module, ()):
                if target in on_stack:
                    yield stack[stack.index(target) :] + [target]
                elif target not in seen:
                    yield from dfs(target, stack, on_stack)
            stack.pop()
            on_stack.remove(module)

        for module in sorted(graph):
            if module in seen:
                continue
            for cycle in dfs(module, [], set()):
                members = frozenset(cycle)
                if members in reported:
                    continue
                reported.add(members)
                first = cycle[0]
                _, source, node = next(
                    entry for entry in edges[first] if entry[0] == cycle[1]
                )
                yield source.finding(
                    self.id,
                    node,
                    "explicit top-level import cycle: " + " -> ".join(cycle),
                )
