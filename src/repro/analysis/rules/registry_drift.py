"""``registry-spec-drift``: registrations, specs, docs and scenarios agree.

Components are wired by string keys: ``@DATASETS.register("sensorscope")``
on the factory side, ``{"name": "sensorscope", "params": {...}}`` in
scenario JSON, backticked key lists in the README/docs tables.  Nothing at
runtime ties these together until a user actually loads the scenario or
copies the documented key — which is exactly when drift hurts most.  This
rule closes the loop statically:

* every registered factory must be *spec-expressible*: scenario ``params``
  are passed verbatim as keyword arguments, so positional-only parameters
  and ``*args`` can never be reached from a spec;
* a registration that declares ``seed_stream`` metadata promises the
  session a derived seed — the factory must accept a ``seed`` argument
  (or ``**kwargs``) for the injection to land;
* every component reference in ``examples/scenarios/*.json`` and in
  fenced ``json`` blocks in the docs must resolve to a registered key;
* every backticked key in the README/docs registry tables (rows whose
  first cell names a registry) must be registered.

Reference checks for a registry are skipped when the analysed paths
contain no registrations for it at all (partial runs must not claim the
docs are wrong merely because the factories were not scanned).
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.finding import Finding
from repro.analysis.project import Project, SourceFile
from repro.analysis.registry import AnalysisRule, RULES

#: Registry variable name → registry kind (as used in docs tables).
REGISTRY_VARS: Dict[str, str] = {
    "DATASETS": "datasets",
    "INFERENCE": "inference",
    "POLICIES": "policies",
    "ASSESSORS": "assessors",
    "RULES": "rules",
}

#: Scenario/doc JSON field → registry kind for component references.
COMPONENT_FIELDS: Dict[str, str] = {
    "dataset": "datasets",
    "inference": "inference",
    "policy": "policies",
    "assessor": "assessors",
}

_BACKTICK_RE = re.compile(r"`([^`\s]+)`")
_FENCE_RE = re.compile(r"^```json\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


class _Registration:
    def __init__(
        self,
        source: SourceFile,
        node: ast.AST,
        kind: str,
        key: str,
        metadata: Set[str],
    ) -> None:
        self.source = source
        self.node = node
        self.kind = kind
        self.key = key
        self.metadata = metadata


def _registration_of(decorator: ast.expr) -> Optional[Tuple[str, str, Set[str]]]:
    """``(kind, key, metadata keywords)`` if the decorator is a registration."""
    if not (
        isinstance(decorator, ast.Call)
        and isinstance(decorator.func, ast.Attribute)
        and decorator.func.attr == "register"
        and isinstance(decorator.func.value, ast.Name)
        and decorator.func.value.id in REGISTRY_VARS
    ):
        return None
    if not (
        decorator.args
        and isinstance(decorator.args[0], ast.Constant)
        and isinstance(decorator.args[0].value, str)
    ):
        return None
    kind = REGISTRY_VARS[decorator.func.value.id]
    key = decorator.args[0].value
    metadata = {kw.arg for kw in decorator.keywords if kw.arg is not None}
    return kind, key, metadata


def _factory_signature(node: ast.AST) -> Optional[ast.arguments]:
    """The effective call signature of a registered factory."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.args
    if isinstance(node, ast.ClassDef):
        for statement in node.body:
            if (
                isinstance(statement, ast.FunctionDef)
                and statement.name == "__init__"
            ):
                return statement.args
    return None


def _accepts_keyword(args: ast.arguments, name: str) -> bool:
    if args.kwarg is not None:
        return True
    names = [arg.arg for arg in list(args.args) + list(args.kwonlyargs)]
    return name in names


def _collect_registrations(project: Project) -> List[_Registration]:
    registrations: List[_Registration] = []
    for source in project.files:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for decorator in node.decorator_list:
                info = _registration_of(decorator)
                if info is not None:
                    kind, key, metadata = info
                    registrations.append(
                        _Registration(source, node, kind, key, metadata)
                    )
    return registrations


def _component_refs(value: object, field_kind: Optional[str]) -> Iterator[Tuple[str, str]]:
    """Yield ``(kind, key)`` component references inside parsed JSON."""
    if isinstance(value, dict):
        if (
            field_kind is not None
            and isinstance(value.get("name"), str)
            and set(value) <= {"name", "params"}
        ):
            yield field_kind, value["name"]
        for key, child in value.items():
            yield from _component_refs(child, COMPONENT_FIELDS.get(key))
    elif isinstance(value, list):
        for child in value:
            yield from _component_refs(child, None)


def _line_of(text: str, needle: str) -> int:
    for number, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return number
    return 0


@RULES.register("registry-spec-drift")
class RegistrySpecDriftRule(AnalysisRule):
    id = "registry-spec-drift"
    description = (
        "registered factories must be spec-expressible (kwargs only, seed param when "
        "seed_stream is declared) and every key referenced in scenarios/docs must "
        "resolve to a registration"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        registrations = _collect_registrations(project)
        keys: Dict[str, Set[str]] = {}
        for registration in registrations:
            keys.setdefault(registration.kind, set()).add(registration.key)

        yield from self._check_signatures(registrations)
        yield from self._check_scenarios(project, keys)
        yield from self._check_docs(project, keys)

    # -- factory signatures ---------------------------------------------------

    def _check_signatures(self, registrations: List[_Registration]) -> Iterator[Finding]:
        for registration in registrations:
            args = _factory_signature(registration.node)
            if args is None:
                # A class without its own __init__ takes no configuration —
                # trivially spec-expressible, but a declared seed_stream has
                # nowhere to land.
                if "seed_stream" in registration.metadata:
                    yield registration.source.finding(
                        self.id,
                        registration.node,
                        f"registered component `{registration.key}` declares "
                        "`seed_stream` metadata but defines no __init__ to "
                        "accept the session's derived seed",
                    )
                continue
            if args.posonlyargs:
                names = [arg.arg for arg in args.posonlyargs if arg.arg != "self"]
                if names:
                    yield registration.source.finding(
                        self.id,
                        registration.node,
                        f"registered component `{registration.key}` takes "
                        f"positional-only parameter(s) {names}; scenario params are "
                        "passed as keywords and can never reach them",
                    )
            if args.vararg is not None:
                yield registration.source.finding(
                    self.id,
                    registration.node,
                    f"registered component `{registration.key}` takes "
                    f"`*{args.vararg.arg}`; spec params are keyword-only and "
                    "cannot express positional var-args",
                )
            if "seed_stream" in registration.metadata and not _accepts_keyword(
                args, "seed"
            ):
                yield registration.source.finding(
                    self.id,
                    registration.node,
                    f"registered component `{registration.key}` declares "
                    "`seed_stream` metadata but its factory accepts no `seed` "
                    "argument; the session's derived seed has nowhere to land",
                )

    # -- scenario JSON --------------------------------------------------------

    def _check_scenarios(
        self, project: Project, keys: Dict[str, Set[str]]
    ) -> Iterator[Finding]:
        for path in project.scenario_paths():
            text = path.read_text(encoding="utf-8")
            try:
                data = json.loads(text)
            except json.JSONDecodeError as error:
                yield Finding(
                    path=project.rel(path),
                    line=error.lineno,
                    col=error.colno - 1,
                    rule=self.id,
                    message=f"scenario file does not parse as JSON: {error.msg}",
                )
                continue
            yield from self._check_refs(project.rel(path), text, data, keys)

    def _check_refs(
        self, rel_path: str, text: str, data: object, keys: Dict[str, Set[str]]
    ) -> Iterator[Finding]:
        for kind, key in _component_refs(data, None):
            registered = keys.get(kind)
            if not registered:  # kind not scanned in this run: cannot judge
                continue
            if key not in registered:
                yield Finding(
                    path=rel_path,
                    line=_line_of(text, f'"{key}"'),
                    col=0,
                    rule=self.id,
                    message=(
                        f"component reference `{key}` does not resolve in the "
                        f"`{kind}` registry (known: "
                        f"{', '.join(sorted(registered))})"
                    ),
                )

    # -- markdown docs --------------------------------------------------------

    def _check_docs(
        self, project: Project, keys: Dict[str, Set[str]]
    ) -> Iterator[Finding]:
        for path in project.doc_paths():
            text = path.read_text(encoding="utf-8")
            rel_path = project.rel(path)
            yield from self._check_doc_tables(rel_path, text, keys)
            yield from self._check_doc_json_blocks(rel_path, text, keys)

    def _check_doc_tables(
        self, rel_path: str, text: str, keys: Dict[str, Set[str]]
    ) -> Iterator[Finding]:
        for number, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not (stripped.startswith("|") and stripped.endswith("|")):
                continue
            cells = [cell.strip() for cell in stripped.strip("|").split("|")]
            if len(cells) < 2:
                continue
            kind = cells[0].lower()
            registered = keys.get(kind)
            if kind not in REGISTRY_VARS.values() or not registered:
                continue
            for key in _BACKTICK_RE.findall(cells[1]):
                if key not in registered:
                    yield Finding(
                        path=rel_path,
                        line=number,
                        col=0,
                        rule=self.id,
                        message=(
                            f"documented `{kind}` key `{key}` is not registered "
                            f"(known: {', '.join(sorted(registered))})"
                        ),
                    )

    def _check_doc_json_blocks(
        self, rel_path: str, text: str, keys: Dict[str, Set[str]]
    ) -> Iterator[Finding]:
        for match in _FENCE_RE.finditer(text):
            block = match.group(1)
            try:
                data = json.loads(block)
            except json.JSONDecodeError:
                continue  # illustrative fragments need not be complete JSON
            offset = text[: match.start()].count("\n") + 1  # line of the fence
            for kind, key in _component_refs(data, None):
                registered = keys.get(kind)
                if not registered or key in registered:
                    continue
                line = _line_of(block, f'"{key}"')
                yield Finding(
                    path=rel_path,
                    line=offset + line if line else offset,
                    col=0,
                    rule=self.id,
                    message=(
                        f"documented component reference `{key}` does not resolve "
                        f"in the `{kind}` registry (known: "
                        f"{', '.join(sorted(registered))})"
                    ),
                )
