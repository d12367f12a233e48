"""``fingerprint-completeness``: configuration state and the component key agree.

:func:`repro.serve.cache.config_key` is the one answer to "are these two
components the same configuration?": it keys the completion cache, and its
:func:`~repro.serve.cache.pool_key` view decides which components share one
pooled solve.  It silently breaks when a constructor gains state the key
cannot see, or when a class exempts real configuration from pooling.  This
rule cross-checks the key against the constructors themselves:

1. every ``__init__`` parameter of an :class:`InferenceAlgorithm` /
   ``QualityAssessor`` subclass must flow into stored state (a ``self.*``
   assignment, possibly through locals, or a ``super().__init__`` /
   ``self.method`` call) — a dropped parameter is configuration the key
   can never see;
2. every name in a class's ``batch_shared`` (the attributes ``pool_key``
   drops) must be a stored attribute fed only by the constructor's ``seed``
   parameter — anything else is configuration that would pool differently
   configured instances into one solve;
3. every function named ``config_key`` must be auditable: *generic*
   implementations (``for key in sorted(vars(...))``) may only exempt the
   known non-semantic types/attributes; *explicit* ones
   (``for key in ("rank", ...)``) must list every semantic stored attribute
   of every audited class — deleting a key is a finding.

Attributes assigned from a seeding-helper call (``as_rng``/``derive_rng``/
``default_rng``) are treated as RNG state and exempted, mirroring the
runtime ``isinstance(value, np.random.Generator)`` exclusion.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import dotted_name, literal_strings
from repro.analysis.finding import Finding
from repro.analysis.project import Project, SourceFile
from repro.analysis.registry import AnalysisRule, RULES

#: Root base classes whose transitive subclasses this rule audits.
AUDITED_BASES = frozenset({"InferenceAlgorithm", "QualityAssessor"})

#: Type names a generic config_key may exempt via ``isinstance(...): continue``.
FINGERPRINT_EXEMPT_TYPES = frozenset({"Generator", "SolverStats"})

#: Attribute names any config_key may skip: run-time telemetry only.
FINGERPRINT_EXEMPT_ATTRS = frozenset({"solver_stats"})

#: Calls whose result is RNG state (exempt from the key by type).
_RNG_FACTORY_TAILS = frozenset({"as_rng", "derive_rng", "default_rng"})

#: The one constructor parameter a ``batch_shared`` attribute may derive from.
_SEED_PARAM = "seed"


class _ClassInfo:
    """Static facts about one audited class's constructor."""

    def __init__(self, source: SourceFile, node: ast.ClassDef) -> None:
        self.source = source
        self.node = node
        self.name = node.name
        self.base_names = [dotted_name(base) or "" for base in node.bases]
        self.init: Optional[ast.FunctionDef] = None
        for statement in node.body:
            if isinstance(statement, ast.FunctionDef) and statement.name == "__init__":
                self.init = statement
                break
        #: The class-level ``batch_shared`` assignment and its literal names
        #: (``None`` when the value is not a literal tuple of strings).
        self.batch_shared_node: Optional[ast.Assign] = None
        self.batch_shared: Optional[Tuple[str, ...]] = None
        for statement in node.body:
            if isinstance(statement, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "batch_shared"
                for target in statement.targets
            ):
                self.batch_shared_node = statement
                self.batch_shared = literal_strings(statement.value)
        self.params: List[str] = []
        self.stored: Set[str] = set()
        self.rng_attrs: Set[str] = set()
        #: Constructor parameters that reach each stored attribute.
        self.feeds: Dict[str, Set[str]] = {}
        self.uncaptured: List[str] = []
        if self.init is not None:
            self._analyse_init(self.init)

    def _analyse_init(self, init: ast.FunctionDef) -> None:
        args = init.args
        names = (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
        self.params = [arg.arg for arg in names if arg.arg != "self"]

        # What each statement stores and which names feed it.  ``capturing``
        # names flow into stored state directly (self-attr assignments and
        # super()/self method calls); ``local_feeds`` tracks locals so that
        # ``x = check(param); self.y = x`` still counts as capturing ``param``.
        captured: Set[str] = set()
        local_feeds: Dict[str, Set[str]] = {}
        attr_sources: Dict[str, Set[str]] = {}
        for node in ast.walk(init):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                loaded = _loaded_names(
                    node.value if node.value is not None else ast.Constant(value=None)
                )
                stores_self = False
                for target in targets:
                    for sub in ast.walk(target):
                        if (
                            isinstance(sub, ast.Attribute)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"
                        ):
                            stores_self = True
                            self.stored.add(sub.attr)
                            attr_sources.setdefault(sub.attr, set()).update(loaded)
                            if _is_rng_factory_value(node.value):
                                self.rng_attrs.add(sub.attr)
                        elif isinstance(sub, ast.Name):
                            local_feeds.setdefault(sub.id, set()).update(loaded)
                if stores_self:
                    captured.update(loaded)
            elif isinstance(node, ast.Call):
                func = node.func
                is_super_or_self_call = (
                    isinstance(func, ast.Attribute)
                    and (
                        (isinstance(func.value, ast.Name) and func.value.id == "self")
                        or (
                            isinstance(func.value, ast.Call)
                            and isinstance(func.value.func, ast.Name)
                            and func.value.func.id == "super"
                        )
                    )
                )
                if is_super_or_self_call:
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        captured.update(_loaded_names(arg))

        def reach(names: Set[str]) -> Set[str]:
            # A local that feeds stored state feeds it with its own sources.
            reached, frontier = set(names), list(names)
            while frontier:
                for source in local_feeds.get(frontier.pop(), ()):
                    if source not in reached:
                        reached.add(source)
                        frontier.append(source)
            return reached

        captured = reach(captured)
        self.uncaptured = [name for name in self.params if name not in captured]
        for attr, sources in attr_sources.items():
            self.feeds[attr] = reach(sources) & set(self.params)

    def semantic_attrs(self) -> Set[str]:
        """Stored attributes the key must cover."""
        return self.stored - self.rng_attrs - FINGERPRINT_EXEMPT_ATTRS


def _loaded_names(node: Optional[ast.AST]) -> Set[str]:
    if node is None:
        return set()
    return {
        sub.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def _is_rng_factory_value(node: Optional[ast.AST]) -> bool:
    """Whether an assigned value *is* a seeding-helper call (RNG state).

    Only a direct call counts: ``self._rng = as_rng(seed)`` stores a
    Generator, but ``self._init_seed = int(as_rng(seed).integers(...))``
    stores an int that the key must cover.
    """
    if not isinstance(node, ast.Call):
        return False
    target = dotted_name(node.func)
    return target is not None and target.split(".")[-1] in _RNG_FACTORY_TAILS


def _collect_audited_classes(project: Project) -> List[_ClassInfo]:
    """Transitive subclasses of the audited bases, resolved by class name."""
    by_name: Dict[str, _ClassInfo] = {}
    for source in project.files:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                by_name.setdefault(node.name, _ClassInfo(source, node))

    audited: Dict[str, bool] = {}

    def is_audited(name: str, trail: Tuple[str, ...] = ()) -> bool:
        if name in AUDITED_BASES:
            return True
        if name in trail:  # inheritance cycle in broken code; stay silent
            return False
        cached = audited.get(name)
        if cached is not None:
            return cached
        info = by_name.get(name)
        result = info is not None and any(
            is_audited(base.split(".")[-1], trail + (name,))
            for base in info.base_names
            if base
        )
        audited[name] = result
        return result

    return [
        info
        for name, info in sorted(by_name.items())
        if name not in AUDITED_BASES and is_audited(name)
    ]


class _ConfigKeyImpl:
    """Classification of one ``config_key`` implementation."""

    def __init__(self, source: SourceFile, node: ast.FunctionDef) -> None:
        self.source = source
        self.node = node
        self.generic = False
        self.explicit_keys: Optional[Set[str]] = None
        self.exempt_type_names: Set[str] = set()
        self.skipped_keys: Set[str] = set()
        self._classify(node)

    def _classify(self, node: ast.FunctionDef) -> None:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.For):
                continue
            iterated = sub.iter
            # Generic: ``for key in sorted(vars(instance)):`` (sorted optional).
            call = iterated if isinstance(iterated, ast.Call) else None
            if call is not None and dotted_name(call.func) == "sorted" and call.args:
                call = call.args[0] if isinstance(call.args[0], ast.Call) else None
            if call is not None and dotted_name(call.func) == "vars":
                self.generic = True
                self._collect_exemptions(sub)
                return
            # Explicit: ``for key in ("rank", ...):``.
            keys = literal_strings(iterated)
            if keys is not None:
                self.explicit_keys = set(keys)
                return

    def _collect_exemptions(self, loop: ast.For) -> None:
        for sub in ast.walk(loop):
            if not isinstance(sub, ast.If):
                continue
            if not any(isinstance(stmt, ast.Continue) for stmt in sub.body):
                continue
            test = sub.test
            if (
                isinstance(test, ast.Call)
                and dotted_name(test.func) == "isinstance"
                and len(test.args) == 2
            ):
                types = test.args[1]
                elements = (
                    types.elts if isinstance(types, (ast.Tuple, ast.List)) else [types]
                )
                for element in elements:
                    name = dotted_name(element)
                    if name is not None:
                        self.exempt_type_names.add(name.split(".")[-1])
            elif isinstance(test, ast.Compare):
                for comparator in [test.left] + list(test.comparators):
                    if isinstance(comparator, ast.Constant) and isinstance(
                        comparator.value, str
                    ):
                        self.skipped_keys.add(comparator.value)
                    literals = literal_strings(comparator)
                    if literals is not None:
                        self.skipped_keys.update(literals)


@RULES.register("fingerprint-completeness")
class FingerprintCompletenessRule(AnalysisRule):
    id = "fingerprint-completeness"
    description = (
        "constructor parameters, config_key and batch_shared pooling "
        "exemptions must stay mutually consistent"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        classes = _collect_audited_classes(project)

        # 1. Every constructor parameter flows into stored state.
        for info in classes:
            for param in info.uncaptured:
                yield info.source.finding(
                    self.id,
                    info.init,
                    f"`{info.name}.__init__` parameter `{param}` never reaches stored "
                    "state, so the configuration key cannot see it; store "
                    "it (or drop the parameter)",
                )

        # 2. batch_shared only exempts seed-derived state from pooling.
        for info in classes:
            yield from self._check_batch_shared(info)

        # 3. Every config_key implementation is complete.
        yield from self._check_config_keys(project, classes)

    def _check_batch_shared(self, info: _ClassInfo) -> Iterator[Finding]:
        node = info.batch_shared_node
        if node is None:
            return
        if info.batch_shared is None:
            yield info.source.finding(
                self.id,
                node,
                f"`{info.name}.batch_shared` is not a literal tuple of attribute "
                "names, so the pooling exemption cannot be verified",
            )
            return
        for name in info.batch_shared:
            if name not in info.stored:
                yield info.source.finding(
                    self.id,
                    node,
                    f"`{info.name}.batch_shared` lists `{name}`, which `__init__` "
                    "never stores",
                )
            elif info.feeds.get(name) != {_SEED_PARAM}:
                fed = sorted(info.feeds.get(name, ()))
                yield info.source.finding(
                    self.id,
                    node,
                    f"`{info.name}.batch_shared` lists `{name}`, fed by "
                    f"constructor parameter(s) {fed} rather than `seed` alone: "
                    "differently configured instances would pool into one solve",
                )

    def _check_config_keys(
        self, project: Project, classes: Sequence[_ClassInfo]
    ) -> Iterator[Finding]:
        for source in project.files:
            for node in ast.walk(source.tree):
                if not (
                    isinstance(node, ast.FunctionDef)
                    and node.name == "config_key"
                ):
                    continue
                impl = _ConfigKeyImpl(source, node)
                if impl.generic:
                    bad_types = sorted(
                        impl.exempt_type_names - FINGERPRINT_EXEMPT_TYPES
                    )
                    if bad_types:
                        yield source.finding(
                            self.id,
                            node,
                            f"config_key exempts type(s) {bad_types} beyond "
                            "the known non-semantic set (Generator, SolverStats): "
                            "configuration would escape the cache key",
                        )
                    bad_keys = sorted(impl.skipped_keys - FINGERPRINT_EXEMPT_ATTRS)
                    if bad_keys:
                        yield source.finding(
                            self.id,
                            node,
                            f"config_key skips attribute(s) {bad_keys} that "
                            "are not telemetry: equal keys would no longer "
                            "imply equal completions",
                        )
                elif impl.explicit_keys is not None:
                    for info in classes:
                        missing = sorted(info.semantic_attrs() - impl.explicit_keys)
                        if missing:
                            yield source.finding(
                                self.id,
                                node,
                                f"config_key key list omits stored "
                                f"`{info.name}` attribute(s) {missing}: "
                                "differently-configured instances would share "
                                "cached completions",
                            )
                else:
                    yield source.finding(
                        self.id,
                        node,
                        "config_key implementation is not statically "
                        "auditable (neither a vars() loop nor a literal key list); "
                        "restructure it or suppress with a reason",
                    )
