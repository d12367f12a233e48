"""The public declarative API: registries → specs → session.

This package is the one public way to assemble and run everything the
library does:

* :mod:`repro.api.registry` — string-keyed registries of datasets,
  inference algorithms, policies and assessors; components self-register
  with a ``register(name)`` decorator.
* :mod:`repro.api.specs` — frozen, JSON-round-trippable scenario
  specifications (:class:`ScenarioSpec` and friends).
* :mod:`repro.api.session` — the :class:`Session` facade
  (``Session.from_spec(spec)``, ``.train()``, ``.evaluate()``,
  ``.save()``/``.load()``) returning structured report objects.
* :mod:`repro.api.cli` — ``python -m repro.api.cli run scenario.json``.

The package initialiser resolves its attributes lazily (PEP 562) so that
component modules can do ``from repro.api.registry import DATASETS`` at
import time without creating an import cycle through the heavier session
machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api.registry import (
    ASSESSORS,
    DATASETS,
    INFERENCE,
    POLICIES,
    Registry,
    RegistryEntry,
    UnknownComponentError,
)

if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.api.session import (
        EvaluationRow,
        ServeResult,
        Session,
        SessionEvaluationReport,
        SessionTrainingReport,
        TrainingRow,
        run_scenario,
    )
    from repro.api.specs import (
        AssessorSpec,
        DatasetSpec,
        InferenceSpec,
        PolicySpec,
        RequirementSpec,
        ScenarioSpec,
        SlotSpec,
        TrainingSpec,
    )

_SPEC_EXPORTS = (
    "AssessorSpec",
    "DatasetSpec",
    "InferenceSpec",
    "PolicySpec",
    "RequirementSpec",
    "ScenarioSpec",
    "SlotSpec",
    "TrainingSpec",
)
_SESSION_EXPORTS = (
    "EvaluationRow",
    "ServeResult",
    "Session",
    "SessionEvaluationReport",
    "SessionTrainingReport",
    "TrainingRow",
    "run_scenario",
)

__all__ = [
    "ASSESSORS",
    "DATASETS",
    "INFERENCE",
    "POLICIES",
    "Registry",
    "RegistryEntry",
    "UnknownComponentError",
    *_SPEC_EXPORTS,
    *_SESSION_EXPORTS,
]


def __getattr__(name: str):
    if name in _SPEC_EXPORTS:
        from repro.api import specs

        return getattr(specs, name)
    if name in _SESSION_EXPORTS:
        from repro.api import session

        return getattr(session, name)
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
