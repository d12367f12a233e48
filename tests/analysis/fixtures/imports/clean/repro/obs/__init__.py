"""Known-clean obs facade for the ``lazy-import-hygiene`` rule (never imported)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.profile import phase

if TYPE_CHECKING:
    from repro.obs.trace import Tracer  # typing-only: never executed


def __getattr__(name):
    import importlib

    return getattr(importlib.import_module("repro.obs.trace"), name)
