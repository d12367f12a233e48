"""Known-bad obs facade for the ``lazy-import-hygiene`` rule (never imported)."""

from repro.obs.profile import phase
from repro.obs.trace import Tracer  # eager: every phase() user loads the tracer
