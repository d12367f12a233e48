"""Importing the package does not load ``scipy.stats``.

``scipy.stats`` (and the ``scipy.sparse``/``spatial``/``optimize`` modules it
pulls in) dominates cold-start import time and resident memory.  Only the
classification posterior needs it, so it is imported inside that function;
the ``lazy-import-hygiene`` lint rule keeps it out of module level.  A fresh
interpreter is the only honest place to check what an import loads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys
import repro, repro.mcs, repro.serve, repro.learner, repro.api.session
loaded = sorted(name for name in sys.modules if name.split(".")[:2] == ["scipy", "stats"])
print(",".join(loaded))
"""


def test_package_import_leaves_scipy_stats_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH", "")])
    )
    result = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "", result.stdout
