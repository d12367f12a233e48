"""Importing the package loads no SciPy; assessing loads only ``scipy.special``.

SciPy is the test-time LOO posterior's dependency alone: training rewards
come from the oracle, the CLI and the analysis linter never assess, and a
serving process loads SciPy on its first assessment.  Even ``scipy.special``
maps 66 modules and about 20 MB, and ``scipy.stats`` pulls in
``scipy.sparse``/``spatial``/``optimize`` on top, so every SciPy import sits
inside the function that needs it; the ``lazy-import-hygiene`` lint rule
keeps them out of module level.  A fresh interpreter is the only honest
place to check what an import loads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_PROGRAM = """
import sys
import repro, repro.api.session, repro.api.cli, repro.core.trainer, repro.mcs
import repro.serve, repro.learner, repro.obs, repro.experiments, repro.analysis
print(",".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""

#: One MAE posterior, then one classification posterior; prints the SciPy
#: modules loaded before and after each as JSON.
ASSESS_PROGRAM = """
import json, sys
import numpy as np
from repro.inference.compressive import CompressiveSensingInference
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

rng = np.random.default_rng(0)
observed = rng.uniform(10.0, 60.0, size=(12, 6))
observed[rng.random(size=observed.shape) < 0.4] = np.nan
observed[:5, -1] = rng.uniform(10.0, 60.0, size=5)
observed[8:, -1] = np.nan
inference = CompressiveSensingInference(rank=2, iterations=5, seed=0)
assessor = LeaveOneOutBayesianAssessor()
stages = {"before": scipy_modules()}
for metric in ("mae", "classification"):
    requirement = QualityRequirement(epsilon=1.0, metric=metric)
    assessor.probability_error_below(observed, 5, requirement, inference)
    stages[metric] = scipy_modules()
print(json.dumps(stages))
"""


def run_fresh(program: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH", "")])
    )
    result = subprocess.run(
        [sys.executable, "-c", program],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


def test_package_import_leaves_scipy_stats_unloaded():
    """No SciPy module at all loads, so in particular no ``scipy.stats``."""
    assert run_fresh(IMPORT_PROGRAM) == ""


def test_assessment_loads_scipy_special_but_not_scipy_stats():
    stages = json.loads(run_fresh(ASSESS_PROGRAM))
    assert stages["before"] == []
    assert "scipy.special" in stages["mae"]
    assert not any(name.startswith("scipy.stats") for name in stages["classification"])
