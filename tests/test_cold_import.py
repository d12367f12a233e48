"""Importing the package loads no SciPy; assessing loads only two SciPy kernels.

SciPy is the test-time LOO posterior's dependency alone: training rewards
come from the oracle, the CLI and the analysis linter never assess, and a
serving process loads SciPy on its first assessment.  Even then it loads
only the two extension modules holding the posterior's kernels
(``repro.quality._scipy_kernels``), not the ``scipy.special`` package, which
maps 66 modules and about 25 MB, nor ``scipy.stats``, which pulls in
``scipy.sparse``/``spatial``/``optimize`` on top.  The
``lazy-import-hygiene`` lint rule keeps both packages out of the library.
A fresh interpreter is the only honest place to check what an import loads.
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

#: The only ``scipy.special`` modules an assessing process may load.
KERNEL_MODULES = ["scipy.special._special_ufuncs", "scipy.special._ufuncs_cxx"]

#: One MAE posterior, then one classification posterior; prints the SciPy
#: modules loaded before and after each as JSON.  Then imports both SciPy
#: packages the way any other library would, and records whether they
#: reuse the kernels loaded without them.
ASSESS_PROGRAM = """
import json, sys
import numpy as np
from repro.inference.compressive import CompressiveSensingInference
from repro.quality._scipy_kernels import kernels
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
stages["standalone"] = kernels().standalone
from scipy import special, stats
stages["betaln_reused"] = special.betaln is kernels().betaln
stages["t_cdf"] = [float(special.stdtr(3, 1.0)), float(stats.t.cdf(1.0, 3))]
print(json.dumps(stages))
"""

#: The README's serving snippet on the tiny scenario (an MAE slot and a
#: classification slot); prints the SciPy modules after training, after
#: serving, and the number of served assessments as JSON.
SERVE_PROGRAM = """
import json, sys
from repro.api import ScenarioSpec, Session

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

spec = ScenarioSpec.from_json(open(sys.argv[1]).read())
session = Session.from_spec(spec)
session.train()
stages = {"trained": scipy_modules()}
report, stats, _ = session.serve(replicas=2)
stages["served"] = scipy_modules()
stages["assessments"] = stats.endpoint("assess").requests
print(json.dumps(stages))
"""


def run_fresh(program: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH", "")])
    )
    # The child warns as strictly as this interpreter: dev mode and -W options.
    flags = ["-X", "dev"] if sys.flags.dev_mode else []
    for option in sys.warnoptions:
        flags += ["-W", option]
    result = subprocess.run(
        [sys.executable, *flags, "-c", program, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


def test_package_import_leaves_scipy_stats_unloaded():
    """No SciPy module at all loads, so in particular no ``scipy.stats``."""
    assert run_fresh(IMPORT_PROGRAM) == ""


def special_and_stats(modules):
    """The ``scipy.special``/``scipy.stats`` modules among ``modules``."""
    return [
        name
        for name in modules
        if name.split(".")[:2] in (["scipy", "special"], ["scipy", "stats"])
    ]


def test_assessment_loads_only_the_two_kernel_modules():
    stages = json.loads(run_fresh(ASSESS_PROGRAM))
    assert stages["before"] == []
    assert stages["standalone"]
    for metric in ("mae", "classification"):
        assert special_and_stats(stages[metric]) == KERNEL_MODULES, metric
    # A later import of the packages reuses the kernels loaded without them.
    assert stages["betaln_reused"]
    assert stages["t_cdf"] == [0.8044988905221148, 0.8044988905221148]


def test_served_session_loads_only_the_two_kernel_modules():
    scenario = SRC.parent / "examples" / "scenarios" / "tiny.json"
    stages = json.loads(run_fresh(SERVE_PROGRAM, str(scenario)))
    assert stages["trained"] == []
    assert stages["assessments"] > 0
    assert special_and_stats(stages["served"]) == KERNEL_MODULES


#: Imports the three hot-path users of the ``phase`` guard, records the
#: ``repro.obs`` modules loaded, then resolves three façade exports.
OBS_PROGRAM = """
import json, sys
import repro.inference.compressive, repro.core.trainer, repro.serve
loaded = sorted(name for name in sys.modules if name.split(".")[:2] == ["repro", "obs"])
from repro.obs import Observability, Tracer, render_prometheus
print(json.dumps({
    "loaded": loaded,
    "resolved": [Observability.__name__, Tracer.__name__, render_prometheus.__name__],
}))
"""


def test_hot_paths_load_only_the_obs_profile_module():
    """``repro.obs`` is a PEP-562 façade: its eager half is the ``phase`` guard."""
    stages = json.loads(run_fresh(OBS_PROGRAM))
    assert stages["loaded"] == ["repro.obs", "repro.obs.profile"]
    assert stages["resolved"] == ["Observability", "Tracer", "render_prometheus"]
