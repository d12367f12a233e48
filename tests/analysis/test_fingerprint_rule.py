"""The acceptance-criterion tests for ``fingerprint-completeness``.

The headline guarantee: deleting *any* key from a ``config_key``
implementation — whether the explicit key-list style or a skip added to the
real generic ``vars()`` loop in ``repro/serve/cache.py`` — makes the rule
fail, and so does a ``batch_shared`` pooling exemption for anything but
seed-derived state.  These tests build tiny single-file projects in ``tmp_path`` (and a
mutated copy of the real cache module) and run the rule directly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import run_analysis
from repro.analysis.project import Project

REPO_ROOT = Path(__file__).resolve().parents[2]

RULE = ["fingerprint-completeness"]

EXPLICIT_TEMPLATE = '''\
class TinyInference(InferenceAlgorithm):
    def __init__(self, rank, iterations, backend):
        self.rank = rank
        self.iterations = iterations
        self.backend = backend


def config_key(inference):
    parts = []
    for key in ({keys}):
        parts.append(key + "=" + repr(getattr(inference, key)))
    return "|".join(parts)
'''

ALL_KEYS = ("rank", "iterations", "backend")


def run_on(tmp_path: Path, text: str):
    path = tmp_path / "algo.py"
    path.write_text(text, encoding="utf-8")
    project = Project(tmp_path, [path])
    return run_analysis(project, rule_ids=RULE)


def render(keys) -> str:
    quoted = ", ".join(f'"{key}"' for key in keys)
    if len(keys) == 1:
        quoted += ","
    return EXPLICIT_TEMPLATE.format(keys=quoted)


def test_complete_key_list_passes(tmp_path):
    report = run_on(tmp_path, render(ALL_KEYS))
    assert report.active == [], [finding.format() for finding in report.active]


@pytest.mark.parametrize("dropped", ALL_KEYS)
def test_deleting_any_key_fails(tmp_path, dropped):
    keys = tuple(key for key in ALL_KEYS if key != dropped)
    report = run_on(tmp_path, render(keys))
    assert len(report.active) == 1
    message = report.active[0].message
    assert "omits stored `TinyInference`" in message
    assert f"'{dropped}'" in message


def test_real_cache_fingerprint_with_skipped_key_fails(tmp_path):
    """Adding a semantic-key skip to the live vars() loop is caught."""
    original = (REPO_ROOT / "src/repro/serve/cache.py").read_text(encoding="utf-8")
    anchor = "        if isinstance(value, (np.random.Generator, SolverStats)):"
    assert anchor in original, "cache.py config_key loop changed; update this test"
    mutated = original.replace(
        anchor,
        '        if key == "backend":\n            continue\n' + anchor,
        1,
    )
    path = tmp_path / "cache.py"
    path.write_text(mutated, encoding="utf-8")
    report = run_analysis(Project(tmp_path, [path]), rule_ids=RULE)
    assert any(
        "skips attribute(s) ['backend']" in finding.message
        for finding in report.active
    ), [finding.format() for finding in report.active]


def test_real_cache_fingerprint_passes_unmutated(tmp_path):
    original = (REPO_ROOT / "src/repro/serve/cache.py").read_text(encoding="utf-8")
    path = tmp_path / "cache.py"
    path.write_text(original, encoding="utf-8")
    report = run_analysis(Project(tmp_path, [path]), rule_ids=RULE)
    assert report.active == [], [finding.format() for finding in report.active]


def test_unauditable_fingerprint_is_itself_a_finding(tmp_path):
    text = (
        "def config_key(inference):\n"
        "    return repr(inference)\n"
    )
    report = run_on(tmp_path, text)
    assert len(report.active) == 1
    assert "not statically auditable" in report.active[0].message


BATCH_SHARED_TEMPLATE = """\
class CompressiveSensingInference(InferenceAlgorithm):
    batch_shared = ({names})

    def __init__(self, rank, *, seed=None):
        self.rank = int(rank)
        self._rng = as_rng(seed)
        self._init_seed = int(as_rng(seed).integers(0, 2**31 - 1))
"""


def test_seed_fed_batch_shared_passes(tmp_path):
    report = run_on(tmp_path, BATCH_SHARED_TEMPLATE.format(names='"_init_seed",'))
    assert report.active == [], [finding.format() for finding in report.active]


def test_batch_shared_configuration_fails(tmp_path):
    """Exempting real configuration from pooling is caught."""
    report = run_on(tmp_path, BATCH_SHARED_TEMPLATE.format(names='"rank",'))
    assert len(report.active) == 1
    assert (
        "`CompressiveSensingInference.batch_shared` lists `rank`, fed by "
        "constructor parameter(s) ['rank'] rather than `seed` alone"
    ) in report.active[0].message


def test_batch_shared_unstored_attribute_fails(tmp_path):
    report = run_on(tmp_path, BATCH_SHARED_TEMPLATE.format(names='"_seed",'))
    assert len(report.active) == 1
    assert "lists `_seed`, which `__init__` never stores" in report.active[0].message


def test_batch_shared_must_be_literal(tmp_path):
    report = run_on(tmp_path, BATCH_SHARED_TEMPLATE.format(names="*NAMES,"))
    assert len(report.active) == 1
    assert "not a literal tuple of attribute names" in report.active[0].message
