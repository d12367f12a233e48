"""The linter's own gate: the live tree must scan clean.

This is the in-process twin of the CI ``analysis`` job: running every rule
over ``src tests benchmarks`` with the committed baseline must produce zero
active findings.  If this test fails, either fix the finding, suppress it
inline with a reasoned ``# repro: allow[rule-id] ...``, or (last resort)
regenerate the baseline with ``--write-baseline`` and justify the entry in
the PR.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze
from repro.analysis.project import Project
from repro.analysis.registry import RULES
from repro.analysis.rules.fingerprint import FINGERPRINT_EXEMPT_TYPES, _ConfigKeyImpl
from repro.analysis.rules.imports import FUNCTION_ONLY_MODULES

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_live_tree_has_no_active_findings():
    report = analyze(
        ["src", "tests", "benchmarks"],
        root=REPO_ROOT,
        baseline_path=REPO_ROOT / "analysis-baseline.json",
    )
    assert report.active == [], "\n".join(
        finding.format() for finding in report.active
    )


def test_at_least_five_rules_registered():
    names = sorted(RULES.names())
    assert len(names) >= 5, names
    for name in names:
        rule = RULES.create(name)
        assert rule.id == name
        assert rule.description  # --list-rules must have something to print


def test_fixture_snippets_are_excluded_from_discovery():
    """The deliberately-bad fixtures never leak into a directory scan."""
    project = Project(REPO_ROOT, [Path("tests")])
    fixture_files = [
        source.rel_path
        for source in project.files
        if source.rel_path.startswith("tests/analysis/fixtures/")
    ]
    assert fixture_files == []
    # ... but this test module itself is scanned.
    assert any(
        source.rel_path == "tests/analysis/test_selfscan.py"
        for source in project.files
    )


def test_kernel_fallback_is_the_only_scipy_package_import():
    """``scipy.special``/``scipy.stats`` load nowhere in the library but in
    the reasoned fallback of the standalone posterior kernels."""
    report = analyze(["src"], root=REPO_ROOT, rule_ids=["lazy-import-hygiene"])
    assert [finding.path for finding in report.suppressed] == [
        "src/repro/quality/_scipy_kernels.py"
    ]


def test_rule_catalogue_documented():
    """Every registered rule id appears in docs/analysis.md (and vice versa
    the doc's rule table is linted by registry-spec-drift), so the docs and
    the registry cannot drift apart."""
    doc = (REPO_ROOT / "docs" / "analysis.md").read_text(encoding="utf-8")
    for name in RULES.names():
        assert f"`{name}`" in doc, f"rule `{name}` missing from docs/analysis.md"


def test_function_only_modules_documented():
    """Every module lazy-import-hygiene keeps out of module level is listed
    in the rule's table in docs/analysis.md."""
    doc = (REPO_ROOT / "docs" / "analysis.md").read_text(encoding="utf-8")
    for module in FUNCTION_ONLY_MODULES:
        assert f"| `{module}` |" in doc, f"`{module}` missing from docs/analysis.md"


def test_fingerprint_rule_finds_the_live_config_key_walk():
    """``fingerprint-completeness`` check 3 passes silently when no function
    named ``config_key`` exists, so a moved or renamed key walk would blind
    the rule.  Pin that it still finds the live generic ``vars()`` walk and
    that the walk exempts exactly the RNG and telemetry types."""
    import ast

    project = Project(REPO_ROOT, [Path("src")])
    walks = [
        _ConfigKeyImpl(source, node)
        for source in project.files
        for node in ast.walk(source.tree)
        if isinstance(node, ast.FunctionDef) and node.name == "config_key"
    ]
    assert [walk.source.rel_path for walk in walks] == ["src/repro/serve/cache.py"]
    assert walks[0].generic
    assert walks[0].exempt_type_names == FINGERPRINT_EXEMPT_TYPES
    assert walks[0].skipped_keys == set()
