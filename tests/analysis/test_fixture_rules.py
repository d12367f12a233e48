"""Every rule fires on its known-bad fixture and stays quiet on the clean one."""

from __future__ import annotations

import pytest

#: rule id -> (fixture subdir, substrings that must each appear in some
#: bad-fixture message, exact number of expected bad findings)
CASES = {
    "rng-discipline": (
        "rng",
        [
            "module-level `numpy.random.default_rng` call",
            "unseeded `default_rng()`",
            "legacy `numpy.random.rand`",
            "stdlib `random.choice`",
            "stdlib `random` is a second, unseedable randomness source",
            "truthiness-based RNG defaulting",
        ],
        6,
    ),
    "clock-discipline": (
        "clock",
        [
            "wall-clock read `time.perf_counter()`",
            "wall-clock read `time.time()`",
            "wall-clock read `datetime.datetime.now()`",
        ],
        3,
    ),
    "fingerprint-completeness": (
        "fingerprint",
        [
            "parameter `tolerance` never reaches stored state",
            "omits stored `NarrowlyPrintedInference` attribute(s) ['backend']",
        ],
        2,
    ),
    "registry-spec-drift": (
        "registry",
        [
            "declares `seed_stream` metadata but its factory accepts no `seed`",
            "takes `*layers`",
            "positional-only parameter(s) ['width']",
            "component reference `fixture-missing-dataset` does not resolve",
        ],
        4,
    ),
    "lazy-import-hygiene": (
        "imports",
        [
            "eager top-level import of optional dependency `torch`",
            "explicit top-level import cycle: repro.alpha -> repro.beta -> repro.alpha",
            "repro.api facade eagerly imports `repro.api.session`",
            "repro.obs facade eagerly imports `repro.obs.trace`",
            "module-level import of `scipy.stats`",
            "module-level import of `scipy.special`",
            "function-level import of `scipy.special` loads the whole package",
            "function-level import of `scipy.stats` loads the whole package",
        ],
        10,
    ),
    "suppression-hygiene": (
        "suppression",
        [
            "suppression of `clock-discipline` gives no reason",
            "suppression names unknown rule `not-a-real-rule`",
        ],
        2,
    ),
}


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rule_fires_on_bad_fixture(run_fixture, rule_id):
    subdir, substrings, expected = CASES[rule_id]
    report = run_fixture(f"{subdir}/bad", [rule_id])
    assert len(report.active) == expected
    assert all(finding.rule == rule_id for finding in report.active)
    messages = [finding.message for finding in report.active]
    for substring in substrings:
        assert any(substring in message for message in messages), (
            f"no {rule_id} finding mentions {substring!r}: {messages}"
        )


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rule_quiet_on_clean_fixture(run_fixture, rule_id):
    subdir, _, _ = CASES[rule_id]
    report = run_fixture(f"{subdir}/clean", [rule_id])
    assert report.active == [], [finding.format() for finding in report.active]


def test_unimported_packages_fire_at_function_level_only_once(run_fixture):
    """Each function-level import of ``scipy.special``/``scipy.stats`` is one
    finding naming the package, while a function-level ``scipy.linalg``
    import and a reasoned fallback import stay quiet."""
    bad = run_fixture("imports/bad", ["lazy-import-hygiene"])
    nested = [f for f in bad.active if f.message.startswith("function-level")]
    assert [(f.path, f.line) for f in nested] == [
        ("repro/serving.py", 5),
        ("repro/serving.py", 11),
        ("repro/serving.py", 17),
    ]
    assert [f.message.split("`")[1] for f in nested] == [
        "scipy.special",
        "scipy.special",
        "scipy.stats",
    ]
    clean = run_fixture("imports/clean", ["lazy-import-hygiene"])
    assert [(f.path, f.line) for f in clean.suppressed] == [("repro/posterior.py", 12)]


def test_findings_carry_locations(run_fixture):
    report = run_fixture("clock/bad", ["clock-discipline"])
    for finding in report.active:
        assert finding.path == "timer.py"
        assert finding.line > 0


def test_reasoned_suppression_silences_the_finding(run_fixture):
    """The clean suppression fixture's wall-clock read is suppressed, not active."""
    report = run_fixture(
        "suppression/clean", ["clock-discipline", "suppression-hygiene"]
    )
    assert report.active == []
    assert [finding.rule for finding in report.suppressed] == ["clock-discipline"]


def test_malformed_suppressions_suppress_nothing(run_fixture):
    """Reasonless / unknown-rule allows leave the clock findings active."""
    report = run_fixture(
        "suppression/bad", ["clock-discipline", "suppression-hygiene"]
    )
    active_rules = sorted({finding.rule for finding in report.active})
    assert active_rules == ["clock-discipline", "suppression-hygiene"]
    assert report.suppressed == []
    clock = [f for f in report.active if f.rule == "clock-discipline"]
    assert len(clock) == 2  # both time.time() reads still gate
