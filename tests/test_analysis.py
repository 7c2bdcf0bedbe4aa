"""Tests for the determinism linter (repro.analysis): rules, suppressions,
baseline round-trips, and the ``ddoshield lint`` CLI."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    diff_findings,
    format_json,
    format_text,
    iter_rules,
    lint_paths,
    lint_source,
)
from repro.analysis.report import fingerprint_all
from repro.cli import main

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent


def lint_fixture(name: str):
    source = (FIXTURES / name).read_text()
    return lint_source(source, path=f"tests/lint_fixtures/{name}")


def hits(findings) -> set[tuple[str, int]]:
    return {(f.rule_id, f.line) for f in findings}


# ----------------------------------------------------------------------
# Rule fixtures: each rule fires at exactly the expected file:line


class TestRuleFixtures:
    def test_rng001_global_random(self):
        findings, _ = lint_fixture("rng_global.py")
        assert hits(findings) == {
            ("RNG001", 10),
            ("RNG001", 14),
            ("RNG001", 15),
            ("RNG001", 16),
        }

    def test_rng002_numpy_global(self):
        findings, _ = lint_fixture("rng_numpy.py")
        assert hits(findings) == {
            ("RNG002", 9),
            ("RNG002", 10),
            ("RNG002", 14),
        }

    def test_time001_wall_clock(self):
        findings, _ = lint_fixture("wall_clock.py")
        assert hits(findings) == {
            ("TIME001", 9),
            ("TIME001", 13),
            ("TIME001", 17),
        }

    def test_time001_allowlisted_paths_are_exempt(self):
        source = "import time\nstamp = time.time()\n"
        findings, _ = lint_source(source, path="src/repro/features/bench.py")
        assert findings == []
        findings, _ = lint_source(source, path="src/repro/cli.py")
        assert findings == []
        findings, _ = lint_source(source, path="src/repro/sim/core.py")
        assert hits(findings) == {("TIME001", 2)}

    def test_ord001_set_iteration(self):
        findings, _ = lint_fixture("set_iteration.py")
        assert hits(findings) == {
            ("ORD001", 11),
            ("ORD001", 15),
            ("ORD001", 23),
            ("ORD001", 27),
            ("ORD001", 32),
        }

    def test_flt001_float_time_equality(self):
        findings, _ = lint_fixture("float_time_eq.py")
        assert hits(findings) == {
            ("FLT001", 5),
            ("FLT001", 9),
        }

    def test_mut001_mutable_defaults(self):
        findings, _ = lint_fixture("mutable_default.py")
        assert hits(findings) == {("MUT001", 4), ("MUT001", 8)}
        assert sum(1 for f in findings if f.line == 8) == 2  # dict() and set()

    def test_id001_id_tiebreak(self):
        findings, _ = lint_fixture("id_tiebreak.py")
        assert hits(findings) == {("ID001", 5), ("ID001", 9)}

    def test_findings_carry_hint_and_snippet(self):
        findings, _ = lint_fixture("rng_global.py")
        finding = next(f for f in findings if f.line == 10)
        assert "seeded" in finding.hint
        assert finding.snippet == "return random.uniform(0.0, 1.0)  # line 10: RNG001"
        assert finding.severity == "error"


# ----------------------------------------------------------------------
# Suppressions


class TestSuppressions:
    def test_lint_ok_comments_silence_rules(self):
        findings, suppressed = lint_fixture("suppressed.py")
        assert hits(findings) == {("TIME001", 20)}
        assert suppressed == 4  # TIME001, RNG001, and both under lint-ok[*]

    def test_suppression_is_rule_specific(self):
        source = (
            "import random\n"
            "x = random.random()  # repro: lint-ok[TIME001]\n"
        )
        findings, suppressed = lint_source(source, path="m.py")
        assert hits(findings) == {("RNG001", 2)}  # wrong id: not silenced
        assert suppressed == 0


# ----------------------------------------------------------------------
# Baseline round-trip


class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings, _ = lint_fixture("rng_global.py")
        baseline = Baseline.from_findings(findings)
        path = baseline.save(tmp_path / "baseline.json")
        reloaded = Baseline.load(path)
        assert len(reloaded) == len(findings)
        report = diff_findings(findings, reloaded)
        assert report.ok
        assert len(report.baselined) == len(findings)
        assert report.new == [] and report.stale_fingerprints == []

    def test_new_findings_not_masked_by_baseline(self):
        old, _ = lint_fixture("rng_global.py")
        baseline = Baseline.from_findings(old)
        extra, _ = lint_source("import time\nt = time.time()\n", path="other.py")
        report = diff_findings(old + extra, baseline)
        assert not report.ok
        assert hits(report.new) == {("TIME001", 2)}

    def test_fixed_findings_become_stale(self):
        findings, _ = lint_fixture("rng_global.py")
        baseline = Baseline.from_findings(findings)
        report = diff_findings(findings[:-1], baseline)
        assert report.ok  # fixing code never fails the lint
        assert len(report.stale_fingerprints) == 1

    def test_fingerprints_survive_line_shifts(self):
        source = "import random\nx = random.random()\n"
        shifted = "import random\n# a new comment pushes the line down\nx = random.random()\n"
        before, _ = lint_source(source, path="m.py")
        after, _ = lint_source(shifted, path="m.py")
        assert set(fingerprint_all(before)) == set(fingerprint_all(after))

    def test_duplicate_snippets_get_distinct_fingerprints(self):
        source = "import random\nx = random.random()\nx = random.random()\n"
        findings, _ = lint_source(source, path="m.py")
        keys = fingerprint_all(findings)
        assert len(keys) == 2

    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert len(Baseline.load(tmp_path / "nope.json")) == 0

    def test_version_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(bad)


# ----------------------------------------------------------------------
# Formatting, registry, tree hygiene, CLI


class TestReporting:
    def test_text_format_lists_new_findings(self):
        findings, _ = lint_fixture("wall_clock.py")
        report = diff_findings(findings, Baseline(), files_checked=1)
        text = format_text(report)
        assert "tests/lint_fixtures/wall_clock.py:9" in text
        assert "[TIME001]" in text
        assert "3 new finding(s)" in text

    def test_json_format_is_parseable(self):
        findings, _ = lint_fixture("wall_clock.py")
        report = diff_findings(findings, Baseline(), files_checked=1)
        payload = json.loads(format_json(report))
        assert payload["ok"] is False
        assert len(payload["new"]) == 3
        assert payload["new"][0]["rule_id"] == "TIME001"

    def test_registry_exposes_all_rules(self):
        ids = {rule.rule_id for rule in iter_rules()}
        assert {"RNG001", "RNG002", "TIME001", "ORD001", "FLT001",
                "MUT001", "ID001"} <= ids

    def test_rule_subset_selection(self):
        only = iter_rules(only=["RNG001"])
        assert [r.rule_id for r in only] == ["RNG001"]
        with pytest.raises(KeyError):
            iter_rules(only=["NOPE999"])

    def test_parity_rules_live_in_their_own_category(self):
        """``ddoshield lint`` never runs ORD002 and vice versa."""
        determinism = {r.rule_id for r in iter_rules(category="determinism")}
        parity = {r.rule_id for r in iter_rules(category="parity")}
        assert parity == {"ORD002"}
        assert not determinism & parity
        # A textbook ORD002 race is invisible to the default linter.
        source = (FIXTURES / "ord002_race.py").read_text()
        findings, _ = lint_source(source, path="tests/lint_fixtures/ord002_race.py")
        assert findings == []


class TestParseFailures:
    def test_unparseable_file_becomes_an_error_finding(self):
        findings, suppressed, files = lint_paths(
            [FIXTURES / "unparseable.py"], root=REPO_ROOT
        )
        assert files == 1 and suppressed == 0
        assert [(f.rule_id, f.severity) for f in findings] == [
            ("PARSE001", "error")
        ]
        assert "does not parse" in findings[0].message
        assert findings[0].path == "tests/lint_fixtures/unparseable.py"

    def test_cli_fails_on_unparseable_file(self, capsys):
        rc = main([
            "lint", "--root", str(REPO_ROOT),
            "tests/lint_fixtures/unparseable.py", "--no-baseline",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "PARSE001" in out


class TestTreeIsClean:
    def test_src_repro_has_no_new_findings(self):
        """Acceptance: zero non-baselined findings on src/repro/**."""
        findings, suppressed, files = lint_paths(
            [REPO_ROOT / "src" / "repro"], root=REPO_ROOT
        )
        baseline = Baseline.load(REPO_ROOT / "analysis" / "baseline.json")
        report = diff_findings(
            findings, baseline, suppressed=suppressed, files_checked=files
        )
        assert report.ok, format_text(report)
        assert files > 50  # sanity: the walk actually covered the tree
        assert not report.stale_fingerprints, (
            "baseline has stale entries; refresh with "
            "`ddoshield lint --update-baseline`"
        )


class TestLintCli:
    def test_cli_green_against_committed_baseline(self, capsys):
        rc = main(["lint", "--root", str(REPO_ROOT), "src/repro"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "0 new finding(s)" in out

    def test_cli_json_and_exit_code_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        rc = main(["lint", "--root", str(tmp_path), "bad.py", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["new"][0]["rule_id"] == "RNG001"

    def test_cli_update_baseline_round_trip(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        rc = main(["lint", "--root", str(tmp_path), "bad.py", "--update-baseline"])
        assert rc == 0
        assert (tmp_path / "analysis" / "baseline.json").exists()
        capsys.readouterr()
        rc = main(["lint", "--root", str(tmp_path), "bad.py"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "1 baselined" in out
