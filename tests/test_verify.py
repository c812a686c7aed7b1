import collections
import hashlib
import json
import random
import time

import pytest

from fractree import construct, sequences, spanning, verify
from fractree.params import Family, FractalParams
from fractree.verify import (
    ALLOWLIST,
    INFORMATIONAL,
    MATCH,
    MISMATCH,
    Check,
    DiscrepancyReport,
    registry,
    run_check,
    verify_suite,
)


@pytest.fixture(scope="module")
def report():
    return verify_suite("quick")


def _fields(c) -> tuple:
    """Every field of a result except its timing."""
    return (c.check_id, c.params, c.method_a, c.value_a, c.method_b, c.value_b,
            c.verdict, c.difference, c.note)


def _report_digest(report) -> tuple:
    rows = sorted(_fields(c) for c in report.checks)
    return len(rows), hashlib.sha256("\n".join("\t".join(r) for r in rows).encode()).hexdigest()


@pytest.mark.parametrize("level, count, digest", [
    ("full", 139, "0de2003feb84a0100bf260808d173d4cf3c0d56423c7fdbc345364baf5e8bf49"),
    ("quick", 114, "3a054cfceb283ca33edcf89585a4b438335fc5c08f120a1fda6100557df9f72a"),
])
def test_report_pinned(level, count, digest):
    # every field of every check except timing, pinned
    assert _report_digest(verify_suite(level)) == (count, digest)


def test_unknown_level_raises():
    with pytest.raises(ValueError, match="unknown level 'fast'"):
        verify_suite("fast")


def test_naive_determinant_of_the_empty_matrix():
    assert verify.naive_determinant([]) == 1


def test_random_connected_graph_pinned():
    # the draws' edge lists, pinned: a change in the order the generator
    # uses its RNG shows here, not only through the report digest
    draws = [list(verify.random_connected_graph(random.Random(seed), max_n=20, min_extra=extra,
                                                density=density).edges())
             for seed in range(25) for density in (1, 2) for extra in (0, 2)]
    assert sum(map(len, draws)) == 1876
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == (
        "b544202de9f2875dc349a063e8f59683d09d8ad8a863601eb4e3e5346ce06160")


class TestRegistry:
    @pytest.mark.parametrize("check_id", [c.id for c in registry()])
    def test_check_alone_matches_suite(self, check_id, full_report):
        # a fresh registry, one check: no value may depend on which check
        # ran first or on a loop variable bound late
        (check,) = [c for c in registry() if c.id == check_id]
        (in_suite,) = [c for c in full_report.checks if c.check_id == check_id]
        assert _fields(run_check(check)) == _fields(in_suite)

    def test_building_computes_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("building the registry computed a value")

        for module, name in [(construct, "build"), (construct, "base"),
                             (spanning, "tau_oracle"), (spanning, "tau_closed"),
                             (sequences, "_exponent_sums"), (verify, "random_connected_graph")]:
            monkeypatch.setattr(module, name, refuse)
        checks = registry()
        assert len(checks) == len({c.id for c in checks}) == 139
        assert sum(c.level == "quick" for c in checks) == 114

    def test_every_build_runs_inside_a_timed_route(self, monkeypatch):
        builds = collections.Counter()
        original = construct.build

        def slow_build(params):
            builds[params] += 1
            time.sleep(0.01)
            return original(params)

        monkeypatch.setattr(construct, "build", slow_build)
        slow = verify_suite("full")
        assert sum(c.seconds_a + c.seconds_b for c in slow.checks) >= 0.01 * builds.total()
        for c in slow.to_json_dict()["checks"]:
            routes = c["method_a"]["seconds"] + c["method_b"]["seconds"]
            assert c["seconds"] == pytest.approx(routes, abs=2e-6)
        # each graph once per run, beside construct/determinism's own two
        # builds; a second run builds again, so no memo outlives its run
        determinism = FractalParams(Family.WHEEL, 4, 2, 1)
        assert builds.pop(determinism) == 1 + 2 and set(builds.values()) == {1}
        verify_suite("quick")
        assert builds[determinism] == 1 + 2 and builds[FractalParams(Family.CYCLE, 3, 2, 2)] == 2


class TestSuiteOutcome:
    def test_no_unexplained_mismatches(self, report):
        mismatches = [c for c in report.checks if c.verdict == MISMATCH]
        assert mismatches == []
        assert report.exit_code == 0

    def test_known_discrepancies_reported(self, report):
        info = {c.check_id for c in report.checks if c.verdict == INFORMATIONAL}
        assert len(info) >= 4
        # the four headline disagreements must all be present
        assert "sequences/binet-fixed-constants/wheel-4-2" in info
        assert "sequences/entropy-closed/wheel-4-2" in info
        assert "clustering/example-arithmetic/cycle-3-2-2" in info
        assert "clustering/published-average/wheel-5-2-1" in info

    def test_informational_entries_carry_both_values(self, report):
        for c in report.checks:
            if c.verdict == INFORMATIONAL:
                assert c.value_a and c.value_b and c.note

    def test_printed_exponent_sum_curiosities(self, report):
        by_id = {c.check_id: c for c in report.checks}
        # the plain-sum closed forms are correct as printed
        assert by_id["sequences/printed-sum-plain/cycle-3-2-i2"].verdict == MATCH
        assert by_id["sequences/printed-sum-plain/wheel-4-2-i2"].verdict == MATCH
        # the weighted-sum forms are not; recorded, never authoritative
        for fam in ("cycle-3-2-i2", "wheel-4-2-i2"):
            entry = by_id[f"sequences/printed-sum-weighted/{fam}"]
            assert entry.verdict == INFORMATIONAL
            assert entry.value_a != entry.value_b

    def test_coverage_spans_every_module(self, report):
        assert set(report.coverage) == {
            "arith", "graph", "construct", "spanning", "sequences", "clustering",
        }
        assert all(count >= 1 for count in report.coverage.values())

    def test_match_majority(self, report):
        counts = report.counts
        assert counts[MATCH] > 50
        assert counts[MATCH] + counts[INFORMATIONAL] == len(report.checks)


class TestReportFormats:
    def test_json_structure(self, report):
        d = report.to_json_dict()
        assert d["level"] == "quick"
        assert set(d["summary"]) == {MATCH, INFORMATIONAL, MISMATCH}
        ids = [c["id"] for c in d["checks"]]
        assert ids == sorted(ids)
        for c in d["checks"]:
            assert {"id", "params", "method_a", "method_b", "verdict",
                    "difference", "note", "seconds"} <= set(c)
            assert c["method_a"]["value"] != ""
            assert {"name", "value", "seconds"} == set(c["method_b"])
        json.loads(report.to_json_text())  # valid JSON

    def test_table_lines(self, report):
        text = report.to_table_text()
        assert "MATCH" in text and "INFO" in text
        assert text.strip().splitlines()[-1].startswith("checks:")

    def test_check_ids_unique(self, report):
        ids = [c.check_id for c in report.checks]
        assert len(ids) == len(set(ids))


def _run(check_id, a, b):
    return run_check(Check(check_id, "x", "matrix-tree", lambda: a, "stated-m^n", lambda: b))


class TestAllowlistMechanics:
    def test_known_mismatch_downgrades(self):
        result = _run("spanning/central-prose-step/wheel-4-2", 720, 16)
        assert result.verdict == INFORMATIONAL
        assert result.note

    def test_new_value_stays_red(self):
        result = _run("spanning/central-prose-step/wheel-4-2", 721, 16)
        assert result.verdict == MISMATCH
        assert DiscrepancyReport("quick", [result]).exit_code == 1

    def test_structural_difference(self):
        # values with no subtraction, such as tuples, report no numeric difference
        result = _run("construct/some-pair", (1, 2), (1, 3))
        assert result.verdict == MISMATCH
        assert result.difference == "(structural)"

    def test_unlisted_id_stays_red(self):
        assert _run("spanning/some-new-check", 1, 2).verdict == MISMATCH

    def test_allowlist_pins_both_sides(self):
        for entry in ALLOWLIST.values():
            assert entry.value_a and entry.value_b and entry.reason
