"""Tests for the fuzzing harness itself: budgets, reports, replay.

The central claim of ``repro.verify.harness`` is *replayability*: a
failing case prints a command whose execution regenerates exactly the
same failure.  We prove it by injecting a bug into a Def. 4.4 verifier
(via monkeypatch), catching it with ``fuzz``, and replaying the printed
case seed while the bug is still in place.
"""

from __future__ import annotations

import pytest

import repro.core.notions as notions
from repro.verify.generators import random_instance
from repro.verify.harness import FuzzReport, check_case, fuzz


class TestFuzzLoop:
    def test_smoke_clean_run(self):
        report = fuzz(seed=0, max_cases=5)
        assert report.ok
        assert report.cases_run == 5
        assert report.failures == []
        assert "OK" in report.summary()

    def test_budget_stops_loop(self):
        report = fuzz(seed=0, budget_seconds=0.0)
        # The first case always runs so a failure can never hide behind
        # a tiny budget.
        assert report.cases_run == 1

    def test_case_seeds_are_master_seed_plus_index(self):
        seen = []
        fuzz(seed=100, max_cases=3, on_case=lambda i, s, v: seen.append((i, s)))
        assert seen == [(0, 100), (1, 101), (2, 102)]

    def test_check_case_clean_on_generated_instances(self):
        assert check_case(random_instance(7)) == []

    def test_report_ok_property(self):
        report = FuzzReport(seed=1)
        assert report.ok


class TestInjectedBugDetection:
    """Acceptance criterion: a deliberately broken verifier is caught
    and the reported seed replays deterministically."""

    @pytest.fixture
    def broken_k1_verifier(self, monkeypatch):
        real = notions.is_k_one_anonymous

        def too_strict(enc, node_matrix, k):
            # Off-by-one bug: demands k+1 right-links instead of k.
            return real(enc, node_matrix, k + 1)

        monkeypatch.setattr(notions, "is_k_one_anonymous", too_strict)

    def test_fuzz_catches_and_replays(self, broken_k1_verifier):
        report = fuzz(seed=42, max_cases=30, max_failures=1)
        assert not report.ok
        failure = report.failures[0]
        invariants = {v.invariant for v in failure.violations}
        assert any(i.startswith("notion.") for i in invariants)

        # The advertised replay command is `repro-anon fuzz
        # --seed <case_seed> --max-cases 1`; execute its semantics.
        assert (
            failure.replay_command
            == f"repro-anon fuzz --seed {failure.case_seed} --max-cases 1"
        )
        replay = fuzz(seed=failure.case_seed, max_cases=1, max_failures=1)
        assert not replay.ok
        replay_invariants = {
            v.invariant for v in replay.failures[0].violations
        }
        assert replay_invariants == invariants

        # The shrunk witness still exhibits the failure.
        shrunk_invariants = {
            v.invariant for v in check_case(failure.shrunk)
        }
        assert shrunk_invariants & invariants

        # Failure reports carry the replay command and the witness.
        text = report.summary()
        assert failure.replay_command in text
        assert "shrunk instance" in text

    def test_clean_after_bug_removed(self):
        # monkeypatch from the fixture has been undone here.
        assert fuzz(seed=42, max_cases=5).ok


@pytest.mark.slow
class TestExtendedFuzz:
    def test_sixty_second_budget(self):
        report = fuzz(seed=2026, budget_seconds=60.0)
        assert report.ok, report.summary()
        assert report.cases_run > 50


def test_check_generalization_reports_each_breached_record(small_encoded):
    """``output.generalizes`` names every record whose published row is
    inconsistent with it, in record order."""
    from repro.verify.invariants import check_generalization
    from tests.conftest import breach_rows

    nodes = breach_rows(small_encoded, (12, 3))
    found = [
        v.detail
        for v in check_generalization(small_encoded, nodes, "k", 2)
        if v.invariant == "output.generalizes"
    ]
    assert found == [
        f"output: record {i} is not consistent with its generalization "
        "(Def. 3.3 breach)"
        for i in (3, 12)
    ]
    assert check_generalization(
        small_encoded, small_encoded.singleton_nodes, "k", 1
    ) == []
