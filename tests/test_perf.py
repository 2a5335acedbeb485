"""Tests for :mod:`repro.perf`: bench suite, comparator, plans, parallel.

The acceptance drills for the performance subsystem live here:

* the parallel executor is observationally identical to the serial path
  (same costs, same journal bytes modulo timings) — asserted both on
  the library surface (:func:`check_parallel_equivalence`) and through
  the CLI (``--workers 4`` output equals ``--workers 1`` output);
* cell plans, recorded from the serial drivers, equal their journals;
* each hot-path optimization matches its kept reference implementation;
* bench reports are schema-versioned, comparable, and the committed
  ``BENCH_*.json`` baseline clears every enforced speedup floor.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import load
from repro.errors import ExperimentError, ReproError
from repro.experiments import experiment_names, run_experiment
from repro.experiments.configs import PAPER_SIZES, ExperimentConfig
from repro.experiments.runner import ExperimentRunner, RunKey, RunOutcome
from repro.measures.entropy import (
    EntropyMeasure,
    NonUniformEntropyMeasure,
    entry_costs_reference,
    node_costs_reference,
)
from repro.perf import (
    canonical_journal_entries,
    check_parallel_equivalence,
    compare_reports,
    default_cases,
    find_baseline,
    load_report,
    plan_cells,
    plan_experiment,
    run_bench,
    run_parallel,
)
from repro.perf.bench import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_V1,
    BenchCase,
    BenchReport,
    default_report_path,
    default_stamp,
)
from repro.perf.compare import (
    MIN_PAIR_SPEEDUPS,
    has_regressions,
    report_from_json,
)
from repro.runtime import Journal
from repro.tabular.encoding import EncodedTable

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Tiny grid: one dataset x one measure x two ks keeps every drill fast.
SMALL = ExperimentConfig(
    sizes={"art": 40, "adult": 40, "cmc": 40},
    ks=(2, 3),
    datasets=("art",),
    measures=("entropy",),
)


def _tick(values: list[float]):
    """A deterministic BenchCase setup: the timed closure is trivial."""
    return lambda: lambda: values.append(0.0)


def _case_entry(name: str, median: float, **over) -> dict:
    entry = {
        "name": name, "group": "algorithm", "n": 80, "pair": "", "role": "",
        "seconds": [median], "min": median, "median": median,
        "mean": median, "max": median,
    }
    entry.update(over)
    return entry


def _report(cases=(), pairs=()) -> BenchReport:
    return BenchReport(
        stamp="2026-01-01T000000Z", quick=True, repeat=1,
        machine={}, git_sha="deadbeef",
        cases=list(cases), pairs=list(pairs),
    )


# --------------------------------------------------------------------- #
# bench machinery
# --------------------------------------------------------------------- #


class TestBench:
    def test_report_json_round_trips_through_schema_validation(self, tmp_path):
        sink: list[float] = []
        report = run_bench(
            cases=[BenchCase("noop", "algorithm", 1, _tick(sink))],
            repeat=3,
            stamp="2026-01-01T000000Z",
        )
        path = tmp_path / "BENCH_test.json"
        report.write(path)
        loaded = load_report(path)
        assert loaded.stamp == report.stamp
        assert loaded.repeat == 3
        assert [c["name"] for c in loaded.cases] == ["noop"]
        assert len(loaded.case("noop")["seconds"]) == 3
        assert json.loads(path.read_text())["schema"] == BENCH_SCHEMA

    def test_pair_speedup_is_median_ratio(self):
        sink: list[float] = []
        report = run_bench(
            cases=[
                BenchCase("p-opt", "hotpath", 1, _tick(sink), "p", "optimized"),
                BenchCase("p-ref", "hotpath", 1, _tick(sink), "p", "baseline"),
            ],
            repeat=2,
        )
        pair = report.pair("p")
        assert pair is not None
        opt = report.case("p-opt")["median"]
        base = report.case("p-ref")["median"]
        assert pair["speedup"] == pytest.approx(base / opt)

    def test_unpaired_role_yields_no_pair(self):
        sink: list[float] = []
        report = run_bench(
            cases=[
                BenchCase("q-opt", "hotpath", 1, _tick(sink), "q", "optimized")
            ],
            repeat=1,
        )
        assert report.pairs == []

    def test_empty_filter_is_a_typed_error(self):
        with pytest.raises(ReproError, match="no benchmark cases"):
            run_bench(name_filter="no-such-case-name")

    def test_nonpositive_repeat_rejected(self):
        sink: list[float] = []
        with pytest.raises(ReproError, match="repeat"):
            run_bench(
                cases=[BenchCase("noop", "algorithm", 1, _tick(sink))],
                repeat=0,
            )

    def test_default_stamp_is_a_pure_function_of_the_clock(self):
        assert default_stamp(lambda: 0.0) == "1970-01-01T000000Z"
        assert default_stamp(lambda: 86400.0 + 3661.0) == "1970-01-02T010101Z"

    def test_default_report_path_uses_the_injected_clock(self, tmp_path):
        path = default_report_path(tmp_path, lambda: 0.0)
        assert path == tmp_path / "BENCH_1970-01-01T000000Z.json"

    def test_run_bench_stamps_via_the_injected_clock(self):
        sink: list[float] = []
        report = run_bench(
            cases=[BenchCase("noop", "algorithm", 1, _tick(sink))],
            repeat=1,
            clock=lambda: 0.0,
        )
        assert report.stamp == "1970-01-01T000000Z"

    def test_v1_schema_reports_still_load(self):
        payload = _report(cases=[_case_entry("noop", 0.5)]).to_json()
        payload["schema"] = BENCH_SCHEMA_V1
        assert "metrics" not in payload  # v1 never wrote one
        loaded = report_from_json(payload)
        assert loaded.metrics is None
        assert loaded.case("noop")["median"] == 0.5

    def test_metrics_off_by_default_and_absent_from_json(self):
        sink: list[float] = []
        report = run_bench(
            cases=[BenchCase("noop", "algorithm", 1, _tick(sink))],
            repeat=1,
        )
        assert report.metrics is None
        assert "metrics" not in report.to_json()

    def test_collect_metrics_embeds_suite_snapshot_and_round_trips(
        self, tmp_path
    ):
        from repro.obs import count

        def case_setup():
            return lambda: count("perf.test.work", 3)

        report = run_bench(
            cases=[BenchCase("counted", "algorithm", 1, case_setup)],
            repeat=2,
            collect_metrics=True,
            stamp="2026-01-01T000000Z",
        )
        assert report.metrics is not None
        # warmup + 2 timed repeats, 3 units each
        assert report.metrics["counters"]["perf.test.work"] == 9
        path = tmp_path / "BENCH_metrics.json"
        report.write(path)
        loaded = load_report(path)
        assert loaded.metrics == report.metrics

    def test_bench_extra_from_the_timed_closure_lands_in_the_entry(self):
        def case_setup():
            return lambda: {"__bench_extra__": {"serve": {"requests": 7}}}

        report = run_bench(
            cases=[BenchCase("extra", "serve", 1, case_setup)],
            repeat=2,
            stamp="2026-01-01T000000Z",
        )
        entry = report.case("extra")
        assert entry is not None
        assert entry["serve"] == {"requests": 7}
        assert "__bench_extra__" not in entry

    def test_serve_cases_shape_and_percentiles(self):
        from repro.perf import percentile, serve_cases

        cases = serve_cases(quick=True)
        assert [c.group for c in cases] == ["serve", "serve"]
        assert {c.name for c in cases} == {"serve-cold-n40", "serve-warm-n40"}
        assert percentile([], 99.0) == 0.0
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
        assert percentile([1.0, 2.0], 100.0) == 2.0

    def test_default_case_set_covers_algorithms_and_pairs(self):
        cases = default_cases(quick=True)
        names = {c.name for c in cases}
        assert any(n.startswith("agglomerative-mod") for n in names)
        assert any(n.startswith("hopcroft-karp") for n in names)
        assert any(n.startswith("serve-cold") for n in names)
        pairs = {c.pair for c in cases if c.pair}
        assert pairs == {
            "entropy-node-costs", "entropy-entry-costs",
            "agglomerative-shrink", "closure-memo",
        }
        # every pair has both roles, so every speedup gets derived
        for pair in pairs:
            roles = {c.role for c in cases if c.pair == pair}
            assert roles == {"optimized", "baseline"}

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ReproError, match="schema"):
            report_from_json({"schema": "other/9", "cases": [], "pairs": []})

    def test_missing_field_rejected(self):
        payload = _report().to_json()
        del payload["git_sha"]
        with pytest.raises(ReproError, match="git_sha"):
            report_from_json(payload)

    def test_malformed_case_entry_rejected(self):
        payload = _report(cases=[{"name": "x"}]).to_json()
        with pytest.raises(ReproError, match="case entry missing"):
            report_from_json(payload)


class TestComparator:
    def test_find_baseline_picks_latest_stamp(self, tmp_path):
        for stamp in ("2026-01-01T000000Z", "2026-03-01T000000Z"):
            _report().write(tmp_path / f"BENCH_{stamp}.json")
        (tmp_path / "BENCH not-a-baseline.json").write_text("{}")
        found = find_baseline(tmp_path)
        assert found is not None
        assert found.name == "BENCH_2026-03-01T000000Z.json"

    def test_find_baseline_none_when_absent(self, tmp_path):
        assert find_baseline(tmp_path) is None

    def test_case_slowdown_is_warning_not_regression(self):
        baseline = _report(cases=[_case_entry("agg", 1.0)])
        current = _report(cases=[_case_entry("agg", 2.0)])
        findings = compare_reports(current, baseline, threshold=0.5)
        assert [f.regression for f in findings] == [False]
        assert not has_regressions(findings)

    def test_case_within_threshold_is_silent(self):
        baseline = _report(cases=[_case_entry("agg", 1.0)])
        current = _report(cases=[_case_entry("agg", 1.2)])
        assert compare_reports(current, baseline, threshold=0.5) == []

    def test_new_case_is_noted_never_failed(self):
        findings = compare_reports(
            _report(cases=[_case_entry("brand-new", 1.0)]), _report()
        )
        assert len(findings) == 1
        assert not findings[0].regression
        assert "new case" in findings[0].detail

    def test_slower_than_reference_is_a_regression(self):
        current = _report(pairs=[{"name": "p", "speedup": 0.8}])
        findings = compare_reports(current, _report())
        assert has_regressions(findings)
        assert "slower than its reference" in findings[0].detail

    def test_floor_violation_is_a_regression(self):
        name = "entropy-entry-costs"
        assert MIN_PAIR_SPEEDUPS[name] == 1.5
        current = _report(pairs=[{"name": name, "speedup": 1.2}])
        findings = compare_reports(current, _report())
        assert has_regressions(findings)
        assert "floor" in findings[0].detail

    def test_speedup_drop_vs_baseline_is_a_regression(self):
        baseline = _report(pairs=[{"name": "p", "speedup": 8.0}])
        current = _report(pairs=[{"name": "p", "speedup": 2.0}])
        findings = compare_reports(current, baseline, threshold=0.5)
        assert has_regressions(findings)

    def test_stable_speedup_is_silent(self):
        baseline = _report(pairs=[{"name": "p", "speedup": 2.0}])
        current = _report(pairs=[{"name": "p", "speedup": 1.9}])
        assert compare_reports(current, baseline) == []

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ReproError, match="threshold"):
            compare_reports(_report(), _report(), threshold=0.0)


class TestCommittedBaseline:
    """The repo must ship a valid baseline clearing the speedup floors."""

    def test_committed_baseline_is_valid_and_clears_floors(self):
        path = find_baseline(REPO_ROOT)
        assert path is not None, "no BENCH_*.json committed at the repo root"
        baseline = load_report(path)
        assert baseline.git_sha != ""
        speedups = {p["name"]: p["speedup"] for p in baseline.pairs}
        for name, floor in MIN_PAIR_SPEEDUPS.items():
            assert speedups[name] >= floor, (name, speedups[name], floor)
        # the headline acceptance criterion: a >=1.5x hot-path win
        assert max(speedups.values()) >= 1.5


# --------------------------------------------------------------------- #
# cell plans
# --------------------------------------------------------------------- #


def _journaled_keys(journal: Journal) -> list[RunKey]:
    return [RunKey.from_json(key_json) for key_json, _ in journal.entries()]


class TestPlans:
    @pytest.mark.parametrize(
        "name", ["table1", "fig2", "fig3", "ablations", "all"]
    )
    def test_plan_matches_serial_journal_exactly(self, name, tmp_path):
        journal = Journal(tmp_path / f"{name}.jsonl")
        runner = ExperimentRunner(SMALL, journal=journal)
        run_experiment(name, runner, io.StringIO())
        assert plan_experiment(name, SMALL) == _journaled_keys(journal)

    def test_reordered_driver_still_plans_its_journal(
        self, tmp_path, monkeypatch
    ):
        # The plan is recorded from the driver, so changing a driver's
        # call order changes the plan with it: there is no mirror left
        # to drift.
        from repro.experiments import table1

        unpatched = plan_experiment("table1", SMALL)
        original = table1.compute_block

        def forest_first(runner, dataset, measure):
            for k in runner.config.ks:
                runner.forest(dataset, measure, k)
            return original(runner, dataset, measure)

        monkeypatch.setattr(table1, "compute_block", forest_first)
        journal = Journal(tmp_path / "table1.jsonl")
        runner = ExperimentRunner(SMALL, journal=journal)
        run_experiment("table1", runner, io.StringIO())
        plan = plan_experiment("table1", SMALL)
        assert plan == _journaled_keys(journal)
        assert plan[0].kind == "forest"
        assert plan != unpatched and set(plan) == set(unpatched)

    def test_planning_loads_no_dataset_and_runs_no_algorithm(
        self, monkeypatch
    ):
        from repro.datasets import registry
        from repro.experiments import runner as runner_module

        def refuse(*args, **kwargs):
            raise AssertionError("planning must not load or compute")

        monkeypatch.setattr(registry, "load", refuse)
        for name in (
            "load",
            "agglomerative_clustering",
            "forest_clustering",
            "kk_anonymize",
            "global_one_k_anonymize",
        ):
            monkeypatch.setattr(runner_module, name, refuse)
        paper = ExperimentConfig(sizes=dict(PAPER_SIZES))
        sizes = {
            name: len(plan_experiment(name, paper))
            for name in experiment_names()
        }
        assert sizes == {
            "table1": 264,
            "fig1": 0,
            "fig2": 44,
            "fig3": 44,
            "ablations": 288,
            "global1k": 0,
            "scaling": 0,
            "epsilon": 0,
            "all": 312,
        }

    def test_plans_are_duplicate_free(self):
        for name in ("table1", "fig2", "fig3", "ablations", "all"):
            plan = plan_experiment(name, SMALL)
            assert len(plan) == len(set(plan)), name

    def test_non_memo_experiments_plan_empty(self):
        for name in ("fig1", "global1k", "scaling", "epsilon"):
            assert plan_experiment(name, SMALL) == []

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            plan_experiment("nope", SMALL)

    def test_plan_cells_covers_every_run_kind(self):
        kinds = {key.kind for key in plan_cells(SMALL)}
        assert kinds == {"agg", "forest", "kk", "global"}


# --------------------------------------------------------------------- #
# parallel execution
# --------------------------------------------------------------------- #


class TestParallel:
    def test_single_worker_degenerates_to_serial(self):
        runner = ExperimentRunner(SMALL)
        keys = plan_experiment("fig2", SMALL)[:4]
        stats = run_parallel(runner, keys, workers=1)
        assert (stats.workers, stats.merged) == (1, 4)
        assert runner.computed_cells == 4

    def test_memoized_cells_are_skipped_not_resubmitted(self):
        runner = ExperimentRunner(SMALL)
        keys = plan_experiment("fig2", SMALL)[:4]
        for key in keys[:2]:
            runner.run_key(key)
        stats = run_parallel(runner, keys, workers=2)
        assert stats.skipped == 2
        assert stats.submitted == 2
        assert runner.computed_cells == 4

    def test_parallel_equivalent_to_serial(self):
        keys = plan_cells(SMALL, ks=(3,))
        violations = check_parallel_equivalence(SMALL, keys, workers=3)
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_equivalence_check_catches_a_divergence(self, tmp_path):
        # Sanity-check the checker itself: a corrupted parallel journal
        # (extra cell) must surface as a violation, not silently pass.
        journal = Journal(tmp_path / "j.jsonl")
        runner = ExperimentRunner(SMALL, journal=journal)
        keys = plan_experiment("fig2", SMALL)[:2]
        for key in keys:
            runner.run_key(key)
        extra = RunKey("forest", "art", "entropy", 7)
        journal.append(extra.to_json(), RunOutcome(1.0, 2.0).to_json())
        lines = canonical_journal_entries(journal)
        assert len(lines) == 3
        assert all('"seconds": 0.0' in line for line in lines)

    def test_parallel_runs_journal_identically(self, tmp_path):
        keys = plan_experiment("fig2", SMALL)[:6]

        serial_journal = Journal(tmp_path / "serial.jsonl")
        serial = ExperimentRunner(SMALL, journal=serial_journal)
        for key in keys:
            serial.run_key(key)

        parallel_journal = Journal(tmp_path / "parallel.jsonl")
        parallel = ExperimentRunner(SMALL, journal=parallel_journal)
        stats = run_parallel(parallel, keys, workers=2)
        assert stats.merged == len(keys)
        assert canonical_journal_entries(serial_journal) == (
            canonical_journal_entries(parallel_journal)
        )


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #


class TestCli:
    def test_workers_flag_is_observationally_serial(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_BENCH_N", "40")
        outputs = {}
        journals = {}
        for workers in (1, 4):
            journal = tmp_path / f"fig2-w{workers}.jsonl"
            code = main([
                "experiment", "fig2",
                "--workers", str(workers),
                "--journal", str(journal),
            ])
            assert code == 0
            lines = [
                line
                for line in capsys.readouterr().out.splitlines()
                if not line.startswith("parallel prefetch")
                and not line.startswith("journal ")
            ]
            outputs[workers] = lines
            journals[workers] = canonical_journal_entries(Journal(journal))
        assert outputs[1] == outputs[4]
        assert journals[1] == journals[4]
        assert len(journals[1]) > 0

    def test_bench_quick_filter_writes_valid_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_cli.json"
        code = main([
            "bench", "--quick", "--repeat", "1",
            "--filter", "hopcroft",
            "--no-compare", "--out", str(out),
        ])
        assert code == 0
        report = load_report(out)
        assert [c["name"] for c in report.cases] == ["hopcroft-karp-n80"]

    def test_bench_list_names_cases_without_running(self, capsys):
        from repro.cli import main

        assert main(["bench", "--quick", "--list"]) == 0
        out = capsys.readouterr().out
        assert "hopcroft-karp-n80" in out
        assert "agglomerative-shrink" in out

    def test_bench_enforce_fails_on_floor_violation(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        # A baseline whose pair speedups are far above anything a noop
        # run could reach makes every pair a regression under enforce.
        baseline = _report(pairs=[
            {"name": "entropy-entry-costs", "speedup": 10_000.0},
        ])
        baseline_path = tmp_path / "BENCH_hot.json"
        baseline.write(baseline_path)
        code = main([
            "bench", "--quick", "--repeat", "1",
            "--filter", "entropy-entry-costs",
            "--baseline", str(baseline_path),
            "--enforce",
        ])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# hot-path optimizations match their reference implementations
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def art_enc():
    return EncodedTable(load("art", n=60, seed=0))


class TestHotPathIdentity:
    def test_entropy_node_costs_match_reference(self, art_enc):
        measure = EntropyMeasure()
        for j, att in enumerate(art_enc.attrs):
            fast = measure.node_costs(att, art_enc.value_counts[j])
            ref = node_costs_reference(att, art_enc.value_counts[j])
            np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-12)

    def test_entry_costs_bit_identical_to_reference(self, art_enc):
        measure = NonUniformEntropyMeasure()
        for j, att in enumerate(art_enc.attrs):
            fast = measure.entry_costs(att, art_enc.value_counts[j])
            ref = entry_costs_reference(att, art_enc.value_counts[j])
            np.testing.assert_array_equal(fast, ref)

    def test_leave_one_out_matches_per_subset_closures(self, art_enc):
        indices = [0, 3, 7, 11, 19]
        folds = art_enc.leave_one_out_closures(indices)
        for i in range(len(indices)):
            rest = indices[:i] + indices[i + 1:]
            np.testing.assert_array_equal(
                folds[i], art_enc.closure_of_records(rest)
            )

    def test_closure_memo_is_transparent(self, art_enc):
        subset = [2, 4, 8, 16]
        cold = art_enc.closure_of_records(subset)
        warm = art_enc.closure_of_records(subset)
        np.testing.assert_array_equal(cold, warm)
        art_enc._closure_cache.clear()
        np.testing.assert_array_equal(
            art_enc.closure_of_records(subset), cold
        )

    def test_vectorized_shrink_equals_scan(self):
        from repro.core.agglomerative import _Engine
        from repro.core.distances import get_distance
        from repro.measures.base import CostModel
        from repro.measures.registry import get_measure

        for measure in ("entropy", "lm"):
            enc = EncodedTable(load("art", n=60, seed=0))
            model = CostModel(enc, get_measure(measure))
            engine = _Engine(model, get_distance("d3"), 5)
            members = list(range(20))
            assert engine._shrink(list(members)) == (
                engine._shrink_scan(list(members))
            ), measure
