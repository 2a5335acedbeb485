"""Performance subsystem: parallel experiment execution + benchmarks.

Three concerns live here, one module each:

* :mod:`repro.perf.plan` — the :class:`~repro.experiments.runner.RunKey`
  cells an experiment will request, in the exact order the serial code
  requests them, recorded by running the experiment's own driver
  against a runner that computes nothing.  A plan is pure data, so it
  can be fanned out.
* :mod:`repro.perf.parallel` — run a plan's cells on a
  ``ProcessPoolExecutor`` and merge the outcomes back into an
  :class:`~repro.experiments.runner.ExperimentRunner` in deterministic
  (submission) order, composing with the journal/checkpoint/resume
  machinery of :mod:`repro.runtime`.
* :mod:`repro.perf.bench` / :mod:`repro.perf.compare` — the pinned
  benchmark suite behind ``repro-anon bench`` and the regression
  comparator for committed ``BENCH_<stamp>.json`` baselines.

:mod:`repro.perf.equivalence` closes the loop: it asserts that the
parallel path is observationally identical to the serial one, reporting
:class:`~repro.verify.invariants.Violation` objects the verification
harness understands.
"""

from repro.perf.bench import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_V1,
    BenchCase,
    BenchReport,
    default_cases,
    default_report_path,
    default_stamp,
    machine_fingerprint,
    run_bench,
)
from repro.perf.compare import (
    ComparisonFinding,
    compare_reports,
    find_baseline,
    load_report,
)
from repro.perf.equivalence import (
    canonical_journal_entries,
    check_parallel_equivalence,
    plan_cells,
)
from repro.perf.parallel import ParallelStats, run_parallel
from repro.perf.plan import plan_experiment
from repro.perf.serve_bench import percentile, serve_cases

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_V1",
    "BenchCase",
    "BenchReport",
    "ComparisonFinding",
    "ParallelStats",
    "canonical_journal_entries",
    "check_parallel_equivalence",
    "compare_reports",
    "default_cases",
    "default_report_path",
    "default_stamp",
    "find_baseline",
    "load_report",
    "machine_fingerprint",
    "percentile",
    "plan_cells",
    "plan_experiment",
    "run_bench",
    "run_parallel",
    "serve_cases",
]
