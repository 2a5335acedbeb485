"""Cell plans: the RunKeys an experiment requests, in request order.

The experiment drivers pull memoized cells from the runner one call at a
time; to fan a grid out over worker processes we need the same cell
list *up front*.  :func:`plan_experiment` gets it by running the
experiment's own driver (:func:`repro.experiments.run_experiment`)
against a runner that records each requested cell instead of computing
it, so a plan follows the driver's call order by construction:

* prefetching the plan and then running the driver serially produces a
  journal byte-identical (modulo timings) to a plain serial run, and
* a plan is duplicate-free in first-occurrence order, matching the
  memoization behaviour (only the first request computes and journals).

Recording stops at the first request for data (an encoded table or a
cost model): planning never loads a dataset or runs an algorithm.  It is
best-effort by construction: a cell missing from a plan is simply
computed serially by the driver (the memo misses), and a stale extra
cell just wastes one worker slot — correctness never depends on the
plan being complete.
"""

from __future__ import annotations

import io
from typing import Any, Callable, NoReturn

from repro.errors import ExperimentError
from repro.experiments import experiment_names, run_experiment
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import ExperimentRunner, RunKey, RunOutcome

#: Experiments whose drivers request their cells through the runner
#: memo.  The others (``fig1``, ``global1k``, ``scaling``, ``epsilon``)
#: plan to the empty list without being run.
_RECORDED = ("table1", "fig2", "fig3", "ablations", "all")


class _StopRecording(Exception):
    """A driver asked for data: the plan ends at that request."""


class _Recorder(ExperimentRunner):
    """A runner that records requested cells and computes nothing."""

    def __init__(self, config: ExperimentConfig) -> None:
        super().__init__(config)
        self.keys: dict[RunKey, None] = {}

    def encoded(self, dataset: str) -> NoReturn:
        raise _StopRecording

    def model(self, dataset: str, measure: str) -> NoReturn:
        raise _StopRecording

    def _memo(
        self, key: RunKey, fn: Callable[[], tuple[float, dict[str, Any]]]
    ) -> RunOutcome:
        self.keys.setdefault(key, None)
        return RunOutcome(cost=1.0, seconds=0.0)


def plan_experiment(
    name: str, config: ExperimentConfig | None = None
) -> list[RunKey]:
    """The duplicate-free cell plan of one named experiment.

    ``all`` records its sub-experiments in report order up to the first
    section that bypasses the runner memo.
    """
    if name not in experiment_names():
        raise ExperimentError(
            f"unknown experiment {name!r}; expected one of "
            f"{', '.join(experiment_names())}"
        )
    if name not in _RECORDED:
        return []
    recorder = _Recorder(config or ExperimentConfig())
    try:
        run_experiment(name, recorder, io.StringIO())
    except _StopRecording:
        pass
    return list(recorder.keys)
