"""Experiment registry: run the paper's experiments by name.

This is the one place that maps a ``repro-anon experiment`` name to the
driver that runs it.  A driver takes an :class:`ExperimentRunner` and a
text stream, writes its report to the stream as it goes and returns the
exit code.  The CLI passes ``sys.stdout``; :func:`repro.perf.plan_experiment`
runs the same drivers against a runner that only records the cells they
request, so no other module copies a driver's call order.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, TextIO

from repro.core.relations import (
    check_figure1,
    enumerate_census,
    proposition_45_example,
)
from repro.errors import ExperimentError
from repro.experiments.ablations import (
    coupling_ablation,
    distance_ablation,
    join_target_ablation,
    modified_ablation,
)
from repro.experiments.figures import compute_figure
from repro.experiments.full_report import generate_full_report
from repro.experiments.global1k import (
    format_conversion,
    global_conversion_experiment,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scaling import scaling_sweep
from repro.experiments.table1 import compute_table1
from repro.extensions.epsilon_kk import epsilon_sweep
from repro.tabular.encoding import EncodedTable


def _table1(runner: ExperimentRunner, out: TextIO) -> int:
    result = compute_table1(runner)
    out.write(f"{result.format()}\n\n{result.improvement_summary()}\n")
    violations = result.shape_violations()
    if violations:
        out.write("\nSHAPE VIOLATIONS:\n" + "\n".join(violations) + "\n")
        return 1
    return 0


def _fig1(runner: ExperimentRunner, out: TextIO) -> int:
    table, _ = proposition_45_example()
    census = enumerate_census(EncodedTable(table), k=2)
    out.write(
        f"enumerated {census.total} generalizations of the "
        "Proposition 4.5 table (k=2)\n"
    )
    for key, count in sorted(census.counts.items(), key=lambda kv: -kv[1]):
        label = "+".join(sorted(key)) if key else "(none)"
        out.write(f"  {label:30s} {count}\n")
    problems = check_figure1(census)
    out.write(f"Figure 1 inclusions: {problems or 'OK'}\n")
    return 0


def _figure(figure: str, runner: ExperimentRunner, out: TextIO) -> int:
    fig = compute_figure(runner, figure)
    out.write(f"{fig.chart()}\n\n{fig.numbers()}\n")
    return 0


def _ablations(runner: ExperimentRunner, out: TextIO) -> int:
    for dataset in runner.config.datasets:
        for measure in runner.config.measures:
            out.write(f"== {dataset} / {measure} ==\n")
            for ablation in (
                distance_ablation,
                coupling_ablation,
                modified_ablation,
                join_target_ablation,
            ):
                out.write(ablation(runner, dataset, measure).format() + "\n")
            out.write("\n")
    return 0


def _global1k(runner: ExperimentRunner, out: TextIO) -> int:
    points = []
    for dataset in runner.config.datasets:
        points.extend(global_conversion_experiment(runner, dataset, "entropy"))
    out.write(format_conversion(points) + "\n")
    return 0


def _scaling(runner: ExperimentRunner, out: TextIO) -> int:
    out.write(scaling_sweep().format() + "\n")
    return 0


def _epsilon(runner: ExperimentRunner, out: TextIO) -> int:
    for dataset in runner.config.datasets:
        sweep = epsilon_sweep(runner.model(dataset, "entropy"), k=10)
        eps = sweep.smallest_sufficient_epsilon()
        out.write(f"{dataset}: smallest sufficient ε = {eps}\n")
        for p in sweep.points:
            out.write(
                f"  ε={p.epsilon:<4} k'={p.k_prime:<3} Π={p.cost:.4f} "
                f"min matches={p.min_matches} deficient={p.deficient_records}\n"
            )
    return 0


def _all(runner: ExperimentRunner, out: TextIO) -> int:
    out.write(generate_full_report(runner) + "\n")
    return 0


_DRIVERS: dict[str, Callable[[ExperimentRunner, TextIO], int]] = {
    "table1": _table1,
    "fig1": _fig1,
    "fig2": partial(_figure, "fig2"),
    "fig3": partial(_figure, "fig3"),
    "ablations": _ablations,
    "global1k": _global1k,
    "scaling": _scaling,
    "epsilon": _epsilon,
    "all": _all,
}


def experiment_names() -> tuple[str, ...]:
    """Every experiment :func:`run_experiment` accepts, in CLI order."""
    return tuple(_DRIVERS)


def run_experiment(name: str, runner: ExperimentRunner, out: TextIO) -> int:
    """Run the experiment called ``name``, writing its report to ``out``.

    Returns the exit code: 1 when Table I fails its shape check, else 0.

    Raises
    ------
    ExperimentError
        For unknown names, listing the known ones.
    """
    driver = _DRIVERS.get(name)
    if driver is None:
        raise ExperimentError(
            f"unknown experiment {name!r}; expected one of "
            f"{', '.join(_DRIVERS)}"
        )
    return driver(runner, out)
