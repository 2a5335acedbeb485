"""Ablations backing the "additional conclusions" of Section VI-A.

The paper draws four secondary conclusions from its experiments; each
gets a dedicated ablation here:

* **A1 distances** — "the two distance functions that consistently bring
  the best results are (10) and (11)" (our ``d3`` and ``d4``), with the
  Nergiz–Clifton asymmetric variant added for context.
* **A2 couplings** — "the coupling of Algorithms 4 and 5 produced better
  (k,k)-anonymizations than the coupling of Algorithms 3 and 5".
* **A3 modified** — "the corrections made in the modified agglomerative
  algorithm usually reduce the information loss ... negligible for
  [d3, d4]".
* **A4 join target** — this library's own variant of Algorithm 5
  (joining deficient records with the original record instead of its
  generalization), quantifying how much that choice matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.distances import distance_names
from repro.experiments.configs import variant_name
from repro.report import format_table
from repro.experiments.runner import ExperimentRunner


@dataclass(frozen=True)
class DistanceAblation:
    """A1: every distance function (plus NC), basic algorithm, per k."""

    dataset: str
    measure: str
    ks: tuple[int, ...]
    costs: dict[str, dict[int, float]]  #: distance name -> {k: cost}

    def ranking(self) -> list[str]:
        """Distances ranked by total loss over the k sweep (best first)."""
        return sorted(self.costs, key=lambda d: sum(self.costs[d].values()))

    def format(self) -> str:
        """Aligned table of the sweep."""
        rows = [
            [name] + [self.costs[name][k] for k in self.ks]
            for name in self.ranking()
        ]
        return format_table(["distance"] + [f"k={k}" for k in self.ks], rows)


def distance_ablation(
    runner: ExperimentRunner, dataset: str, measure: str
) -> DistanceAblation:
    """Run A1 for one (dataset, measure)."""
    ks = runner.config.ks
    costs = {
        name: {
            k: runner.agglomerative(dataset, measure, k, name, False).cost
            for k in ks
        }
        for name in distance_names()
    }
    return DistanceAblation(dataset=dataset, measure=measure, ks=ks, costs=costs)


@dataclass(frozen=True)
class CouplingAblation:
    """A2: Alg 3+5 vs Alg 4+5 per k."""

    dataset: str
    measure: str
    ks: tuple[int, ...]
    expansion: dict[int, float]  #: Alg 4 + 5
    nearest: dict[int, float]  #: Alg 3 + 5

    def expansion_wins(self) -> int:
        """At how many k values Algorithm 4's coupling is at least as good."""
        return sum(
            1 for k in self.ks if self.expansion[k] <= self.nearest[k] + 1e-12
        )

    def format(self) -> str:
        """Aligned table of the comparison."""
        rows = [
            ["alg4+alg5 (expansion)"] + [self.expansion[k] for k in self.ks],
            ["alg3+alg5 (nearest)"] + [self.nearest[k] for k in self.ks],
        ]
        return format_table(["coupling"] + [f"k={k}" for k in self.ks], rows)


def coupling_ablation(
    runner: ExperimentRunner, dataset: str, measure: str
) -> CouplingAblation:
    """Run A2 for one (dataset, measure)."""
    ks = runner.config.ks
    return CouplingAblation(
        dataset=dataset,
        measure=measure,
        ks=ks,
        expansion={k: runner.kk(dataset, measure, k, "expansion").cost for k in ks},
        nearest={k: runner.kk(dataset, measure, k, "nearest").cost for k in ks},
    )


@dataclass(frozen=True)
class ModifiedAblation:
    """A3: basic vs modified agglomerative, per distance, summed over k."""

    dataset: str
    measure: str
    ks: tuple[int, ...]
    totals: dict[str, float]  #: variant name -> total loss over the k sweep

    def relative_gain(self, distance: str) -> float:
        """1 − modified/basic total for one distance (positive = helps)."""
        basic = self.totals[variant_name(distance, False)]
        mod = self.totals[variant_name(distance, True)]
        return 1.0 - mod / basic if basic else 0.0

    def format(self) -> str:
        """Per-distance gain table."""
        rows = [
            [
                d,
                self.totals[variant_name(d, False)],
                self.totals[variant_name(d, True)],
                f"{self.relative_gain(d):+.1%}",
            ]
            for d in ("d1", "d2", "d3", "d4")
        ]
        return format_table(
            ["distance", "basic (Σ over k)", "modified (Σ over k)", "gain"], rows, 3
        )


def modified_ablation(
    runner: ExperimentRunner, dataset: str, measure: str
) -> ModifiedAblation:
    """Run A3 for one (dataset, measure)."""
    ks = runner.config.ks
    totals = {}
    for distance in ("d1", "d2", "d3", "d4"):
        for modified in (False, True):
            totals[variant_name(distance, modified)] = sum(
                runner.agglomerative(dataset, measure, k, distance, modified).cost
                for k in ks
            )
    return ModifiedAblation(dataset=dataset, measure=measure, ks=ks, totals=totals)


@dataclass(frozen=True)
class JoinTargetAblation:
    """A4: Algorithm 5 joining with R̄_i (paper) vs R_i (tight variant)."""

    dataset: str
    measure: str
    ks: tuple[int, ...]
    generalized: dict[int, float]  #: paper behaviour
    original: dict[int, float]  #: tight variant

    def format(self) -> str:
        """Aligned table of the comparison."""
        rows = [
            ["join with R̄_i (paper)"] + [self.generalized[k] for k in self.ks],
            ["join with R_i (tight)"] + [self.original[k] for k in self.ks],
        ]
        return format_table(["Alg 5 variant"] + [f"k={k}" for k in self.ks], rows)


def join_target_ablation(
    runner: ExperimentRunner, dataset: str, measure: str
) -> JoinTargetAblation:
    """Run A4 for one (dataset, measure)."""
    ks = runner.config.ks
    return JoinTargetAblation(
        dataset=dataset,
        measure=measure,
        ks=ks,
        generalized={
            k: runner.kk(dataset, measure, k, "expansion", "generalized").cost
            for k in ks
        },
        original={
            k: runner.kk(dataset, measure, k, "expansion", "original").cost
            for k in ks
        },
    )
