"""The differential runner: every algorithm against every oracle.

One registry (:data:`REGISTRY`) names every anonymization algorithm the
library ships — Algorithms 1–6 in their selectable variants, the forest
baseline, Mondrian, Datafly, k-member, and the blocked scalable engine —
together with the notion each must satisfy.  :func:`differential_check`
executes all of them on one fuzz instance and demands:

* no crash and no spurious rejection (1 ≤ k ≤ n is always feasible);
* every output generalizes the input table and passes the verifier of
  its target notion (:mod:`repro.verify.invariants`);
* every output sits correctly in the Prop. 4.5 containment lattice;
* the optimized agglomerative engine reproduces the literal
  :mod:`repro.core.reference` transcription exactly on tie-free runs
  (invariant-only checks otherwise — either tie choice is a correct
  Algorithm 1 execution);
* the matching oracles agree on the output's consistency graph
  (Hopcroft–Karp vs brute force, SCC allowed edges vs the paper's
  naive per-edge test);
* the high-level :func:`repro.core.api.anonymize` facade verifies and
  reports the cost the cost model recomputes.

This is the substrate every future performance PR must pass through:
rewrite a hot path, and the fuzzing harness replays thousands of random
instances through this runner against the untouched slow oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.agglomerative import agglomerative_clustering
from repro.core.api import anonymize
from repro.core.clustering import Clustering, clustering_to_nodes
from repro.core.datafly import datafly
from repro.core.distances import get_distance
from repro.core.forest import forest_clustering
from repro.core.global_1k import global_one_k_anonymize
from repro.core.k1 import k1_expansion, k1_nearest_neighbors
from repro.core.kk import kk_anonymize
from repro.core.kmember import kmember_clustering
from repro.core.mondrian import mondrian_clustering
from repro.core.one_k import one_k_anonymize
from repro.core.reference import reference_agglomerative
from repro.core.scalable import blocked_agglomerative
from repro.errors import ReproError
from repro.matching.bipartite import ConsistencyGraph
from repro.measures.base import CostModel
from repro.measures.registry import get_measure
from repro.verify.generators import Instance, InstanceConfig
from repro.verify.invariants import (
    Violation,
    check_generalization,
    check_lattice,
    check_matching_oracles,
)


@dataclass(frozen=True)
class AlgorithmOutput:
    """What one registered algorithm produced on one instance."""

    nodes: np.ndarray  #: the ``[n, r]`` node matrix
    clustering: Clustering | None = None  #: for clustering-based algorithms


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm: name, target notion, runner."""

    name: str  #: registry key, e.g. ``"kk"`` or ``"agglomerative"``
    notion: str  #: the notion its output must satisfy
    # repr=False keeps the registry's repr stable (function reprs embed
    # memory addresses, which would churn the generated API docs).
    run: Callable[[CostModel, InstanceConfig], AlgorithmOutput] = field(
        repr=False
    )
    requires_laminar: bool = False  #: skip on non-laminar schemas


def _clustered(model: CostModel, clustering: Clustering) -> AlgorithmOutput:
    return AlgorithmOutput(
        nodes=clustering_to_nodes(model.enc, clustering),
        clustering=clustering,
    )


def _run_agglomerative(model: CostModel, cfg: InstanceConfig) -> AlgorithmOutput:
    return _clustered(
        model,
        agglomerative_clustering(
            model,
            cfg.k,
            get_distance(cfg.distance),
            modified=cfg.modified,
        ),
    )


def _run_forest(model: CostModel, cfg: InstanceConfig) -> AlgorithmOutput:
    return _clustered(model, forest_clustering(model, cfg.k))


def _run_mondrian(model: CostModel, cfg: InstanceConfig) -> AlgorithmOutput:
    return _clustered(model, mondrian_clustering(model, cfg.k))


def _run_kmember(model: CostModel, cfg: InstanceConfig) -> AlgorithmOutput:
    return _clustered(model, kmember_clustering(model, cfg.k))


def _run_blocked(model: CostModel, cfg: InstanceConfig) -> AlgorithmOutput:
    block_size = max(2 * cfg.k, 8)
    return _clustered(
        model,
        blocked_agglomerative(
            model,
            cfg.k,
            get_distance(cfg.distance),
            block_size=block_size,
            modified=cfg.modified,
        ),
    )


def _run_datafly(model: CostModel, cfg: InstanceConfig) -> AlgorithmOutput:
    return AlgorithmOutput(nodes=datafly(model, cfg.k).node_matrix)


def _run_k1_nearest(model: CostModel, cfg: InstanceConfig) -> AlgorithmOutput:
    return AlgorithmOutput(nodes=k1_nearest_neighbors(model, cfg.k))


def _run_k1_expansion(model: CostModel, cfg: InstanceConfig) -> AlgorithmOutput:
    return AlgorithmOutput(nodes=k1_expansion(model, cfg.k))


def _run_one_k(model: CostModel, cfg: InstanceConfig) -> AlgorithmOutput:
    return AlgorithmOutput(
        nodes=one_k_anonymize(model, model.enc.singleton_nodes, cfg.k)
    )


def _run_kk(model: CostModel, cfg: InstanceConfig) -> AlgorithmOutput:
    return AlgorithmOutput(
        nodes=kk_anonymize(model, cfg.k, expander=cfg.expander)
    )


def _run_global(model: CostModel, cfg: InstanceConfig) -> AlgorithmOutput:
    base = kk_anonymize(model, cfg.k, expander=cfg.expander)
    nodes, _ = global_one_k_anonymize(model, base, cfg.k)
    return AlgorithmOutput(nodes=nodes)


#: Every registered algorithm, in execution order.
REGISTRY: tuple[AlgorithmSpec, ...] = (
    AlgorithmSpec("agglomerative", "k", _run_agglomerative),
    AlgorithmSpec("forest", "k", _run_forest),
    AlgorithmSpec("mondrian", "k", _run_mondrian),
    AlgorithmSpec("kmember", "k", _run_kmember),
    AlgorithmSpec("blocked", "k", _run_blocked),
    AlgorithmSpec("datafly", "k", _run_datafly, requires_laminar=True),
    AlgorithmSpec("k1-nearest", "k1", _run_k1_nearest),
    AlgorithmSpec("k1-expansion", "k1", _run_k1_expansion),
    AlgorithmSpec("alg5-1k", "1k", _run_one_k),
    AlgorithmSpec("kk", "kk", _run_kk),
    AlgorithmSpec("global-1k", "global-1k", _run_global),
)


def algorithm_names() -> list[str]:
    """Names of every registered algorithm."""
    return [spec.name for spec in REGISTRY]


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look one registered algorithm up by name."""
    for spec in REGISTRY:
        if spec.name == name:
            return spec
    raise KeyError(
        f"unknown algorithm {name!r}; registered: {algorithm_names()}"
    )


def _canonical(clustering: Clustering) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(c)) for c in clustering.clusters)


def compare_with_reference(
    model: CostModel, cfg: InstanceConfig
) -> list[Violation]:
    """The optimized agglomerative engine vs the literal transcription.

    On tie-free runs the clusterings must be identical.  When an exact
    distance tie influenced any reference decision, either choice is a
    correct Algorithm 1/2 execution, so only the k-anonymity invariant
    is demanded of both.
    """
    distance = get_distance(cfg.distance)
    try:
        reference = reference_agglomerative(
            model, cfg.k, distance, modified=cfg.modified
        )
        production = agglomerative_clustering(
            model, cfg.k, distance, modified=cfg.modified
        )
    except ReproError as exc:
        return [
            Violation(
                "differential.agglomerative-crash",
                f"{type(exc).__name__}: {exc}",
            )
        ]
    out: list[Violation] = []
    floor = min(cfg.k, model.enc.num_records)
    for name, clustering in (
        ("reference", reference.clustering),
        ("production", production),
    ):
        if clustering.min_cluster_size() < floor:
            out.append(
                Violation(
                    "differential.cluster-size",
                    f"{name} agglomerative produced a cluster smaller "
                    f"than k={cfg.k}",
                )
            )
    if not reference.had_ties and _canonical(production) != _canonical(
        reference.clustering
    ):
        out.append(
            Violation(
                "differential.agglomerative",
                f"tie-free run (k={cfg.k}, {cfg.distance}, "
                f"modified={cfg.modified}) but engine and reference "
                f"clusterings differ: {_canonical(production)} vs "
                f"{_canonical(reference.clustering)}",
            )
        )
    return out


def check_api_end_to_end(instance: Instance) -> list[Violation]:
    """The :func:`anonymize` facade on the instance's drawn configuration."""
    cfg = instance.config
    try:
        result = anonymize(
            instance.table,
            k=cfg.k,
            notion=cfg.notion,
            measure=cfg.measure,
            distance=cfg.distance,
            modified=cfg.modified,
            expander=cfg.expander,
        )
    except ReproError as exc:
        return [
            Violation(
                "api.rejects-valid-instance",
                f"anonymize(notion={cfg.notion}, k={cfg.k}): {exc}",
            )
        ]
    out: list[Violation] = []
    if not result.verify():
        out.append(
            Violation(
                "api.verify",
                f"anonymize(notion={cfg.notion}, k={cfg.k}) result fails "
                "its own verify()",
            )
        )
    recomputed = CostModel(
        result.encoded, get_measure(result.measure)
    ).table_cost(result.node_matrix)
    if abs(recomputed - result.cost) > 1e-9:
        out.append(
            Violation(
                "api.cost",
                f"reported cost {result.cost} != recomputed {recomputed}",
            )
        )
    try:
        result.generalized.check_generalizes(instance.table)
    except ReproError as exc:
        out.append(Violation("api.generalizes", str(exc)))
    return out


def differential_check(
    instance: Instance, include_matching: bool = True
) -> list[Violation]:
    """Run every applicable registered algorithm on one instance.

    Returns all invariant violations found; an empty list means the
    instance passed the full differential battery.
    """
    enc = instance.encoded()
    model = instance.model(enc)
    cfg = instance.config
    laminar = instance.is_laminar()
    out: list[Violation] = []
    kk_nodes: np.ndarray | None = None

    for spec in REGISTRY:
        if spec.requires_laminar and not laminar:
            continue
        try:
            produced = spec.run(model, cfg)
        except ReproError as exc:
            out.append(
                Violation(
                    "algorithm.rejects-valid-instance",
                    f"{spec.name} (k={cfg.k}, n={enc.num_records}): {exc}",
                )
            )
            continue
        except Exception as exc:  # noqa: BLE001 — crashes are the finding
            out.append(
                Violation(
                    "algorithm.crash",
                    f"{spec.name}: {type(exc).__name__}: {exc}",
                )
            )
            continue
        out.extend(
            check_generalization(
                enc, produced.nodes, spec.notion, cfg.k, label=spec.name
            )
        )
        out.extend(check_lattice(enc, produced.nodes, cfg.k, label=spec.name))
        if produced.clustering is not None:
            floor = min(cfg.k, enc.num_records)
            if produced.clustering.min_cluster_size() < floor:
                out.append(
                    Violation(
                        "algorithm.cluster-size",
                        f"{spec.name}: cluster smaller than k={cfg.k}",
                    )
                )
        if spec.name == "kk":
            kk_nodes = produced.nodes

    out.extend(compare_with_reference(model, cfg))
    if include_matching and kk_nodes is not None:
        graph = ConsistencyGraph(enc, kk_nodes)
        out.extend(
            check_matching_oracles(
                graph.adjacency_lists(), enc.num_records, label="kk-graph"
            )
        )
    out.extend(check_api_end_to_end(instance))
    return out
