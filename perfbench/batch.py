"""Batch workloads: the paper's tables through ``repro.core.api.anonymize``.

``adt-k``
    ADT n=5000, notion ``k`` (agglomerative, distance ``d3``), once
    under entropy and once under LM.
``cmc-art-g1k``
    Notion ``global-1k`` on CMC n=1473 and ART n=1000, each under
    entropy and LM.

The plain run times each ``anonymize()`` call from outside.  The traced
run replays the same calls decomposed into the public functions
``anonymize()`` itself calls, one span per layer, and must reproduce
the plain call's node matrix and cost exactly.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any

from measure import (
    DEFAULT_SEED,
    K,
    Tally,
    clock,
    matrix_digest,
    nearest_rank,
    timed_median,
)

from repro.core.agglomerative import agglomerative_clustering
from repro.core.api import anonymize
from repro.core.backend import resolve_backend
from repro.core.clustering import clustering_to_nodes
from repro.core.distances import get_distance
from repro.core.global_1k import global_one_k_anonymize
from repro.core.k1 import k1_expansion
from repro.core.notions import satisfies
from repro.core.one_k import one_k_anonymize
from repro.datasets.registry import load
from repro.measures.base import CostModel
from repro.measures.registry import get_measure
from repro.obs import MetricsRegistry, Tracer, metrics_scope, trace_scope
from repro.tabular.encoding import EncodedTable

#: Times the inputs are generated during set-up (median reported).
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Call:
    """One ``anonymize()`` call of a batch workload."""

    dataset: str
    n: int
    notion: str
    measure: str

    @property
    def name(self) -> str:
        return f"{self.dataset}{self.n}/{self.notion}/{self.measure}"


WORKLOADS: dict[str, tuple[Call, ...]] = {
    "adt-k": (
        Call("adult", 5000, "k", "entropy"),
        Call("adult", 5000, "k", "lm"),
    ),
    "cmc-art-g1k": (
        Call("cmc", 1473, "global-1k", "entropy"),
        Call("cmc", 1473, "global-1k", "lm"),
        Call("art", 1000, "global-1k", "entropy"),
        Call("art", 1000, "global-1k", "lm"),
    ),
}


def setup(workload: str, seed: int) -> tuple[float, dict[tuple[str, int], Any]]:
    """Generate the workload's tables; (median seconds, tables)."""
    sizes = sorted({(call.dataset, call.n) for call in WORKLOADS[workload]})

    def make() -> dict[tuple[str, int], Any]:
        return {(name, n): load(name, n=n, seed=seed) for name, n in sizes}

    return timed_median(make, SETUP_REPEATS)


def _output_problems(
    call: Call,
    node_matrix: Any,
    cost: float,
    verified: bool,
    seed: int,
    pinned: dict[str, Any],
    reference: dict[str, tuple[str, float]],
) -> list[str]:
    """Correctness checks shared by the plain and the traced run.

    ``reference`` maps a call to the (digest, cost) of its first output
    in this process; every later output of the call must equal it.
    """
    problems = []
    if not verified:
        problems.append(f"{call.name}: output fails the {call.notion} verifier")
    digest = matrix_digest(node_matrix)
    first = reference.setdefault(call.name, (digest, cost))
    if first != (digest, cost):
        problems.append(f"{call.name}: output differs from the first output")
    if seed == DEFAULT_SEED:
        pin = pinned["batch"][call.name]
        if digest != pin["digest"] or cost != pin["cost"]:
            problems.append(f"{call.name}: output differs from the pinned one")
    return problems


def _run_call(
    call: Call,
    table: Any,
    tally: Tally,
    seed: int,
    pinned: dict[str, Any],
    reference: dict[str, tuple[str, float]],
) -> float | None:
    """One timed ``anonymize()`` call plus its checks; seconds or None."""
    try:
        started = clock()
        result = anonymize(
            table, k=K, notion=call.notion, measure=call.measure, distance="d3"
        )
        seconds = clock() - started
        problems = _output_problems(
            call,
            result.node_matrix,
            result.cost,
            result.verify(),
            seed,
            pinned,
            reference,
        )
    except Exception as exc:  # a crashing call is a failed operation
        tally.record([f"{call.name}: {type(exc).__name__}: {exc}"])
        return None
    tally.record(problems)
    return seconds


def run_plain(
    workload: str,
    tables: dict[tuple[str, int], Any],
    seed: int,
    seconds: float,
    pinned: dict[str, Any],
    tally: Tally,
) -> tuple[dict[str, float], dict[str, Any]]:
    """Run whole passes over the calls for about ``seconds``.

    Another pass starts while the projected end of it overshoots
    ``seconds`` by less than half a pass; at least one pass runs.
    """
    calls = WORKLOADS[workload]
    per_call: dict[str, list[float]] = {call.name: [] for call in calls}
    reference: dict[str, tuple[str, float]] = {}
    started = clock()
    passes = 0
    while True:
        pass_started = clock()
        for call in calls:
            took = _run_call(
                call, tables[(call.dataset, call.n)], tally, seed, pinned, reference
            )
            if took is not None:
                per_call[call.name].append(took)
        passes += 1
        elapsed = clock() - started
        if elapsed + (clock() - pass_started) / 2 >= seconds:
            break
    # Each call's latency is its median over the passes, so one slow
    # pass moves a percentile no more than it moves the throughput.
    typical = {name: statistics.median(v) for name, v in per_call.items() if v}
    latencies = list(typical.values())
    total = sum(typical.values())
    records = sum(call.n for call in calls if call.name in typical)
    metrics = {
        "records_per_s": records / total if total else 0.0,
        "ops_per_s": len(typical) / total if total else 0.0,
        "p50_ms": 1000 * nearest_rank(latencies, 0.5) if latencies else 0.0,
        "p90_ms": 1000 * nearest_rank(latencies, 0.9) if latencies else 0.0,
        "miss_p50_ms": 1000 * nearest_rank(latencies, 0.5) if latencies else 0.0,
    }
    detail = {
        "passes": passes,
        "measured_s": clock() - started,
        "call_median_s": typical,
    }
    return metrics, detail


# --------------------------------------------------------------------- #
# traced run
# --------------------------------------------------------------------- #


class _Layers:
    """Per-layer seconds and counters accumulated over the traced pass."""

    def __init__(self) -> None:
        self.tracer = Tracer(clock=clock)
        self.registry = MetricsRegistry()  # whole pass
        self.counters: dict[str, float] = {}

    def call(self, layer: str, action: Any, *args: Any, **kwargs: Any) -> Any:
        """Run ``action`` under a span named ``layer``, keeping its counters."""
        local = MetricsRegistry()
        with metrics_scope(local), self.tracer.span(layer):
            result = action(*args, **kwargs)
        for name, value in local.snapshot()["counters"].items():
            key = f"{layer}|{name}"
            self.counters[key] = self.counters.get(key, 0) + value
        return result

    def seconds(self, layer: str) -> float:
        """Total span time of ``layer`` over the pass."""
        return sum(e["dur"] for e in self.tracer.events if e["name"] == layer)

    def counter(self, layer: str, name: str) -> float:
        return self.counters.get(f"{layer}|{name}", 0)


def _decomposed(call: Call, table: Any, layers: _Layers) -> tuple[Any, float, bool]:
    """``anonymize()`` spelled out as its public calls, plus the verifier.

    Mirrors :func:`repro.core.api.anonymize` for the two notions the
    batch workloads use; the backend is left to the program's own
    resolution, exactly as ``anonymize()`` leaves it.
    """
    enc = layers.call("tabular.encode", EncodedTable, table)
    model = layers.call(
        "measures.cost_model", CostModel, enc, get_measure(call.measure)
    )
    if call.notion == "k":
        clustering = layers.call(
            f"core.agglomerative.{call.measure}",
            agglomerative_clustering,
            model,
            K,
            get_distance("d3"),
        )
        node_matrix = layers.call(
            f"core.agglomerative.{call.measure}", clustering_to_nodes, enc, clustering
        )
    else:
        base = layers.call("core.k1", k1_expansion, model, K)
        kk_nodes = layers.call("core.one_k", one_k_anonymize, model, base, K)
        node_matrix, conversion = layers.call(
            "core.global_1k", global_one_k_anonymize, model, kk_nodes, K
        )
        layers.counters["core.global_1k.fixes"] = (
            layers.counters.get("core.global_1k.fixes", 0) + conversion.fixes
        )
    layers.call("tabular.decode", enc.decode_table, node_matrix)
    cost = layers.call("measures.table_cost", model.table_cost, node_matrix)
    verified = layers.call("core.verify", satisfies, enc, node_matrix, call.notion, K)
    return node_matrix, cost, verified


#: Layers whose time lies inside ``anonymize()`` (verify lies outside).
_PIPELINE = (
    "tabular.encode",
    "measures.cost_model",
    "core.agglomerative.entropy",
    "core.agglomerative.lm",
    "core.k1",
    "core.one_k",
    "core.global_1k",
    "tabular.decode",
    "measures.table_cost",
)


def run_traced(
    workload: str,
    tables: dict[tuple[str, int], Any],
    seed: int,
    pinned: dict[str, Any],
    tally: Tally,
) -> tuple[dict[str, float], dict[str, Any]]:
    """Each call plainly, then decomposed and traced, call by call.

    Interleaving keeps a plain call and its traced twin close in time,
    so drift in machine speed moves both sides of ``trace.overhead``.
    """
    calls = WORKLOADS[workload]
    reference: dict[str, tuple[str, float]] = {}
    plain: dict[str, float] = {}
    traced: dict[str, float] = {}
    layers = _Layers()
    for call in calls:
        table = tables[(call.dataset, call.n)]
        took = _run_call(call, table, tally, seed, pinned, reference)
        if took is not None:
            plain[call.name] = took
        with metrics_scope(layers.registry), trace_scope(layers.tracer):
            try:
                before = layers.seconds("core.verify")
                started = clock()
                node_matrix, cost, verified = _decomposed(call, table, layers)
                took = clock() - started - (layers.seconds("core.verify") - before)
                problems = _output_problems(
                    call, node_matrix, cost, verified, seed, pinned, reference
                )
            except Exception as exc:  # a crashing call is a failed operation
                tally.record([f"traced {call.name}: {type(exc).__name__}: {exc}"])
                continue
        tally.record(problems)
        traced[call.name] = took

    counters = layers.registry.snapshot()["counters"]
    agg = ("core.agglomerative.entropy", "core.agglomerative.lm")

    def agglomerative(name: str) -> float:
        return sum(layers.counter(a, f"core.agglomerative.{name}") for a in agg)

    scanned = agglomerative("candidates_scanned")
    pruned = agglomerative("candidates_pruned")
    memo_hits = counters.get("tabular.closure.memo_hits", 0)
    memo_misses = counters.get("tabular.closure.memo_misses", 0)
    both = [name for name in plain if name in traced]
    plain_total = sum(plain[name] for name in both)
    traced_total = sum(traced[name] for name in both)
    layer_total = sum(layers.seconds(layer) for layer in _PIPELINE)
    metrics = {
        "core.agglomerative_s.entropy": layers.seconds(agg[0]),
        "core.agglomerative_s.lm": layers.seconds(agg[1]),
        "core.agglomerative.row_rescans": agglomerative("row_rescans"),
        "core.agglomerative.candidates_scanned": scanned,
        "core.agglomerative.prune_ratio": (
            pruned / (pruned + scanned) if pruned + scanned else 0.0
        ),
        "tabular.closure.memo_hit_ratio": (
            memo_hits / (memo_hits + memo_misses)
            if memo_hits + memo_misses
            else 0.0
        ),
        "core.k1_s": layers.seconds("core.k1"),
        "core.one_k_s": layers.seconds("core.one_k"),
        "core.global_1k_s": layers.seconds("core.global_1k"),
        "matching.hopcroft_karp.path_steps": layers.counter(
            "core.global_1k", "matching.hopcroft_karp.path_steps"
        ),
        "core.global_1k.fixes": layers.counters.get("core.global_1k.fixes", 0),
        "tabular.encode_s": layers.seconds("tabular.encode"),
        "measures.cost_model_s": layers.seconds("measures.cost_model"),
        "tabular.decode_s": layers.seconds("tabular.decode"),
        "measures.table_cost_s": layers.seconds("measures.table_cost"),
        "core.verify_s": layers.seconds("core.verify"),
        "trace.coverage": layer_total / plain_total if plain_total else 0.0,
        "trace.overhead": traced_total / plain_total - 1 if plain_total else 0.0,
    }
    detail = {
        "backend": resolve_backend(None),
        "plain_call_s": plain,
        "traced_call_s": traced,
        "counters": counters,
    }
    return metrics, detail
