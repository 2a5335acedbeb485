"""The pinned benchmark suite behind ``repro-anon bench``.

Two kinds of cases:

* **algorithm cases** — the Section V algorithms (agglomerative, forest,
  (k,k), global-(1,k)) and the Hopcroft–Karp matcher, timed over an
  n-grid.  Their timings are machine-dependent: the comparator treats
  them as warnings unless explicitly enforced.
* **paired cases** — each hot-path optimization timed against its kept
  reference implementation (e.g. the vectorized entropy ``node_costs``
  vs :func:`~repro.measures.entropy.node_costs_reference`).  The
  *ratio* of the two medians is a speedup measured on the same machine
  in the same process, so it is comparable across machines and safe to
  enforce in CI.

Reports are schema-versioned JSON (:data:`BENCH_SCHEMA`) written
atomically; ``BENCH_<stamp>.json`` files committed at the repo root are
the regression baselines :mod:`repro.perf.compare` checks against.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.agglomerative import _Engine, agglomerative_clustering
from repro.core.distances import get_distance
from repro.core.forest import forest_clustering
from repro.core.global_1k import global_one_k_anonymize
from repro.core.kk import kk_anonymize
from repro.datasets.registry import load
from repro.errors import ReproError
from repro.matching.bipartite import ConsistencyGraph
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.measures.base import CostModel
from repro.measures.entropy import (
    EntropyMeasure,
    NonUniformEntropyMeasure,
    entry_costs_reference,
    node_costs_reference,
)
from repro.measures.registry import get_measure
from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    append_obs_record,
    metrics_scope,
    span,
)
from repro.runtime import Timer, atomic_write_text
from repro.tabular.encoding import EncodedTable

#: Version tag of the report format; bump on breaking layout changes.
#: v2 added the optional top-level ``metrics`` snapshot
#: (``repro-anon bench --metrics``); the comparator reads both.
BENCH_SCHEMA = "repro.perf.bench/2"

#: Previous schema, still accepted by :mod:`repro.perf.compare` so
#: committed v1 baselines keep working.
BENCH_SCHEMA_V1 = "repro.perf.bench/1"

#: n-grid per mode: quick keeps the whole suite under the CI smoke cap.
QUICK_SIZES = (80,)
FULL_SIZES = (150, 300)

#: Clustered-state candidate-scan pair size per mode (see
#: :func:`_scan_cases`): quick stays inside the smoke cap, full is the
#: n=10k point the speedup floor is enforced at.
SCAN_QUICK_N = 2_000
SCAN_FULL_N = 10_000

#: Columnar-only scan sizes (full mode).  The python engine's dense
#: matrix is O(n²) floats — 20 GB at n=50k — so these points have no
#: baseline leg; they pin absolute scan latency at scale instead.
SCALE_SIZES = (10_000, 50_000, 100_000)

#: Repeat counts per mode (median over repeats is the reported figure).
QUICK_REPEAT = 2
FULL_REPEAT = 5

_BENCH_SEED = 0
_BENCH_K = 5
_BENCH_DATASET = "art"
_BENCH_MEASURE = "entropy"


@dataclass(frozen=True)
class BenchCase:
    """One timed case: a setup closure producing the timed closure.

    ``setup`` runs untimed and returns the function to time, so table
    encoding / model building never pollutes an algorithm measurement.
    ``pair`` groups an optimized case with its reference: two cases
    sharing a ``pair`` name (roles ``optimized`` / ``baseline``) yield a
    speedup entry in the report.
    """

    name: str
    group: str  #: "algorithm", "matching", "hotpath", "scale" or "serve"
    n: int
    setup: Callable[[], Callable[[], object]]
    pair: str = ""  #: pair name ("" = unpaired)
    role: str = ""  #: "optimized" or "baseline" within the pair


@dataclass
class BenchReport:
    """In-memory form of one ``BENCH_<stamp>.json``."""

    stamp: str
    quick: bool
    repeat: int
    machine: dict[str, Any]
    git_sha: str
    cases: list[dict[str, Any]] = field(default_factory=list)
    pairs: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, Any] | None = None  #: suite-wide obs snapshot

    def to_json(self) -> dict[str, Any]:
        """The schema-versioned JSON payload."""
        data: dict[str, Any] = {
            "schema": BENCH_SCHEMA,
            "stamp": self.stamp,
            "quick": self.quick,
            "repeat": self.repeat,
            "machine": self.machine,
            "git_sha": self.git_sha,
            "cases": self.cases,
            "pairs": self.pairs,
        }
        if self.metrics is not None:
            data["metrics"] = self.metrics
        return data

    def case(self, name: str) -> dict[str, Any] | None:
        """One case's entry by name (None when absent)."""
        for entry in self.cases:
            if entry["name"] == name:
                return entry
        return None

    def pair(self, name: str) -> dict[str, Any] | None:
        """One pair's entry by name (None when absent)."""
        for entry in self.pairs:
            if entry["name"] == name:
                return entry
        return None

    def write(self, path: str | Path) -> None:
        """Atomically write the JSON report."""
        atomic_write_text(
            path, json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        )

    def obs_record(self, path: str | Path) -> dict[str, Any]:
        """Append this run to an ``OBS_*.jsonl`` snapshot journal.

        One record per bench run: ``kind="bench"``, the report stamp
        (joinable against the ``BENCH_<stamp>.json`` baseline), the
        embedded work-unit snapshot (empty when the run collected no
        metrics) and per-case median seconds — the committed artifact
        the cost-model planner (ROADMAP item 2) fits against.
        """
        return append_obs_record(
            path,
            kind="bench",
            stamp=self.stamp,
            snapshot=self.metrics if self.metrics is not None else {},
            extra={
                "quick": self.quick,
                "git_sha": self.git_sha,
                "case_medians": {
                    entry["name"]: entry["median"] for entry in self.cases
                },
            },
        )


def default_stamp(clock: Callable[[], float] = time.time) -> str:
    """A filesystem-safe UTC stamp for ``BENCH_<stamp>.json`` names.

    The wall-clock read goes through an injectable epoch-seconds
    ``clock`` so the filename path is testable (a fake clock yields an
    exact, assertable stamp) instead of being the one line no test
    could pin down.
    """
    from datetime import datetime, timezone

    return datetime.fromtimestamp(clock(), timezone.utc).strftime(
        "%Y-%m-%dT%H%M%SZ"
    )


def default_report_path(
    directory: str | Path = ".", clock: Callable[[], float] = time.time
) -> Path:
    """Where a fresh report lands: ``<directory>/BENCH_<stamp>.json``."""
    return Path(directory) / f"BENCH_{default_stamp(clock)}.json"


def machine_fingerprint() -> dict[str, Any]:
    """Where a report was measured (for apples-to-apples comparisons)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def git_sha() -> str:
    """The current commit, or ``"unknown"`` outside a usable checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


# ---------------------------------------------------------------------- #
# case construction
# ---------------------------------------------------------------------- #


def _model(n: int, measure: str = _BENCH_MEASURE) -> CostModel:
    table = load(_BENCH_DATASET, n=n, seed=_BENCH_SEED)
    return CostModel(EncodedTable(table), get_measure(measure))


def _algorithm_cases(sizes: Sequence[int]) -> list[BenchCase]:
    cases: list[BenchCase] = []
    for n in sizes:
        def agg_setup(n: int = n) -> Callable[[], object]:
            model = _model(n)
            distance = get_distance("d3")
            return lambda: agglomerative_clustering(
                model, _BENCH_K, distance, modified=True
            )

        def forest_setup(n: int = n) -> Callable[[], object]:
            model = _model(n)
            return lambda: forest_clustering(model, _BENCH_K)

        def kk_setup(n: int = n) -> Callable[[], object]:
            model = _model(n)
            return lambda: kk_anonymize(model, _BENCH_K)

        def global_setup(n: int = n) -> Callable[[], object]:
            model = _model(n)
            kk_nodes = kk_anonymize(model, _BENCH_K)
            return lambda: global_one_k_anonymize(model, kk_nodes, _BENCH_K)

        def matcher_setup(n: int = n) -> Callable[[], object]:
            model = _model(n)
            kk_nodes = kk_anonymize(model, _BENCH_K)
            adj = ConsistencyGraph(model.enc, kk_nodes).adjacency_lists()
            return lambda: hopcroft_karp(adj, n)

        cases += [
            BenchCase(f"agglomerative-mod-n{n}", "algorithm", n, agg_setup),
            BenchCase(f"forest-n{n}", "algorithm", n, forest_setup),
            BenchCase(f"kk-n{n}", "algorithm", n, kk_setup),
            BenchCase(f"global-1k-n{n}", "algorithm", n, global_setup),
            BenchCase(f"hopcroft-karp-n{n}", "matching", n, matcher_setup),
        ]
    return cases


def _hotpath_cases(sizes: Sequence[int]) -> list[BenchCase]:
    """Optimized-vs-reference pairs for each hot-path win."""
    n = max(sizes)
    cases: list[BenchCase] = []

    # Pair 1: vectorized Π_E node costs vs the per-node scan.
    def node_fast() -> Callable[[], object]:
        enc = _model(n).enc
        measure = EntropyMeasure()
        pairs = [(att, enc.value_counts[j]) for j, att in enumerate(enc.attrs)]
        return lambda: [measure.node_costs(att, vc) for att, vc in pairs]

    def node_ref() -> Callable[[], object]:
        enc = _model(n).enc
        pairs = [(att, enc.value_counts[j]) for j, att in enumerate(enc.attrs)]
        return lambda: [node_costs_reference(att, vc) for att, vc in pairs]

    # Pair 2: vectorized non-uniform entropy entry costs vs nested loops.
    def entry_fast() -> Callable[[], object]:
        enc = _model(n).enc
        measure = NonUniformEntropyMeasure()
        pairs = [(att, enc.value_counts[j]) for j, att in enumerate(enc.attrs)]
        return lambda: [measure.entry_costs(att, vc) for att, vc in pairs]

    def entry_ref() -> Callable[[], object]:
        enc = _model(n).enc
        pairs = [(att, enc.value_counts[j]) for j, att in enumerate(enc.attrs)]
        return lambda: [entry_costs_reference(att, vc) for att, vc in pairs]

    # Pair 3: Algorithm 2 shrink via leave-one-out join folds vs the
    # per-subset closure scan, on one oversized cluster.
    def _shrink_engine() -> tuple[_Engine, list[int]]:
        model = _model(n)
        engine = _Engine(model, get_distance("d3"), _BENCH_K)
        members = list(range(min(4 * _BENCH_K, n)))
        return engine, members

    def shrink_fast() -> Callable[[], object]:
        engine, members = _shrink_engine()
        return lambda: engine._shrink(list(members))

    def shrink_ref() -> Callable[[], object]:
        engine, members = _shrink_engine()
        return lambda: engine._shrink_scan(list(members))

    # Pair 4: memoized closure lookups vs a cold cache every call.
    def _closure_batches(enc: EncodedTable) -> list[list[int]]:
        return [
            list(range(start, start + _BENCH_K))
            for start in range(0, enc.num_records - _BENCH_K, 3)
        ]

    def closure_fast() -> Callable[[], object]:
        enc = _model(n).enc
        batches = _closure_batches(enc)
        return lambda: [enc.closure_of_records(b) for b in batches]

    def closure_ref() -> Callable[[], object]:
        enc = _model(n).enc
        batches = _closure_batches(enc)

        def run() -> object:
            enc._closure_cache.clear()
            out = []
            for b in batches:
                enc._closure_cache.clear()
                out.append(enc.closure_of_records(b))
            return out

        return run

    for pair, fast, ref in (
        ("entropy-node-costs", node_fast, node_ref),
        ("entropy-entry-costs", entry_fast, entry_ref),
        ("agglomerative-shrink", shrink_fast, shrink_ref),
        ("closure-memo", closure_fast, closure_ref),
    ):
        cases.append(
            BenchCase(f"{pair}-opt-n{n}", "hotpath", n, fast, pair, "optimized")
        )
        cases.append(
            BenchCase(f"{pair}-ref-n{n}", "hotpath", n, ref, pair, "baseline")
        )
    return cases


_SCAN_CLUSTER = 5
#: LM is monotone, so the scan pair exercises the certified pruning path.
_SCAN_MEASURE = "lm"


def _clustered_engine(n: int, columnar: bool) -> tuple[_Engine, list[int]]:
    """An engine frozen mid-run plus the probe slots to rescan.

    Blocks of ``_SCAN_CLUSTER`` consecutive records are merged, which
    collapses the surviving clusters onto few generalization-lattice
    nodes — the steady-state regime the columnar bucketing exploits
    (singleton *init* is a different, already-benchmarked story).  Both
    engines receive identical slot state, so the pair times nothing
    but the candidate scan itself.
    """
    from repro.core.columnar import _ColumnarEngine

    model = _model(n, _SCAN_MEASURE)
    cls: type[_Engine] = _ColumnarEngine if columnar else _Engine
    engine = cls.__new__(cls)
    engine._init_slots(model, get_distance("d3"), _SCAN_CLUSTER + 1)
    enc = model.enc
    for start in range(0, n, _SCAN_CLUSTER):
        group = list(range(start, min(start + _SCAN_CLUSTER, n)))
        slot = group[0]
        engine.nodes[slot] = enc.closure_of_records(group)
        engine.sizes[slot] = len(group)
        engine.costs[slot] = float(model.record_cost(engine.nodes[slot]))
        engine.members[slot] = group
        for other in group[1:]:
            engine.active[other] = False
            engine.members[other] = None
    if columnar:
        engine._adopt_state()
        scan = engine._scan_row_refresh
        group_of = lambda slot: int(engine.bucket_of[slot])  # noqa: E731
    else:
        # The reference engine's refresh maintains its dense matrix, so
        # the matrix must exist; zeros suffice — the timed writes do not
        # depend on prior contents, and row minima are warmed below.
        engine.matrix = np.zeros((n, n), dtype=np.float64)
        scan = engine._distances_from
        keys: dict[bytes, int] = {}
        group_of = lambda slot: keys.setdefault(  # noqa: E731
            engine.nodes[slot].tobytes()
            + engine.sizes[slot].tobytes()
            + engine.costs[slot].tobytes(),
            len(keys),
        )
    _warm_row_minima(engine, scan, group_of)
    acts = np.flatnonzero(engine.active)
    # Enough probes that each timed leg runs tens of milliseconds:
    # short legs make the pair ratio hostage to scheduler spikes.
    probes = [int(p) for p in acts[:: max(1, acts.size // 200)]]
    return engine, probes


def _warm_row_minima(
    engine: _Engine,
    scan: Callable[[int], np.ndarray],
    group_of: Callable[[int], int],
) -> None:
    """Exact ``row_min`` for a prepared engine, cheaply.

    Slots with identical node/size/cost state see identical candidate
    distances, so one scan per *distinct* state warms every member's
    cached minimum — the value feeding the pruning push bound — at O(B)
    scans instead of O(n).  Pruned buckets report a lower bound
    strictly above the running best, so ``min``/``argmin`` stay exact
    during warm-up.
    """
    acts = np.flatnonzero(engine.active)
    groups: dict[int, list[int]] = {}
    for slot in acts:
        groups.setdefault(group_of(int(slot)), []).append(int(slot))
    for members in groups.values():
        dist = scan(members[0])
        best = float(dist.min())
        arg = int(dist.argmin())
        for slot in members:
            engine.row_min[slot] = best
            engine.row_arg[slot] = arg


def _scan_cases(quick: bool) -> list[BenchCase]:
    """The columnar-vs-python candidate-scan pair plus the scale grid."""
    n = SCAN_QUICK_N if quick else SCAN_FULL_N
    # The pair name carries n so the enforced speedup floor binds the
    # full-size pair only; the quick pair still trips the generic
    # "optimized slower than baseline" check.
    pair = f"agglomerative-candidate-scan-n{n}"

    def scan_fast(n: int = n) -> Callable[[], object]:
        engine, probes = _clustered_engine(n, columnar=True)
        return lambda: [engine._refresh_row(p) for p in probes]

    def scan_ref(n: int = n) -> Callable[[], object]:
        engine, probes = _clustered_engine(n, columnar=False)
        return lambda: [engine._refresh_row(p) for p in probes]

    cases = [
        BenchCase(f"{pair}-opt", "hotpath", n, scan_fast, pair, "optimized"),
        BenchCase(f"{pair}-ref", "hotpath", n, scan_ref, pair, "baseline"),
    ]
    if not quick:
        for sn in SCALE_SIZES:

            def scale_setup(sn: int = sn) -> Callable[[], object]:
                engine, probes = _clustered_engine(sn, columnar=True)
                return lambda: [engine._refresh_row(p) for p in probes]

            cases.append(
                BenchCase(f"columnar-scan-n{sn}", "scale", sn, scale_setup)
            )
    return cases


def default_cases(quick: bool = False) -> list[BenchCase]:
    """The pinned case set (``--quick`` shrinks the n-grid)."""
    from repro.perf.serve_bench import serve_cases  # avoid import cycle

    sizes = QUICK_SIZES if quick else FULL_SIZES
    return (
        _algorithm_cases(sizes)
        + _hotpath_cases(sizes)
        + _scan_cases(quick)
        + serve_cases(quick)
    )


# ---------------------------------------------------------------------- #
# running
# ---------------------------------------------------------------------- #


def _time_case(case: BenchCase, repeat: int) -> dict[str, Any]:
    fn = case.setup()
    fn()  # warmup: fills caches / JIT-ish lazy imports outside the timing
    seconds: list[float] = []
    last: object = None
    with span("perf.bench.case", case=case.name):
        for _ in range(repeat):
            with Timer() as timer:
                last = fn()
            seconds.append(timer.seconds)
    entry = {
        "name": case.name,
        "group": case.group,
        "n": case.n,
        "pair": case.pair,
        "role": case.role,
        "seconds": seconds,
        "min": min(seconds),
        "median": statistics.median(seconds),
        "mean": statistics.fmean(seconds),
        "max": max(seconds),
    }
    # A timed closure may return {"__bench_extra__": {...}} to fold
    # case-specific stats (e.g. the serve group's throughput and latency
    # quantiles) into its report entry alongside the repeat timings.
    if isinstance(last, dict) and isinstance(last.get("__bench_extra__"), dict):
        entry.update(last["__bench_extra__"])
    return entry


def run_bench(
    cases: Sequence[BenchCase] | None = None,
    quick: bool = False,
    repeat: int | None = None,
    stamp: str = "",
    name_filter: str = "",
    on_case: Callable[[dict[str, Any]], None] | None = None,
    collect_metrics: bool = False,
    clock: Callable[[], float] = time.time,
) -> BenchReport:
    """Run the suite and return the report (not yet written to disk).

    With ``collect_metrics=True`` a fresh
    :class:`~repro.obs.MetricsRegistry` is scoped around the whole
    suite and its snapshot embedded in the report (``metrics`` key) —
    work-unit counters give regression hunts a second axis besides raw
    timings.  ``stamp`` defaults to :func:`default_stamp` on ``clock``.
    """
    if cases is None:
        cases = default_cases(quick=quick)
    if name_filter:
        cases = [c for c in cases if name_filter in c.name]
    if not cases:
        raise ReproError(
            f"no benchmark cases match filter {name_filter!r}"
        )
    if repeat is None:
        repeat = QUICK_REPEAT if quick else FULL_REPEAT
    if repeat < 1:
        raise ReproError(f"repeat must be positive, got {repeat}")
    report = BenchReport(
        stamp=stamp or default_stamp(clock),
        quick=quick,
        repeat=repeat,
        machine=machine_fingerprint(),
        git_sha=git_sha(),
    )
    registry = MetricsRegistry() if collect_metrics else NullRegistry()
    with metrics_scope(registry):
        for case in cases:
            entry = _time_case(case, repeat)
            report.cases.append(entry)
            if on_case is not None:
                on_case(entry)
    if collect_metrics:
        report.metrics = registry.snapshot()
    _attach_pairs(report)
    return report


def _attach_pairs(report: BenchReport) -> None:
    """Derive speedup entries from optimized/baseline case pairs."""
    by_pair: dict[str, dict[str, dict[str, Any]]] = {}
    for entry in report.cases:
        if entry["pair"]:
            by_pair.setdefault(entry["pair"], {})[entry["role"]] = entry
    for pair_name in sorted(by_pair):
        roles = by_pair[pair_name]
        if "optimized" not in roles or "baseline" not in roles:
            continue
        opt, base = roles["optimized"], roles["baseline"]
        speedup = (
            base["median"] / opt["median"] if opt["median"] > 0 else float("inf")
        )
        report.pairs.append(
            {
                "name": pair_name,
                "optimized_case": opt["name"],
                "baseline_case": base["name"],
                "speedup": speedup,
            }
        )
