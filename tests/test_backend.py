"""Engine selection and the matrix-free engine's equivalence contract.

Three layers of assurance, cheapest first:

* unit tests on the size rule and the ``$REPRO_BACKEND`` override
  (:mod:`repro.core.backend`), plus the one union-pricing kernel,
  :meth:`~repro.measures.base.CostModel.join_costs`, against its
  ``join_rows`` + ``record_cost`` oracle;
* property tests on the pruning machinery — the admissibility of
  :func:`~repro.core.columnar.union_cost_lower_bound` against
  brute-force exact costs, and an audit-enabled engine that recomputes
  every skipped bucket on adversarial shapes;
* differential tests — the matrix-free engine against the dense one
  across measures/distances, plus a deliberately broken engine proving
  the harness *detects* divergence rather than vacuously passing.

The engine is forced through ``$REPRO_BACKEND``, the same override CI
uses.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.core.agglomerative as agglomerative
from repro.core.agglomerative import agglomerative_clustering, engine_for
from repro.core.api import anonymize
from repro.core.backend import (
    AUTO,
    BACKEND_ENV_VAR,
    BACKENDS,
    forced_backend,
    resolve_backend,
)
from repro.core.columnar import _ColumnarEngine, union_cost_lower_bound
from repro.core.distances import distance_names, get_distance
from repro.errors import ReproError
from repro.measures.base import CostModel
from repro.measures.registry import get_measure, measure_names
from repro.obs import MetricsRegistry, metrics_scope
from repro.datasets import dataset_names, load
from repro.tabular.attribute import Attribute, integer_attribute
from repro.tabular.encoding import EncodedTable
from repro.tabular.hierarchy import IntervalCollection, SubsetCollection
from repro.tabular.table import Schema, Table

from tests.conftest import make_random_table

REPO = Path(__file__).resolve().parents[1]


def _model(table: Table, measure: str = "lm") -> CostModel:
    return CostModel(EncodedTable(table), get_measure(measure))


def _clusters(model, k, distance="d3", modified=False, backend="python"):
    with forced_backend(backend):
        return agglomerative_clustering(
            model, k, get_distance(distance), modified=modified
        ).clusters


# --------------------------------------------------------------------- #
# the override and the size rule
# --------------------------------------------------------------------- #


class TestResolution:
    def test_default_and_explicit(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None) == AUTO
        assert resolve_backend("python") == "python"
        assert resolve_backend("columnar") == "columnar"
        assert BACKENDS == ("python", "columnar")

    def test_env_var_steers_default_but_not_explicit(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "columnar")
        assert resolve_backend(None) == "columnar"
        assert resolve_backend("python") == "python"

    def test_unknown_backend_raises(self, monkeypatch):
        with pytest.raises(ReproError, match="unknown backend"):
            resolve_backend("gpu")
        monkeypatch.setenv(BACKEND_ENV_VAR, "gpu")
        with pytest.raises(ReproError, match="unknown backend"):
            resolve_backend(None)

    def test_forced_backend_restores_the_environment(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        with forced_backend("columnar"):
            assert resolve_backend(None) == "columnar"
            with forced_backend("python"):
                assert resolve_backend(None) == "python"
            assert resolve_backend(None) == "columnar"
        assert resolve_backend(None) == AUTO
        with pytest.raises(ReproError, match="unknown backend"):
            with forced_backend("gpu"):
                pass


def _bucket_evals(model, k, distance="d3", modified=False):
    """Clusters plus the matrix-free engine's bucket counter."""
    registry = MetricsRegistry()
    with metrics_scope(registry):
        clusters = agglomerative_clustering(
            model, k, get_distance(distance), modified=modified
        ).clusters
    return clusters, registry.counter("core.agglomerative.bucket_evals")


class TestEngineSelection:
    def test_size_rule(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        limit = agglomerative.DENSE_MAX_RECORDS
        assert engine_for(1) == "python"
        assert engine_for(limit) == "python"
        assert engine_for(limit + 1) == "columnar"

    def test_override_beats_the_size_rule(self, monkeypatch):
        limit = agglomerative.DENSE_MAX_RECORDS
        monkeypatch.setenv(BACKEND_ENV_VAR, "columnar")
        assert engine_for(2) == "columnar"
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert engine_for(limit + 1) == "python"

    @pytest.mark.parametrize("measure", ["entropy", "lm"])
    def test_boundary_is_byte_identical(self, monkeypatch, measure):
        """Move the threshold onto a small table: one record either side
        of it switches the engine, and both sides cluster identically."""
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        model = _model(make_random_table(40, seed=11), measure)
        n = model.enc.num_records
        monkeypatch.setattr(agglomerative, "DENSE_MAX_RECORDS", n)
        dense, dense_evals = _bucket_evals(model, 4, modified=True)
        monkeypatch.setattr(agglomerative, "DENSE_MAX_RECORDS", n - 1)
        free, free_evals = _bucket_evals(model, 4, modified=True)
        assert dense_evals == 0
        assert free_evals > 0
        assert free == dense


# --------------------------------------------------------------------- #
# the admissible lower bound
# --------------------------------------------------------------------- #


class TestLowerBound:
    @pytest.mark.parametrize("measure", ["lm", "tree", "mw"])
    def test_admissible_against_brute_force(self, measure):
        """max(c_a, c_b) never exceeds the exact union cost, bitwise,
        for every monotone measure across random closure pairs."""
        table = make_random_table(40, seed=5, domain_sizes=(5, 4, 3))
        model = _model(table, measure)
        assert model.measure.monotone
        enc = model.enc
        rng = np.random.default_rng(0)
        rows = enc.singleton_nodes
        for _ in range(60):
            ia = rng.integers(0, enc.num_records, size=rng.integers(1, 5))
            ib = rng.integers(0, enc.num_records, size=rng.integers(1, 5))
            na = enc.closure_of_records(list(ia))
            nb = enc.closure_of_records(list(ib))
            ca = float(model.record_cost(na))
            cb = float(model.record_cost(nb))
            union = enc.join_rows(na[None, :], nb)
            cu = float(np.asarray(model.record_cost(union))[0])
            lb = float(union_cost_lower_bound(model, ca, cb))
            assert lb <= cu
            assert lb == max(ca, cb)
        assert rows.shape[0] == enc.num_records

    def test_not_claimed_for_entropy(self):
        """Entropy is non-monotone; the engine must not certify pruning
        with it (the bound genuinely fails on real tables)."""
        table = make_random_table(30, seed=2)
        model = _model(table, "entropy")
        engine = _ColumnarEngine(model, get_distance("d3"), 2)
        assert engine.prune_enabled is False

    @pytest.mark.parametrize("distance", distance_names())
    def test_prune_certification_matrix(self, distance):
        """prune_enabled is exactly monotone-measure ∧ monotone-distance."""
        table = make_random_table(12, seed=0)
        for measure in measure_names():
            model = _model(table, measure)
            engine = _ColumnarEngine(model, get_distance(distance), 2)
            expected = bool(
                model.measure.monotone
                and get_distance(distance).monotone_in_union
            )
            assert engine.prune_enabled is expected


# --------------------------------------------------------------------- #
# pruning soundness on adversarial shapes (audited engine)
# --------------------------------------------------------------------- #


def _audited(monkeypatch):
    """Force the pruning machinery on (no size threshold) and audit
    every skip decision against the exact values it avoided."""
    monkeypatch.setattr(_ColumnarEngine, "audit", True)
    monkeypatch.setattr(_ColumnarEngine, "prune_min_buckets", 0)


class TestPruningSoundness:
    @pytest.mark.parametrize("distance", distance_names())
    @pytest.mark.parametrize("measure", ["lm", "tree", "mw"])
    def test_random_tables(self, monkeypatch, measure, distance):
        _audited(monkeypatch)
        for seed in range(3):
            table = make_random_table(24, seed=seed, domain_sizes=(4, 3, 2))
            model = _model(table, measure)
            ref = _clusters(model, 3, distance, backend="python")
            col = _clusters(model, 3, distance, backend="columnar")
            assert col == ref

    def test_duplicate_heavy_table(self, monkeypatch):
        _audited(monkeypatch)
        att = Attribute("a", ["x", "y", "z"])
        b = Attribute("b", ["0", "1"])
        schema = Schema([SubsetCollection(att), SubsetCollection(b)])
        rows = [("x", "0")] * 7 + [("y", "1")] * 6 + [("z", "0"), ("x", "1")]
        table = Table(schema, rows)
        model = _model(table, "lm")
        for k in (2, 3, 5):
            assert _clusters(model, k, backend="columnar") == _clusters(
                model, k, backend="python"
            )

    def test_single_column_table(self, monkeypatch):
        _audited(monkeypatch)
        att = Attribute("a", [f"v{i}" for i in range(5)])
        table = Table(
            Schema([SubsetCollection(att)]),
            [(f"v{i % 5}",) for i in range(17)],
        )
        model = _model(table, "tree")
        for d in distance_names():
            assert _clusters(model, 4, d, backend="columnar") == _clusters(
                model, 4, d, backend="python"
            )

    def test_all_identical_rows(self, monkeypatch):
        _audited(monkeypatch)
        att = Attribute("a", ["x", "y"])
        table = Table(Schema([SubsetCollection(att)]), [("x",)] * 11)
        model = _model(table, "mw")
        assert _clusters(model, 11, backend="columnar") == _clusters(
            model, 11, backend="python"
        )

    def test_k_equals_n(self, monkeypatch):
        _audited(monkeypatch)
        table = make_random_table(15, seed=9)
        model = _model(table, "lm")
        n = model.enc.num_records
        assert _clusters(model, n, modified=True, backend="columnar") == (
            _clusters(model, n, modified=True, backend="python")
        )

    def test_inadmissible_bound_is_caught(self, monkeypatch):
        """The audit hook itself works: a corrupted bound that claims
        too much gets flagged, so the green runs above mean something."""
        _audited(monkeypatch)
        import repro.core.columnar as mod

        monkeypatch.setattr(
            mod,
            "union_cost_lower_bound",
            lambda model, ca, cb: np.maximum(ca, cb) + 1e9,
        )
        table = make_random_table(30, seed=1)
        model = _model(table, "lm")
        with pytest.raises(AssertionError, match="prun"):
            _clusters(model, 3, backend="columnar")


# --------------------------------------------------------------------- #
# differential: columnar vs reference
# --------------------------------------------------------------------- #


class TestBackendDifferential:
    @pytest.mark.parametrize("distance", distance_names())
    def test_distances(self, distance):
        table = make_random_table(35, seed=3, domain_sizes=(4, 3))
        model = _model(table, "entropy")
        for k in (2, 4, 7):
            assert _clusters(model, k, distance, backend="columnar") == (
                _clusters(model, k, distance, backend="python")
            )

    @pytest.mark.parametrize("measure", measure_names())
    def test_measures(self, measure):
        table = make_random_table(28, seed=4)
        model = _model(table, measure)
        for modified in (False, True):
            assert _clusters(
                model, 3, modified=modified, backend="columnar"
            ) == _clusters(model, 3, modified=modified, backend="python")

    def test_end_to_end_results_identical(self):
        table = make_random_table(40, seed=6)
        with forced_backend("python"):
            ref = anonymize(table, k=3, notion="k", algorithm="agglomerative")
        with forced_backend("columnar"):
            col = anonymize(table, k=3, notion="k", algorithm="agglomerative")
        assert np.array_equal(ref.node_matrix, col.node_matrix)
        assert ref.cost == col.cost
        assert list(ref.generalized.labels()) == list(
            col.generalized.labels()
        )

    def test_divergence_is_detected(self, monkeypatch):
        """Corrupt the pruning bound on purpose (audit off): the engine
        skips buckets it must not and the clustering visibly diverges —
        so the green differential runs above cannot be passing
        vacuously, and the admissibility of the *real* bound is what
        keeps them green."""
        import repro.core.columnar as mod

        monkeypatch.setattr(_ColumnarEngine, "prune_min_buckets", 0)
        table = make_random_table(30, seed=8)
        model = _model(table, "lm")
        ref = _clusters(model, 3, backend="python")
        assert _clusters(model, 3, backend="columnar") == ref

        monkeypatch.setattr(
            mod,
            "union_cost_lower_bound",
            lambda model, ca, cb: np.maximum(ca, cb) + 0.5,
        )
        assert _clusters(model, 3, backend="columnar") != ref


# --------------------------------------------------------------------- #
# the matrix-free engine's niche: beyond the dense engine's reach
# --------------------------------------------------------------------- #


@pytest.mark.slow
def test_matrix_free_niche_adult_20k():
    """ADT at n=20k, notion k, LM: the size rule picks the matrix-free
    engine (whose dense alternative would need ~14 GB), the release
    verifies, and peak RSS stays small.  Runs in a fresh interpreter so
    the peak belongs to this run alone.  It took 95-220 s on 2-CPU
    boxes; the time bound only catches a run that stopped finishing."""
    code = textwrap.dedent(
        """
        import json, resource, time
        from repro.core.api import anonymize
        from repro.datasets import load
        from repro.obs import MetricsRegistry, metrics_scope

        table = load("adult", n=20000, seed=0)
        registry = MetricsRegistry()
        start = time.perf_counter()
        with metrics_scope(registry):
            result = anonymize(table, 10, notion="k", measure="lm")
        print(json.dumps({
            "seconds": time.perf_counter() - start,
            "bucket_evals": registry.counter("core.agglomerative.bucket_evals"),
            "verified": result.verify(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }))
        """
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    assert run["bucket_evals"] > 0
    assert run["verified"] is True
    assert run["peak_rss_mb"] < 512
    assert run["seconds"] < 480


# --------------------------------------------------------------------- #
# the union-pricing kernel against its oracle
# --------------------------------------------------------------------- #


class TestFusedJoinCost:
    """Union pricing: ``CostModel.join_costs`` for candidate sets that
    change within a scan, the reads of ``CostModel.bind`` for fixed
    ones.  The unfused ``join_rows`` + ``record_cost`` pair is the
    oracle of both, so they give the same floats."""

    @staticmethod
    def _assert_matches_oracle(model, seed):
        enc = model.enc
        rng = np.random.default_rng(seed)
        nodes = enc.singleton_nodes
        for size in (1, 2, 9) * 7:
            rows = enc.join_rows(
                nodes[rng.integers(0, enc.num_records, size=size)],
                nodes[int(rng.integers(0, enc.num_records))],
            )
            bs = enc.join_rows(
                nodes[rng.integers(0, enc.num_records, size=3)],
                nodes[rng.integers(0, enc.num_records, size=3)],
            )
            bound = model.bind(rows)
            expect = [
                np.asarray(
                    model.record_cost(enc.join_rows(rows, b)), dtype=np.float64
                ).tobytes()
                for b in bs
            ]
            for b, want in zip(bs, expect):
                got = model.join_costs(rows, b)
                assert got.dtype == np.float64
                assert got.tobytes() == want
                assert bound.join_costs(b).tobytes() == want
            block = bound.join_cost_block(bs)
            assert block.shape == (3, size)
            assert block.tobytes() == b"".join(expect)

    @pytest.mark.parametrize("measure", measure_names())
    def test_bit_identical_to_record_cost(self, measure):
        table = make_random_table(25, seed=7, domain_sizes=(5, 3, 2))
        self._assert_matches_oracle(_model(table, measure), seed=1)

    @pytest.mark.parametrize("measure", measure_names())
    def test_wide_weighted_schema(self, measure):
        """Eight attributes and uneven weights: any reassociation of the
        per-attribute additions would show up in the last bits."""
        table = make_random_table(
            30, seed=3, domain_sizes=(6, 5, 4, 3, 2, 5, 4, 3)
        )
        enc = EncodedTable(table)
        weights = np.random.default_rng(2).uniform(0.1, 3.0, size=8)
        model = CostModel(enc, get_measure(measure), weights=weights)
        self._assert_matches_oracle(model, seed=4)

    def test_empty_batch(self):
        table = make_random_table(6, seed=0)
        model = _model(table, "lm")
        out = model.join_costs(
            np.zeros((0, model.enc.num_attributes), dtype=np.int32),
            model.enc.singleton_nodes[0],
        )
        assert out.shape == (0,)

    def test_bound_rows_are_contiguous(self):
        model = _model(make_random_table(12, seed=1), "entropy")
        bound = model.bind(model.enc.singleton_nodes[::3])
        for table in bound._tables:
            assert table.flags.c_contiguous
            assert table.shape[1] == 4


def _interval_table(n: int, seed: int) -> Table:
    ages = integer_attribute("age", 20, 34)
    colour = Attribute("colour", ["r", "g", "b", "y"])
    schema = Schema(
        [
            IntervalCollection(ages),
            SubsetCollection(colour, [["r", "g"], ["b", "y"]]),
        ]
    )
    rng = np.random.default_rng(seed)
    rows = [
        (str(int(rng.integers(20, 35))), str(rng.choice(["r", "g", "b", "y"])))
        for _ in range(n)
    ]
    return Table(schema, rows)


class TestJoinTableSymmetry:
    """``join[a, b] == join[b, a]`` for every attribute: the bound reads
    cut columns by candidate and read rows by node, the transpose of
    ``join_costs``'s gather, so they rely on it."""

    @staticmethod
    def _assert_symmetric(enc):
        for att in enc.attrs:
            assert np.array_equal(att.join, att.join.T)
        model = CostModel(enc, get_measure("entropy"))
        for table in model.join_cost_tables():
            assert table.tobytes() == np.ascontiguousarray(table.T).tobytes()

    def test_generic_collections(self):
        self._assert_symmetric(
            EncodedTable(make_random_table(20, seed=4, domain_sizes=(6, 5, 3)))
        )

    def test_interval_collection(self):
        self._assert_symmetric(EncodedTable(_interval_table(40, seed=2)))

    @pytest.mark.parametrize("name", dataset_names())
    def test_registered_datasets(self, name):
        self._assert_symmetric(EncodedTable(load(name, n=200, seed=0)))
