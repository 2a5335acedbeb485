"""White-box tests for the agglomerative engine's internal machinery.

The slot recycling, matrix maintenance and row-minimum caching are the
engine's riskiest parts; these tests drive the private `_Engine` state
directly on small inputs where every invariant can be checked against a
brute-force recomputation.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import agglomerative
from repro.core.agglomerative import _Engine, agglomerative_clustering
from repro.core.distances import LogNormalizedDelta, distance_names, get_distance
from repro.datasets.registry import load
from repro.errors import DeadlineExceeded
from repro.measures.base import CostModel
from repro.measures.entropy import EntropyMeasure
from repro.measures.registry import get_measure, measure_names
from repro.obs import MetricsRegistry, metrics_scope
from repro.runtime import Deadline, limit_scope
from repro.tabular.encoding import EncodedTable
from tests.conftest import make_random_table


@pytest.fixture
def engine():
    table = make_random_table(12, seed=7, domain_sizes=(5, 4))
    model = CostModel(EncodedTable(table), EntropyMeasure())
    return _Engine(model, get_distance("d3"), k=3)


def _check_matrix_invariants(eng):
    """Cached minima are never stale-high; matrix matches fresh distances.

    The lazy scheme allows ``row_min`` to be stale-LOW (pointing at a
    dead or changed partner) — that is validated at pop time — but a
    cached minimum above the true row minimum would lose merges.
    """
    active = np.flatnonzero(eng.active)
    for x in active:
        row = eng.matrix[x]
        assert eng.row_min[x] <= row.min() + 1e-12
        fresh = eng._distances_from(int(x))
        finite = np.isfinite(fresh)
        assert np.allclose(row[finite], fresh[finite])


class TestEngineInternals:
    def test_initial_state(self, engine):
        n = engine.enc.num_records
        assert engine.active.sum() == n
        assert all(engine.members[i] == [i] for i in range(n))
        assert (engine.sizes == 1).all()
        assert np.allclose(engine.costs, 0.0)
        assert not np.isfinite(np.diag(engine.matrix)).any()
        _check_matrix_invariants(engine)

    def test_matrix_symmetric(self, engine):
        finite = np.isfinite(engine.matrix)
        assert (finite == finite.T).all()
        sym = engine.matrix[finite]
        assert np.allclose(sym, engine.matrix.T[finite])

    def test_invariants_survive_merges(self, engine):
        # Drive a few merge steps by hand and re-check everything.
        for _ in range(4):
            pair = engine._pop_closest_pair()
            assert pair is not None
            x, y = pair
            merged = engine.members[x] + engine.members[y]
            engine.members[y] = None
            engine._deactivate(y)
            engine.members[x] = merged
            engine.nodes[x] = engine.enc.closure_of_records(merged)
            engine.sizes[x] = len(merged)
            engine.costs[x] = float(engine.model.record_cost(engine.nodes[x]))
            engine._refresh_row(x)
            _check_matrix_invariants(engine)

    def test_pop_closest_pair_is_true_minimum(self, engine):
        pair = engine._pop_closest_pair()
        assert pair is not None
        x, y = pair
        best = engine.matrix[x, y]
        active = np.flatnonzero(engine.active)
        for a in active:
            fresh = engine._distances_from(int(a))
            finite = np.isfinite(fresh)
            assert best <= fresh[finite].min() + 1e-12

    def test_slot_recycling_on_shrink(self):
        table = make_random_table(15, seed=11, domain_sizes=(6, 3))
        model = CostModel(EncodedTable(table), EntropyMeasure())
        clustering = agglomerative_clustering(
            model, 4, get_distance("d1"), modified=True
        )
        # All records still covered exactly once despite expulsions.
        seen = sorted(i for c in clustering.clusters for i in c)
        assert seen == list(range(15))

    def test_add_singleton_restores_invariants(self, engine):
        # Simulate an expulsion: deactivate a slot, then re-add a record.
        engine.members[5] = None
        engine._deactivate(5)
        engine._add_singleton(5)
        assert engine.active[5]
        assert engine.members[5] == [5]
        _check_matrix_invariants(engine)

    def test_deactivate_poisons_row_and_column(self, engine):
        engine._deactivate(3)
        assert not np.isfinite(engine.matrix[3]).any()
        assert not np.isfinite(engine.matrix[:, 3]).any()
        assert engine.row_min[3] == np.inf
        assert 3 in engine.free_slots


def _broadcast_fill(eng):
    """The one-shot fill the blocked init replaced: one ``[n, n]``
    broadcast per attribute.  Oracle for ``matrix``/``row_min``/``row_arg``."""
    enc, model, col = eng.enc, eng.model, eng.nodes
    n = enc.num_records
    cost_union = np.zeros((n, n), dtype=np.float64)
    for j, att in enumerate(enc.attrs):
        joined = att.join[col[:, None, j], col[None, :, j]]
        cost_union += model.node_costs[j][joined]
    cost_union /= enc.num_attributes
    dist = np.asarray(
        eng.distance.evaluate(
            eng.sizes[:, None],
            eng.costs[:, None],
            eng.sizes[None, :],
            eng.costs[None, :],
            cost_union,
        ),
        dtype=np.float64,
    )
    np.fill_diagonal(dist, np.inf)
    return dist, dist.min(axis=1), dist.argmin(axis=1)


def _assert_fill_matches_oracle(eng):
    for got, want in zip(
        (eng.matrix, eng.row_min, eng.row_arg), _broadcast_fill(eng)
    ):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


#: Rows per block in the boundary cases below.
_ROWS = 4


class TestBlockedFill:
    """The row-block init is byte-identical to the one-shot broadcast."""

    @pytest.mark.parametrize("distance", distance_names())
    @pytest.mark.parametrize("measure", measure_names() + ["weighted"])
    @pytest.mark.parametrize(
        "n", [1, 2, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 3]
    )
    def test_block_boundaries(self, monkeypatch, n, measure, distance):
        monkeypatch.setattr(agglomerative, "_FILL_BLOCK_CELLS", _ROWS * n)
        table = make_random_table(n, seed=n, domain_sizes=(6, 3, 5))
        enc = EncodedTable(table)
        if measure == "weighted":
            model = CostModel(enc, EntropyMeasure(), weights=[3.0, 0.5, 1.0])
        else:
            model = CostModel(enc, get_measure(measure))
        _assert_fill_matches_oracle(_Engine(model, get_distance(distance), 1))

    def test_one_row_per_block(self, monkeypatch):
        # Fewer cells than a row holds still fills one row per block.
        monkeypatch.setattr(agglomerative, "_FILL_BLOCK_CELLS", 1)
        table = make_random_table(9, seed=3, domain_sizes=(5, 4))
        model = CostModel(EncodedTable(table), EntropyMeasure())
        _assert_fill_matches_oracle(_Engine(model, get_distance("d4"), 2))

    @pytest.mark.parametrize("measure", ["entropy", "lm"])
    def test_default_block_size(self, measure):
        # 600 records: blocks of 109 rows, the last one partial.
        enc = EncodedTable(load("adult", n=600, seed=0))
        model = CostModel(enc, get_measure(measure))
        _assert_fill_matches_oracle(_Engine(model, get_distance("d3"), 10))

    def test_peak_memory_near_the_matrix(self):
        # The one-shot fill peaked at about 4.5x the matrix; the blocked
        # one needs the matrix plus O(n) tables and one block.
        enc = EncodedTable(load("adult", n=1500, seed=0))
        model = CostModel(enc, get_measure("entropy"))
        tracemalloc.start()
        try:
            eng = _Engine(model, get_distance("d3"), 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * eng.matrix.nbytes

    def test_deadline_interrupts_the_fill(self, monkeypatch):
        evaluated = []

        class Counting(LogNormalizedDelta):
            def evaluate(self, *args):
                evaluated.append(args[-1].shape)
                return super().evaluate(*args)

        monkeypatch.setattr(agglomerative, "_FILL_BLOCK_CELLS", _ROWS * 40)
        table = make_random_table(40, seed=5, domain_sizes=(6, 3))
        model = CostModel(EncodedTable(table), EntropyMeasure())
        ticks = iter(range(100))
        # Started at 0; the first fill checkpoint reads 1, the second 2.
        with limit_scope(Deadline(1.5, clock=lambda: float(next(ticks)))):
            with pytest.raises(DeadlineExceeded) as info:
                agglomerative_clustering(model, 3, Counting())
        assert info.value.site == "core.agglomerative.init"
        assert evaluated == [(_ROWS, 40)]  # one block of ten


class TestWorkCounters:
    """The merge loop validates and rescans exactly as it always has.

    Counts measured on ADT n=600 before the fill and the pop loop were
    rewritten; a change in any of them means the lazy validation
    examined or rescanned different rows.
    """

    @pytest.mark.parametrize(
        "measure, merges, scanned, rescans",
        [("entropy", 540, 13895, 13355), ("lm", 541, 4027, 3486)],
    )
    def test_counters_pinned(self, measure, merges, scanned, rescans):
        enc = EncodedTable(load("adult", n=600, seed=0))
        model = CostModel(enc, get_measure(measure))
        registry = MetricsRegistry()
        with metrics_scope(registry):
            _Engine(model, get_distance("d3"), 10).run(modified=False)
        counter = registry.counter
        assert counter("core.agglomerative.merges") == merges
        assert counter("core.agglomerative.candidates_scanned") == scanned
        assert counter("core.agglomerative.row_rescans") == rescans
