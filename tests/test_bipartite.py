"""Unit tests for the consistency graph."""

import numpy as np
import pytest

from repro.matching.bipartite import ConsistencyGraph
from repro.matching.hopcroft_karp import has_perfect_matching
from repro.tabular.encoding import EncodedTable
from repro.tabular.table import Table
from tests.conftest import make_random_table


class TestConsistencyGraph:
    def test_identity_generalization(self, small_encoded):
        graph = ConsistencyGraph(small_encoded, small_encoded.singleton_nodes)
        # Each record is consistent at least with its own published row;
        # duplicates add more.
        left = graph.left_degrees()
        right = graph.right_degrees()
        assert (left >= 1).all()
        assert (right >= 1).all()
        assert left.sum() == right.sum() == graph.num_edges()

    def test_full_suppression_complete_graph(self, small_encoded):
        enc = small_encoded
        n = enc.num_records
        full = np.array(
            [[a.full_node for a in enc.attrs]] * n, dtype=np.int32
        )
        graph = ConsistencyGraph(enc, full)
        assert graph.num_edges() == n * n
        assert (graph.left_degrees() == n).all()

    def test_adjacency_symmetric_between_duplicates(self, small_encoded):
        enc = small_encoded
        graph = ConsistencyGraph(enc, enc.singleton_nodes)
        # Records with identical rows must have identical neighbourhoods.
        for i in range(enc.num_records):
            for j in range(i + 1, enc.num_records):
                if (enc.codes[i] == enc.codes[j]).all():
                    assert np.array_equal(
                        graph.adjacency[i], graph.adjacency[j]
                    )

    def test_contains_identity_matching(self, small_encoded):
        enc = small_encoded
        graph = ConsistencyGraph(enc, enc.singleton_nodes)
        assert has_perfect_matching(graph.adjacency_lists(), graph.num_records)

    def test_shape_check(self, small_encoded):
        with pytest.raises(ValueError, match="shape"):
            ConsistencyGraph(small_encoded, np.zeros((3, 2), dtype=np.int32))

    def test_edge_iff_consistent(self, small_encoded):
        """Adjacency and right degrees equal Definition 3.3 evaluated
        record by record, also on tables with duplicate rows and partly
        generalized, partly breached publications."""
        enc = small_encoded
        nodes = enc.singleton_nodes.copy()
        nodes[0] = enc.closure_of_records([0, 1, 2])
        cases = [(enc, nodes)]
        for seed in range(3):
            base = make_random_table(15, seed=seed, domain_sizes=(5, 4, 3))
            rng = np.random.default_rng(seed)
            rows = [base.rows[int(i)] for i in rng.integers(0, 15, size=40)]
            dup = EncodedTable(Table(base.schema, rows))
            assert dup.num_unique < dup.num_records
            single = dup.singleton_nodes
            cases.append(
                (dup, dup.join_rows(single, single[rng.permutation(40)]))
            )
        for enc, nodes in cases:
            graph = ConsistencyGraph(enc, nodes)
            degrees = np.zeros(enc.num_records, dtype=np.int64)
            for i in range(enc.num_records):
                expect = np.flatnonzero(enc.consistency_mask(i, nodes))
                assert graph.adjacency[i].tobytes() == expect.tobytes()
                degrees[expect] += 1
            assert np.array_equal(graph.right_degrees(), degrees)

    def test_repr(self, small_encoded):
        graph = ConsistencyGraph(small_encoded, small_encoded.singleton_nodes)
        assert "n=30" in repr(graph)
