"""Unit tests for the blocked agglomerative variant."""

import hashlib

import numpy as np
import pytest

from repro.core.agglomerative import agglomerative_clustering
from repro.core.clustering import clustering_to_nodes
from repro.core.distances import get_distance
from repro.core.notions import is_k_anonymous
from repro.core.scalable import _partition_blocks, blocked_agglomerative
from repro.datasets import load
from repro.errors import AnonymityError
from repro.measures.base import CostModel
from repro.measures.entropy import EntropyMeasure
from repro.tabular.encoding import EncodedTable
from repro.tabular.table import Table
from tests.conftest import make_random_table


@pytest.fixture(scope="module")
def model():
    table = make_random_table(180, seed=13, domain_sizes=(7, 5, 4))
    return CostModel(EncodedTable(table), EntropyMeasure())


class TestPartition:
    def test_blocks_partition_records(self, model):
        blocks = _partition_blocks(model.enc, block_size=40, k=4)
        seen = sorted(int(i) for b in blocks for i in b)
        assert seen == list(range(model.enc.num_records))

    def test_block_floor_respected(self, model):
        k = 5
        blocks = _partition_blocks(model.enc, block_size=40, k=k)
        for b in blocks:
            assert len(b) >= k

    def test_single_block_when_size_large(self, model):
        blocks = _partition_blocks(model.enc, block_size=10_000, k=3)
        assert len(blocks) == 1


def _skewed_table(n, share, seed):
    """``share`` of the rows are one repeated row, the rest random."""
    table = make_random_table(n, seed=seed, domain_sizes=(7, 5, 4))
    rng = np.random.default_rng(seed)
    rows = list(table.rows)
    for i in rng.permutation(n)[: int(round(share * n))]:
        rows[i] = rows[0]
    return Table(table.schema, rows)


def _partition_digest(blocks):
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(np.asarray(block, dtype=np.int64).tobytes() + b"|")
    return digest.hexdigest()[:16]


class TestUnsplittableBlocks:
    """When no attribute split keeps both sides ≥ the floor, the block
    is halved by index, so ``block_size`` still bounds every block."""

    @pytest.mark.parametrize("share", [1.0, 0.97])
    def test_blocks_stay_within_bounds(self, share):
        k, block_size = 5, 64
        model = CostModel(
            EncodedTable(_skewed_table(2000, share, seed=3)), EntropyMeasure()
        )
        blocks = _partition_blocks(model.enc, block_size, k)
        assert sorted(int(i) for b in blocks for i in b) == list(range(2000))
        assert max(len(b) for b in blocks) <= block_size
        assert min(len(b) for b in blocks) >= k
        clustering = blocked_agglomerative(
            model, k, get_distance("d3"), block_size=block_size
        )
        nodes = clustering_to_nodes(model.enc, clustering)
        assert is_k_anonymous(nodes, k)
        assert clustering.min_cluster_size() >= k
        model.enc.decode_table(nodes).check_generalizes(model.enc.table)

    #: Partitions of the paper-size tables at k=10 (``bench_scalable``'s
    #: block sizes and the scaling sweep's 256): no block there is
    #: unsplittable, so the digests are those from before the halving.
    PINNED = (
        ("art", None, 64, 23, "ccf9d4b93d37b970"),
        ("art", None, 128, 11, "151f1ee498ef1680"),
        ("art", None, 256, 6, "b47ec21bab3a7d49"),
        ("adult", None, 64, 123, "0469fe3340479ab9"),
        ("adult", None, 128, 60, "423e74638097e5f5"),
        ("adult", None, 256, 28, "913f7c34c89c7903"),
        ("cmc", None, 64, 36, "b8ce50258f624d3a"),
        ("cmc", None, 128, 18, "905cc869ab793492"),
        ("cmc", None, 256, 8, "868e78aa0410af17"),
        ("adult", 400, 256, 2, "b05b50d8146e8e10"),
        ("adult", 800, 256, 4, "212f30ca266e98cf"),
    )

    def test_paper_size_partitions_unchanged(self):
        encoded = {}
        for name, n, block_size, count, digest in self.PINNED:
            if (name, n) not in encoded:
                encoded[name, n] = EncodedTable(load(name, n=n, seed=0))
            blocks = _partition_blocks(encoded[name, n], block_size, 10)
            assert len(blocks) == count, (name, n, block_size)
            assert _partition_digest(blocks) == digest, (name, n, block_size)


class TestBlockedAgglomerative:
    @pytest.mark.parametrize("k", [3, 6])
    def test_k_anonymous(self, model, k):
        clustering = blocked_agglomerative(
            model, k, get_distance("d3"), block_size=48
        )
        nodes = clustering_to_nodes(model.enc, clustering)
        assert is_k_anonymous(nodes, k)
        assert clustering.min_cluster_size() >= k

    def test_quality_close_to_full(self, model):
        k = 4
        d = get_distance("d3")
        full = clustering_to_nodes(
            model.enc, agglomerative_clustering(model, k, d)
        )
        blocked = clustering_to_nodes(
            model.enc, blocked_agglomerative(model, k, d, block_size=60)
        )
        full_cost = model.table_cost(full)
        blocked_cost = model.table_cost(blocked)
        assert blocked_cost >= full_cost - 1e-9  # blocking can't beat global
        assert blocked_cost <= full_cost * 1.35  # ...and stays close

    def test_equals_full_when_one_block(self, model):
        k = 4
        d = get_distance("d2")
        full = agglomerative_clustering(model, k, d)
        blocked = blocked_agglomerative(model, k, d, block_size=10_000)
        canon = lambda c: sorted(tuple(sorted(x)) for x in c.clusters)
        assert canon(full) == canon(blocked)

    def test_block_size_floor(self, model):
        with pytest.raises(AnonymityError, match="at least 2k"):
            blocked_agglomerative(model, 10, get_distance("d3"), block_size=15)

    def test_k_too_large(self, model):
        with pytest.raises(AnonymityError, match="exceeds"):
            blocked_agglomerative(
                model, 10_000, get_distance("d3"), block_size=30_000
            )

    def test_k_one_identity(self, model):
        clustering = blocked_agglomerative(
            model, 1, get_distance("d3"), block_size=64
        )
        assert clustering.num_clusters == model.enc.num_records

    def test_borrowed_costs_match_parent(self, model):
        """The sub-models must score with the FULL table's distribution —
        eq. (3) conditions on the whole database, not the block."""
        from repro.core.scalable import _borrow_costs

        sub_table = model.enc.table.subset(list(range(30)))
        sub_model = _borrow_costs(model, EncodedTable(sub_table))
        for a, b in zip(sub_model.node_costs, model.node_costs):
            assert np.array_equal(a, b)

    def test_modified_flag_forwarded(self, model):
        clustering = blocked_agglomerative(
            model, 4, get_distance("d1"), block_size=48, modified=True
        )
        assert clustering.min_cluster_size() >= 4
