"""Unit tests for the numpy encoding layer."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.tabular.encoding import EncodedAttribute, EncodedTable
from repro.tabular.hierarchy import SubsetCollection
from repro.tabular.attribute import Attribute
from repro.tabular.table import Schema, Table


class TestEncodedAttribute:
    def test_join_table_matches_collection(self):
        att = Attribute("x", ["a", "b", "c", "d"])
        coll = SubsetCollection(att, [["a", "b"], ["c", "d"]])
        enc = EncodedAttribute(coll)
        for i in range(coll.num_nodes):
            for j in range(coll.num_nodes):
                assert enc.join[i, j] == coll.join(i, j)

    def test_ancestor_table(self):
        att = Attribute("x", ["a", "b", "c"])
        coll = SubsetCollection(att, [["a", "b"]])
        enc = EncodedAttribute(coll)
        ab = coll.node_of_values(["a", "b"])
        assert enc.anc[att.index_of("a"), ab]
        assert enc.anc[att.index_of("b"), ab]
        assert not enc.anc[att.index_of("c"), ab]
        # Every value is in its singleton and in the full set.
        for v in range(3):
            assert enc.anc[v, enc.singleton[v]]
            assert enc.anc[v, enc.full_node]

    def test_sizes(self):
        att = Attribute("x", ["a", "b", "c"])
        enc = EncodedAttribute(SubsetCollection(att))
        assert enc.sizes[enc.full_node] == 3
        assert enc.num_values == 3
        assert enc.num_nodes == 4


class TestEncodedTable:
    def test_codes_and_counts(self, small_encoded):
        enc = small_encoded
        assert enc.codes.shape == (30, 2)
        assert enc.num_records == 30
        assert enc.num_attributes == 2
        # value_counts must total n in every attribute.
        for counts in enc.value_counts:
            assert counts.sum() == 30

    def test_unique_rows_roundtrip(self, small_encoded):
        enc = small_encoded
        rebuilt = enc.unique_codes[enc.unique_inverse]
        assert np.array_equal(rebuilt, enc.codes)
        assert enc.unique_counts.sum() == enc.num_records

    def test_singleton_nodes_are_singletons(self, small_encoded):
        enc = small_encoded
        for j, att in enumerate(enc.attrs):
            sizes = att.sizes[enc.singleton_nodes[:, j]]
            assert (sizes == 1).all()

    def test_closure_of_records_exact(self, small_encoded):
        enc = small_encoded
        nodes = enc.closure_of_records([0, 1, 2])
        for j, att in enumerate(enc.attrs):
            members = set(enc.codes[[0, 1, 2], j].tolist())
            covered = att.collection.node_indices(int(nodes[j]))
            assert members <= covered
            # Minimality: no smaller permissible superset exists.
            for b in range(att.num_nodes):
                if members <= att.collection.node_indices(b):
                    assert att.sizes[b] >= att.sizes[nodes[j]]

    def test_closure_of_single_record_is_itself(self, small_encoded):
        enc = small_encoded
        nodes = enc.closure_of_records([5])
        assert np.array_equal(nodes, enc.singleton_nodes[5])

    def test_closure_of_empty_rejected(self, small_encoded):
        with pytest.raises(SchemaError, match="empty"):
            small_encoded.closure_of_records([])

    def test_join_rows_broadcasting(self, small_encoded):
        enc = small_encoded
        one = enc.singleton_nodes[0]
        many = enc.singleton_nodes[:5]
        out = enc.join_rows(many, one)
        assert out.shape == (5, 2)
        # Joining a row with itself is the identity.
        assert np.array_equal(
            enc.join_rows(one, one), one
        )

    def test_consistency_mask(self, small_encoded):
        enc = small_encoded
        # Every record is consistent with its own singleton encoding.
        mask = enc.consistency_mask(0, enc.singleton_nodes)
        assert mask[0]
        # And with a fully suppressed record.
        full = np.array([a.full_node for a in enc.attrs], dtype=np.int32)
        assert enc.consistency_mask(0, full[None, :])[0]

    def test_generalizes_rows_matches_consistency_mask(self, small_encoded):
        enc = small_encoded
        n = enc.num_records
        rng = np.random.default_rng(0)
        # Each row published as the closure of itself and a random other
        # record, or as a random other record's singleton (usually a breach).
        nodes = enc.join_rows(
            enc.singleton_nodes, enc.singleton_nodes[rng.permutation(n)]
        )
        swapped = rng.random(n) < 0.3
        nodes[swapped] = enc.singleton_nodes[rng.integers(0, n, swapped.sum())]
        expect = [bool(enc.consistency_mask(i, nodes[i])) for i in range(n)]
        got = enc.generalizes_rows(nodes)
        assert got.dtype == bool and got.shape == (n,)
        assert got.tolist() == expect
        assert not all(expect) and any(expect)

    def test_decode_roundtrip(self, small_encoded):
        enc = small_encoded
        gtable = enc.decode_table(enc.singleton_nodes)
        assert gtable.num_records == enc.num_records
        gtable.check_generalizes(enc.table)
        back = enc.encode_generalized(gtable)
        assert np.array_equal(back, enc.singleton_nodes)

    def test_decode_shape_check(self, small_encoded):
        with pytest.raises(SchemaError, match="shape"):
            small_encoded.decode_table(np.zeros((2, 2), dtype=np.int32))

    def test_encode_foreign_schema_rejected(self, small_encoded):
        att = Attribute("z", ["1"])
        other = Schema([SubsetCollection(att)])
        other_table = Table(other, [("1",)])
        other_enc = EncodedTable(other_table)
        gt = other_enc.decode_table(other_enc.singleton_nodes)
        with pytest.raises(SchemaError, match="different schema"):
            small_encoded.encode_generalized(gt)

    def test_repr(self, small_encoded):
        assert "n=30" in repr(small_encoded)
