"""Union pricing by :class:`~repro.measures.base.CostModel`.

:meth:`~repro.measures.base.CostModel.join_costs` and the reads of
:meth:`~repro.measures.base.CostModel.bind` against their unfused
``join_rows`` + ``record_cost`` oracle, and the symmetry of the join
tables the bound reads rely on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import dataset_names, load
from repro.measures.base import CostModel
from repro.measures.registry import get_measure, measure_names
from repro.tabular.attribute import Attribute, integer_attribute
from repro.tabular.encoding import EncodedTable
from repro.tabular.hierarchy import IntervalCollection, SubsetCollection
from repro.tabular.table import Schema, Table

from tests.conftest import make_random_table


def _model(table: Table, measure: str = "lm") -> CostModel:
    return CostModel(EncodedTable(table), get_measure(measure))


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
