"""Edge-case battery: degenerate shapes through every pipeline.

Single records, single attributes, one-value domains, all-identical
rows, k = n, deep hierarchies — places where off-by-one and
empty-array bugs live.
"""

import numpy as np
import pytest

from repro.core.agglomerative import agglomerative_clustering
from repro.core.api import anonymize
from repro.core.clustering import clustering_to_nodes
from repro.core.datafly import datafly
from repro.core.distances import get_distance
from repro.core.forest import forest_clustering
from repro.core.kk import kk_anonymize
from repro.core.mondrian import mondrian_clustering
from repro.core.notions import anonymity_profile, is_k_anonymous, satisfies
from repro.errors import AnonymityError, ReproError, SchemaError
from repro.measures.base import CostModel
from repro.measures.entropy import EntropyMeasure
from repro.tabular.attribute import Attribute, integer_attribute
from repro.tabular.encoding import EncodedTable
from repro.tabular.hierarchy import SubsetCollection, interval_hierarchy
from repro.tabular.table import Schema, Table
from repro.verify.differential import REGISTRY
from repro.verify.generators import InstanceConfig


def _model(table):
    return CostModel(EncodedTable(table), EntropyMeasure())


@pytest.fixture
def single_record_table():
    att = Attribute("a", ["x", "y"])
    return Table(Schema([SubsetCollection(att)]), [("x",)])


@pytest.fixture
def identical_rows_table():
    att = Attribute("a", ["x", "y"])
    b = Attribute("b", ["1", "2", "3"])
    schema = Schema([SubsetCollection(att), SubsetCollection(b)])
    return Table(schema, [("x", "2")] * 9)


@pytest.fixture
def one_value_domain_table():
    only = Attribute("only", ["c"])
    other = Attribute("other", ["1", "2"])
    schema = Schema([SubsetCollection(only), SubsetCollection(other)])
    return Table(schema, [("c", "1"), ("c", "2"), ("c", "1"), ("c", "2")])


class TestSingleRecord:
    def test_k1_anonymize(self, single_record_table):
        result = anonymize(single_record_table, k=1)
        assert result.cost == pytest.approx(0.0)
        assert result.verify()

    def test_every_notion_at_k1(self, single_record_table):
        for notion in ("k", "1k", "k1", "kk", "global-1k"):
            result = anonymize(single_record_table, k=1, notion=notion)
            assert result.verify(), notion

    def test_profile(self, single_record_table):
        enc = EncodedTable(single_record_table)
        profile = anonymity_profile(enc, enc.singleton_nodes)
        assert profile.min_group_size == 1
        assert profile.min_matches == 1


class TestIdenticalRows:
    def test_all_algorithms_zero_cost(self, identical_rows_table):
        model = _model(identical_rows_table)
        k = 3
        for make in (
            lambda: clustering_to_nodes(
                model.enc,
                agglomerative_clustering(model, k, get_distance("d2")),
            ),
            lambda: clustering_to_nodes(model.enc, forest_clustering(model, k)),
            lambda: clustering_to_nodes(
                model.enc, mondrian_clustering(model, k)
            ),
            lambda: kk_anonymize(model, k),
            lambda: datafly(model, k).node_matrix,
        ):
            nodes = make()
            assert model.table_cost(nodes) == pytest.approx(0.0)

    def test_k_equals_n(self, identical_rows_table):
        result = anonymize(identical_rows_table, k=9, notion="k")
        assert result.verify()
        assert result.cost == pytest.approx(0.0)

    def test_global_trivial(self, identical_rows_table):
        result = anonymize(identical_rows_table, k=9, notion="global-1k")
        assert result.verify()
        assert result.stats["conversion_fixes"] == 0


class TestOneValueDomain:
    def test_anonymize_all_notions(self, one_value_domain_table):
        for notion in ("k", "kk", "global-1k"):
            result = anonymize(one_value_domain_table, k=2, notion=notion)
            assert result.verify(), notion

    def test_one_value_attribute_costs_nothing(self, one_value_domain_table):
        model = _model(one_value_domain_table)
        # The 'only' attribute cannot lose information.
        assert (model.node_costs[0] == 0.0).all()


class TestSingleAttribute:
    def test_numeric_single_attribute(self):
        age = integer_attribute("age", 0, 29)
        schema = Schema([interval_hierarchy(age, 3, 6)])
        rng = np.random.default_rng(1)
        table = Table(schema, [(str(int(v)),) for v in rng.integers(0, 30, 40)])
        for notion in ("k", "kk", "global-1k"):
            result = anonymize(table, k=5, notion=notion)
            assert result.verify(), notion

    def test_binary_attribute_k_anonymity(self):
        att = Attribute("bit", ["0", "1"])
        schema = Schema([SubsetCollection(att)])
        table = Table(schema, [("0",)] * 4 + [("1",)] * 3)
        result = anonymize(table, k=3, notion="k")
        assert result.verify()
        # 4 zeros and 3 ones: both groups are ≥ 3 without generalizing.
        assert result.cost == pytest.approx(0.0)

    def test_binary_attribute_forced_suppression(self):
        att = Attribute("bit", ["0", "1"])
        schema = Schema([SubsetCollection(att)])
        table = Table(schema, [("0",)] * 5 + [("1",)] * 2)
        result = anonymize(table, k=3, notion="k")
        assert result.verify()
        assert result.cost > 0.0  # the two '1' records must generalize


class TestDeepHierarchy:
    def test_four_level_chain(self):
        att = Attribute("x", [f"v{i}" for i in range(16)])
        values = list(att.values)
        subsets = []
        # Binary hierarchy: pairs, quads, octets.
        for width in (2, 4, 8):
            for start in range(0, 16, width):
                subsets.append(values[start : start + width])
        coll = SubsetCollection(att, subsets)
        assert coll.is_laminar
        assert coll.height() == 4
        schema = Schema([coll])
        rng = np.random.default_rng(3)
        table = Table(schema, [(values[int(i)],) for i in rng.integers(0, 16, 50)])
        result = anonymize(table, k=6, notion="k", measure="tree")
        assert result.verify()

    def test_closure_walks_levels(self):
        att = Attribute("x", [f"v{i}" for i in range(8)])
        values = list(att.values)
        subsets = [values[0:2], values[2:4], values[4:8], values[0:4]]
        coll = SubsetCollection(att, subsets)
        assert coll.node_values(
            coll.closure_of_values(["v0", "v3"])
        ) == frozenset(values[0:4])
        assert coll.closure_of_values(["v0", "v5"]) == coll.full_node


def _config(k, measure="entropy"):
    return InstanceConfig(
        seed=0,
        k=k,
        notion="k",
        measure=measure,
        distance="d2",
        expander="nearest",
        modified=False,
    )


def _spec_params():
    # Case ids end in ``-python``, the name the dense agglomerative
    # engine ran under while a second engine existed; keeping it keeps
    # each case's name comparable across versions.
    return pytest.mark.parametrize(
        "spec", REGISTRY, ids=[f"{s.name}-python" for s in REGISTRY]
    )


class TestDegenerateAcrossRegistry:
    """Every registered algorithm through the degenerate-shape matrix.

    The contract: a valid instance always yields a generalization that
    satisfies the algorithm's notion; an unsatisfiable instance raises
    :class:`AnonymityError` — never an arbitrary crash.
    """

    @pytest.fixture
    def small_table(self):
        att = Attribute("a", ["x", "y", "z"])
        b = Attribute("b", ["0", "1"])
        schema = Schema([SubsetCollection(att), SubsetCollection(b)])
        rows = [
            ("x", "0"), ("y", "1"), ("z", "0"), ("x", "1"),
            ("y", "0"), ("z", "1"), ("x", "0"),
        ]
        return Table(schema, rows)

    def _run(self, spec, table, k, measure="entropy"):
        model = CostModel(EncodedTable(table), EntropyMeasure())
        return model, spec.run(model, _config(k, measure))

    @_spec_params()
    def test_k_equals_one(self, spec, small_table):
        model, out = self._run(spec, small_table, k=1)
        assert satisfies(model.enc, out.nodes, spec.notion, 1)

    @_spec_params()
    def test_k_equals_n(self, spec, small_table):
        n = small_table.num_records
        model, out = self._run(spec, small_table, k=n)
        assert satisfies(model.enc, out.nodes, spec.notion, n)

    @_spec_params()
    def test_k_above_n_raises_anonymity_error(self, spec, small_table):
        with pytest.raises(AnonymityError):
            self._run(spec, small_table, k=small_table.num_records + 1)

    @_spec_params()
    def test_empty_table_raises_repro_error(self, spec, small_table):
        empty = Table(small_table.schema, [])
        with pytest.raises(ReproError):
            self._run(spec, empty, k=1)

    @_spec_params()
    def test_single_attribute_table(self, spec):
        att = Attribute("a", ["x", "y", "z"])
        table = Table(
            Schema([SubsetCollection(att)]),
            [("x",), ("y",), ("z",), ("x",), ("y",), ("x",)],
        )
        model, out = self._run(spec, table, k=2)
        assert satisfies(model.enc, out.nodes, spec.notion, 2)

    @_spec_params()
    def test_all_duplicate_rows_cost_zero(self, spec, identical_rows_table):
        n = identical_rows_table.num_records
        model, out = self._run(spec, identical_rows_table, k=n)
        assert satisfies(model.enc, out.nodes, spec.notion, n)
        assert model.table_cost(out.nodes) == pytest.approx(0.0)

    def test_empty_domain_raises_schema_error(self):
        with pytest.raises(SchemaError):
            Attribute("empty", [])


class TestTwoRecords:
    def test_k2_two_records(self):
        att = Attribute("a", ["x", "y"])
        schema = Schema([SubsetCollection(att)])
        table = Table(schema, [("x",), ("y",)])
        for notion in ("k", "kk", "global-1k"):
            result = anonymize(table, k=2, notion=notion)
            assert result.verify(), notion
            assert is_k_anonymous(result.node_matrix, 2) or notion != "k"
