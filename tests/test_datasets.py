"""Unit tests for the dataset generators."""

import numpy as np
import pytest

from repro.datasets import adult, artificial, cmc
from repro.datasets.base import check_probs, sample_categorical, validate_n
from repro.datasets.registry import (
    dataset_names,
    default_size,
    identity,
    load,
    schema_of,
)
from repro.errors import DatasetError
from repro.tabular.encoding import EncodedTable


class TestBaseHelpers:
    def test_check_probs_normalizes(self):
        p = check_probs("x", [2.0, 2.0], 2)
        assert p.tolist() == [0.5, 0.5]

    def test_check_probs_shape(self):
        with pytest.raises(DatasetError, match="probabilities"):
            check_probs("x", [0.5], 2)

    def test_check_probs_negative(self):
        with pytest.raises(DatasetError, match="negative"):
            check_probs("x", [-0.1, 1.1], 2)

    def test_check_probs_zero_sum(self):
        with pytest.raises(DatasetError, match="zero"):
            check_probs("x", [0.0, 0.0], 2)

    def test_sample_categorical(self):
        rng = np.random.default_rng(0)
        out = sample_categorical(rng, ["a", "b"], [1.0, 0.0], 10)
        assert out == ["a"] * 10

    def test_validate_n(self):
        assert validate_n(5) == 5
        with pytest.raises(DatasetError):
            validate_n(0)


class TestArtificial:
    def test_exact_domain_sizes(self):
        schema = artificial.make_schema()
        sizes = [c.attribute.size for c in schema.collections]
        assert sizes == [2, 4, 4, 25, 10, 5]

    def test_paper_subsets_present(self):
        schema = artificial.make_schema()
        a4 = schema.collections[3]
        # {a1..a6}, {a7..a12}, {a13..a18}, {a19..a25}, {a1..a12}, {a13..a25}
        # + 25 singletons + full set = 32 nodes.
        assert a4.num_nodes == 32
        a1 = schema.collections[0]
        assert a1.num_nodes == 3  # singletons + full only

    def test_marginals_close_to_spec(self):
        table = artificial.generate(n=20_000, seed=0)
        enc = EncodedTable(table)
        # A1 ~ (0.7, 0.3)
        counts = enc.value_counts[0] / 20_000
        assert counts[0] == pytest.approx(0.7, abs=0.02)
        # A6 third value ~ 0.5
        counts6 = enc.value_counts[5] / 20_000
        assert counts6[2] == pytest.approx(0.5, abs=0.02)

    def test_deterministic(self):
        t1 = artificial.generate(n=50, seed=3)
        t2 = artificial.generate(n=50, seed=3)
        assert t1.rows == t2.rows

    def test_seeds_differ(self):
        t1 = artificial.generate(n=50, seed=3)
        t2 = artificial.generate(n=50, seed=4)
        assert t1.rows != t2.rows

    def test_private_attribute(self):
        table = artificial.generate(n=20, seed=0, private=True)
        assert table.schema.private_attributes == ("condition",)
        assert len(table.private_rows) == 20


class TestAdult:
    def test_schema_attributes(self):
        schema = adult.make_schema()
        assert schema.attribute_names == (
            "age", "work-class", "education-level", "marital-status",
            "occupation", "family-relationship", "race", "sex",
            "native-country",
        )
        assert schema.private_attributes == ("income",)

    def test_education_grouping_is_papers(self):
        schema = adult.make_schema()
        coll = schema.collections[2]
        hs = coll.node_of_values(adult.EDUCATION_GROUPS["high-school"])
        assert coll.node_size(hs) == 9

    def test_all_hierarchies_laminar(self):
        for coll in adult.make_schema().collections:
            assert coll.is_laminar

    def test_country_regions_partition(self):
        all_countries = [
            c for region in adult.COUNTRY_REGIONS.values() for c in region
        ]
        assert len(all_countries) == 41
        assert len(set(all_countries)) == 41

    def test_correlations_present(self):
        table = adult.generate(n=4000, seed=1)
        married_by_young: dict[bool, list[str]] = {True: [], False: []}
        for row in table.rows:
            married_by_young[int(row[0]) < 26].append(row[3])
        young_married = np.mean(
            [m == "Married-civ-spouse" for m in married_by_young[True]]
        )
        old_married = np.mean(
            [m == "Married-civ-spouse" for m in married_by_young[False]]
        )
        assert young_married < old_married  # age → marital dependency
        # Husband only for married males.
        for row in table.rows:
            if row[5] == "Husband":
                assert row[7] == "Male"

    def test_deterministic(self):
        assert adult.generate(50, seed=2).rows == adult.generate(50, seed=2).rows


class TestCmc:
    def test_schema(self):
        schema = cmc.make_schema()
        assert len(schema.attribute_names) == 9
        assert schema.private_attributes == ("method",)

    def test_all_hierarchies_laminar(self):
        for coll in cmc.make_schema().collections:
            assert coll.is_laminar

    def test_children_grow_with_age(self):
        table = cmc.generate(n=4000, seed=0)
        young = [int(r[3]) for r in table.rows if int(r[0]) < 25]
        old = [int(r[3]) for r in table.rows if int(r[0]) >= 40]
        assert np.mean(young) < np.mean(old)

    def test_method_values(self):
        table = cmc.generate(n=200, seed=0)
        assert set(m for (m,) in table.private_rows) <= set(cmc.METHOD)


class TestRegistry:
    def test_names_and_sizes(self):
        assert set(dataset_names()) == {"art", "adult", "cmc"}
        assert default_size("adult") == 5000
        assert default_size("adt") == 5000
        assert default_size("art") == 1000
        assert default_size("cmc") == 1500

    def test_load_default_and_custom_n(self):
        assert load("art", n=17).num_records == 17
        assert load("cmc", n=11, seed=5).num_records == 11

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError, match="unknown dataset"):
            load("census2020")
        with pytest.raises(DatasetError, match="unknown dataset"):
            identity("census2020")

    def test_identity_canonicalizes_aliases_and_default_n(self):
        for spelling in ("adt", "ADT", "adult"):
            assert identity(spelling) == ("adult", 5000)
            assert identity(spelling, 5000) == ("adult", 5000)
        assert identity("artificial", 40) == ("art", 40)

    def test_schema_of(self):
        schema = schema_of("adult", private=True)
        assert schema.private_attributes == ("income",)

    def test_alias(self):
        t = load("adt", n=10)
        assert t.schema.attribute_names[0] == "age"
