"""Unit tests for Algorithm 5 (the (1,k)-anonymizer)."""

import numpy as np
import pytest

from repro.core.k1 import k1_expansion
from repro.core.notions import (
    is_k_one_anonymous,
    is_one_k_anonymous,
    left_link_counts,
)
from repro.core.one_k import one_k_anonymize
from repro.errors import AnonymityError
from repro.measures.base import CostModel
from repro.measures.entropy import EntropyMeasure
from repro.tabular.encoding import EncodedTable
from tests.conftest import breach_rows, make_random_table


class TestAlgorithm5:
    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_identity_input_becomes_1k(self, entropy_model, k):
        enc = entropy_model.enc
        nodes = one_k_anonymize(entropy_model, enc.singleton_nodes, k)
        assert is_one_k_anonymous(enc, nodes, k)

    def test_input_not_mutated(self, entropy_model):
        enc = entropy_model.enc
        original = enc.singleton_nodes.copy()
        one_k_anonymize(entropy_model, enc.singleton_nodes, 3)
        assert np.array_equal(enc.singleton_nodes, original)

    def test_only_generalizes_further(self, entropy_model):
        enc = entropy_model.enc
        base = k1_expansion(entropy_model, 3)
        out = one_k_anonymize(entropy_model, base, 3)
        for j, att in enumerate(enc.attrs):
            for i in range(enc.num_records):
                before = att.collection.node_indices(int(base[i, j]))
                after = att.collection.node_indices(int(out[i, j]))
                assert before <= after

    def test_preserves_k1(self, entropy_model):
        enc = entropy_model.enc
        k = 4
        base = k1_expansion(entropy_model, k)
        out = one_k_anonymize(entropy_model, base, k)
        assert is_k_one_anonymous(enc, out, k)
        assert is_one_k_anonymous(enc, out, k)

    def test_already_satisfied_input_untouched(self, entropy_model):
        enc = entropy_model.enc
        n = enc.num_records
        full = np.array(
            [[a.full_node for a in enc.attrs]] * n, dtype=np.int32
        )
        out = one_k_anonymize(entropy_model, full, 5)
        assert np.array_equal(out, full)

    def test_tight_variant_cheaper(self, entropy_model):
        """Joining with R_i instead of R̄_i can only help (or tie)."""
        enc = entropy_model.enc
        k = 4
        base = k1_expansion(entropy_model, k)
        paper = one_k_anonymize(entropy_model, base, k, join_with="generalized")
        tight = one_k_anonymize(entropy_model, base, k, join_with="original")
        assert is_one_k_anonymous(enc, tight, k)
        assert entropy_model.table_cost(tight) <= (
            entropy_model.table_cost(paper) + 1e-9
        )

    def test_unknown_join_with_rejected(self, entropy_model):
        with pytest.raises(AnonymityError, match="join_with"):
            one_k_anonymize(
                entropy_model, entropy_model.enc.singleton_nodes, 2,
                join_with="nope",
            )

    def test_non_generalizing_input_rejected(self, entropy_model):
        enc = entropy_model.enc
        nodes = enc.singleton_nodes.copy()
        nodes[0] = enc.singleton_nodes[1]  # record 0 published as record 1
        if (enc.codes[0] == enc.codes[1]).all():
            pytest.skip("records 0 and 1 happen to coincide")
        with pytest.raises(AnonymityError, match="does not generalize"):
            one_k_anonymize(entropy_model, nodes, 2)

    def test_error_names_the_first_failing_record(self, entropy_model):
        nodes = breach_rows(entropy_model.enc, (9, 4, 17))
        with pytest.raises(
            AnonymityError, match=r"generalized record 4 does not"
        ):
            one_k_anonymize(entropy_model, nodes, 2)

    def test_k_too_large_rejected(self, entropy_model):
        with pytest.raises(AnonymityError, match="exceeds"):
            one_k_anonymize(
                entropy_model, entropy_model.enc.singleton_nodes, 10_000
            )

    def test_shape_check(self, entropy_model):
        with pytest.raises(AnonymityError, match="shape"):
            one_k_anonymize(
                entropy_model, np.zeros((2, 2), dtype=np.int32), 2
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_link_counts_reach_k(self, seed):
        table = make_random_table(30, seed=seed, domain_sizes=(5, 4))
        model = CostModel(EncodedTable(table), EntropyMeasure())
        k = 6
        out = one_k_anonymize(model, model.enc.singleton_nodes, k)
        assert left_link_counts(model.enc, out).min() >= k
