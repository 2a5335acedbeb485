"""The (1,k)-anonymizer, Algorithm 5 (Section V-B.2).

Given *any* generalization g(D) whose i-th record generalizes the i-th
original record, Algorithm 5 further generalizes records of g(D) until
every original record is consistent with at least k generalized records.
Applied to a (k,1)-anonymization it yields a (k,k)-anonymization — the
coupling lives in :mod:`repro.core.kk`.

For each original record R_i with only ℓ < k consistent generalized
records, the k−ℓ generalized records R̄_j minimizing
``c(R̄_i + R̄_j) − c(R̄_j)`` are replaced by R̄_i + R̄_j (the minimal
generalized record covering both).  Since R̄_i generalizes R_i, the
replacement is consistent with R_i; and since replacement only *adds*
values, every consistency established earlier survives — in particular
(k,1)-anonymity of the input is preserved.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnonymityError
from repro.measures.base import CostModel
from repro.runtime import checkpoint


def one_k_anonymize(
    model: CostModel,
    node_matrix: np.ndarray,
    k: int,
    join_with: str = "generalized",
) -> np.ndarray:
    """Run Algorithm 5; returns a new node matrix, input left untouched.

    Parameters
    ----------
    model:
        Cost model defining c(·).
    node_matrix:
        The input generalization g(D), ``[n, r]`` node indices.  Record i
        must generalize original record i (checked).
    k:
        Target number of consistent generalized records per original.
    join_with:
        ``"generalized"`` (the paper's Algorithm 5: deficient records are
        joined with R̄_i) or ``"original"`` (join with the singleton
        record R_i instead — a per-record never-wider variant this
        library adds for the ablation study; it also fixes consistency
        with R_i and also preserves (k,1), and is usually — though not
        always, because candidate selection interacts across records —
        slightly cheaper overall).

    Candidate unions are priced with :meth:`CostModel.join_costs`;
    union rows are materialized only for the ``k − ℓ`` records
    actually replaced.

    Raises
    ------
    AnonymityError
        If k exceeds n, or record i does not generalize row i.
    """
    if join_with not in ("generalized", "original"):
        raise AnonymityError(
            f"join_with must be 'generalized' or 'original', got {join_with!r}"
        )
    enc = model.enc
    n = enc.num_records
    if k > n:
        raise AnonymityError(f"k={k} exceeds the number of records n={n}")
    nodes = np.array(node_matrix, dtype=np.int32, copy=True)
    if nodes.shape != (n, enc.num_attributes):
        raise AnonymityError(
            f"node matrix has shape {nodes.shape}, expected "
            f"{(n, enc.num_attributes)}"
        )

    # Precondition of the algorithm ("It is assumed that for all i,
    # R̄_i is a generalization of R_i").
    bad = np.flatnonzero(~enc.generalizes_rows(nodes))
    if bad.size:
        raise AnonymityError(
            f"generalized record {bad[0]} does not generalize original record {bad[0]}"
        )

    for i in range(n):
        checkpoint("core.one_k.record")
        consistent = enc.consistency_mask(i, nodes)
        ell = int(consistent.sum())
        if ell >= k:
            continue
        candidates = np.flatnonzero(~consistent)
        anchor = nodes[i] if join_with == "generalized" else enc.singleton_nodes[i]
        cost_new = model.join_costs(nodes[candidates], anchor)
        cost_old = np.asarray(
            model.record_cost(nodes[candidates]), dtype=np.float64
        )
        delta = cost_new - cost_old
        order = np.argsort(delta, kind="stable")[: k - ell]
        chosen = candidates[order]
        nodes[chosen] = enc.join_rows(nodes[chosen], anchor)
    return nodes
