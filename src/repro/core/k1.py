"""(k,1)-anonymization (Section V-B.1): Algorithms 3 and 4.

Both algorithms build, for every record R_i, a set S_i of k records
containing R_i, and publish R̄_i = closure(S_i).  Every generalized
record is then consistent with at least the k members of its set —
(k,1)-anonymity.  Unlike k-anonymization the sets may overlap, which is
where the extra utility comes from.

Algorithm 3 ("nearest neighbours") joins each record with the k−1
records minimizing the *pairwise* cost d({R_i, R_j}); Proposition 5.1
gives it a (k−1)-approximation guarantee.  Algorithm 4 ("expansion")
grows S_i greedily, at each step adding the record with the smallest
cost increment d(S ∪ {R_j}) − d(S); it has no guarantee but dominated
Algorithm 3 in all of the paper's experiments.

Records with identical rows behave identically, so both algorithms run
once per *unique* row and broadcast the result — the costs and closures
only depend on the multiset of values.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnonymityError
from repro.measures.base import CostModel
from repro.runtime import checkpoint


def _check_k(model: CostModel, k: int) -> None:
    n = model.enc.num_records
    if n == 0:
        raise AnonymityError("cannot anonymize an empty table")
    if k > n:
        raise AnonymityError(f"k={k} exceeds the number of records n={n}")


def k1_nearest_neighbors(model: CostModel, k: int) -> np.ndarray:
    """Algorithm 3: join each record with its k−1 nearest records.

    "Nearest" is measured by the pairwise generalization cost
    d({R_i, R_j}) (line 1 of Algorithm 3); ties break on row order, and
    duplicate rows are free nearest neighbours (pair cost 0).

    Returns the ``[n, r]`` node matrix of the (k,1)-anonymization.
    """
    _check_k(model, k)
    enc = model.enc
    n = enc.num_records
    if k <= 1:
        return enc.singleton_nodes.copy()

    u_nodes = enc.unique_singleton_nodes  # [u, r]
    counts = enc.unique_counts
    u = enc.num_unique
    unique_result = np.empty_like(u_nodes)
    candidates = model.bind(u_nodes)

    for a in range(u):
        checkpoint("core.k1.row")
        # closure({row_a, row_b}) costs against every unique row
        pair_cost = candidates.join_costs(u_nodes[a])
        order = np.argsort(pair_cost, kind="stable")

        closure = u_nodes[a].copy()
        need = k - 1
        avail_self = counts[a] - 1  # duplicate copies of row a, cost 0
        take_self = min(avail_self, need)
        need -= take_self
        for b in order:
            if need <= 0:
                break
            if b == a:
                continue
            take = min(int(counts[b]), need)
            if take > 0:
                closure = enc.join_rows(closure, u_nodes[b])
                need -= take
        if need > 0:
            raise AnonymityError(
                "internal error: fewer than k records available"
            )
        unique_result[a] = closure

    return unique_result[enc.unique_inverse]


def k1_expansion(model: CostModel, k: int) -> np.ndarray:
    """Algorithm 4: grow each record's set greedily by cheapest increment.

    At every step the candidate minimizing d(S ∪ {R_j}) − d(S) is added
    (first-index tie-break over unique rows).  Note the increment may be
    negative under the entropy measure — generalizing into a subset
    dominated by a frequent value can *reduce* conditional entropy — so
    the argmin is re-evaluated from scratch every step.  The scan
    prices candidate unions against the unique rows bound once with
    :meth:`CostModel.bind` and materializes only the union row actually
    chosen.

    Returns the ``[n, r]`` node matrix of the (k,1)-anonymization.
    """
    _check_k(model, k)
    enc = model.enc
    if k <= 1:
        return enc.singleton_nodes.copy()

    u_nodes = enc.unique_singleton_nodes
    counts = enc.unique_counts
    u = enc.num_unique
    unique_result = np.empty_like(u_nodes)
    candidates = model.bind(u_nodes)

    for a in range(u):
        checkpoint("core.k1.row")
        remaining = counts.copy()
        remaining[a] -= 1
        cur = u_nodes[a].copy()
        cur_cost = float(model.record_cost(cur))
        size = 1
        while size < k:
            checkpoint("core.k1.grow")
            cost_union = candidates.join_costs(cur)  # [u]
            delta = cost_union - cur_cost
            delta[remaining <= 0] = np.inf
            b = int(delta.argmin())
            if not np.isfinite(delta[b]):
                raise AnonymityError(
                    "internal error: fewer than k records available"
                )
            cur = enc.join_rows(u_nodes[b], cur)
            cur_cost = float(cost_union[b])
            remaining[b] -= 1
            size += 1
        unique_result[a] = cur

    return unique_result[enc.unique_inverse]


def k1_optimal_cost(model: CostModel, k: int) -> float:
    """Cost of the *optimal* (k,1)-anonymization, by brute force.

    Implements the O(n^k) exact procedure sketched at the start of
    Section V-B.1: for every record, the best (k−1)-subset of companions.
    Exponential — only for the tiny tables the tests use to validate
    Proposition 5.1's approximation bound.
    """
    from itertools import combinations

    _check_k(model, k)
    enc = model.enc
    n = enc.num_records
    total = 0.0
    for i in range(n):
        others = [j for j in range(n) if j != i]
        best = np.inf
        for companions in combinations(others, k - 1):
            cost = model.cluster_cost((i, *companions))
            if cost < best:
                best = cost
        total += best
    return total / n
