"""Blocked agglomerative anonymization — the §VII scalability item.

The paper's conclusions ask for "more scalable algorithms".  The
agglomerative engine is O(n²) with an O(n²) memory footprint (the
pairwise matrix), which binds at n in the tens of thousands.  This
module implements the natural blocking scheme:

1. *Pre-partition* the records into blocks of bounded size with the
   (cheap, O(n log n)) Mondrian median splitter — which groups records
   that are already close in the quasi-identifier space;
2. run the full Algorithm 1/2 machinery *within* each block.

Each block is anonymized independently, so the result is k-anonymous
(every within-block cluster has ≥ k records), total time drops to
O(n·B) for block size B, and the distance matrix shrinks to B².  The
price is merges that can no longer cross block boundaries; the
`bench_scalable.py` benchmark quantifies the quality loss (typically a
few percent) against the wall-clock gain.
"""

from __future__ import annotations

import numpy as np

from repro.core.agglomerative import agglomerative_clustering
from repro.core.clustering import Clustering
from repro.core.distances import ClusterDistance
from repro.errors import AnonymityError
from repro.measures.base import CostModel
from repro.runtime import checkpoint
from repro.tabular.encoding import EncodedTable
from repro.tabular.table import Table


def _partition_blocks(
    enc: EncodedTable, block_size: int, k: int
) -> list[np.ndarray]:
    """Mondrian-style median splits until blocks fit ``block_size``.

    Splits keep both sides ≥ max(k, block_size // 4) so no block ever
    drops below k records.  A block no attribute can split that way
    (near-uniform or heavily skewed values) is halved by index: both
    halves hold ≥ block_size // 2 ≥ k records, so every block ends
    ≤ block_size.
    """
    floor = max(k, block_size // 4)
    blocks: list[np.ndarray] = []
    queue: list[np.ndarray] = [np.arange(enc.num_records, dtype=np.int64)]
    # repro: allow[REP011] emits blocks of >= block_size//4 records, at most 4n/block_size rounds; each block hits core.scalable.block
    while queue:
        members = queue.pop()
        if len(members) <= block_size:
            blocks.append(members)
            continue
        codes = enc.codes[members]
        order = np.argsort(
            [-len(np.unique(codes[:, j])) for j in range(enc.num_attributes)],
            kind="stable",
        )
        split = None
        for j in order:
            column = codes[:, j]
            if len(np.unique(column)) < 2:
                continue
            median = np.median(column)
            left_mask = column <= median
            if left_mask.all():
                left_mask = column < median
            left, right = members[left_mask], members[~left_mask]
            if len(left) >= floor and len(right) >= floor:
                split = (left, right)
                break
        if split is None:
            half = len(members) // 2
            split = (members[:half], members[half:])
        queue.extend(split)
    return blocks


def blocked_agglomerative(
    model: CostModel,
    k: int,
    distance: ClusterDistance,
    block_size: int = 512,
    modified: bool = False,
) -> Clustering:
    """Algorithm 1/2 inside Mondrian blocks of at most ``block_size``.

    Parameters
    ----------
    model:
        Cost model over the full table.
    k:
        Anonymity parameter.
    distance:
        Cluster distance for the within-block agglomeration.
    block_size:
        Upper bound on block size; the O(n²) engine only ever sees
        tables this large.  Must be ≥ 2k so blocks can host at least
        two clusters.
    modified:
        Forwarded to the within-block engine (Algorithm 2 shrinking).

    Returns
    -------
    A :class:`Clustering` of the full table with every cluster ≥ k.
    """
    enc = model.enc
    n = enc.num_records
    if n == 0:
        raise AnonymityError("cannot anonymize an empty table")
    if k > n:
        raise AnonymityError(f"k={k} exceeds the number of records n={n}")
    if block_size < 2 * k:
        raise AnonymityError(
            f"block_size={block_size} must be at least 2k={2 * k}"
        )
    if k <= 1:
        return Clustering(n, [[i] for i in range(n)])

    blocks = _partition_blocks(enc, block_size, k)
    clusters: list[list[int]] = []
    for members in blocks:
        checkpoint("core.scalable.block")
        sub_model = _borrow_costs(model, _encode_subset(enc, members))
        sub_clustering = agglomerative_clustering(
            sub_model, k, distance, modified=modified
        )
        for cluster in sub_clustering.clusters:
            clusters.append([int(members[i]) for i in cluster])
    return Clustering(n, clusters)


def _encode_subset(parent: EncodedTable, members: np.ndarray) -> EncodedTable:
    """An encoded view of a subset of records, sharing the parent's
    per-attribute lookup tables (join/ancestor tables are schema-level,
    so rebuilding them per block would dominate the runtime)."""
    sub = EncodedTable.__new__(EncodedTable)
    index_list = [int(i) for i in members]
    sub.table = parent.table.subset(index_list)
    sub.schema = parent.schema
    sub.attrs = parent.attrs
    sub.codes = parent.codes[members]
    sub.singleton_nodes = parent.singleton_nodes[members]
    uniq, inverse, counts = np.unique(
        sub.codes, axis=0, return_inverse=True, return_counts=True
    )
    sub.unique_codes = uniq.astype(np.int32)
    sub.unique_inverse = inverse.astype(np.int64)
    sub.unique_counts = counts.astype(np.int64)
    sub.unique_singleton_nodes = np.empty_like(sub.unique_codes)
    # repro: allow[REP011] iterates schema attributes while building one block's sub-table
    for j, att in enumerate(sub.attrs):
        sub.unique_singleton_nodes[:, j] = att.singleton[sub.unique_codes[:, j]]
    # Keep the FULL table's distribution: eq. (3) conditions on the whole
    # database, and the borrowed cost model was built from it anyway.
    sub.value_counts = parent.value_counts
    # Closure memos are keyed by value sets, which are schema-level, so
    # the sub-table can share (and extend) the parent's cache; the flat
    # join tables are schema-level too and shared outright.
    sub._closure_cache = parent._closure_cache
    sub._join_flat = parent._join_flat
    sub._join_offsets = parent._join_offsets
    sub._join_cols = parent._join_cols
    return sub


def _borrow_costs(parent: CostModel, sub_enc: EncodedTable) -> CostModel:
    """A cost model over a sub-table that keeps the parent's node costs.

    The schema (and hence the node indexing) is shared, so the parent's
    per-node cost vectors — computed from the *full* table's value
    distribution, as eq. (3) prescribes — apply verbatim.
    """
    borrowed = CostModel.__new__(CostModel)
    borrowed.enc = sub_enc
    borrowed.measure = parent.measure
    borrowed.node_costs = parent.node_costs
    borrowed._join_tables = parent._join_tables  # schema-level, shareable
    return borrowed
