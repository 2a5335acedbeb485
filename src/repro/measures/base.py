"""Information-loss measure interfaces and the cost model.

The paper evaluates anonymizations with measures of the form

    Π(D, g(D)) = (1/n) Σ_i c(R̄_i),    c(R̄) = (1/r) Σ_j cost_j(R̄(j))

(eq. 3, 4, 7): the per-record cost is the mean, over attributes, of a cost
that depends only on the chosen generalized subset.  A
:class:`LossMeasure` therefore boils down to one vector per attribute —
the cost of each permissible subset ("node") — and a :class:`CostModel`
binds those vectors to an encoded table so that record, cluster and table
costs become numpy lookups.

Two further interfaces cover the related-work measures that do not fit
the node-cost mold: :class:`RecordLossMeasure` (per-entry cost that also
depends on the original value, e.g. non-uniform entropy [10]) and
:class:`ClusteringMeasure` (cost of a clustering as a whole, e.g. DM [6]
and CM [11]).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.errors import SchemaError
from repro.tabular.encoding import EncodedAttribute, EncodedTable


class LossMeasure(ABC):
    """A node-decomposable information-loss measure.

    Subclasses implement :meth:`node_costs`; everything else (record,
    cluster, table costs; distance functions; all of Section V) is generic.
    """

    #: Short identifier used by the registry and in experiment reports.
    name: str = "abstract"

    #: Whether node costs are monotone under subset containment
    #: (B ⊆ B' implies cost(B) ≤ cost(B')).  True for the structural
    #: measures (LM, tree, MW); false for the data-dependent entropy
    #: measure, whose cost can *drop* when a dominant value joins a
    #: subset.  The verification harness checks the claim when set.
    monotone: bool = False

    #: Whether node costs always lie in [0, 1].  True for the structural
    #: measures; false for entropy, which is bounded by log2 of the
    #: domain size instead.  Checked by the verification harness.
    bounded_unit: bool = False

    @abstractmethod
    def node_costs(
        self, attribute: EncodedAttribute, value_counts: np.ndarray
    ) -> np.ndarray:
        """Per-node cost vector for one attribute.

        Parameters
        ----------
        attribute:
            The encoded attribute (node sizes, domain size, ...).
        value_counts:
            Empirical count of each domain value in the table — the
            distribution ``Pr(X_j = a)`` of Definition 4.3.

        Returns
        -------
        ``float64[num_nodes]`` with ``cost[singleton] == 0`` expected of
        any sane measure (no generalization, no loss).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RecordLossMeasure(ABC):
    """An entry-level measure: cost depends on (original value, node).

    Evaluation-only — these measures cannot drive the clustering
    algorithms (their cluster cost is not a function of the closure
    alone), but :func:`evaluate_record_measure` scores any finished
    generalization with them.
    """

    name: str = "abstract-record"

    @abstractmethod
    def entry_costs(
        self, attribute: EncodedAttribute, value_counts: np.ndarray
    ) -> np.ndarray:
        """``float64[num_values, num_nodes]`` cost of publishing node ``b``
        for a record whose true value is ``v``.  Entries with ``v ∉ b``
        are never read and may hold anything (conventionally ``inf``)."""


class ClusteringMeasure(ABC):
    """A measure of a clustering as a whole (DM, CM).

    Evaluation-only; see :mod:`repro.measures.discernibility` and
    :mod:`repro.measures.classification`.
    """

    name: str = "abstract-clustering"

    @abstractmethod
    def clustering_cost(
        self, enc: EncodedTable, clusters: Sequence[Sequence[int]]
    ) -> float:
        """Cost of a partition of the records into clusters."""


class CostModel:
    """A :class:`LossMeasure` bound to an :class:`EncodedTable`.

    Precomputes the per-attribute node-cost vectors once; all cost queries
    after that are numpy fancy-indexing.  This object is what every
    algorithm in :mod:`repro.core` consumes.

    Parameters
    ----------
    enc, measure:
        The table and the loss measure.
    weights:
        Optional per-attribute importance weights.  The paper's measures
        weigh attributes uniformly (the ``1/r`` in eqs. 3–4); passing
        weights reweighs them (normalized to sum to 1), so e.g. a
         5-identifying ``age`` can count five times a binary ``sex``.
        The weights are folded into the node-cost vectors, so every
        algorithm transparently optimizes the weighted objective.
    """

    __slots__ = ("enc", "measure", "node_costs", "weights", "_join_tables")

    def __init__(
        self,
        enc: EncodedTable,
        measure: LossMeasure,
        weights: Sequence[float] | None = None,
    ) -> None:
        self.enc = enc
        self.measure = measure
        r = enc.num_attributes
        if weights is None:
            scale = np.full(r, 1.0, dtype=np.float64)
        else:
            scale = np.asarray(weights, dtype=np.float64)
            if scale.shape != (r,):
                raise SchemaError(
                    f"{scale.size} weights for {r} attributes"
                )
            if (scale < 0).any() or scale.sum() <= 0:
                raise SchemaError(
                    "attribute weights must be non-negative with positive sum"
                )
            # Normalize so Π keeps the per-entry-average interpretation.
            scale = scale * (r / scale.sum())
        self.weights = scale
        costs = []
        for j, (att, counts) in enumerate(zip(enc.attrs, enc.value_counts)):
            vec = np.asarray(
                measure.node_costs(att, counts), dtype=np.float64
            )
            if vec.shape != (att.num_nodes,):
                raise SchemaError(
                    f"measure {measure.name!r} returned shape {vec.shape} for an "
                    f"attribute with {att.num_nodes} nodes"
                )
            costs.append(vec * scale[j])
        self.node_costs: tuple[np.ndarray, ...] = tuple(costs)
        self._join_tables: (
            tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]
            | None
        ) = None

    # ------------------------------------------------------------------ #
    # cost queries
    # ------------------------------------------------------------------ #

    def record_cost(self, nodes: np.ndarray) -> np.ndarray | float:
        """c(R̄) for one node vector ``[r]`` or many ``[*, r]``.

        The cost is the mean of per-attribute node costs, matching the
        ``1/r`` normalization in eqs. (3) and (4).
        """
        nodes = np.asarray(nodes)
        r = len(self.node_costs)
        if nodes.ndim == 1:
            return float(
                sum(self.node_costs[j][nodes[j]] for j in range(r)) / r
            )
        total = np.zeros(nodes.shape[:-1], dtype=np.float64)
        for j in range(r):
            total += self.node_costs[j][nodes[..., j]]
        return total / r

    def join_cost_tables(self) -> tuple[np.ndarray, ...]:
        """Attribute j's fused table ``node_costs[j][join_j]``: entry
        ``(a, b)`` is the cost of the union of nodes a and b.

        Built once, on first use, as read-only views into the flat
        store that :meth:`join_costs` gathers from, so the composition
        of node costs with joins lives here only.
        """
        fused = self._join_tables
        if fused is None:
            fused = self._build_join_tables()
        return fused[0]

    def _build_join_tables(
        self,
    ) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]:
        tables = [
            self.node_costs[j][att.join] for j, att in enumerate(self.enc.attrs)
        ]
        # Entry (a, b) of attribute j's table lives at
        # offset[j] + a * scale[j] + b of the flattened concatenation.
        scale = np.array([t.shape[1] for t in tables], dtype=np.int64)
        sizes = np.array([t.size for t in tables], dtype=np.int64)
        offset = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        flat = np.concatenate([t.ravel() for t in tables])
        flat.flags.writeable = False
        views = tuple(
            flat[o : o + t.size].reshape(t.shape) for o, t in zip(offset, tables)
        )
        self._join_tables = (views, flat, scale, offset)
        return self._join_tables

    def join_costs(self, nodes_a: np.ndarray, node_b: np.ndarray) -> np.ndarray:
        """Union record costs of every row of ``nodes_a`` with ``node_b``.

        Exactly ``record_cost(enc.join_rows(nodes_a, node_b))`` — same
        floats, same accumulation order — without materializing the
        union rows: one linearized gather reads every attribute's entry
        of :meth:`join_cost_tables` at once.  Scans whose candidate set
        changes between steps price through this method; fixed sets
        use :meth:`bind`.
        """
        fused = self._join_tables
        if fused is None:
            fused = self._build_join_tables()
        _, flat, scale, offset = fused
        picked = flat[np.asarray(nodes_a) * scale + (offset + node_b)]
        r = len(self.node_costs)
        total = np.zeros(picked.shape[0], dtype=np.float64)
        # Sequential, like record_cost: a vectorized sum would
        # reassociate the additions for wide schemas.
        for j in range(r):
            total += picked[:, j]
        return total / r

    def bind(self, candidates: np.ndarray) -> BoundCandidates:
        """Bind a candidate set ``[m, r]`` that stays fixed for one call.

        Scans that price many nodes against the same candidates
        (Algorithms 3 and 4, the dense matrix fill) read the returned
        object instead of :meth:`join_costs`, which stays the kernel
        for candidate sets that change between steps.
        """
        return BoundCandidates(self, candidates)

    def table_cost(self, node_matrix: np.ndarray) -> float:
        """Π(D, g(D)) of a full ``[n, r]`` node matrix (eq. 3 / 4 form)."""
        node_matrix = np.asarray(node_matrix)
        if node_matrix.shape[0] != self.enc.num_records:
            raise SchemaError(
                f"node matrix has {node_matrix.shape[0]} rows, table has "
                f"{self.enc.num_records} records"
            )
        costs = self.record_cost(node_matrix)
        return float(np.mean(costs))

    def cluster_cost(self, record_indices: Sequence[int]) -> float:
        """d(S) = c(closure(S)) for a set of record indices (eq. 7)."""
        nodes = self.enc.closure_of_records(record_indices)
        return float(self.record_cost(nodes))

    def clustering_cost(self, clusters: Sequence[Sequence[int]]) -> float:
        """Π of the generalization induced by a clustering:
        Σ_S |S|·d(S) / n  (eq. 7)."""
        n = self.enc.num_records
        total = 0.0
        covered = 0
        for cluster in clusters:
            total += len(cluster) * self.cluster_cost(cluster)
            covered += len(cluster)
        if covered != n:
            raise SchemaError(
                f"clustering covers {covered} records, table has {n}"
            )
        return total / n


class BoundCandidates:
    """Union costs against a fixed candidate set ``[m, r]``.

    Attribute j's table of :meth:`CostModel.join_cost_tables` is cut
    once to the candidates' columns, a C-contiguous ``[num_nodes_j, m]``
    array whose row ``a`` prices node ``a`` against every candidate.  A
    read adds ``r`` such rows in ``record_cost``'s attribute order: the
    floats of :meth:`CostModel.join_costs`, as join tables are symmetric.
    """

    __slots__ = ("_tables",)

    def __init__(self, model: CostModel, candidates: np.ndarray) -> None:
        # np.take, unlike ``table[:, cols]``, returns C-ordered rows.
        self._tables = tuple(
            np.take(table, candidates[:, j], axis=1)
            for j, table in enumerate(model.join_cost_tables())
        )

    def join_costs(self, node: np.ndarray) -> np.ndarray:
        """``float64[m]``: union cost of ``node`` with every candidate."""
        tables = self._tables
        total = np.zeros(tables[0].shape[1], dtype=np.float64)
        for j, table in enumerate(tables):
            total += table[node[j]]
        total /= len(tables)
        return total

    def join_cost_block(self, nodes: np.ndarray) -> np.ndarray:
        """``float64[B, m]``: :meth:`join_costs` of each row of ``nodes``."""
        tables = self._tables
        total = np.zeros((nodes.shape[0], tables[0].shape[1]), dtype=np.float64)
        for j, table in enumerate(tables):
            total += table[nodes[:, j]]
        total /= len(tables)
        return total


def evaluate_record_measure(
    enc: EncodedTable, measure: RecordLossMeasure, node_matrix: np.ndarray
) -> float:
    """Score a finished generalization with an entry-level measure.

    Returns the mean entry cost over all n·r entries, the direct analogue
    of eqs. (3)/(4) for value-dependent costs.
    """
    node_matrix = np.asarray(node_matrix)
    n, r = node_matrix.shape
    if n != enc.num_records or r != enc.num_attributes:
        raise SchemaError(
            f"node matrix has shape {node_matrix.shape}, expected "
            f"{(enc.num_records, enc.num_attributes)}"
        )
    total = 0.0
    for j, (att, counts) in enumerate(zip(enc.attrs, enc.value_counts)):
        table = np.asarray(measure.entry_costs(att, counts), dtype=np.float64)
        total += float(table[enc.codes[:, j], node_matrix[:, j]].sum())
    return total / (n * r)
