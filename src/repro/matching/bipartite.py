"""The consistency graph ``V_{D, g(D)}`` (Section IV).

The bipartite graph has the original records on the left, the generalized
records on the right, and an edge wherever the two are consistent
(Definition 3.3).  Anonymity notions read off it directly:

* (1,k): every left vertex has degree ≥ k;
* (k,1): every right vertex has degree ≥ k;
* (k,k): both;
* global (1,k): every left vertex has ≥ k *allowed* neighbours
  (:mod:`repro.matching.allowed`).

Construction is vectorized: identical original rows have identical
neighbourhoods, so consistency is evaluated once per unique row against
all generalized records.  Each attribute's ancestor table is cut once to
the generalized records' columns, so a unique row's sweep ANDs one
contiguous boolean row per attribute.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.runtime import checkpoint
from repro.tabular.encoding import EncodedTable


class ConsistencyGraph:
    """The bipartite consistency graph of a table and a generalization.

    Attributes
    ----------
    adjacency:
        ``adjacency[i]`` — sorted numpy array of generalized-record
        indices consistent with original record ``i``.
    """

    __slots__ = ("enc", "node_matrix", "adjacency", "_reverse_degrees")

    def __init__(self, enc: EncodedTable, node_matrix: NDArray[np.int64]) -> None:
        node_matrix = np.asarray(node_matrix)
        n = enc.num_records
        if node_matrix.shape != (n, enc.num_attributes):
            raise ValueError(
                f"node matrix has shape {node_matrix.shape}, expected "
                f"{(n, enc.num_attributes)}"
            )
        self.enc = enc
        self.node_matrix = node_matrix

        # ``cut[j][v, i]``: does value v lie in record i's node for j?
        # np.take keeps each row contiguous, unlike ``anc[:, cols]``.
        cut = [
            np.take(att.anc, node_matrix[:, j], axis=1)
            for j, att in enumerate(enc.attrs)
        ]
        # One consistency sweep per unique original row; right-side
        # degrees count each unique row's neighbours once per copy.
        unique_neighbours: list[NDArray[np.intp]] = []
        counts = np.zeros(n, dtype=np.int64)
        for row, copies in zip(enc.unique_codes, enc.unique_counts):
            checkpoint("matching.bipartite.row")
            mask = np.ones(n, dtype=bool)
            for j, table in enumerate(cut):
                mask &= table[row[j]]
            neighbours = np.flatnonzero(mask)
            unique_neighbours.append(neighbours)
            counts[neighbours] += copies
        self.adjacency: list[NDArray[np.intp]] = [
            unique_neighbours[enc.unique_inverse[i]] for i in range(n)
        ]
        self._reverse_degrees = counts

    @property
    def num_records(self) -> int:
        """Number of records on each side."""
        return self.enc.num_records

    def left_degrees(self) -> NDArray[np.int64]:
        """Degree of every original record (its number of neighbours)."""
        return np.array([len(a) for a in self.adjacency], dtype=np.int64)

    def right_degrees(self) -> NDArray[np.int64]:
        """Degree of every generalized record."""
        return self._reverse_degrees.copy()

    def num_edges(self) -> int:
        """Total number of consistency edges."""
        return int(sum(len(a) for a in self.adjacency))

    def adjacency_lists(self) -> list[list[int]]:
        """Plain-list adjacency, as the matching routines expect."""
        return [a.tolist() for a in self.adjacency]

    def __repr__(self) -> str:
        return (
            f"ConsistencyGraph(n={self.num_records}, m={self.num_edges()})"
        )
