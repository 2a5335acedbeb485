"""The cluster distance functions of Section V-A.2.

All four distances (and the Nergiz–Clifton asymmetric variant mentioned
at the end of that section) are functions of five quantities only:

    |A|, d(A), |B|, d(B), d(A ∪ B)

where ``d`` is the generalization cost of a cluster under the active
measure (eq. 7).  Implementations are numpy-vectorized over the "B" side
so the agglomerative engine can score one cluster against all others in
a single call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ExperimentError

ArrayLike = "np.ndarray | float"


class ClusterDistance(ABC):
    """A distance between clusters, in terms of sizes and costs.

    ``evaluate`` broadcasts: the ``a``-side arguments are scalars (the
    cluster being merged), the ``b``-side and ``cost_union`` may be numpy
    arrays scoring many candidate partners at once.
    """

    #: Registry name, e.g. ``"d3"``.
    name: str = "abstract"
    #: Paper equation number, for reports.
    equation: str = ""

    @abstractmethod
    def evaluate(
        self,
        size_a,
        cost_a,
        size_b,
        cost_b,
        cost_union,
    ):
        """Distance value(s); smaller means "merge these first"."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class WeightedDelta(ClusterDistance):
    """Distance function 1 (eq. 8):
    ``|A∪B|·d(A∪B) − |A|·d(A) − |B|·d(B)``.

    The exact increase in the clustering objective Σ|S|·d(S) caused by
    the merge; favours unifying small clusters, giving balanced growth.
    """

    name = "d1"
    equation = "(8)"

    def evaluate(self, size_a, cost_a, size_b, cost_b, cost_union):
        return (size_a + size_b) * cost_union - size_a * cost_a - size_b * cost_b


class PlainDelta(ClusterDistance):
    """Distance function 2 (eq. 9): ``d(A∪B) − d(A) − d(B)``.

    May be negative (not a metric); produces unbalanced cluster growth,
    which the paper found preferable to balanced growth.
    """

    name = "d2"
    equation = "(9)"

    def evaluate(self, size_a, cost_a, size_b, cost_b, cost_union):
        return cost_union - cost_a - cost_b


class LogNormalizedDelta(ClusterDistance):
    """Distance function 3 (eq. 10):
    ``(d(A∪B) − d(A) − d(B)) / log(|A∪B|)``.

    The division prioritizes adding records to *larger* clusters, pushing
    the unbalanced-growth idea one step further; one of the two
    consistently-best choices in the paper's experiments.
    """

    name = "d3"
    equation = "(10)"

    def evaluate(self, size_a, cost_a, size_b, cost_b, cost_union):
        return (cost_union - cost_a - cost_b) / np.log2(size_a + size_b)


class RatioDistance(ClusterDistance):
    """Distance function 4 (eq. 11): ``d(A∪B) / (d(A) + d(B) + ε)``.

    The factor by which the merge inflates the summed costs; ε (paper
    value 0.1) handles singleton pairs whose costs are both zero.  The
    other consistently-best choice in the paper's experiments.
    """

    name = "d4"
    equation = "(11)"

    def __init__(self, epsilon: float = 0.1) -> None:
        if epsilon <= 0:
            raise ExperimentError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = epsilon

    def evaluate(self, size_a, cost_a, size_b, cost_b, cost_union):
        return cost_union / (cost_a + cost_b + self.epsilon)

    def __repr__(self) -> str:
        return f"RatioDistance(epsilon={self.epsilon})"


class NergizCliftonDelta(ClusterDistance):
    """The asymmetric variant ``d(A∪B) − d(B)`` of Nergiz & Clifton [17],
    noted at the end of Section V-A.2.  Included for the distance-function
    ablation."""

    name = "nc"
    equation = "[17]"

    def evaluate(self, size_a, cost_a, size_b, cost_b, cost_union):
        return cost_union - cost_b


_DISTANCES: dict[str, type[ClusterDistance]] = {
    "d1": WeightedDelta,
    "d2": PlainDelta,
    "d3": LogNormalizedDelta,
    "d4": RatioDistance,
    "nc": NergizCliftonDelta,
}


def get_distance(name: str) -> ClusterDistance:
    """Instantiate the distance function called ``name`` (d1..d4, nc)."""
    try:
        cls = _DISTANCES[name.lower()]
    except KeyError:
        raise ExperimentError(
            f"unknown distance {name!r}; known distances: {sorted(_DISTANCES)}"
        ) from None
    return cls()


def distance_names() -> list[str]:
    """All registered distance names, paper order first."""
    return ["d1", "d2", "d3", "d4", "nc"]
