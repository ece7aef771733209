"""Reference machinery that tests compare the production engines against.

:class:`MatrixNSGA2` is :class:`~repro.core.nsga2.NSGA2` with the
textbook O(N²) environmental selection: dominance-matrix front peeling
(:func:`~repro.core.sorting.fast_nondominated_sort` with
``method="matrix"``), fronts taken whole in rank order, the boundary
front truncated by crowding distance, and ranks recomputed from scratch
for every tournament.  It draws from the RNG exactly as :class:`NSGA2`
does, so for the same seed the production engine's populations must
equal it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.crowding import crowding_truncate
from repro.core.nsga2 import NSGA2
from repro.core.population import Population
from repro.core.sorting import fast_nondominated_sort, fronts_from_ranks
from repro.types import IntArray

__all__ = ["MatrixNSGA2"]


class MatrixNSGA2(NSGA2):
    """NSGA-II on the dominance-matrix sort, without rank reuse."""

    def _parent_ranks(self) -> IntArray:
        return fast_nondominated_sort(
            self.population.objectives, method="matrix"
        )

    def _environmental_selection(self, meta: Population) -> Population:
        N = self.config.population_size
        ranks = fast_nondominated_sort(meta.objectives, method="matrix")
        selected: list[np.ndarray] = []
        count = 0
        for front in fronts_from_ranks(ranks):
            if count + front.size < N:
                selected.append(front)
                count += front.size
                continue
            subset = crowding_truncate(meta.objectives[front], N - count)
            selected.append(front[subset])
            break
        return meta.select(np.concatenate(selected))
