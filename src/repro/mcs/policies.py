"""The cell-selection policy interface.

A policy decides, given everything collected so far, which cell to sense
next in the current cycle.  The campaign runner calls ``begin_cycle`` once
per cycle, then ``select_cell`` repeatedly until the quality assessor is
satisfied, then ``end_cycle``.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np


class CellSelectionPolicy(abc.ABC):
    """Abstract cell-selection policy driven by the campaign cycle loop.

    Every runner (:class:`~repro.mcs.campaign.CampaignRunner`,
    :class:`~repro.mcs.campaign.BatchedCampaignRunner`,
    :class:`~repro.mcs.served.ServedCampaignRunner`) calls the hooks in the
    same order: ``begin_cycle``, then ``select_cell`` once per submission
    until the cycle stops, then ``end_cycle``.  The served runner answers
    agent-backed policies' queries on the server instead of calling
    ``select_cell``.
    """

    #: Short display name used in experiment reports.
    name: str = "policy"

    def begin_cycle(self, cycle: int, observed_matrix: np.ndarray) -> None:
        """Hook called at the start of each sensing cycle.

        ``observed_matrix`` holds everything collected in earlier cycles
        (NaN for unobserved entries); column ``cycle`` is still entirely NaN.
        """

    @abc.abstractmethod
    def select_cell(
        self,
        observed_matrix: np.ndarray,
        cycle: int,
        sensed_mask: np.ndarray,
    ) -> int:
        """Return the index of the next cell to sense in ``cycle``.

        Parameters
        ----------
        observed_matrix:
            Cells × cycles matrix of collected data so far (NaN = unobserved),
            including the current cycle's partial observations.
        cycle:
            Index of the current cycle.
        sensed_mask:
            Boolean vector; True for cells already sensed in this cycle.  The
            returned cell must be one where ``sensed_mask`` is False.
        """

    def end_cycle(self, cycle: int, observed_matrix: np.ndarray) -> None:
        """Hook called when the current cycle's data collection terminates."""

    @staticmethod
    def _validate_selection(cell: int, sensed_mask: np.ndarray) -> int:
        """Shared guard: the chosen cell must exist and be unsensed."""
        cell = int(cell)
        if not 0 <= cell < sensed_mask.shape[0]:
            raise ValueError(f"cell {cell} out of range [0, {sensed_mask.shape[0]})")
        if sensed_mask[cell]:
            raise ValueError(f"cell {cell} was already sensed in this cycle")
        return cell

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
