"""The record types that the experiments return: an experiment's report and
an estimate's ratio statistics.  They hold results only; the CLI writes them
out as its run artifacts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# The estimates verdict: the ladder drift (largest / least sup ratio) must stay below it.
_DRIFT_LIMIT = 2.0


@dataclass
class RatioStatistics:
    """Per-trial LHS/RHS ratios for one linear estimate, plus the ladder.

    ratios holds the finest-rung value for each trial; resolution_ladder
    holds (n_points, sup_ratio) pairs for each refinement rung, coarsest
    first.  A stable estimate keeps sup_ratio within a factor _DRIFT_LIMIT
    along the ladder.
    """

    ratios: list
    resolution_ladder: list

    def __post_init__(self):
        arr = np.asarray(self.ratios, dtype=float)
        if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0)):
            raise ValueError("ratios must be positive and finite")

    @property
    def ladder_drift(self) -> float:
        sups = [s for _, s in self.resolution_ladder]
        return max(sups) / min(sups)

    def passes(self) -> bool:
        return self.ladder_drift < _DRIFT_LIMIT


@dataclass
class ExperimentReport:
    """Uniform result record: inputs, per-point data, fit, verdict.

    The verdict has no default: the producing experiment computes it from
    its constant thresholds, and it is never patched afterwards.  slope/ci
    are None for experiments that do not fit anything.
    """

    experiment_id: str
    inputs: dict
    points: list
    verdict: str
    slope: float | None = None
    ci: float | None = None
    notes: list = field(default_factory=list)
    seed: int | None = None
