"""Report containers and writers shared by the experiment suites.

Every artifact embeds the code version and the sign convention of the free
propagator so a saved report is interpretable without the producing session.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import __version__
from ..spectral import sign_convention_label


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

    def to_dict(self) -> dict:
        return {
            "id": self.experiment_id,
            "params": _plain(self.inputs),
            "points": _plain(self.points),
            "slope": _plain(self.slope),
            "ci": _plain(self.ci),
            "verdict": self.verdict,
            "notes": list(self.notes),
            "seed": self.seed,
            "sign_convention": sign_convention_label(),
            "code_version": __version__,
        }


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_report_csv(report: ExperimentReport, path: str) -> None:
    """Companion CSV: one row per point, columns from the point dicts."""
    points = [_plain(p) for p in report.points]
    if not points:
        with open(path, "w") as fh:
            fh.write("")
        return
    keys = sorted({k for p in points for k in p})
    lines = [",".join(keys)]
    for p in points:
        lines.append(",".join(_csv_cell(p.get(k)) for k in keys))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)
