"""The record types that the experiments return: an experiment's report and
its named checks.  They hold results only; the CLI writes them out as its run
artifacts."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field


# The estimates check: each ladder's drift (linear_ratios.ladder_drift) must stay below it.
_DRIFT_LIMIT = 2.0

_RELATIONS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class _Check:
    """One condition of a verdict: ``value relation bound``, e.g. a drift <= its
    tolerance.  A NaN value passes no relation."""

    name: str
    value: float | bool
    relation: str
    bound: float | bool

    @property
    def passes(self) -> bool:
        return bool(_RELATIONS[self.relation](self.value, self.bound))


@dataclass
class ExperimentReport:
    """Uniform result record: inputs, per-point data, fit, named checks.

    The checks have no default: the producing experiment states each one
    against its constant threshold, and the verdict is PASS iff every check
    passes.  slope/ci are None for experiments that do not fit anything.
    """

    inputs: dict
    points: list
    checks: list
    slope: float | None = None
    ci: float | None = None
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if not self.checks:
            raise ValueError("a report needs at least one check")

    @property
    def verdict(self) -> str:
        return "PASS" if all(check.passes for check in self.checks) else "FAIL"
