"""Scaling-law experiment: norm identities and flow commutation.

The scaling map sends u(x) to lam^{1/k} u(lam x) and t to t / lam^2.  On
initial data the homogeneous Sobolev norm obeys an exact power law in lam;
the critical index s = 1/2 - 1/k is the unique exponent where the norm is
invariant.  Evolving then rescaling must agree with rescaling then evolving
with the mapped time step, which the pointwise map makes exact up to
rounding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..norms import sobolev_norm
from ..solver import SolverConfig, _check_lambdas, evolve, rescale, rescale_traj
from ..spectral import Field
from .reporting import ExperimentReport

__all__ = ["scaling_invariance_check"]

# The verdict's thresholds: the norm-law gap, and the flow-commutation defect
# relative to the slice magnitude.
_NORM_TOL, _FLOW_TOL = 1e-10, 1e-6


def scaling_invariance_check(
    u0: Field,
    lambda_list: Sequence[float],
    s_list: Sequence[float],
    config: SolverConfig,
) -> ExperimentReport:
    """Check the norm power law and flow commutation for each lambda.

    The power k is config.k.  For every lam and s the measured ratio
    ``sobolev_norm(rescale(u0, lam, k), s) / sobolev_norm(u0, s)`` is
    compared to ``lam ** (s + 1/k - 1/2)``; at the critical index the law
    predicts exactly 1.  Flow commutation evolves ``u0`` with ``config``,
    applies the scaling map to the whole trajectory, and compares against
    evolving the rescaled data with dt and t_end divided by lam^2.  The
    report verdict is PASS when every norm ratio matches its law within
    _NORM_TOL and every commutation defect stays within _FLOW_TOL relative
    to the slice magnitude.
    """
    _check_lambdas(lambda_list)
    k = config.k
    critical = 0.5 - 1.0 / k

    base_norms = {s: sobolev_norm(u0, s, homogeneous=True) for s in s_list}
    base_traj = evolve(u0, config)

    points = []
    worst_norm = 0.0
    worst_flow = 0.0
    for lam in lambda_list:
        scaled = rescale(u0, lam, k)
        for s in s_list:
            measured = sobolev_norm(scaled, s, homogeneous=True) / base_norms[s]
            predicted = lam ** (s + 1.0 / k - 0.5)
            gap = abs(measured - predicted)
            worst_norm = np.maximum(worst_norm, gap)  # a nan gap stays nan
            points.append(
                {
                    "lambda": float(lam),
                    "s": float(s),
                    "norm_ratio": measured,
                    "predicted_ratio": predicted,
                    "gap": gap,
                    "critical": bool(abs(s - critical) < 1e-12),
                }
            )

        mapped = rescale_traj(base_traj, lam)
        direct = evolve(scaled, mapped.config)
        scale = max(np.max(np.abs(direct.slices)), 1e-300)
        defect = float(np.max(np.abs(mapped.slices - direct.slices)) / scale)
        worst_flow = np.maximum(worst_flow, defect)
        points.append({"lambda": float(lam), "flow_defect": defect})

    verdict = "PASS" if worst_norm <= _NORM_TOL and worst_flow <= _FLOW_TOL else "FAIL"
    return ExperimentReport(
        experiment_id="scaling_invariance",
        inputs={
            "k": k,
            "lambda_list": [float(v) for v in lambda_list],
            "s_list": [float(v) for v in s_list],
            "critical_index": critical,
            "dt": config.dt,
            "t_end": config.t_end,
            "norm_tol": _NORM_TOL,
            "flow_tol": _FLOW_TOL,
        },
        points=points,
        verdict=verdict,
        notes=[
            f"worst norm-law gap {worst_norm:.3e} (tolerance {_NORM_TOL:g})",
            f"worst flow-commutation defect {worst_flow:.3e} (tolerance {_FLOW_TOL:g})",
        ],
    )
