"""The four benchmark workloads: inputs from a seed, execution, output checks.

Each workload mirrors the acceptance check that dominates its part of the
test suite, at the size given in ``SIZES["full"]``; ``SIZES["small"]`` is a
reduced size for the benchmark's own tests.  The seed only picks among
inputs of equal cost, so every seed measures the same amount of work.

``execute`` runs inside the benchmark's child process and goes through
gbolab's public entry points only (``gbolab.cli.main``, or the public
experiments API where no subcommand exists).  Everything else runs in the
parent.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

WORKLOADS = ("growth", "oracle", "flow", "estimates")

# The inputs a seed chooses among, all of equal cost.
CHOICES = {
    # (s, theta) pairs of the tier-1 growth fixture; the quadrature uses
    # freq_resolution points per band width whatever the pair.
    "growth": tuple({"s": s, "theta": theta} for s, theta in
                    ((0.2, 0.2), (0.1, 0.2), (0.2, 0.1), (0.2, 0.3))),
    # s only scales the data amplitude of the oracle instance.
    "oracle": tuple({"s": s} for s in (0.1, 0.15, 0.2, 0.25)),
    # Gaussian amplitudes vetted for a PASS verdict of the residual ladder.
    "flow": tuple({"amplitude": a} for a in
                  (0.65, 0.70, 0.725, 0.75, 0.775, 0.80)),
    # Ensemble seeds vetted for a PASS verdict of every estimate ladder.
    "estimates": tuple({"seed": seed} for seed in range(8)),
}

SIZES = {
    "full": {
        "growth": {"T": 1.0, "N_list": [64, 128, 256, 512, 1024],
                   "freq_resolution": 32},
        "oracle": {"N": 32.0, "theta": 0.2, "T": 1.0, "freq_resolution": 32},
        "flow": {"n": 2048, "length": 60.0, "k": 12, "dt": 4e-5,
                 "t_end": 0.16, "strides": [500, 250, 125]},
        "estimates": {"n": 512, "length": 40.0, "T": 0.1, "n_trials": 8,
                      "rungs": 3, "which": "all"},
    },
    "small": {
        "growth": {"T": 1.0, "N_list": [64, 128, 256, 512, 1024],
                   "freq_resolution": 16},
        "oracle": {"N": 8.0, "theta": 0.2, "T": 1.0, "freq_resolution": 32},
        "flow": {"n": 512, "length": 30.0, "k": 12, "dt": 4e-5,
                 "t_end": 0.04, "strides": [200, 100, 50]},
        "estimates": {"n": 512, "length": 40.0, "T": 0.1, "n_trials": 2,
                      "rungs": 2, "which": "all"},
    },
}

# Output-check tolerances.
SLOPE_TOL = 0.005           # ROADMAP gate on the growth slope
BAND_NORM_RTOL = 5e-4       # a faster correct quadrature agrees to ~6e-5
ORACLE_GAP_MAX = 0.05       # acceptance check 7d
ORACLE_GAP_ATOL = 1e-3
RESIDUAL_RTOL = 1e-3
RATIO_RTOL = 1e-5

# The growth slope check (7a/7b) is red by design: FAIL with exit 1 is the
# honest outcome; exit 2 means the quadrature or the config broke.
EXPECTED_EXIT = {"growth": 1, "oracle": 0, "flow": 0, "estimates": 0}


def inputs(workload: str, seed: int, size: str = "full") -> dict:
    """The inputs one seed selects: the sized config plus the seeded choice."""
    choices = CHOICES[workload]
    index = seed % len(choices)
    return {"index": index,
            "params": {**SIZES[size][workload], **choices[index]}}


SUBCOMMANDS = {"growth": "illposed", "flow": "gauge-residual",
               "estimates": "estimates"}


def config_text(workload: str, params: dict) -> str:
    """INI config of a CLI workload (the seed goes in via ``--seed``)."""
    lines = [f"[{SUBCOMMANDS[workload]}]"]
    for key, value in params.items():
        if key == "seed":
            continue
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def execute(workload: str, params: dict, config: str, out_dir: str) -> int:
    """Run one workload through gbolab's public API; return the exit code."""
    import gbolab.cli
    import gbolab.experiments

    if workload == "oracle":
        p = gbolab.experiments.IllposedParams(
            N=params["N"], s=params["s"], theta=params["theta"], T=params["T"],
            freq_resolution=params["freq_resolution"],
        )
        gap = gbolab.experiments.oracle_agreement(p)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "oracle.json").write_text(json.dumps({"gap": gap}) + "\n")
        return 0
    argv = [SUBCOMMANDS[workload], "--config", config, "--out", out_dir]
    if "seed" in params:
        argv += ["--seed", str(params["seed"])]
    return gbolab.cli.main(argv)


def outputs(workload: str, out_dir: Path) -> dict:
    """The numbers of a run's artifacts that the check compares."""
    if workload == "oracle":
        return json.loads((out_dir / "oracle.json").read_text())
    report = json.loads((out_dir / "report.json").read_text())
    out = {"verdict": report["verdict"]}
    points = report.get("points") or []
    if workload == "growth":
        out["slope"] = report.get("slope")
        out["band_norms"] = [p["band_norm"] for p in points]
        out["refinement_disagreement"] = [
            p["refinement_disagreement"] for p in points
        ]
    elif workload == "flow":
        out["residuals"] = [p["residual"] for p in points]
    else:
        out["sup_ratios"] = [p["sup_ratio"] for p in points if "sup_ratio" in p]
        out["drifts"] = [p["drift"] for p in points if "drift" in p]
    return out


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


def _compare_list(name, got, want, rtol) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} values, reference has {len(want)}"]
    return [
        f"{name}[{i}] = {g!r}, reference {w!r} (rtol {rtol:g})"
        for i, (g, w) in enumerate(zip(got, want))
        if not _close(g, w, rtol)
    ]


def check(workload: str, exit_code: int, out: dict, ref: dict) -> list[str]:
    """Problems found comparing one run's outputs with its reference."""
    problems = []
    if exit_code != EXPECTED_EXIT[workload]:
        problems.append(
            f"exit code {exit_code}, expected {EXPECTED_EXIT[workload]}"
        )
    if workload == "oracle":
        gap = out["gap"]
        if not gap <= ORACLE_GAP_MAX:
            problems.append(f"oracle gap {gap!r} above {ORACLE_GAP_MAX}")
        if not abs(gap - ref["gap"]) <= ORACLE_GAP_ATOL:
            problems.append(f"oracle gap {gap!r}, reference {ref['gap']!r}")
        return problems
    if out["verdict"] != ref["verdict"]:
        problems.append(f"verdict {out['verdict']}, reference {ref['verdict']}")
    if workload == "growth":
        slope = out["slope"]
        if slope is None or not abs(slope - ref["slope"]) <= SLOPE_TOL:
            problems.append(
                f"slope {slope!r}, reference {ref['slope']!r} (tol {SLOPE_TOL})"
            )
        problems += _compare_list(
            "band_norm", out["band_norms"], ref["band_norms"], BAND_NORM_RTOL
        )
    elif workload == "flow":
        problems += _compare_list(
            "residual", out["residuals"], ref["residuals"], RESIDUAL_RTOL
        )
    else:
        problems += _compare_list(
            "sup_ratio", out["sup_ratios"], ref["sup_ratios"], RATIO_RTOL
        )
        problems += _compare_list(
            "drift", out["drifts"], ref["drifts"], RATIO_RTOL
        )
    return problems
