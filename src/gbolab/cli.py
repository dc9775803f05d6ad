"""Command-line driver: one config section per subcommand, three artifacts
per run (report.json, series.csv, summary.txt), exit 0 iff every verdict
is PASS."""

from __future__ import annotations

import argparse
import configparser
import io
import json
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .experiments.illposed import QuadratureError, illposed_growth_fit
from .experiments.linear_ratios import (
    kato_smoothing_ratio,
    lowfreq_ratio,
    maximal_function_ratio,
    xst_group_ratio,
)
from .experiments.packets import make_packet_ensemble
from .experiments.reporting import (
    ExperimentReport,
    write_report_csv,
    write_report_json,
)
from .experiments.scaling import scaling_invariance_check
from .gauge import gauge_equation_residual
from .norms import norm_family_audit
from .solver import BlowUpError, SolverConfig, Trajectory, evolve
from .spectral import field_from_values, make_grid, sign_convention_label

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


class ConfigError(ValueError):
    """Bad run configuration: unknown key, missing key, bad value."""


# ---------------------------------------------------------------------------
# Config schemas: key -> (parser, required, default).


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _floats(text: str) -> list[float]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise ValueError("empty list")
    return [float(p) for p in parts]


def _ints(text: str) -> list[int]:
    return [int(p) for p in text.replace(",", " ").split()]


_REQUIRED = object()

_SCHEMAS: dict[str, dict] = {
    "simulate": {
        "n": (int, _REQUIRED),
        "length": (float, _REQUIRED),
        "k": (int, _REQUIRED),
        "sign": (str, "minus"),
        "rescaled": (_bool, False),
        "dt": (float, _REQUIRED),
        "t_end": (float, _REQUIRED),
        "dealias": (str, "two_thirds"),
        "slice_stride": (int, 1),
        "amplitude": (float, _REQUIRED),
        "width": (float, 1.0),
        "mass_tol": (float, 1e-10),
        "l2_tol": (float, 1e-6),
        "seed": (int, 0),
    },
    "gauge-residual": {
        "n": (int, _REQUIRED),
        "length": (float, _REQUIRED),
        "k": (int, _REQUIRED),
        "amplitude": (float, _REQUIRED),
        "width": (float, 1.0),
        "dt": (float, _REQUIRED),
        "t_end": (float, _REQUIRED),
        "strides": (_ints, _REQUIRED),
        "min_ratio": (float, 8.0),
        "max_residual": (float, 1e-4),
        "seed": (int, 0),
    },
    "illposed": {
        "s": (float, _REQUIRED),
        "theta": (float, _REQUIRED),
        "T": (float, _REQUIRED),
        "N_list": (_floats, _REQUIRED),
        "freq_resolution": (int, 32),
        "tolerance": (float, 0.1),
        "seed": (int, 0),
    },
    "estimates": {
        "which": (str, "all"),
        "n": (int, _REQUIRED),
        "length": (float, _REQUIRED),
        "T": (float, _REQUIRED),
        "n_trials": (int, _REQUIRED),
        "n_time": (int, 128),
        "rungs": (int, 3),
        "s": (float, 0.45),
        "drift_limit": (float, 2.0),
        "seed": (int, 0),
    },
    "admissible": {
        "s": (float, _REQUIRED),
        "k": (int, _REQUIRED),
        "eps": (float, 1e-3),
        "seed": (int, 0),
    },
    "scaling": {
        "n": (int, _REQUIRED),
        "length": (float, _REQUIRED),
        "amplitude": (float, _REQUIRED),
        "width": (float, 1.0),
        "k": (int, _REQUIRED),
        "lambda_list": (_floats, _REQUIRED),
        "s_list": (_floats, _REQUIRED),
        "dt": (float, 4e-4),
        "t_end": (float, 6.4e-3),
        "seed": (int, 0),
    },
}


_POSITIVE_KEYS = frozenset(
    {
        "n", "length", "k", "dt", "t_end", "T", "amplitude", "width",
        "n_trials", "n_time", "rungs", "freq_resolution", "eps", "theta",
        "tolerance", "min_ratio", "max_residual", "drift_limit", "mass_tol",
        "l2_tol", "slice_stride",
    }
)
_POSITIVE_LIST_KEYS = frozenset({"strides", "N_list", "lambda_list"})


def _check_ranges(subcommand: str, params: dict) -> None:
    for key, value in params.items():
        if key in _POSITIVE_KEYS and value <= 0:
            raise ConfigError(
                f"{key} must be positive in [{subcommand}], got {value}"
            )
        if key in _POSITIVE_LIST_KEYS and any(v <= 0 for v in value):
            raise ConfigError(
                f"every entry of {key} must be positive in [{subcommand}]"
            )


@dataclass
class RunConfig:
    """A validated run: subcommand, its parameter block, output sink."""

    subcommand: str
    params: dict = field(default_factory=dict)
    out_dir: str = "."
    seed: int = 0


def parse_config(text: str, subcommand: str) -> RunConfig:
    """Parse and validate one subcommand's section of a config document.

    The document is INI-style with one section per subcommand.  Unknown
    sections and unknown keys are errors, as are missing required keys and
    unparsable values.
    """
    if subcommand not in _SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys like N_list and T are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    for section in cp.sections():
        if section not in _SCHEMAS:
            raise ConfigError(f"unknown section [{section}]")
    if subcommand not in cp:
        raise ConfigError(f"missing section [{subcommand}]")

    schema = _SCHEMAS[subcommand]
    section = cp[subcommand]
    params: dict = {}
    for key in section:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{subcommand}]")
    for key, (parse, default) in schema.items():
        if key in section:
            try:
                params[key] = parse(section[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in [{subcommand}]")
        else:
            params[key] = default
    _check_ranges(subcommand, params)
    return RunConfig(subcommand=subcommand, params=params, seed=params["seed"])


def _gaussian_field(n: int, length: float, amplitude: float, width: float):
    grid = make_grid(n, length)
    values = amplitude * np.exp(-(grid.x ** 2) / (2.0 * width ** 2))
    return field_from_values(grid, values)


def _subsample(traj: Trajectory, every: int) -> Trajectory:
    cfg = replace(traj.config, slice_stride=traj.config.slice_stride * every)
    return Trajectory(
        grid=traj.grid,
        times=traj.times[::every],
        slices=traj.slices[::every],
        config=cfg,
    )


# ---------------------------------------------------------------------------
# Runners: RunConfig -> ExperimentReport.


def _run_simulate(cfg: RunConfig) -> ExperimentReport:
    p = cfg.params
    u0 = _gaussian_field(p["n"], p["length"], p["amplitude"], p["width"])
    solver_cfg = SolverConfig(
        k=p["k"],
        sign=p["sign"],
        rescaled=p["rescaled"],
        dt=p["dt"],
        t_end=p["t_end"],
        dealias=p["dealias"],
        slice_stride=p["slice_stride"],
    )
    traj = evolve(u0, solver_cfg)
    points = [
        {"t": float(t), "mass": float(m), "l2": float(l), "linf": float(li)}
        for t, m, l, li in zip(traj.times, traj.mass, traj.l2, traj.linf)
    ]
    mass_drift = float(np.max(np.abs(traj.mass - traj.mass[0])))
    l2_drift = float(np.max(np.abs(traj.l2 - traj.l2[0])) / traj.l2[0])
    ok = mass_drift <= p["mass_tol"] and l2_drift <= p["l2_tol"]
    return ExperimentReport(
        experiment_id="simulate",
        inputs=dict(p),
        points=points,
        verdict="PASS" if ok else "FAIL",
        notes=[
            f"mass drift {mass_drift:.3e} (tolerance {p['mass_tol']:.1e})",
            f"relative L2 drift {l2_drift:.3e} (tolerance {p['l2_tol']:.1e})",
        ],
        seed=cfg.seed,
    )


def _run_gauge_residual(cfg: RunConfig) -> ExperimentReport:
    p = cfg.params
    strides = sorted(set(p["strides"]), reverse=True)
    if len(strides) < 2:
        raise ConfigError("need at least two distinct strides")
    base = strides[-1]
    for s in strides:
        if s % base:
            raise ConfigError("strides must be multiples of the smallest")
    u0 = _gaussian_field(p["n"], p["length"], p["amplitude"], p["width"])
    solver_cfg = SolverConfig(
        k=p["k"], rescaled=True, dt=p["dt"], t_end=p["t_end"], slice_stride=base
    )
    traj = evolve(u0, solver_cfg)
    points = []
    residuals = []
    for s in strides:
        sub = _subsample(traj, s // base)
        res, _ = gauge_equation_residual(sub, p["k"])
        residuals.append(res)
        points.append(
            {"stride": s, "dt_slice": s * p["dt"], "residual": float(res)}
        )
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    ok = all(r >= p["min_ratio"] for r in ratios) and (
        residuals[-1] <= p["max_residual"]
    )
    return ExperimentReport(
        experiment_id="gauge_residual",
        inputs=dict(p),
        points=points,
        verdict="PASS" if ok else "FAIL",
        notes=[
            "refinement ratios " + ", ".join(f"{r:.2f}" for r in ratios),
            f"finest residual {residuals[-1]:.3e} "
            f"(tolerance {p['max_residual']:.1e})",
        ],
        seed=cfg.seed,
    )


def _run_illposed(cfg: RunConfig) -> ExperimentReport:
    p = cfg.params
    report = illposed_growth_fit(
        p["s"],
        p["theta"],
        p["T"],
        p["N_list"],
        freq_resolution=p["freq_resolution"],
        tolerance=p["tolerance"],
    )
    return replace(report, seed=cfg.seed)


def _packet_runner(ratio):
    return lambda p, grid, seed: ratio(
        p["n_trials"], grid, p["T"], seed=seed, n_time=p["n_time"], rungs=p["rungs"]
    )


def _xst_runner(p, grid, seed):
    ensemble = make_packet_ensemble(grid, p["n_trials"], seed=seed)
    return xst_group_ratio(ensemble, p["s"], T=p["T"], n_time=p["n_time"], rungs=p["rungs"])


# estimate name -> runner(params, grid, seed) -> RatioStatistics
_ESTIMATE_RUNNERS = {
    "kato": _packet_runner(kato_smoothing_ratio),
    "maximal": _packet_runner(maximal_function_ratio),
    "lowfreq": _packet_runner(lowfreq_ratio),
    "xst": _xst_runner,
}


def _run_estimates(cfg: RunConfig) -> ExperimentReport:
    p = cfg.params
    which = p["which"]
    names = tuple(_ESTIMATE_RUNNERS) if which == "all" else tuple(which.split(","))
    for name in names:
        if name not in _ESTIMATE_RUNNERS:
            raise ConfigError(f"unknown estimate {name!r}")
    grid = make_grid(p["n"], p["length"])
    points = []
    all_ok = True
    for name in names:
        stats = _ESTIMATE_RUNNERS[name](p, grid, cfg.seed)
        ok = stats.passes(p["drift_limit"])
        all_ok = all_ok and ok
        for n_points, sup in stats.resolution_ladder:
            points.append({"estimate": name, "n_points": n_points,
                           "sup_ratio": float(sup)})
        points.append({"estimate": name, "drift": stats.ladder_drift,
                       "passes": ok})
    return ExperimentReport(
        experiment_id="estimates",
        inputs=dict(p),
        points=points,
        verdict="PASS" if all_ok else "FAIL",
        seed=cfg.seed,
    )


def _run_admissible(cfg: RunConfig) -> ExperimentReport:
    p = cfg.params
    audit = norm_family_audit(p["s"], p["k"], p["eps"])
    points = []
    failing = []
    for entry, ok in audit:
        points.append(
            {
                "id": entry.id,
                "derivative_order": entry.derivative_order,
                "p": entry.p,
                "q": entry.q,
                "passes": ok,
            }
        )
        if not ok:
            failing.append(entry.id)
    notes = (
        [f"failing entries: {', '.join(failing)}"]
        if failing
        else ["all twelve entries admissible"]
    )
    return ExperimentReport(
        experiment_id="admissible",
        inputs=dict(p),
        points=points,
        verdict="FAIL" if failing else "PASS",
        notes=notes,
        seed=cfg.seed,
    )


def _run_scaling(cfg: RunConfig) -> ExperimentReport:
    p = cfg.params
    u0 = _gaussian_field(p["n"], p["length"], p["amplitude"], p["width"])
    solver_cfg = SolverConfig(
        k=p["k"], rescaled=True, dt=p["dt"], t_end=p["t_end"]
    )
    report = scaling_invariance_check(
        u0, p["lambda_list"], p["k"], p["s_list"], config=solver_cfg
    )
    return replace(report, inputs=dict(p, **report.inputs), seed=cfg.seed)


_RUNNERS = {
    "simulate": _run_simulate,
    "gauge-residual": _run_gauge_residual,
    "illposed": _run_illposed,
    "estimates": _run_estimates,
    "admissible": _run_admissible,
    "scaling": _run_scaling,
}


# ---------------------------------------------------------------------------
# Artifacts.


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_success(report: ExperimentReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    data = report.to_dict()
    data["schema_version"] = SCHEMA_VERSION
    data["timestamp"] = _timestamp()
    with open(out_dir / "report.json", "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_report_csv(report, str(out_dir / "series.csv"))
    with open(out_dir / "summary.txt", "w") as fh:
        fh.write(_summary_text(data))


def _summary_text(data: dict) -> str:
    buf = io.StringIO()
    buf.write(f"{data['id']}: {data['verdict']}\n")
    buf.write(f"code version: {data['code_version']}\n")
    buf.write(f"sign convention: {data['sign_convention']}\n")
    buf.write(f"seed: {data['seed']}\n")
    buf.write(f"timestamp: {data['timestamp']}\n")
    if data.get("slope") is not None:
        buf.write(f"slope: {repr(data['slope'])} +- {repr(data['ci'])}\n")
    buf.write("params:\n")
    for key in sorted(data["params"]):
        buf.write(f"  {key} = {data['params'][key]}\n")
    for note in data.get("notes") or []:
        buf.write(f"note: {note}\n")
    buf.write(f"points: {len(data['points'])} rows (see series.csv)\n")
    return buf.getvalue()


def _write_failure(subcommand: str, exc: Exception, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "id": subcommand,
        "verdict": "ERROR",
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "schema_version": SCHEMA_VERSION,
        "timestamp": _timestamp(),
    }
    with open(out_dir / "report.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "summary.txt", "w") as fh:
        fh.write(f"{subcommand}: ERROR\n{type(exc).__name__}: {exc}\n")


# ---------------------------------------------------------------------------
# Entry point.


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gbolab",
        description="Numerical experiments for a nonlocal dispersive equation "
        "with a power nonlinearity.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="INI config file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)
    out_dir = Path(args.out)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        _write_failure(args.subcommand, exc, out_dir)
        return EXIT_ERROR

    try:
        cfg = parse_config(text, args.subcommand)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_failure(args.subcommand, exc, out_dir)
        return EXIT_ERROR
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.params["seed"] = args.seed
    cfg.out_dir = str(out_dir)

    try:
        report = _RUNNERS[args.subcommand](cfg)
    except (ConfigError, ValueError, QuadratureError, BlowUpError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        _write_failure(args.subcommand, exc, out_dir)
        return EXIT_ERROR

    _write_success(report, out_dir)
    print(f"{report.experiment_id}: {report.verdict} "
          f"(artifacts in {out_dir})")
    return EXIT_PASS if report.verdict == "PASS" else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
