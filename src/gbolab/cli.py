"""Command-line driver: one config section per subcommand, three artifacts
per run (report.json, series.csv, summary.txt).  Exit 0 is a PASS verdict,
exit 1 a FAIL verdict, and exit 2 any error, with an ERROR record."""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import json
import sys
import traceback
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .experiments.illposed import _fit_rungs, illposed_growth_fit
from .experiments.linear_ratios import ESTIMATES, _check_ladder, estimate_ladder
from .experiments.reporting import _DRIFT_LIMIT, ExperimentReport, _Check
from .gauge import _check_gauge, gauge_equation_residual
from .norms import _delta_range, is_one_admissible, norm_family_audit
from .solver import SolverConfig, evolve
from .spectral import Field, SpectralGrid, field_from_values, make_grid, sign_convention_label

SCHEMA_VERSION = 2

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


class ConfigError(ValueError):
    """Bad run configuration: unknown key, missing key, bad value."""


# ---------------------------------------------------------------------------
# Config schemas: key -> (parser, required, default).


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
        "flow": (str, "minus"),
        "dt": (float, _REQUIRED),
        "t_end": (float, _REQUIRED),
        "slice_stride": (int, 1),
        "amplitude": (float, _REQUIRED),
        "width": (float, 1.0),
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
    },
    "illposed": {
        "s": (float, _REQUIRED),
        "theta": (float, _REQUIRED),
        "T": (float, _REQUIRED),
        "N_list": (_floats, _REQUIRED),
        "freq_resolution": (int, 32),
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
        "seed": (int, 0),
    },
    "admissible": {
        "s": (float, _REQUIRED),
        "k": (int, _REQUIRED),
        "eps": (float, 1e-3),
    },
}

# The CLI's own data keys; the library states every other range.
_POSITIVE_KEYS = frozenset({"amplitude", "width", "strides"})

# Verdict thresholds: constants, not config keys, so no config can turn a FAIL
# into a PASS.  Each report states them as the bounds of its named checks.
_MASS_TOL, _L2_TOL = 1e-10, 1e-6  # simulate: mass and relative L2 drift
_MIN_RATIO, _MAX_RESIDUAL = 8.0, 1e-4  # gauge-residual: least ratio, finest residual


@dataclass
class RunConfig:
    """A validated run: its parameters, and the objects built from them."""

    params: dict
    objects: object


def parse_config(text: str, subcommand: str, seed: int | None = None) -> RunConfig:
    """Parse and validate one subcommand's section of a config document.

    The document is INI-style with one section per subcommand.  Unknown
    sections and unknown keys are errors, as are missing required keys and
    unparsable, non-finite or out-of-range values (the ranges: _OBJECTS).
    A ``seed`` (the --seed flag) joins the section as its seed key.
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
    if seed is not None:
        section["seed"] = str(seed)
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
            if parse in (float, _floats) and not np.isfinite(params[key]).all():
                raise ConfigError(
                    f"bad value for {key!r}: {section[key]!r} is not finite"
                )
            if key in _POSITIVE_KEYS and not np.all(np.asarray(params[key]) > 0):
                raise ConfigError(f"{key} must be positive in [{subcommand}], "
                                  f"got {section[key]!r}")
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in [{subcommand}]")
        else:
            params[key] = default
    try:
        objects = _OBJECTS[subcommand](params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(params=params, objects=objects)


def _gaussian_field(n: int, length: float, amplitude: float, width: float):
    grid = make_grid(n, length)
    values = amplitude * np.exp(-(grid.x ** 2) / (2.0 * width ** 2))
    return field_from_values(grid, values)


# ---------------------------------------------------------------------------
# Each section's cheap library objects: parse_config builds them, so their range
# checks run before any work, and the runners take them from RunConfig.


def _flow(cfg: SolverConfig, p: dict) -> tuple[Field, SolverConfig]:
    """The section's Gaussian data, and cfg checked against its grid."""
    u0 = _gaussian_field(p["n"], p["length"], p["amplitude"], p["width"])
    cfg.validate_for_grid(u0.grid)
    cfg.n_steps()
    return u0, cfg


def _residual_ladder(p: dict) -> tuple[list[int], Field, SolverConfig]:
    """The distinct strides, coarsest first, the data, and the finest stride's config."""
    strides = sorted(set(p["strides"]), reverse=True)
    if len(strides) < 2 or any(s % strides[-1] for s in strides):
        raise ConfigError("strides must be two or more distinct multiples of the smallest")
    u0, cfg = _flow(SolverConfig(k=p["k"], flow="rescaled", dt=p["dt"], t_end=p["t_end"],
                                 slice_stride=strides[-1]), p)
    _check_gauge(p["k"])
    try:  # the finest stride's slices, thinned by each stride's factor
        _check_gauge(p["k"], cfg.n_steps() // strides[-1] + 1, [s // strides[-1] for s in strides])
    except ValueError as exc:
        raise ConfigError(f"strides: {exc}") from exc
    return strides, u0, cfg


def _estimate_ladders(p: dict) -> tuple[list[str], SpectralGrid]:
    names = [name.strip() for name in p["which"].split(",")]
    names = list(ESTIMATES) if names == ["all"] else names
    grid = make_grid(p["n"], p["length"])
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"estimate {name!r} listed twice")
        _check_ladder(name, p["n_trials"], grid, p["T"], p["seed"], p["n_time"],
                      p["rungs"], p["s"])
    return names, grid


_OBJECTS = {
    "simulate": lambda p: _flow(SolverConfig(
        k=p["k"], flow=p["flow"], dt=p["dt"], t_end=p["t_end"],
        slice_stride=p["slice_stride"]), p),
    "gauge-residual": _residual_ladder,
    "illposed": lambda p: _fit_rungs(p["s"], p["theta"], p["T"], p["N_list"],
                                     p["freq_resolution"]),
    "estimates": _estimate_ladders,
    "admissible": lambda p: norm_family_audit(p["s"], p["k"], p["eps"]),
}


# ---------------------------------------------------------------------------
# Runners: RunConfig -> ExperimentReport.


def _run_simulate(cfg: RunConfig) -> ExperimentReport:
    p = cfg.params
    traj = evolve(*cfg.objects)
    points = [
        {"t": float(t), "mass": float(m), "l2": float(l), "linf": float(li)}
        for t, m, l, li in zip(traj.times, traj.mass, traj.l2, traj.linf)
    ]
    mass_drift = float(np.max(np.abs(traj.mass - traj.mass[0])))
    l2_drift = float(np.max(np.abs(traj.l2 - traj.l2[0])) / traj.l2[0])
    return ExperimentReport(
        experiment_id="simulate",
        inputs=p,
        points=points,
        checks=[_Check("mass drift", mass_drift, "<=", _MASS_TOL),
                _Check("relative L2 drift", l2_drift, "<=", _L2_TOL)],
    )


def _run_gauge_residual(cfg: RunConfig) -> ExperimentReport:
    p = cfg.params
    strides, u0, solver_cfg = cfg.objects
    traj = evolve(u0, solver_cfg)
    residuals = gauge_equation_residual(traj, [s // strides[-1] for s in strides])
    points = [{"stride": s, "dt_slice": s * p["dt"], "residual": res}
              for s, res in zip(strides, residuals)]
    ratios = [_Check(f"refinement ratio {a}/{b}", ra / rb, ">=", _MIN_RATIO)
              for a, b, ra, rb in zip(strides, strides[1:], residuals, residuals[1:])]
    return ExperimentReport(
        experiment_id="gauge_residual",
        inputs=p,
        points=points,
        checks=[*ratios, _Check("finest residual", residuals[-1], "<=", _MAX_RESIDUAL)],
    )


def _run_estimates(cfg: RunConfig) -> ExperimentReport:
    p = cfg.params
    names, grid = cfg.objects
    points, checks = [], []
    for name in names:
        stats = estimate_ladder(name, p["n_trials"], grid, p["T"], p["seed"],
                                n_time=p["n_time"], rungs=p["rungs"], s=p["s"])
        checks.append(_Check(f"{name} ladder drift", stats.ladder_drift, "<", _DRIFT_LIMIT))
        for n_points, sup in stats.resolution_ladder:
            points.append({"estimate": name, "n_points": n_points,
                           "sup_ratio": float(sup)})
        points.append({"estimate": name, "drift": stats.ladder_drift})
    return ExperimentReport(experiment_id="estimates", inputs=p, points=points,
                            checks=checks)


def _run_admissible(cfg: RunConfig) -> ExperimentReport:
    # the exponents as their exact reciprocals 1/p, 1/q, which are always finite
    points = [{"id": entry.id, "derivative_order": float(entry.derivative_order),
               "inv_p": float(entry.a), "inv_q": float(entry.b)}
              for entry, _ in cfg.objects]
    failing = [entry.id for entry, ok in cfg.objects if not ok]
    # with no delta, one note names the bounds that cross, not N2..N8's rules at none
    rows, (low, by), (cap, capped) = _delta_range(cfg.params["s"], cfg.params["k"])
    note = "no delta satisfies N2..N8's rules: %s needs delta >= %.6g, %s needs delta <= %.6g"
    shared = {row[0]: note % (by, low, capped, cap) for row in rows} if low > cap else {}
    reasons = [shared.get(e.id) or f"{e.id}: {why}" for e, ok in cfg.objects if not ok for why in [
        f"side condition fails: {text}" for text, holds in e.side_conditions if not holds] + [
        "inadmissible triplet (alpha, 1/p, 1/q) = (%.6g, %.6g, %.6g)" % (t.alpha, t.a, t.b)
        for t in e.triplets if not is_one_admissible(t)]]
    return ExperimentReport(
        experiment_id="admissible",
        inputs=cfg.params,
        points=points,
        checks=[_Check(f"{entry.id} admissible", ok, "==", True) for entry, ok in cfg.objects],
        notes=[f"failing entries: {', '.join(failing)}" if failing
               else "all twelve entries admissible", *dict.fromkeys(reasons)],
    )


_RUNNERS = {
    "simulate": _run_simulate,
    "gauge-residual": _run_gauge_residual,
    "illposed": lambda cfg: illposed_growth_fit(
        cfg.params["s"], cfg.params["theta"], cfg.params["T"], cfg.params["N_list"],
        freq_resolution=cfg.params["freq_resolution"]),
    "estimates": _run_estimates,
    "admissible": _run_admissible,
}


# ---------------------------------------------------------------------------
# Artifacts.


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_record(out_dir: Path, record: dict, summary) -> None:
    """report.json from the record, stamped, with numpy values as plain ones, and
    summary.txt as summary(record)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    record.update(schema_version=SCHEMA_VERSION, timestamp=_timestamp())
    with open(out_dir / "report.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, allow_nan=False,
                  default=lambda v: v.tolist())
        fh.write("\n")
    with open(out_dir / "summary.txt", "w") as fh:
        fh.write(summary(record))


def _write_success(report: ExperimentReport, out_dir: Path) -> None:
    """The report's record, its checks with their outcomes, the code version and
    the propagator's sign convention, and series.csv: one row per point, a
    column per point key."""
    checks = [{**asdict(check), "passes": check.passes} for check in report.checks]
    _write_record(out_dir, {
        "id": report.experiment_id, "params": report.inputs, "points": report.points,
        "slope": report.slope, "ci": report.ci, "verdict": report.verdict, "checks": checks,
        "notes": list(report.notes),
        "sign_convention": sign_convention_label(), "code_version": __version__,
    }, _summary_text)
    keys = sorted({key for point in report.points for key in point})
    rows = [",".join("" if point.get(key) is None else str(point[key]) for key in keys)
            for point in report.points]
    with open(out_dir / "series.csv", "w") as fh:
        fh.write("\n".join([",".join(keys), *rows]) + "\n" if rows else "")


def _summary_text(data: dict) -> str:
    buf = io.StringIO()
    buf.write(f"{data['id']}: {data['verdict']}\n")
    buf.write(f"code version: {data['code_version']}\n")
    buf.write(f"sign convention: {data['sign_convention']}\n")
    buf.write(f"timestamp: {data['timestamp']}\n")
    if data.get("slope") is not None:
        buf.write(f"slope: {repr(data['slope'])} +- {repr(data['ci'])}\n")
    buf.write("params:\n")
    for key in sorted(data["params"]):
        buf.write(f"  {key} = {data['params'][key]}\n")
    for check in data["checks"]:
        buf.write("check: {name} = {value} {relation} {bound}: ".format(**check)
                  + ("pass\n" if check["passes"] else "fail\n"))
    for note in data.get("notes") or []:
        buf.write(f"note: {note}\n")
    buf.write(f"points: {len(data['points'])} rows (see series.csv)\n")
    return buf.getvalue()


def _write_failure(subcommand: str, exc: Exception, out_dir: Path) -> None:
    error = {"type": type(exc).__name__, "message": str(exc)}
    _write_record(out_dir, {"id": subcommand, "verdict": "ERROR", "error": error},
                  lambda record: f"{subcommand}: ERROR\n{error['type']}: {exc}\n")


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
        if "seed" in _SCHEMAS[name]:
            sp.add_argument("--seed", type=int, help="override the config seed")
    args = parser.parse_args(argv)
    out_dir = Path(args.out)

    try:
        cfg = parse_config(Path(args.config).read_text(), args.subcommand,
                           seed=vars(args).get("seed"))
        report = _RUNNERS[args.subcommand](cfg)
        _write_success(report, out_dir)
    except Exception as exc:  # any failure is an ERROR: exit 1 stays the FAIL verdict's
        # a bad config or file reads as one line; any other failure keeps its traceback
        quiet = isinstance(exc, (ConfigError, OSError))
        traceback.print_exception(exc, limit=0 if quiet else None, chain=not quiet)
        with contextlib.suppress(OSError):  # an unwritable --out leaves no record
            _write_failure(args.subcommand, exc, out_dir)
        return EXIT_ERROR

    print(f"{report.experiment_id}: {report.verdict} "
          f"(artifacts in {out_dir})")
    return EXIT_PASS if report.verdict == "PASS" else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
