"""Shared pytest wiring for the suite.

The acceptance tests each report a single verdict line; this hook gathers
them and prints the collection as its own terminal section so the run ends
with a compact scoreboard even when individual tests are verbose.  The
tests that read a trajectory at several slice spacings share ``subsample``;
the scaling checks share the scaling map ``rescale``/``rescale_traj``, the
homogeneous norm it acts on, and ``commutation_defect``; the quartic
self-convolution checks share ``fiber_measure``, and the checks on mean-zero
data ``field_mean``.  The CLI tests share ``run_cli``, and ``cli_run`` makes
each unpatched run once a session.
"""

from dataclasses import replace

import numpy as np
import pytest

from gbolab.cli import main
from gbolab.experiments.illposed import FrequencyProfile, _fiber_moments
from gbolab.solver import SolverConfig, Trajectory, evolve
from gbolab.spectral import Field, field_from_values, make_grid

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Callable that records one verdict line for the final scoreboard."""

    def record(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)

    return record


def run_cli(tmp_path, config_text, subcommand, extra=()):
    """(exit code, artifact directory) of one CLI run of the config text."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(config_text)
    out = tmp_path / "out"
    code = main([subcommand, "--config", str(cfg_file), "--out", str(out),
                 *extra])
    return code, out


@pytest.fixture(scope="session")
def cli_run(tmp_path_factory):
    """run_cli(config_text, subcommand) made once a session; only for runs
    that patch nothing, since a patched run would be read by the next test."""
    runs = {}

    def run(config_text: str, subcommand: str):
        if (config_text, subcommand) not in runs:
            runs[config_text, subcommand] = run_cli(
                tmp_path_factory.mktemp(subcommand), config_text, subcommand)
        return runs[config_text, subcommand]

    return run


def subsample(traj: Trajectory, every: int) -> Trajectory:
    """Every ``every``-th slice of a trajectory, with its config's stride to match."""
    cfg = replace(traj.config, slice_stride=traj.config.slice_stride * every)
    return Trajectory(
        grid=traj.grid,
        times=traj.times[::every],
        slices=traj.slices[::every],
        config=cfg,
    )


def field_mean(f: Field) -> float | complex:
    """The mean of a Field over the grid, read from its zero mode; real for
    real content."""
    m = f.coeffs[f.grid.n // 2] / f.grid.length
    return m.real if f.real else m


def rescale(u0: Field, lam: float, k: int) -> Field:
    """The scaling companion lam^{1/k} u(lam * x) on the grid of length L/lam.

    The rescaled grid shares the point count, so the samples are exactly
    the pointwise-scaled originals (lam * x'_j = x_j); no interpolation.
    """
    new_grid = make_grid(u0.grid.n, u0.grid.length / lam)
    return field_from_values(new_grid, lam ** (1.0 / k) * u0.values)


def rescale_traj(traj: Trajectory, lam: float) -> Trajectory:
    """Apply the scaling map to every slice and map times t -> t/lam^2."""
    cfg = traj.config
    return Trajectory(
        grid=make_grid(traj.grid.n, traj.grid.length / lam),
        times=traj.times / lam ** 2,
        slices=lam ** (1.0 / cfg.k) * traj.slices,
        config=replace(cfg, dt=cfg.dt / lam ** 2, t_end=cfg.t_end / lam ** 2),
    )


def homogeneous_norm(f: Field, s: float) -> float:
    """The homogeneous H^s norm: weight |xi|^{2s}, zero mode dropped.  Under
    the scaling map at power k it scales by exactly lam^(s + 1/k - 1/2)."""
    xi, coeffs = f.grid.frequencies, f.coeffs
    weighted = np.abs(xi[xi != 0]) ** (2 * s) * np.abs(coeffs[xi != 0]) ** 2
    return float(np.sqrt(np.sum(weighted) * f.grid.dxi / (2 * np.pi)))


def commutation_defect(u0: Field, lam: float, cfg: SolverConfig) -> float:
    """How far "evolve, then rescale" lands from "rescale, then evolve with
    dt and t_end divided by lam^2": the largest slice gap over the largest
    slice magnitude.  Each term of an integrating-factor RK4 step scales by
    one power of lam only if the flux is homogeneous of degree k + 1."""
    mapped = rescale_traj(evolve(u0, cfg), lam)
    direct = evolve(rescale(u0, lam, cfg.k), mapped.config)
    np.testing.assert_allclose(mapped.times, direct.times, rtol=0, atol=1e-15)
    return float(np.max(np.abs(mapped.slices - direct.slices)) / np.max(np.abs(direct.slices)))


def fiber_measure(alpha: float, M: int) -> FrequencyProfile:
    """The 4-fold self-convolution of the indicator of [0, alpha] on M
    midpoint samples: the band's m = 0 fiber measure (_fiber_moments), of
    total mass alpha^4 exactly.  Sample j of the indicator sits at
    (j + 1/2) h, so sample j of the measure sits at (j + 2) h."""
    h, ones = alpha / M, np.ones(M)
    c4 = _fiber_moments(ones, ones, 1, h)[0]  # y^2 does not enter the zeroth moment
    return FrequencyProfile((np.arange(c4.size) + 2.0) * h, c4, h)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
