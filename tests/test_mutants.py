"""Which errors each CLI verdict catches: a mutation matrix held as data.

Each mutant is a monkeypatch of one private constant or function, undone at
test exit.  Each cell of a run's column is "caught", asserted on the run's
named checks, or a reason why the run cannot see the mutant, asserted by the
checks being unchanged, so that closing a blind spot is a declared change.
Only the gauge-residual column is filled in so far, at test_cli's GAUGE_OK.
"""

import json

import numpy as np
import pytest

from gbolab import norms, solver, spectral
from gbolab.experiments import illposed
from gbolab.solver import _COEFFICIENTS, _power
from gbolab.spectral import _half_grid

from conftest import run_cli
from test_cli import GAUGE_OK


def _flux_power_k(grid, cfg):
    """solver._flux with the flux power k in place of k + 1."""
    xi, mask = _half_grid(grid)
    symbol = mask * (1j * xi) * (_COEFFICIENTS[cfg.flow] / (cfg.k + 1))
    return lambda values: symbol * np.fft.rfft(_power(values, cfg.k))


def _scaled(module, name, factor):
    """Patch module.name to return factor times its value."""
    real = getattr(module, name)
    return lambda monkeypatch: monkeypatch.setattr(module, name,
                                                   lambda *args: factor * real(*args))


MUTANTS = {
    "coefficient-x1.1": lambda monkeypatch: monkeypatch.setitem(
        solver._COEFFICIENTS, "rescaled", 2.2),
    "sigma-plus": lambda monkeypatch: monkeypatch.setattr(spectral, "_SIGMA", 1),
    "flux-power-k": lambda monkeypatch: monkeypatch.setattr(solver, "_flux", _flux_power_k),
    "time-weights-x1.21": _scaled(norms, "_time_weights", 1.21),
    "prefactor-x1.1": _scaled(illposed, "_prefactor", 1.1),
}

CAUGHT = "caught"
# The gauge-residual run at GAUGE_OK: refinement ratios 10.6 and 13.8, finest
# residual 1.9e-6.  The caught mutants leave the residual at first order or
# worse (ratios 1.00-1.11; finest residual 7.3e-4, 2.0 and 3.9e-2).
GAUGE_RESIDUAL = {
    "coefficient-x1.1": CAUGHT,
    "sigma-plus": CAUGHT,
    "flux-power-k": CAUGHT,
    "time-weights-x1.21": "the run evolves and gauges the data; it takes no mixed norm",
    "prefactor-x1.1": "the growth band's prefactor is not on the solver's or the gauge's path",
}
GAUGE_CHECKS = ["refinement ratio 100/50", "refinement ratio 50/25", "finest residual"]


def gauge_run(tmp_path):
    code, out = run_cli(tmp_path, GAUGE_OK, "gauge-residual")
    return code, json.loads((out / "report.json").read_text())["checks"]


@pytest.fixture
def gauge_clean(cli_run):
    code, out = cli_run(GAUGE_OK, "gauge-residual")
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert code == 0 and [c["name"] for c in checks] == GAUGE_CHECKS
    assert all(c["passes"] for c in checks)
    return checks


def test_matrix_names_every_mutant():
    assert set(GAUGE_RESIDUAL) == set(MUTANTS)


@pytest.mark.parametrize("mutant", [m for m, cell in GAUGE_RESIDUAL.items() if cell == CAUGHT])
def test_gauge_residual_catches(mutant, tmp_path, monkeypatch):
    # every named check fails, not only the verdict
    MUTANTS[mutant](monkeypatch)
    code, checks = gauge_run(tmp_path)
    assert code == 1
    assert [c["name"] for c in checks] == GAUGE_CHECKS
    assert not any(c["passes"] for c in checks), checks


@pytest.mark.parametrize("mutant", [m for m, cell in GAUGE_RESIDUAL.items() if cell != CAUGHT])
def test_gauge_residual_is_blind_to(mutant, tmp_path, monkeypatch, gauge_clean):
    # every check and value as in the clean run (the reason: GAUGE_RESIDUAL)
    MUTANTS[mutant](monkeypatch)
    code, checks = gauge_run(tmp_path)
    assert code == 0
    assert checks == gauge_clean
