"""Shared pytest wiring for the suite.

The acceptance tests each report a single verdict line; this hook gathers
them and prints the collection as its own terminal section so the run ends
with a compact scoreboard even when individual tests are verbose.  The
tests that read a trajectory at several slice spacings share ``subsample``.
"""

from dataclasses import replace

import pytest

from gbolab.solver import Trajectory

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Callable that records one verdict line for the final scoreboard."""

    def record(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)

    return record


def subsample(traj: Trajectory, every: int) -> Trajectory:
    """Every ``every``-th slice of a trajectory, with its config's stride to match."""
    cfg = replace(traj.config, slice_stride=traj.config.slice_stride * every)
    return Trajectory(
        grid=traj.grid,
        times=traj.times[::every],
        slices=traj.slices[::every],
        config=cfg,
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
