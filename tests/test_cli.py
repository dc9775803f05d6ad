"""Config parsing, subcommand dispatch, artifacts, exit codes."""

import json

import pytest

from gbolab import cli
from gbolab.cli import ConfigError, main, parse_config
from gbolab.experiments.illposed import QuadratureError
from gbolab.solver import SolverConfig, evolve

ADMISSIBLE_OK = """
[admissible]
s = 0.45
k = 12
"""

ILLPOSED_MIN = """
[illposed]
s = 0.2
theta = 0.2
T = 1.0
N_list = 8, 16, 32, 64, 128
freq_resolution = 16
"""


def run_cli(tmp_path, config_text, subcommand, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(config_text)
    out = tmp_path / "out"
    code = main([subcommand, "--config", str(cfg_file), "--out", str(out),
                 *extra])
    return code, out


class TestParseConfig:
    def test_minimal_illposed_block(self):
        cfg = parse_config(ILLPOSED_MIN, "illposed")
        assert cfg.subcommand == "illposed"
        assert cfg.params["N_list"] == [8.0, 16.0, 32.0, 64.0, 128.0]
        assert cfg.params["tolerance"] == 0.1  # default filled in

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(ADMISSIBLE_OK + "typo = 3\n", "admissible")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[frobnicate]\nx = 1\n", "admissible")

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="missing section"):
            parse_config(ADMISSIBLE_OK, "illposed")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config("[admissible]\ns = 0.45\n", "admissible")

    def test_zero_dt_rejected(self):
        text = """
[simulate]
n = 64
length = 6.0
k = 3
dt = 0
t_end = 0.01
amplitude = 0.1
"""
        with pytest.raises(ConfigError, match="dt must be positive"):
            parse_config(text, "simulate")

    def test_unparsable_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("[admissible]\ns = snail\nk = 12\n", "admissible")

    def test_seed_key_threads_through(self):
        cfg = parse_config(ADMISSIBLE_OK + "seed = 9\n", "admissible")
        assert cfg.seed == 9


class TestAdmissibleRuns:
    def test_pass_run_exit_zero_and_artifacts(self, tmp_path):
        code, out = run_cli(tmp_path, ADMISSIBLE_OK, "admissible")
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "series.csv").exists()
        assert (out / "summary.txt").exists()
        data = json.loads((out / "report.json").read_text())
        assert data["verdict"] == "PASS"
        assert len(data["points"]) == 12
        assert data["schema_version"] == 1
        assert "exp(" in data["sign_convention"]

    def test_below_threshold_fails_with_n9_flagged(self, tmp_path):
        text = "[admissible]\ns = 0.40\nk = 12\n"
        code, out = run_cli(tmp_path, text, "admissible")
        assert code == 1
        data = json.loads((out / "report.json").read_text())
        n9 = [pt for pt in data["points"] if pt["id"] == "N9"]
        assert n9 and not n9[0]["passes"]
        assert "N9" in (out / "summary.txt").read_text()

    def test_rerun_byte_identical_modulo_timestamp(self, tmp_path):
        code1, out1 = run_cli(tmp_path / "a", ADMISSIBLE_OK, "admissible")
        code2, out2 = run_cli(tmp_path / "b", ADMISSIBLE_OK, "admissible")
        assert code1 == code2 == 0

        def stripped(path):
            return [
                line
                for line in (path).read_text().splitlines()
                if "timestamp" not in line
            ]

        assert stripped(out1 / "report.json") == stripped(out2 / "report.json")
        assert (out1 / "series.csv").read_bytes() == (
            out2 / "series.csv"
        ).read_bytes()
        assert stripped(out1 / "summary.txt") == stripped(out2 / "summary.txt")

    def test_seed_flag_overrides_config(self, tmp_path):
        code, out = run_cli(tmp_path, ADMISSIBLE_OK + "seed = 3\n",
                            "admissible", extra=("--seed", "17"))
        assert code == 0
        data = json.loads((out / "report.json").read_text())
        assert data["seed"] == 17
        assert data["params"]["seed"] == 17


class TestErrorPaths:
    def test_unknown_key_exit_two_with_record(self, tmp_path):
        code, out = run_cli(tmp_path, ADMISSIBLE_OK + "typo = 3\n",
                            "admissible")
        assert code == 2
        data = json.loads((out / "report.json").read_text())
        assert data["verdict"] == "ERROR"
        assert data["error"]["type"] == "ConfigError"
        assert "typo" in data["error"]["message"]

    def test_missing_config_file(self, tmp_path):
        out = tmp_path / "out"
        code = main(["admissible", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(out)])
        assert code == 2
        assert (out / "report.json").exists()

    def test_quadrature_failure_reports_no_slope(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise QuadratureError("refinement moved the band norm")

        monkeypatch.setattr(cli, "illposed_growth_fit", explode)
        code, out = run_cli(tmp_path, ILLPOSED_MIN, "illposed")
        assert code == 2
        data = json.loads((out / "report.json").read_text())
        assert data["verdict"] == "ERROR"
        assert data["error"]["type"] == "QuadratureError"
        assert "slope" not in data

    def test_blowup_reported_as_error(self, tmp_path):
        text = """
[simulate]
n = 64
length = 6.283185307179586
k = 3
dt = 4e-4
t_end = 0.04
amplitude = 10000.0
"""
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            code, out = run_cli(tmp_path, text, "simulate")
        assert code == 2
        data = json.loads((out / "report.json").read_text())
        assert data["error"]["type"] == "BlowUpError"


class TestOtherSubcommands:
    def test_simulate_writes_conservation_series(self, tmp_path):
        text = """
[simulate]
n = 256
length = 40.0
k = 12
rescaled = yes
dt = 4e-4
t_end = 0.02
slice_stride = 10
amplitude = 0.3
"""
        code, out = run_cli(tmp_path, text, "simulate")
        assert code == 0
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == "l2,linf,mass,t"
        assert len(lines) == 2 + 5  # header + t=0 + five strided slices

    def test_illposed_runs_and_reports_slope(self, tmp_path):
        code, out = run_cli(tmp_path, ILLPOSED_MIN, "illposed")
        data = json.loads((out / "report.json").read_text())
        # the measured exponent sits well below the predicted one (exact
        # time kernel), so the verdict is FAIL and the exit code 1
        assert code == 1
        assert data["verdict"] == "FAIL"
        assert data["slope"] is not None
        assert len(data["points"]) == 5

    def test_estimates_all_pass(self, tmp_path):
        text = """
[estimates]
n = 512
length = 40.0
T = 0.1
n_trials = 2
rungs = 2
"""
        code, out = run_cli(tmp_path, text, "estimates")
        assert code == 0
        data = json.loads((out / "report.json").read_text())
        names = {pt["estimate"] for pt in data["points"]}
        assert names == {"kato", "maximal", "lowfreq", "xst"}

    def test_scaling_pass(self, tmp_path):
        text = """
[scaling]
n = 256
length = 40.0
amplitude = 0.01
k = 12
lambda_list = 1.0, 2.0
s_list = 0.3, 0.49
"""
        code, out = run_cli(tmp_path, text, "scaling")
        assert code == 0

    def test_gauge_residual_pass(self, tmp_path):
        text = """
[gauge-residual]
n = 512
length = 60.0
k = 12
amplitude = 0.75
dt = 2e-4
t_end = 0.16
strides = 100, 50, 25
"""
        code, out = run_cli(tmp_path, text, "gauge-residual")
        assert code == 0
        data = json.loads((out / "report.json").read_text())
        finest = data["points"][-1]
        assert finest["stride"] == 25
        assert finest["residual"] < 1e-4


def test_subsample_thins_the_ledger_bit_for_bit():
    # the ledger is read off the slices, so thinning the slices must give
    # exactly the thinned ledger of the full trajectory
    u0 = cli._gaussian_field(256, 40.0, 0.3, 1.0)
    traj = evolve(u0, SolverConfig(k=12, rescaled=True, dt=4e-4, t_end=4e-3))
    sub = cli._subsample(traj, 2)
    assert sub.config.slice_stride == 2
    assert sub.n_times == 6
    for name in ("mass", "l2", "linf"):
        assert getattr(sub, name).tobytes() == getattr(traj, name)[::2].tobytes()
