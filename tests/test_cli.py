"""Config parsing, subcommand dispatch, artifacts, exit codes."""

import configparser
import io
import json
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gbolab import cli, solver
from gbolab.cli import ConfigError, main, parse_config
from gbolab.experiments import linear_ratios
from gbolab.experiments.illposed import _EXPONENT_TOL, QuadratureError
from gbolab.experiments.reporting import _DRIFT_LIMIT, ExperimentReport, _Check
from gbolab.solver import SolverConfig, evolve

from conftest import run_cli, subsample

ADMISSIBLE_OK = """
[admissible]
s = 0.45
k = 12
"""

ESTIMATES_KATO = """
[estimates]
which = kato
n = 512
length = 40.0
T = 0.1
n_trials = 1
rungs = 2
"""

ILLPOSED_MIN = """
[illposed]
s = 0.2
theta = 0.2
T = 1.0
N_list = 8, 16, 32, 64, 128
freq_resolution = 16
"""

SIMULATE_OK = """
[simulate]
n = 256
length = 40.0
k = 12
flow = rescaled
dt = 4e-4
t_end = 0.02
slice_stride = 10
amplitude = 0.3
"""

GAUGE_OK = """
[gauge-residual]
n = 512
length = 60.0
k = 12
amplitude = 0.75
dt = 2e-4
t_end = 0.16
strides = 100, 50, 25
"""


class TestParseConfig:
    def test_minimal_illposed_block(self):
        cfg = parse_config(ILLPOSED_MIN, "illposed")
        assert cfg.params["N_list"] == [8.0, 16.0, 32.0, 64.0, 128.0]
        default = parse_config(ILLPOSED_MIN.replace("freq_resolution = 16\n", ""), "illposed")
        assert default.params["freq_resolution"] == 32  # default filled in

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
        with pytest.raises(ConfigError, match="dt and t_end must be positive"):
            parse_config(text, "simulate")

    def test_unparsable_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("[admissible]\ns = snail\nk = 12\n", "admissible")

    @pytest.mark.parametrize("text, subcommand, match", [
        (ADMISSIBLE_OK, "frobnicate", "unknown subcommand 'frobnicate'"),
        ("[admissible\ns = 0.45\n", "admissible", "config syntax"),
        (SIMULATE_OK.replace("flow = rescaled", "flow = maybe"), "simulate",
         "flow must be one of 'minus', 'plus', 'rescaled', got 'maybe'"),
        (ILLPOSED_MIN.replace("8, 16, 32, 64, 128", ""), "illposed", "'N_list': empty list"),
    ], ids=["unknown-subcommand", "syntax", "flow", "empty-list"])
    def test_guards_reject_bad_input(self, text, subcommand, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text, subcommand)

    def test_seed_key_threads_through(self):
        cfg = parse_config(ESTIMATES_KATO + "seed = 9\n", "estimates")
        assert cfg.params["seed"] == 9

    def test_seed_key_only_where_data_is_random(self):
        with pytest.raises(ConfigError, match="unknown key 'seed'"):
            parse_config(ADMISSIBLE_OK + "seed = 9\n", "admissible")


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
        assert data["schema_version"] == 2
        assert data["sign_convention"] == "exp(-1i*t*xi*|xi|)"
        # no random data, so no seed
        assert "seed" not in data
        assert "seed" not in data["params"]

    def test_below_threshold_fails_with_n9_flagged(self, tmp_path):
        text = "[admissible]\ns = 0.40\nk = 12\n"
        code, out = run_cli(tmp_path, text, "admissible")
        assert code == 1
        data = json.loads((out / "report.json").read_text())
        n9 = [check for check in data["checks"] if check["name"] == "N9 admissible"]
        assert n9 and not n9[0]["passes"]
        assert "N9" in (out / "summary.txt").read_text()

    def test_failing_entries_name_their_rule(self, tmp_path):
        # at s = 0.40, k = 12 the gain side condition fails N2..N8 and N9's
        # triplet is inadmissible; each failing entry gets one note per reason
        code, out = run_cli(tmp_path, "[admissible]\ns = 0.40\nk = 12\n", "admissible")
        assert code == 1
        notes = json.loads((out / "report.json").read_text())["notes"]
        gain = "side condition fails: derivative gain positive: s > s_k + 2*delta"
        assert notes == ["failing entries: N2, N3, N4, N5, N6, N7, N8, N9",
                         *(f"N{i}: {gain}" for i in range(2, 8)), f"N8: {gain}/k",
                         "N9: inadmissible triplet (alpha, 1/p, 1/q) = (-0.194, 0.3, 0.003)"]
        assert "note: N9: inadmissible triplet" in (out / "summary.txt").read_text()

    def test_no_delta_below_power_four_is_one_note(self, tmp_path):
        # at k = 3 N8's rule 2/p + 1/q <= 1/2 needs delta >= (4 - k)/2 = 1/2, above
        # every 1/q cap: one note names the two bounds that cross, and no rule is
        # reported at a delta taken from the empty range
        code, out = run_cli(tmp_path, "[admissible]\ns = 0.45\nk = 3\n", "admissible")
        assert code == 1
        notes = json.loads((out / "report.json").read_text())["notes"]
        assert notes == ["failing entries: N2, N3, N4, N5, N6, N7, N8",
                         "no delta satisfies N2..N8's rules: N8's 2/p + 1/q <= 1/2 needs "
                         "delta >= 0.5, N6's 1/q - delta >= 0 needs delta <= 0.025"]

    def test_pass_just_above_the_critical_index_at_high_power(self, tmp_path):
        # s_30 = 7/15 = 0.4667: every entry passes at s = 0.48, k = 30
        code, _ = run_cli(tmp_path, "[admissible]\ns = 0.48\nk = 30\n", "admissible")
        assert code == 0

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

    def test_seed_flag_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(ADMISSIBLE_OK)
        with pytest.raises(SystemExit) as exc:
            main(["admissible", "--config", str(cfg_file), "--seed", "3"])
        assert exc.value.code == 2


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

    @pytest.mark.parametrize("subcommand, config, key", [
        ("illposed", ILLPOSED_MIN.replace("theta = 0.2", "theta = nan"), "theta"),
        ("illposed", ILLPOSED_MIN.replace("T = 1.0", "T = inf"), "T"),
        ("illposed", ILLPOSED_MIN.replace("8, 16, 32", "8, nan, 32"), "N_list"),
        ("simulate", SIMULATE_OK + "width = nan\n", "width"),
    ], ids=["illposed-theta", "illposed-T", "illposed-N_list", "simulate-width"])
    def test_non_finite_value_exit_two(self, tmp_path, subcommand, config, key):
        code, out = run_cli(tmp_path, config, subcommand)
        assert code == 2
        data = json.loads((out / "report.json").read_text())
        assert data["error"]["type"] == "ConfigError"
        assert repr(key) in data["error"]["message"]

    def test_scaling_is_an_unknown_subcommand(self, tmp_path):
        # the scaling identities are checked by the tests (acceptance 4, test_solver.py), not a run
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(ADMISSIBLE_OK)
        with pytest.raises(SystemExit) as exc:
            main(["scaling", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

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
        with np.errstate(over="ignore", invalid="ignore"):
            code, out = run_cli(tmp_path, text, "simulate")
        assert code == 2
        data = json.loads((out / "report.json").read_text())
        assert data["error"]["type"] == "BlowUpError"

    def test_unwritable_out_exits_two(self, tmp_path):
        # --out names a file, so no artifact and no ERROR record can be written
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["admissible", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(out)])
        assert code == 2
        assert out.read_text() == ""

    @pytest.mark.parametrize("subcommand, config", [
        ("admissible", ADMISSIBLE_OK), ("illposed", ILLPOSED_MIN)],
        ids=["admissible", "illposed"])
    def test_any_runner_exception_exits_two_with_record(self, tmp_path, monkeypatch,
                                                        subcommand, config):
        # exit 1 is the FAIL verdict's alone, so a crash must not reach it
        def crash(cfg):
            return 1 / 0

        monkeypatch.setitem(cli._RUNNERS, subcommand, crash)
        code, out = run_cli(tmp_path, config, subcommand)
        assert code == 2
        data = json.loads((out / "report.json").read_text())
        assert data["verdict"] == "ERROR"
        assert data["error"]["type"] == "ZeroDivisionError"
        assert (out / "summary.txt").read_text().startswith(f"{subcommand}: ERROR\n")


class TestOtherSubcommands:
    def test_simulate_writes_conservation_series(self, tmp_path):
        for flow in solver._COEFFICIENTS:
            text = SIMULATE_OK.replace("flow = rescaled", f"flow = {flow}")
            code, out = run_cli(tmp_path / flow, text, "simulate")
            assert code == 0
            assert json.loads((out / "report.json").read_text())["params"]["flow"] == flow
            lines = (out / "series.csv").read_text().splitlines()
            assert lines[0] == "l2,linf,mass,t"
            assert len(lines) == 2 + 5  # header + t=0 + five strided slices
            # every row is the solver's ledger to the last bit
            traj = evolve(cli._gaussian_field(256, 40.0, 0.3, 1.0),
                          SolverConfig(k=12, flow=flow, dt=4e-4, t_end=0.02,
                                       slice_stride=10))
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            assert rows == np.column_stack(
                [traj.l2, traj.linf, traj.mass, traj.times]).tolist()

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

    def test_estimates_never_loads_numpy_random(self, tmp_path):
        # the suite loads numpy.random itself, so only a fresh interpreter can
        # tell that importing every module and drawing packets leaves it out
        script = """
import importlib, pkgutil, sys
import gbolab
for module in pkgutil.walk_packages(gbolab.__path__, "gbolab."):
    importlib.import_module(module.name)
code = gbolab.cli.main(["estimates", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, "numpy.random" in sys.modules)
"""
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(ESTIMATES_KATO.replace("which = kato", "which = all"))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script, str(cfg_file), str(tmp_path / "out")],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split()[-2:] == ["0", "False"]  # exit code 0, never loaded

    def test_estimates_which_accepts_spaced_list(self, tmp_path):
        text = """
[estimates]
which = lowfreq, kato
n = 512
length = 40.0
T = 0.1
n_trials = 1
rungs = 2
"""
        code, out = run_cli(tmp_path, text, "estimates")
        assert code == 0
        data = json.loads((out / "report.json").read_text())
        names = [pt["estimate"] for pt in data["points"] if "drift" in pt]
        assert names == ["lowfreq", "kato"]

    def test_seed_flag_overrides_config(self, tmp_path):
        code, out = run_cli(tmp_path, ESTIMATES_KATO + "seed = 3\n",
                            "estimates", extra=("--seed", "17"))
        assert code == 0
        data = json.loads((out / "report.json").read_text())
        assert data["params"]["seed"] == 17
        assert "seed" not in data  # the seed is a param, stated once

    def test_negative_seed_flag_fails_before_the_draw(self, tmp_path, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("packets drawn before the seed was checked")

        monkeypatch.setattr(linear_ratios, "make_packet_ensemble", no_draw)
        code, out = run_cli(tmp_path, ESTIMATES_KATO, "estimates", extra=("--seed", "-1"))
        assert code == 2
        error = json.loads((out / "report.json").read_text())["error"]
        assert error["type"] == "ConfigError"
        assert "seed must be a non-negative integer, got -1" in error["message"]

    def test_estimates_repeated_name_rejected(self, tmp_path):
        text = ESTIMATES_KATO.replace("which = kato", "which = lowfreq, lowfreq")
        code, out = run_cli(tmp_path, text, "estimates")
        assert code == 2
        data = json.loads((out / "report.json").read_text())
        assert data["error"]["type"] == "ConfigError"
        assert "'lowfreq'" in data["error"]["message"]

    def test_estimates_single_rung_is_an_error(self, tmp_path):
        text = ESTIMATES_KATO.replace("rungs = 2", "rungs = 1")
        code, out = run_cli(tmp_path, text, "estimates")
        assert code == 2
        data = json.loads((out / "report.json").read_text())
        assert data["verdict"] == "ERROR"
        assert "at least two rungs" in data["error"]["message"]

    @pytest.mark.parametrize("key, edits", [
        ("s", {"which = kato": "which = kato, xst\ns = 0.7"}),
        ("T", {"which = kato": "which = kato, lowfreq", "T = 0.1": "T = 1.5"}),
        ("T", {"which = kato": "which = kato, xst", "T = 0.1": "T = 1.0"}),
        # at length 20 the kato packets wrap around unless T is below 0.07
        ("length", {"which = kato": "which = kato, lowfreq",
                    "length = 40.0": "length = 20.0", "T = 0.1": "T = 0.05"}),
        # xi_max/4 = 2.5 leaves the modulated kato packets no centre in [8, xi_max/4];
        # the broadband lowfreq ladder listed first does not need one
        ("n", {"which = kato": "which = lowfreq, kato", "n = 512": "n = 128"}),
    ])
    def test_estimates_ranges_checked_before_any_ladder(
            self, tmp_path, monkeypatch, key, edits):
        def no_ladder(*args, **kwargs):
            raise AssertionError("a ladder ran before the ranges were checked")

        monkeypatch.setattr(cli, "estimate_ladder", no_ladder)
        text = ESTIMATES_KATO
        for old, new in edits.items():
            text = text.replace(old, new)
        code, out = run_cli(tmp_path, text, "estimates")
        assert code == 2
        data = json.loads((out / "report.json").read_text())
        assert data["error"]["type"] == "ConfigError"
        assert data["error"]["message"].startswith(f"{key} must")

    def test_gauge_residual_pass(self, cli_run):
        code, out = cli_run(GAUGE_OK, "gauge-residual")
        assert code == 0
        data = json.loads((out / "report.json").read_text())
        finest = data["points"][-1]
        assert finest["stride"] == 25
        assert finest["residual"] < 1e-4


@pytest.mark.parametrize("key, edit", [
    ("k", ("k = 12", "k = 1")),
    # 800 steps: the coarsest stride 250 leaves slices 0, 250, 500, 750
    ("strides", ("strides = 100, 50, 25", "strides = 250, 50, 25")),
])
def test_gauge_residual_config_checked_before_evolve(tmp_path, monkeypatch, key, edit):
    def no_evolve(*args, **kwargs):
        raise AssertionError("evolve ran before the config was checked")

    monkeypatch.setattr(cli, "evolve", no_evolve)
    code, out = run_cli(tmp_path, GAUGE_OK.replace(*edit), "gauge-residual")
    assert code == 2
    data = json.loads((out / "report.json").read_text())
    assert data["error"]["type"] == "ConfigError"
    assert data["error"]["message"].startswith(key)


# One out-of-range value, or several, for every numeric key of every section,
# each on a config that otherwise passes.  The library states each range except
# those of the CLI's own data keys; every one must fail in parse_config, as a
# ConfigError naming its key, before the runner starts.
RANGE_BASE = {
    "simulate": SIMULATE_OK,
    "gauge-residual": GAUGE_OK,
    "illposed": ILLPOSED_MIN,
    "estimates": ESTIMATES_KATO.replace("which = kato", "which = all"),
    "admissible": ADMISSIBLE_OK,
}
OUT_OF_RANGE = {
    ("simulate", "n"): ["12"],
    ("simulate", "length"): ["0"],
    ("simulate", "k"): ["0"],
    ("simulate", "flow"): ["up"],  # not numeric, but the library checks it too
    # 0.01 exceeds the stability bound 0.5/xi_max^2 = 1.2e-3 of n = 256, L = 40
    ("simulate", "dt"): ["0", "0.01"],
    ("simulate", "t_end"): ["0", "0.0201"],  # 0.0201 is no multiple of dt
    ("simulate", "slice_stride"): ["0", "3"],  # 3 does not divide the 50 steps
    ("simulate", "amplitude"): ["0"],
    ("simulate", "width"): ["0"],
    ("gauge-residual", "n"): ["100"],
    ("gauge-residual", "length"): ["-60"],
    ("gauge-residual", "k"): ["1"],
    ("gauge-residual", "amplitude"): ["0"],
    ("gauge-residual", "width"): ["0"],
    # 1e-3 exceeds the stability bound 7.0e-4 of n = 512, L = 60
    ("gauge-residual", "dt"): ["0", "1e-3"],
    ("gauge-residual", "t_end"): ["0"],
    # 800 steps: stride 400 leaves 3 slices, fewer than the residual's 5
    ("gauge-residual", "strides"): ["100, 0", "", "100", "100, 30", "400, 200"],
    # s = +-200 and theta = 50 put the 4N band's H^s scale outside float64
    ("illposed", "s"): ["-200", "200"],
    ("illposed", "theta"): ["0", "50", "2000"],
    ("illposed", "T"): ["0"],
    # from 1e12 on, float64 rounds the 4N band's phase T c(4 alpha) by over 1e-3 rad
    ("illposed", "N_list"): ["0, 16, 32, 64, 128", "8, 16, 32, 64",
                             "1e12, 2e12, 4e12, 8e12, 1.6e13",
                             "1e20, 2e20, 4e20, 8e20, 1.6e21",
                             "1e80, 2e80, 4e80, 8e80, 1.6e81",
                             "1e200, 2e200, 4e200, 8e200, 1.6e201"],
    ("illposed", "freq_resolution"): ["8"],
    ("estimates", "n"): ["12"],
    ("estimates", "length"): ["0"],
    # 2 * 25.1 * 0.9 >= L/4 = 10: the modulated packets would wrap around
    ("estimates", "T"): ["0", "0.9"],
    ("estimates", "n_trials"): ["0"],
    ("estimates", "n_time"): ["1"],
    ("estimates", "seed"): ["-1"],
    ("estimates", "rungs"): ["1"],
    ("estimates", "s"): ["0.7"],
    ("admissible", "s"): ["0.6"],
    ("admissible", "k"): ["1"],
    ("admissible", "eps"): ["0"],
}
# Keys set together with an out-of-range value: at N = 0.5, alpha = N^-2000
# overflows float64.
ALSO_SET = {
    ("illposed", "theta", "2000"): {"N_list": "0.5, 1, 2, 4, 8"},
}


def _range_cases():
    cases = []
    for subcommand, schema in cli._SCHEMAS.items():
        for key, (parse, _) in schema.items():
            numeric = parse in (int, float, cli._floats, cli._ints)
            if not (numeric or (subcommand, key) in OUT_OF_RANGE):
                continue
            # a numeric key without an entry fails below, so a new key needs one
            for value in OUT_OF_RANGE.get((subcommand, key), [None]):
                cases.append(pytest.param(subcommand, key, value,
                                          id=f"{subcommand}-{key}={value}"))
    return cases


def test_range_tables_name_only_schema_keys():
    # _range_cases walks the schemas, so an entry for a key they lack would be skipped
    stale = {(sub, key) for sub, key in OUT_OF_RANGE
             if key not in cli._SCHEMAS[sub]}
    assert not stale, stale


# The verdict thresholds are constants, not keys, and one flow key replaced sign
# and rescaled: each former key, set to an old value, is an unknown key before
# any work.
REMOVED_KEYS = {
    ("simulate", "mass_tol"): "1e-10",
    ("simulate", "l2_tol"): "1e-6",
    ("gauge-residual", "min_ratio"): "8.0",
    ("gauge-residual", "max_residual"): "1e-4",
    ("illposed", "tolerance"): "0.1",
    ("estimates", "drift_limit"): "2.0",
    ("simulate", "sign"): "plus",
    ("simulate", "rescaled"): "yes",
}


@pytest.mark.parametrize("subcommand, key", REMOVED_KEYS,
                         ids=[f"{sub}-{key}" for sub, key in REMOVED_KEYS])
def test_threshold_keys_are_unknown(tmp_path, monkeypatch, subcommand, key):
    def no_work(*args):
        raise AssertionError("work started before the keys were checked")

    monkeypatch.setattr(cli, "_OBJECTS", {name: no_work for name in cli._OBJECTS})
    monkeypatch.setattr(cli, "_RUNNERS", {name: no_work for name in cli._RUNNERS})
    text = RANGE_BASE[subcommand] + f"{key} = {REMOVED_KEYS[subcommand, key]}\n"
    code, out = run_cli(tmp_path, text, subcommand)
    assert code == 2
    error = json.loads((out / "report.json").read_text())["error"]
    assert error["type"] == "ConfigError"
    assert error["message"] == f"unknown key {key!r} in section [{subcommand}]"


def test_no_config_turns_the_growth_fail_into_a_pass(tmp_path):
    # the README config FAILs by design; a loose tolerance must not make it PASS
    readme = ILLPOSED_MIN.replace("8, 16, 32, 64, 128", "64, 128, 256, 512, 1024").replace(
        "freq_resolution = 16", "freq_resolution = 32")
    code, out = run_cli(tmp_path, readme + "tolerance = 3\n", "illposed")
    assert code == 2
    data = json.loads((out / "report.json").read_text())
    assert data["verdict"] == "ERROR"
    assert "unknown key 'tolerance'" in data["error"]["message"]


@pytest.mark.parametrize("subcommand, key, value", _range_cases())
def test_every_range_fails_in_parse_config(tmp_path, monkeypatch, subcommand, key,
                                           value):
    assert value is not None, f"no out-of-range value for [{subcommand}] {key}"

    def no_runner(cfg):
        raise AssertionError("the runner started before the ranges were checked")

    monkeypatch.setattr(cli, "_RUNNERS", {name: no_runner for name in cli._RUNNERS})
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(RANGE_BASE[subcommand])
    cp[subcommand][key] = value
    cp[subcommand].update(ALSO_SET.get((subcommand, key, value), {}))
    text = io.StringIO()
    cp.write(text)
    code, out = run_cli(tmp_path, text.getvalue(), subcommand)
    assert code == 2
    error = json.loads((out / "report.json").read_text())["error"]
    assert error["type"] == "ConfigError"
    assert re.search(rf"(?<!\w){key}(?!\w)", error["message"]), error["message"]


def test_illposed_equal_rungs_exit_two(tmp_path):
    text = ILLPOSED_MIN.replace("N_list = 8, 16, 32, 64, 128",
                                "N_list = 64, 64, 64, 64, 64")
    code, out = run_cli(tmp_path, text, "illposed")
    assert code == 2
    data = json.loads((out / "report.json").read_text())
    assert data["error"]["type"] == "ConfigError"
    assert "N_list" in data["error"]["message"]


def test_illposed_divergent_rung_fails_in_parse_config(tmp_path, monkeypatch):
    # at N = 1/16 the 4N band's series diverges (4 alpha^2 >= 12 N^2)
    def no_fit(*args, **kwargs):
        raise AssertionError("the fit started before the rungs were checked")

    monkeypatch.setattr(cli, "illposed_growth_fit", no_fit)
    text = ILLPOSED_MIN.replace("N_list = 8, 16, 32, 64, 128",
                                "N_list = 0.0625, 0.125, 0.25, 0.5, 1")
    code, out = run_cli(tmp_path, text, "illposed")
    assert code == 2
    error = json.loads((out / "report.json").read_text())["error"]
    assert error["type"] == "ConfigError"
    assert "diverges at N = 0.0625" in error["message"]


def test_subsample_thins_the_ledger_bit_for_bit():
    # the ledger is read off the slices, so thinning the slices must give
    # exactly the thinned ledger of the full trajectory
    u0 = cli._gaussian_field(256, 40.0, 0.3, 1.0)
    traj = evolve(u0, SolverConfig(k=12, flow="rescaled", dt=4e-4, t_end=4e-3))
    sub = subsample(traj, 2)
    assert sub.config.slice_stride == 2
    assert sub.n_times == 6
    for name in ("mass", "l2", "linf"):
        assert getattr(sub, name).tobytes() == getattr(traj, name)[::2].tobytes()


# Every config above that runs to a verdict, with its exit code.
VERDICT_RUNS = {
    "admissible-0.45-12": ("admissible", ADMISSIBLE_OK, 0),
    "admissible-0.48-30": ("admissible", "[admissible]\ns = 0.48\nk = 30\n", 0),
    "admissible-0.40-12": ("admissible", "[admissible]\ns = 0.40\nk = 12\n", 1),
    "admissible-0.45-3": ("admissible", "[admissible]\ns = 0.45\nk = 3\n", 1),
    "estimates": ("estimates", ESTIMATES_KATO, 0),
    "illposed": ("illposed", ILLPOSED_MIN, 1),
    "simulate": ("simulate", SIMULATE_OK, 0),
    "gauge-residual": ("gauge-residual", GAUGE_OK, 0),
}
RELATIONS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, "==": operator.eq}
# Each run's (name, relation, bound) per check, against the constants that
# set them; the README's verdict table states the same.
STATED = {
    "simulate": [("mass drift", "<=", cli._MASS_TOL),
                 ("relative L2 drift", "<=", cli._L2_TOL)],
    "gauge_residual": [("refinement ratio 100/50", ">=", cli._MIN_RATIO),
                       ("refinement ratio 50/25", ">=", cli._MIN_RATIO),
                       ("finest residual", "<=", cli._MAX_RESIDUAL)],
    "illposed_growth": [("|slope - predicted exponent|", "<=", _EXPONENT_TOL)],
    "estimates": [("kato ladder drift", "<", _DRIFT_LIMIT)],
    "admissible": [(f"N{i} admissible", "==", True) for i in range(1, 13)],
}
THRESHOLD_PARAMS = {"mass_tol", "l2_tol", "min_ratio", "max_residual", "drift_limit",
                    "tolerance"}


@pytest.fixture(params=VERDICT_RUNS)
def verdict_run(request, cli_run):
    """(exit code, artifact directory) of one run."""
    subcommand, text, expected = VERDICT_RUNS[request.param]
    code, out = cli_run(text, subcommand)
    assert code == expected
    return code, out


def not_json(token):
    raise ValueError(f"{token} is not a JSON value (RFC 8259)")


def test_report_json_is_strict_json(verdict_run):
    # NaN, Infinity and -Infinity are Python's extensions, which jq and
    # JSON.parse reject; the admissible run at 0.45/12 once wrote "q": Infinity
    _, out = verdict_run
    json.loads((out / "report.json").read_text(), parse_constant=not_json)


def test_verdict_is_the_conjunction_of_the_written_checks(verdict_run):
    code, out = verdict_run
    data = json.loads((out / "report.json").read_text())
    summary = (out / "summary.txt").read_text().splitlines()
    checks = data["checks"]
    assert checks and len({check["name"] for check in checks}) == len(checks)
    for check in checks:
        assert set(check) == {"name", "value", "relation", "bound", "passes"}
        assert check["passes"] is RELATIONS[check["relation"]](check["value"], check["bound"])
        assert ("check: {name} = {value} {relation} {bound}: ".format(**check)
                + ("pass" if check["passes"] else "fail")) in summary
    assert data["verdict"] == ("PASS" if all(c["passes"] for c in checks) else "FAIL")
    assert code == (0 if data["verdict"] == "PASS" else 1)


def test_each_run_states_its_checks_against_its_constants(verdict_run):
    # each threshold is a check's bound, not a copy in params
    _, out = verdict_run
    data = json.loads((out / "report.json").read_text())
    assert [(c["name"], c["relation"], c["bound"]) for c in data["checks"]] == STATED[data["id"]]
    assert not THRESHOLD_PARAMS & set(data["params"])


def test_non_finite_check_value_is_an_error_record(tmp_path, monkeypatch):
    # a value JSON cannot hold gives an ERROR record, not a malformed report.json
    def nan_report(cfg):
        return ExperimentReport("admissible", cfg.params, [],
                                [_Check("drift", float("nan"), "<=", 1.0)])

    monkeypatch.setitem(cli._RUNNERS, "admissible", nan_report)
    code, out = run_cli(tmp_path, ADMISSIBLE_OK, "admissible")
    assert code == 2
    data = json.loads((out / "report.json").read_text(), parse_constant=not_json)
    assert data["verdict"] == "ERROR"
    assert data["error"]["type"] == "ValueError"
    assert not (out / "series.csv").exists()
