"""gbolab benchmark: time to solution of four workloads, with output checks.

    python3 perfbench/run.py --workload growth --seed 0 --seconds 20 --trace 0

Run from the root of a gbolab checkout; gbolab is imported from ``src``.
Every workload run is a fresh child process (closed loop, one client, one
run at a time, BLAS threads set to 1).  With ``--trace 0`` the benchmark
repeats the workload until the next run would pass ``--seconds`` (at least
once) and reports medians of the end-to-end metrics; with ``--trace 1`` it
makes one run without tracing and one traced run and reports the per-layer
metrics and the tracing overhead.  Every run's artifacts are checked
against ``references.json``.  The last line of standard output is the JSON
result; the lines before it record the environment, each run, and a
readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 160.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class ChildRun:
    """Outcome of one child process: its timings, usage and artifacts."""

    def __init__(self, returncode, t0, t_end, usage, result, out_dir):
        self.returncode = returncode
        self.result = result
        self.out_dir = out_dir
        t_setup = result.get("t_setup", t_end) if result else t_end
        t_done = result.get("t_done", t_end) if result else t_end
        self.setup_s = t_setup - t0
        self.wall_s = t_done - t0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


def spawn(tag: str, workload: str, params: dict, trace: bool = False) -> ChildRun:
    """Run child.py once and wait for it; kill it if it overruns."""
    run_dir = WORK / tag
    run_dir.mkdir(parents=True)
    out_dir = run_dir / "out"
    config = run_dir / "run.ini"
    if workload in workloads.SUBCOMMANDS:
        config.write_text(workloads.config_text(workload, params))
    spec = {
        "src": str(SRC),
        "workload": workload,
        "params": params,
        "config": str(config),
        "out_dir": str(out_dir),
        "trace": trace,
        "spans": str(run_dir / "spans.json"),
        "result": str(run_dir / "result.json"),
    }
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, **THREAD_ENV)
    with open(run_dir / "log.txt", "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    t_end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = run_dir / "result.json"
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    return ChildRun(proc.returncode, t0, t_end, usage, result, out_dir)


def check_run(workload: str, run: ChildRun, inputs: dict, ref: dict | None):
    """Problems with one workload run: crash, wrong exit, wrong outputs."""
    if run.returncode != 0 or run.result is None:
        log = (run.out_dir.parent / "log.txt").read_text()[-2000:]
        return [f"child exited {run.returncode}: {log.strip()}"]
    if not Path(run.result["gbolab_file"]).is_relative_to(SRC):
        return [f"imported gbolab from {run.result['gbolab_file']}, not {SRC}"]
    if ref is None or ref["params"] != inputs["params"]:
        return ["no reference recorded for these inputs"]
    try:
        out = workloads.outputs(workload, run.out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
    return workloads.check(workload, run.result["exit_code"], out, ref["outputs"])


def load_reference(size: str, workload: str, index: int) -> dict | None:
    refs = json.loads(REFERENCES.read_text())
    return refs.get(size, {}).get(workload, {}).get(str(index))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def _steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "blas_threads": THREAD_ENV,
        "loadavg": os.getloadavg(),
    }


def emit(kind: str, record: dict) -> None:
    print(f"{kind} {json.dumps(record)}", flush=True)


def run_workload(workload, inputs, ref, n, trace):
    """One checked workload run, logged with the machine's load around it."""
    load_before = os.getloadavg()
    steal_before = _steal_s()
    run = spawn(f"run{n}", workload, inputs["params"], trace=trace)
    problems = check_run(workload, run, inputs, ref)
    emit("run", {
        "n": n, "trace": trace, "wall_s": run.wall_s, "cpu_s": run.cpu_s,
        "setup_s": run.setup_s, "peak_rss_mb": run.peak_rss_mb,
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "steal_s": _steal_s() - steal_before,
        "numpy": (run.result or {}).get("numpy"),
        "sign_convention": (run.result or {}).get("sign_convention"),
        "problems": problems,
    })
    return run, problems


def health(workload: str, run: ChildRun) -> dict:
    """Numerical health read from a run's artifacts (zero where absent)."""
    out = {"illposed.refinement_disagreement.max": 0.0, "illposed.oracle_gap": 0.0}
    try:
        data = workloads.outputs(workload, run.out_dir)
    except (OSError, ValueError, KeyError):
        return out
    if workload == "growth":
        out["illposed.refinement_disagreement.max"] = max(
            data["refinement_disagreement"]
        )
    elif workload == "oracle":
        out["illposed.oracle_gap"] = data["gap"]
    return out


def artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def setup_probes(tag: str) -> list[float]:
    """setup_s of SETUP_PROBES child processes that only import gbolab."""
    return [spawn(f"setup-{tag}{i}", "setup", {}).setup_s
            for i in range(SETUP_PROBES)]


def measure(workload, inputs, ref, seconds, trace):
    """(metrics, attempted, failed) for one benchmark invocation."""
    failed = 0
    if trace:
        plain, problems = run_workload(workload, inputs, ref, 0, False)
        failed += bool(problems)
        traced, problems = run_workload(workload, inputs, ref, 1, True)
        failed += bool(problems)
        spans = traced.out_dir.parent / "spans.json"
        table = tracer.SpanTable(
            **(json.loads(spans.read_text()) if spans.exists()
               else {"names": [], "spans": []})
        )
        metrics = tracer.layer_metrics(table)
        metrics.update(health(workload, traced))
        metrics["cli.artifacts.bytes"] = artifact_bytes(traced.out_dir)
        metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
        emit("self_time_share", table.module_shares(traced.wall_s))
        return metrics, 2, failed

    # Probes before and after the workload runs sample the machine at two
    # times, which steadies the set-up median on a host whose speed drifts.
    setups = setup_probes("before")
    runs = []
    start = time.monotonic()
    while True:
        run, problems = run_workload(workload, inputs, ref, len(runs), False)
        runs.append(run)
        failed += bool(problems)
        elapsed = time.monotonic() - start
        if elapsed + run.wall_s > seconds:
            break
    setups += setup_probes("after") + [r.setup_s for r in runs]
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    return metrics, len(runs), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'small' is the reduced size of the self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "gbolab" / "__init__.py").is_file():
        print(f"error: no gbolab sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    inputs = workloads.inputs(args.workload, args.seed, args.size)
    ref = load_reference(args.size, args.workload, inputs["index"])
    emit("env", environment())
    emit("inputs", {"workload": args.workload, "seed": args.seed,
                    "size": args.size, **inputs})
    metrics, attempted, failed = measure(
        args.workload, inputs, ref, args.seconds, bool(args.trace)
    )
    emit("env_after", {"loadavg": os.getloadavg()})

    units = dict(tracer.PER_LAYER if args.trace else END_TO_END)
    for name, unit in units.items():
        print(f"{args.workload:10s} {name:46s} {metrics[name]:.6g} {unit}")
    print(f"{args.workload:10s} {'check_fail_frac':46s} {failed / attempted:.6g} "
          f"frac ({failed} of {attempted} runs failed the output check)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
