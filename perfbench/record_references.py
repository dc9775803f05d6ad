"""Record the output references the benchmark checks against.

    python3 perfbench/record_references.py [--size full|small] [--workload W]

Runs every shipped input of each workload once, at the current commit, and
stores the artifacts' checked numbers in ``references.json`` next to this
file, keyed by size, workload and input index.  Run it only on a commit
whose outputs are known good; a run with an unexpected exit code is an
error and nothing is written for that workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads


def record(size: str, workload: str) -> dict:
    entries = {}
    for index in range(len(workloads.CHOICES[workload])):
        inputs = workloads.inputs(workload, index, size)
        child = run.spawn(f"{size}-{workload}-{index}", workload, inputs["params"])
        if child.returncode != 0 or child.result is None:
            raise RuntimeError(f"{workload}[{index}] crashed; see {child.out_dir.parent}")
        exit_code = child.result["exit_code"]
        if exit_code != workloads.EXPECTED_EXIT[workload]:
            raise RuntimeError(f"{workload}[{index}] exited {exit_code}")
        outputs = workloads.outputs(workload, child.out_dir)
        entries[str(index)] = {"params": inputs["params"], "outputs": outputs}
        print(f"{size} {workload}[{index}] {child.wall_s:.2f}s {outputs}", flush=True)
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    refs = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.exists() else {}
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    for workload in args.workload or workloads.WORKLOADS:
        refs.setdefault(args.size, {})[workload] = record(args.size, workload)
        refs["recorded_at"] = run.environment()["git_sha"]
        run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
