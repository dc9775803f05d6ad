"""One benchmark run in a fresh process: ``python3 child.py SPEC.json``.

Imports gbolab from the checkout's ``src``, measures the propagator sign
convention (the end of set-up), runs one workload (or none, for a set-up
probe), optionally under the tracer, and writes its timestamps to the
spec's result file.  Timestamps are ``time.monotonic()``, the clock the
parent read just before starting this process.
"""

import json
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import numpy
    import gbolab
    from gbolab.spectral import sign_convention_label

    convention = sign_convention_label()
    t_setup = time.monotonic()
    result = {
        "t_setup": t_setup,
        "sign_convention": convention,
        "gbolab_file": gbolab.__file__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if spec["workload"] != "setup":
        import workloads

        tracer = None
        if spec["trace"]:
            import gbolab.cli  # noqa: F401  (load every module before wrapping)
            import gbolab.experiments  # noqa: F401
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        result["exit_code"] = workloads.execute(
            spec["workload"], spec["params"], spec["config"], spec["out_dir"]
        )
        result["t_done"] = time.monotonic()
        if tracer is not None:
            tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
