"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer times gbolab from outside: it replaces every public function of
each gbolab module, in every gbolab namespace that imported it, and the
one-dimensional ``numpy.fft`` transforms with wrappers that record a span
(name, parent, start, end, work).  Spans stay in memory and are written
once, when the run ends.  ``layer_metrics`` turns a span file into the
per-layer metrics named in BENCHMARK.json; a layer's self time is its span
durations minus the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time

FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft")

# Private functions that are layer boundaries in their own right.
PRIVATE_BOUNDARIES = {"gbolab.cli": ("_write_success",)}


def _arg(args, kwargs, position, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _fft_work(name, args, kwargs, result):
    """(complex points, computed flops) of one 1-D transform call.

    A real transform of length n has n//2+1 complex points and half the
    flops of a complex one.
    """
    shape = getattr(args[0], "shape", None) or (len(args[0]),)
    axis = _arg(args, kwargs, 2, "axis", -1)
    n = _arg(args, kwargs, 1, "n")
    if n is None:
        n = 2 * (shape[axis] - 1) if name == "irfft" else shape[axis]
    batch = math.prod(shape) // max(shape[axis], 1)
    flop = 5.0 * n * math.log2(max(n, 2))
    if name in ("rfft", "irfft"):
        return [batch * (n // 2 + 1), batch * flop / 2.0]
    return [batch * n, batch * flop]


def _steps_work(args, kwargs, result):
    return [_arg(args, kwargs, 1, "cfg").n_steps()]


def _slices_in_work(args, kwargs, result):
    return [len(_arg(args, kwargs, 0, "u_traj").times)]


def _slices_out_work(args, kwargs, result):
    return [result.n_times]


def _rungs_work(args, kwargs, result):
    return [len(_arg(args, kwargs, 3, "N_list"))]


_WORK = {
    "solver.evolve": _steps_work,
    "gauge.gauge_equation_residual": _slices_in_work,
    "linear_ratios.free_evolution_spacetime": _slices_out_work,
    "illposed.illposed_growth_fit": _rungs_work,
}


class Tracer:
    """Records a span around every call of the functions it wraps."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name: str, fn, work=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name_id, parent, start, end, None]
            if work is not None:
                spans[idx][4] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap gbolab's public functions and the numpy.fft transforms."""
        import numpy as np

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "gbolab" or name.startswith("gbolab.")]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            extra = PRIVATE_BOUNDARIES.get(mod.__name__, ())
            for attr, obj in vars(mod).items():
                if not (inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in extra)):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(name, obj, _WORK.get(name)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for name in FFT_ENTRY_POINTS:
            work = functools.partial(_fft_work, name)
            setattr(np.fft, name, self.wrap(f"fft.{name}", getattr(np.fft, name), work))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


# ---------------------------------------------------------------------------
# Per-layer metrics from a span file.

SPECTRAL_TRANSFORMS = ("spectral.field_from_values", "spectral.field_from_coeffs")
SPECTRAL_OPERATORS = tuple(
    "spectral." + f for f in (
        "spectral_derivative", "hilbert", "fractional_derivative",
        "project_half_line", "band_projections", "tilde_projection",
        "lp_block", "lowpass_P0", "antiderivative", "free_evolution_phases",
        "free_evolve", "apply_multiplier",
    )
)

PER_LAYER = (
    ("spectral.transform.calls", "count"),
    ("spectral.transform.self_s", "s"),
    ("spectral.operator.calls", "count"),
    ("spectral.operator.self_s", "s"),
    ("fft.calls", "count"),
    ("fft.points", "count"),
    ("fft.self_s", "s"),
    ("fft.flop_computed", "flop"),
    ("solver.evolve.self_s", "s"),
    ("solver.steps", "count"),
    ("solver.step_us", "us"),
    ("gauge.residual.calls", "count"),
    ("gauge.residual.slices", "count"),
    ("gauge.residual.self_s", "s"),
    ("gauge.residual.ms_per_slice", "ms"),
    ("norms.xst_components.self_s", "s"),
    ("norms.mixed_norm.calls", "count"),
    ("norms.mixed_norm.self_s", "s"),
    ("norms.sobolev_norm.calls", "count"),
    ("linear_ratios.free_evolution_spacetime.calls", "count"),
    ("linear_ratios.free_evolution_spacetime.slices", "count"),
    ("linear_ratios.free_evolution_spacetime.self_s", "s"),
    ("packets.self_s", "s"),
    ("illposed.v_details.calls", "count"),
    ("illposed.v_details.self_s", "s"),
    ("illposed.rung_s", "s"),
    ("illposed.oracle.self_s", "s"),
    ("illposed.oracle.time_samples", "count"),
    ("cli.parse_config.self_s", "s"),
    ("cli.artifacts.self_s", "s"),
    ("cli.artifacts.bytes", "B"),
    ("illposed.refinement_disagreement.max", "frac"),
    ("illposed.oracle_gap", "frac"),
    ("trace.overhead_frac", "frac"),
)


class SpanTable:
    """Per-name sums over a span file: calls, self and total time, work."""

    def __init__(self, names: list[str], spans: list):
        child = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.work: dict[str, list[float]] = {}
        self.parent_counts: dict[tuple[str, str], int] = {}
        for i, (name_id, parent, start, end, work) in enumerate(spans):
            name = names[name_id]
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child[i]
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
            if work:
                acc = self.work.setdefault(name, [0.0] * len(work))
                for j, w in enumerate(work):
                    acc[j] += w
            if parent >= 0:
                key = (names[spans[parent][0]], name)
                self.parent_counts[key] = self.parent_counts.get(key, 0) + 1

    def names_with(self, prefix: str) -> list[str]:
        return [n for n in self.calls if n.startswith(prefix)]

    def sum(self, table: dict, names) -> float:
        return sum(table.get(n, 0) for n in names)

    def work_sum(self, names, index: int) -> float:
        return sum(self.work.get(n, [0.0] * (index + 1))[index] for n in names)

    def module_shares(self, wall_s: float) -> dict[str, float]:
        """Self time per module (span-name prefix) as a share of wall_s."""
        shares: dict[str, float] = {}
        for name, value in self.self_s.items():
            module = name.split(".", 1)[0]
            shares[module] = shares.get(module, 0.0) + value / wall_s
        shares["untraced"] = 1.0 - sum(shares.values())
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def layer_metrics(table: SpanTable) -> dict[str, float]:
    """The span-derived per-layer metrics (zero where a layer is not run)."""
    t = table
    ffts = t.names_with("fft.")
    m = {
        "spectral.transform.calls": t.sum(t.calls, SPECTRAL_TRANSFORMS),
        "spectral.transform.self_s": t.sum(t.self_s, SPECTRAL_TRANSFORMS),
        "spectral.operator.calls": t.sum(t.calls, SPECTRAL_OPERATORS),
        "spectral.operator.self_s": t.sum(t.self_s, SPECTRAL_OPERATORS),
        "fft.calls": t.sum(t.calls, ffts),
        "fft.points": t.work_sum(ffts, 0),
        "fft.self_s": t.sum(t.self_s, ffts),
        "fft.flop_computed": t.work_sum(ffts, 1),
        "solver.evolve.self_s": t.self_s.get("solver.evolve", 0.0),
        "solver.steps": t.work_sum(["solver.evolve"], 0),
        "gauge.residual.calls": t.calls.get("gauge.gauge_equation_residual", 0),
        "gauge.residual.slices": t.work_sum(["gauge.gauge_equation_residual"], 0),
        "gauge.residual.self_s": t.self_s.get("gauge.gauge_equation_residual", 0.0),
        "norms.xst_components.self_s": t.self_s.get("norms.xst_components", 0.0),
        "norms.mixed_norm.calls": t.calls.get("norms.mixed_norm", 0),
        "norms.mixed_norm.self_s": t.self_s.get("norms.mixed_norm", 0.0),
        "norms.sobolev_norm.calls": t.calls.get("norms.sobolev_norm", 0),
        "linear_ratios.free_evolution_spacetime.calls":
            t.calls.get("linear_ratios.free_evolution_spacetime", 0),
        "linear_ratios.free_evolution_spacetime.slices":
            t.work_sum(["linear_ratios.free_evolution_spacetime"], 0),
        "linear_ratios.free_evolution_spacetime.self_s":
            t.self_s.get("linear_ratios.free_evolution_spacetime", 0.0),
        "packets.self_s": t.sum(t.self_s, t.names_with("packets.")),
        "illposed.v_details.calls": t.calls.get("illposed.illposed_v_details", 0),
        "illposed.v_details.self_s":
            t.self_s.get("illposed.illposed_v_details", 0.0),
        "illposed.oracle.self_s":
            t.self_s.get("illposed.torus_duhamel_oracle", 0.0),
        # each Simpson time sample is one inverse and one forward transform
        "illposed.oracle.time_samples": sum(
            t.parent_counts.get(("illposed.torus_duhamel_oracle", f), 0)
            for f in ffts
        ) / 2,
        "cli.parse_config.self_s": t.self_s.get("cli.parse_config", 0.0),
        "cli.artifacts.self_s": t.self_s.get("cli._write_success", 0.0),
    }
    steps = m["solver.steps"]
    m["solver.step_us"] = (
        1e6 * t.total_s.get("solver.evolve", 0.0) / steps if steps else 0.0
    )
    slices = m["gauge.residual.slices"]
    m["gauge.residual.ms_per_slice"] = (
        1e3 * t.total_s.get("gauge.gauge_equation_residual", 0.0) / slices
        if slices else 0.0
    )
    rungs = t.work_sum(["illposed.illposed_growth_fit"], 0)
    m["illposed.rung_s"] = (
        t.total_s.get("illposed.illposed_growth_fit", 0.0) / rungs
        if rungs else 0.0
    )
    return m
