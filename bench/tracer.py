"""Traced in-process run of one benchmark workload.

    python3 bench/tracer.py --workload NAME --seed N [--set KEY=VALUE ...]

Imports ``volbound.cli`` (timing the import), wraps the calls into each
layer, runs the CLI in this process and prints one JSON line: exit code,
report body hash, the report's compute time and the per-layer metrics.

A wrapper must replace the name where its caller looks it up: a module
that did ``from .pricing import _bs_call_core`` holds its own binding, so
``bound._bs_call_core`` is patched, not ``pricing._bs_call_core`` alone.
Spans are kept in memory and aggregated after the run. A layer's self
time is its span minus the spans of the layers it called.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import sys
import threading
import time
from collections import defaultdict

from workloads import SRC, WORKLOADS, body_sha256


def _path_steps(model, sigma, z_start, t_start, time_grid, cfg):
    # nominal: from the public arguments, whatever the stepping scheme does
    return cfg.n_paths * (float(time_grid[-1]) - float(t_start)) / cfg.dt


def _joint_path_steps(scn, time_grid, cfg):
    return cfg.n_paths * (float(time_grid[-1]) - float(time_grid[0])) / cfg.dt


def _outer_paths(model, theta, s, *args, **kwargs):
    return len(s)


def _broadcast_size(z, strike, variance):
    # every caller passes scalars and arrays of one common shape, so the
    # largest input is the broadcast size
    return max(math.prod(getattr(a, "shape", ())) for a in (z, strike, variance))


def _norm_cdf_size(x):
    return math.prod(getattr(x, "shape", ()))


def _bessel_k_size(order, x, *args, **kwargs):
    return math.prod(getattr(x, "shape", ()))


#: (module, name as its caller looks it up, layer, work per call or None)
PATCHES = (
    ("volbound.cli", "load_document", "config.resolve", None),
    ("volbound.cli", "resolve", "config.resolve", None),
    ("volbound.cli", "build_report", "report.serialize", None),
    ("volbound.cli", "render_json", "report.serialize", None),
    ("volbound.cli", "check_bound", "bound.check_bound", None),
    ("volbound.cli", "pricing_residuals", "bound.residuals", None),
    ("volbound.cli", "martingale_check_U", "phi.martingale", None),
    ("volbound.cli", "martingale_check_V", "phi.martingale", None),
    ("volbound.cli", "semigroup_check", "phi.martingale", None),
    ("volbound.bound", "joint_simulate", "bound.joint_simulate", _joint_path_steps),
    ("volbound.bound", "_g_batch", "bound.g_tail", _outer_paths),
    ("volbound.bound", "l_value", "bound.l_band", None),
    ("volbound.bound", "_bs_call_core", "pricing.bs_call_core", _broadcast_size),
    ("volbound.pricing", "_bs_call_core", "pricing.bs_call_core", _broadcast_size),
    ("volbound.bound", "simulate", "models.simulate", _path_steps),
    ("volbound.phi", "simulate", "models.simulate", _path_steps),
    ("volbound.pricing", "simulate", "models.simulate", _path_steps),
    ("volbound.pricing", "norm_cdf", "special_functions.norm_cdf", _norm_cdf_size),
    ("volbound.models", "bessel_k", "special_functions.bessel_k", _bessel_k_size),
)


#: layers whose CPU time is read: a process-CPU clock read is a system call,
#: too slow to make around the many small calls of the other layers
CPU_LAYERS = frozenset({"models.simulate", "bound.g_tail"})


def resolve_patches(patches=PATCHES):
    """(module object, name, layer, work) per entry; a missing name raises."""
    out = []
    for mod_name, name, layer, work in patches:
        module = importlib.import_module(mod_name)
        if not callable(getattr(module, name, None)):
            raise LookupError(
                f"traced name {mod_name}.{name} ({layer}) no longer exists; "
                "update the benchmark's patch table"
            )
        out.append((module, name, layer, work))
    return out


class Tracer:
    """Records one span per wrapped call: layer, parent span, wall and CPU time."""

    def __init__(self):
        # span: [layer, parent index, wall start, wall end, cpu start, cpu end, work]
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, layer, fn, work):
        cpu = layer in CPU_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [layer, stack[-1] if stack else None, 0.0, 0.0, 0.0, 0.0, 0]
            if work is not None:
                span[6] = work(*args, **kwargs)
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(span)
            if cpu:
                span[4] = time.process_time()
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                if cpu:
                    span[5] = time.process_time()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        undo = []
        try:
            for module, name, layer, work in resolve_patches():
                original = getattr(module, name)
                undo.append((module, name, original))
                setattr(module, name, self.wrap(layer, original, work))
            yield self
        finally:
            for module, name, original in reversed(undo):
                setattr(module, name, original)

    def layers(self) -> dict:
        """Per layer of PATCHES: calls, s (span total), self_s, cpu_s, work."""
        child_s = defaultdict(float)
        for layer, parent, t0, t1, *_ in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        out = {
            layer: {"calls": 0, "s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "work": 0}
            for _, _, layer, _ in PATCHES
        }
        for i, (layer, _, t0, t1, c0, c1, work) in enumerate(self.spans):
            agg = out[layer]
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child_s[i]
            agg["cpu_s"] += c1 - c0
            agg["work"] += work
        return out


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(layers: dict, import_s: float) -> dict:
    """The benchmark's per-layer metrics, from aggregated spans."""
    sim = layers["models.simulate"]
    joint = layers["bound.joint_simulate"]
    g_tail = layers["bound.g_tail"]
    mart = layers["phi.martingale"]
    bs = layers["pricing.bs_call_core"]
    cdf = layers["special_functions.norm_cdf"]
    kfun = layers["special_functions.bessel_k"]
    return {
        "cli.import_s": import_s,
        "config.resolve_s": layers["config.resolve"]["s"],
        "report.serialize_s": layers["report.serialize"]["s"],
        "models.simulate.calls": sim["calls"],
        "models.simulate.s": sim["s"],
        "models.simulate.nominal_path_steps": sim["work"],
        "models.simulate.ns_per_path_step": _ratio(sim["s"], sim["work"], 1e9),
        "models.simulate.cpu_per_wall": _ratio(sim["cpu_s"], sim["s"]),
        "bound.joint_simulate.calls": joint["calls"],
        "bound.joint_simulate.s": joint["s"],
        "bound.joint_simulate.ns_per_path_step": _ratio(joint["s"], joint["work"], 1e9),
        "bound.g_tail.calls": g_tail["calls"],
        "bound.g_tail.paths": g_tail["work"],
        "bound.g_tail.s": g_tail["s"],
        "bound.g_tail.us_per_path": _ratio(g_tail["s"], g_tail["work"], 1e6),
        "bound.g_tail.cpu_per_wall": _ratio(g_tail["cpu_s"], g_tail["s"]),
        "bound.l_band.calls": layers["bound.l_band"]["calls"],
        "bound.l_band.s": layers["bound.l_band"]["s"],
        "bound.residuals.s": layers["bound.residuals"]["s"],
        "bound.check_bound.self_s": layers["bound.check_bound"]["self_s"],
        "phi.martingale.s": mart["s"],
        "phi.martingale.self_s": mart["self_s"],
        "pricing.bs_call_core.calls": bs["calls"],
        "pricing.bs_call_core.elements": bs["work"],
        "pricing.bs_call_core.self_s": bs["self_s"],
        "special_functions.norm_cdf.calls": cdf["calls"],
        "special_functions.norm_cdf.elements": cdf["work"],
        "special_functions.norm_cdf.ns_per_element": _ratio(cdf["s"], cdf["work"], 1e9),
        "special_functions.bessel_k.calls": kfun["calls"],
        "special_functions.bessel_k.elements": kfun["work"],
        "special_functions.bessel_k.ns_per_element": _ratio(kfun["s"], kfun["work"], 1e9),
    }


def traced_run(workload: str, seed: int, extra=()) -> dict:
    """Run one workload in this process under the tracer."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    cli = importlib.import_module("volbound.cli")
    import_s = time.perf_counter() - started

    tracer = Tracer()
    out = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(out):
        code = cli.main(WORKLOADS[workload].argv(seed, extra))
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        return {"exit_code": code, "body_sha256": None}
    return {
        "exit_code": code,
        "body_sha256": body_sha256(report),
        "compute_s": report["timing"]["wall_seconds"],
        "metrics": layer_metrics(tracer.layers(), import_s),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    print(json.dumps(traced_run(args.workload, args.seed, args.set)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
