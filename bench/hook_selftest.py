"""Self-test of the benchmark's tracing hooks, on shrunken workloads.

    PYTHONPATH=src python3 -m pytest bench/hook_selftest.py

The counters a layer is predicted to touch must read nonzero on its
workloads and exactly zero elsewhere, every traced name must still exist,
and the wrappers must not change a single reported number.

The file name keeps it out of a plain ``pytest`` run of the repository:
Hypothesis draws examples from constants found in every imported local
module, so importing the benchmark there would change which examples the
property tests under ``tests/`` see.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import tracer
from workloads import BENCH_DIR, ROOT, SRC, WORKLOADS, body_sha256, violated_predictions

# small enough for a few seconds per workload, large enough to reach every
# code path the full workload reaches (the inner Monte Carlo keeps its
# 256-copy floor, the band diagnostics still sample every path)
SHRINK = {
    "gbm-scan": ["simulation.paths=64"],
    "bessel0-bound": ["simulation.paths=64"],
    "bessel0-martingale": ["simulation.paths=2000", "simulation.dt=0.01"],
}
SEED = 7


def _run(argv, codes):
    env = dict(os.environ, PYTHONPATH=str(SRC), VOLBOUND_WORKERS="2")
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode in codes, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def shrunk(request):
    name = request.param
    extra = SHRINK[name]
    traced = json.loads(
        _run([str(BENCH_DIR / "tracer.py"), "--workload", name, "--seed", str(SEED),
              *(a for item in extra for a in ("--set", item))], codes=(0,))
    )
    untraced = json.loads(
        _run(["-m", "volbound", *WORKLOADS[name].argv(SEED, extra)], codes=(0, 1))
    )
    return name, traced, untraced


def test_every_patched_name_exists():
    resolved = tracer.resolve_patches()
    assert len(resolved) == len(tracer.PATCHES)


def test_missing_patched_name_is_an_error():
    with pytest.raises(LookupError, match="volbound.bound.no_such_layer"):
        tracer.resolve_patches((("volbound.bound", "no_such_layer", "bound.x", None),))


def test_tracer_restores_every_name():
    before = [getattr(m, n) for m, n, _, _ in tracer.resolve_patches()]
    with tracer.Tracer().installed():
        pass
    assert [getattr(m, n) for m, n, _, _ in tracer.resolve_patches()] == before


def test_traced_body_matches_untraced(shrunk):
    _, traced, untraced = shrunk
    assert traced["body_sha256"] == body_sha256(untraced)
    assert traced["exit_code"] == (0 if untraced["verdict"] else 1)


def test_predicted_counters_hold(shrunk):
    name, traced, _ = shrunk
    assert violated_predictions(name, traced["metrics"]) == []


def test_every_declared_layer_metric_is_reported(shrunk):
    _, traced, _ = shrunk
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    # these two are computed by run.py from more than the traced run
    assert declared - {"trace.overhead_s", "cli.verdict_pass"} == set(traced["metrics"])
