"""Workload table, layer predictions and report hashing for the benchmark.

Each workload is one fixed ``volbound`` CLI invocation; the benchmark seed
is passed through ``--seed`` and is the only input that varies between
runs. Every workload runs as a closed loop with one client: the next
invocation starts when the previous one has exited.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = BENCH_DIR / "configs"

#: worker count of every timed and traced run; the invariance check
#: re-runs at one worker
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str

    @property
    def config(self) -> Path:
        return CONFIGS / f"{self.name}.yaml"

    def argv(self, seed: int, extra=()) -> list[str]:
        """CLI arguments after ``volbound``; extra holds --set overrides."""
        args = [self.command, "--config", str(self.config), "--seed", str(seed)]
        for item in extra:
            args += ["--set", item]
        return args


# why each workload was chosen is recorded with it in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gbm-scan", "scan"),
        Workload("bessel0-bound", "check-bound"),
        Workload("bessel0-martingale", "martingale-check"),
    )
}

#: Per-layer counters and the end-to-end metric each should move. "nonzero"
#: and "zero" name the workloads on which the traced run must read a
#: nonzero or an exactly zero value. The hook self-test enforces both and
#: every traced benchmark run lists what it contradicts, so a refactor that
#: stops routing work through a traced name cannot silently zero a layer.
PREDICTIONS = {
    "cli.import_s": {"moves": "setup_s", "nonzero": list(WORKLOADS), "zero": []},
    "config.resolve_s": {"moves": "setup_s", "nonzero": list(WORKLOADS), "zero": []},
    "report.serialize_s": {"moves": "setup_s", "nonzero": list(WORKLOADS), "zero": []},
    "models.simulate.calls": {
        "moves": "compute_s on bessel0-martingale",
        "nonzero": ["bessel0-martingale"],
        "zero": ["gbm-scan", "bessel0-bound"],
    },
    "bound.joint_simulate.calls": {
        "moves": "compute_s on gbm-scan (2 calls per scan point; 1 after dedup)",
        "nonzero": ["gbm-scan", "bessel0-bound"],
        "zero": ["bessel0-martingale"],
    },
    "bound.g_tail.calls": {
        "moves": "compute_s and peak_rss_mb on bessel0-bound (inner MC); "
        "the quadrature route on gbm-scan",
        "nonzero": ["gbm-scan", "bessel0-bound"],
        "zero": ["bessel0-martingale"],
    },
    "bound.l_band.calls": {
        "moves": "compute_s on gbm-scan",
        "nonzero": ["gbm-scan"],
        "zero": ["bessel0-bound", "bessel0-martingale"],
    },
    "bound.residuals.s": {
        "moves": "compute_s on gbm-scan",
        "nonzero": ["gbm-scan"],
        "zero": ["bessel0-bound", "bessel0-martingale"],
    },
    "bound.check_bound.self_s": {
        "moves": "compute_s on gbm-scan and bessel0-bound",
        "nonzero": ["gbm-scan", "bessel0-bound"],
        "zero": ["bessel0-martingale"],
    },
    "phi.martingale.s": {
        "moves": "compute_s on bessel0-martingale",
        "nonzero": ["bessel0-martingale"],
        "zero": ["gbm-scan", "bessel0-bound"],
    },
    "pricing.bs_call_core.calls": {
        "moves": "compute_s on gbm-scan",
        "nonzero": ["gbm-scan"],
        "zero": ["bessel0-bound", "bessel0-martingale"],
    },
    "special_functions.norm_cdf.calls": {
        "moves": "compute_s on gbm-scan",
        "nonzero": ["gbm-scan"],
        "zero": ["bessel0-bound", "bessel0-martingale"],
    },
    "special_functions.bessel_k.calls": {
        "moves": "compute_s on bessel0-bound and bessel0-martingale",
        "nonzero": ["bessel0-bound", "bessel0-martingale"],
        "zero": ["gbm-scan"],
    },
}


def violated_predictions(workload: str, metrics: dict) -> list[str]:
    """The PREDICTIONS that a traced run of the workload contradicts."""
    out = []
    for metric, pred in PREDICTIONS.items():
        value = metrics[metric]
        if workload in pred["nonzero"] and value == 0:
            out.append(f"{metric} reads zero on {workload}")
        if workload in pred["zero"] and value != 0:
            out.append(f"{metric} reads {value} on {workload}, predicted zero")
    return out


def body_sha256(report: dict) -> str:
    """sha256 of the report without its timing block, in canonical form.

    Same serialization as ``volbound.report.canonical_json``: sorted keys,
    two-space indent, trailing newline; floats survive the JSON round trip
    exactly, so re-serializing a parsed report reproduces the bytes.
    """
    body = {k: v for k, v in report.items() if k != "timing"}
    text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()
