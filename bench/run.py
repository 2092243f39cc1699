"""volbound benchmark: fixed CLI workloads, timed end to end, traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src/``
with nothing installed. Every run spawns the ``volbound`` CLI as a child
process with ``VOLBOUND_WORKERS=2`` and the seed passed through ``--seed``.

``--trace 0`` repeats the workload back to back (closed loop, one client)
until ``--seconds`` have passed, and at least twice, and reports the median
over repetitions of:

- ``wall_s``: child wall time from spawn to exit;
- ``compute_s``: the report's ``timing.wall_seconds``;
- ``setup_s``: ``wall_s - compute_s`` (interpreter start, imports, config
  resolution, serialization), over the repetitions and over ``SETUP_PROBES``
  more runs of the same command on 16 paths;
- ``peak_rss_mb``: the child's peak resident set, from ``os.wait4``.

``--trace 1`` runs the workload once untraced, once more at one worker,
and once in-process under the tracer (``bench/tracer.py``), and reports
the per-layer metrics plus ``trace.overhead_s`` (traced minus untraced
compute time) and ``cli.verdict_pass`` (share of runs that exit 0). The
traced run's detail lists the layer predictions of ``bench/workloads.py``
that it contradicts; ``bench/hook_selftest.py`` turns them into a test.

Workload sizes in ``bench/configs`` keep one run near half a minute on a
two-core machine, so that the 70 runs of a full measurement fit in an hour
even when a busy host halves the machine's speed.

Each child run's detail records ``stolen_s``, the CPU time the hypervisor
took from this machine while it ran (the steal column of ``/proc/stat``):
on a shared virtual machine a busy host can slow a run by half or more,
and this is how such a run shows.

A run fails when the child exits with a code other than 0 or 1, writes no
parseable report, or writes a report whose body (the report minus timing)
hashes differently from another run of the same workload and seed: across
repetitions, across worker counts, and between traced and untraced runs.
A body hash that differs from the one recorded in ``bench/baseline.json``
for that seed is reported, not failed: a change may move numbers on
purpose. Before the result line, one JSON line of detail is printed:
machine, every child run, the body hash and its baseline status.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata

from workloads import (
    BENCH_DIR,
    ROOT,
    SRC,
    WORKERS,
    WORKLOADS,
    body_sha256,
    violated_predictions,
)

MIN_REPS = 2
#: extra set-up samples per timed run: the same command on 16 paths, whose
#: start-up, config resolution and serialization match the full run's; two
#: repetitions alone give too few samples for a steady median
SETUP_PROBES = 2
PROBE_SET = ("simulation.paths=16",)
BASELINE = BENCH_DIR / "baseline.json"
SPEC = ROOT / "BENCHMARK.json"


def _env(workers: int) -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, VOLBOUND_WORKERS=str(workers))


def _stolen_s() -> float:
    """CPU time the hypervisor has taken from this machine's CPUs, summed.

    The steal column of /proc/stat; 0.0 where the kernel does not report it.
    """
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _spawn(argv: list, workers: int):
    """Run a child to completion: (exit code, stdout, stderr, wall s, stolen s, usage)."""
    with tempfile.TemporaryFile(dir=BENCH_DIR) as out, tempfile.TemporaryFile(
        dir=BENCH_DIR
    ) as err:
        stolen = _stolen_s()
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=_env(workers))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
        stolen = _stolen_s() - stolen
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), wall, stolen, usage


def _report_problems(report: dict, workload, seed: int, code: int) -> list:
    """Checks on a parsed report beyond its hash."""
    problems = []
    if report.get("command") != workload.command:
        problems.append(f"report is for command {report.get('command')!r}")
    if report.get("config", {}).get("simulation", {}).get("seed") != seed:
        problems.append("report does not carry the benchmark seed")
    if report.get("verdict") is not (code == 0):
        problems.append(f"exit code {code} disagrees with verdict {report.get('verdict')!r}")
    if not isinstance(report.get("timing", {}).get("wall_seconds"), float):
        problems.append("report has no timing.wall_seconds")
    return problems


def run_cli(workload, seed: int, kind: str, workers: int = WORKERS, extra=()) -> dict:
    """One CLI run of the workload, with its measurements and problems."""
    argv = [sys.executable, "-m", "volbound", *workload.argv(seed, extra)]
    code, out, err, wall, stolen, usage = _spawn(argv, workers)
    run = {"kind": kind, "workers": workers, "exit_code": code, "wall_s": wall,
           "stolen_s": stolen, "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "body_sha256": None, "problems": []}
    if code not in (0, 1):
        run["problems"].append(f"exit code {code}: {err.decode(errors='replace')[-400:]}")
        return run
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        run["problems"].append("no parseable report")
        return run
    run["problems"] += _report_problems(report, workload, seed, code)
    run["body_sha256"] = body_sha256(report)
    if not run["problems"]:
        run["compute_s"] = report["timing"]["wall_seconds"]
        run["setup_s"] = wall - run["compute_s"]
    return run


def run_traced(workload, seed: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "tracer.py"),
            "--workload", workload.name, "--seed", str(seed)]
    code, out, err, wall, stolen, _ = _spawn(argv, WORKERS)
    run = {"kind": "traced", "workers": WORKERS, "wall_s": wall, "stolen_s": stolen,
           "body_sha256": None, "problems": []}
    if code != 0:
        run["problems"].append(f"tracer exit code {code}: {err.decode(errors='replace')[-400:]}")
        return run
    result = json.loads(out)
    run.update(exit_code=result["exit_code"], body_sha256=result["body_sha256"])
    if result["body_sha256"] is None:
        run["problems"].append("traced run wrote no parseable report")
    else:
        run.update(compute_s=result["compute_s"], layers=result["metrics"])
    return run


def mark_hash_mismatches(runs: list) -> str | None:
    """The majority body hash; runs that disagree with it get a problem."""
    counts = Counter(r["body_sha256"] for r in runs if r["body_sha256"])
    if not counts:
        return None
    majority = counts.most_common(1)[0][0]
    for r in runs:
        if r["body_sha256"] and r["body_sha256"] != majority:
            r["problems"].append(f"body hash {r['body_sha256'][:12]} != {majority[:12]}")
    return majority


def baseline_status(workload: str, seed: int, sha: str | None) -> str:
    recorded = json.loads(BASELINE.read_text())["body_sha256"].get(workload, {}).get(str(seed))
    if recorded is None or sha is None:
        return "unrecorded"
    return "match" if recorded == sha else "changed"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "workers": WORKERS,
    }


def _median(runs: list, key: str) -> float:
    return statistics.median(r[key] for r in runs)


def timed_runs(workload, seed: int, seconds: float) -> tuple[list, list, dict]:
    """(full-size runs, set-up probes, end-to-end metrics)."""
    deadline = time.perf_counter() + seconds
    runs = []
    while len(runs) < MIN_REPS or time.perf_counter() < deadline:
        runs.append(run_cli(workload, seed, "timed"))
    probes = [run_cli(workload, seed, "setup-probe", extra=PROBE_SET)
              for _ in range(SETUP_PROBES)]
    if not all("compute_s" in r for r in runs + probes):
        return runs, probes, {}
    return runs, probes, {
        "wall_s": _median(runs, "wall_s"),
        "compute_s": _median(runs, "compute_s"),
        "setup_s": _median(runs + probes, "setup_s"),
        "peak_rss_mb": _median(runs, "peak_rss_mb"),
    }


def traced_runs(workload, seed: int) -> tuple[list, dict]:
    """Untraced, one-worker and traced runs; per-layer metrics."""
    untraced = run_cli(workload, seed, "untraced")
    single = run_cli(workload, seed, "one-worker", workers=1)
    traced = run_traced(workload, seed)
    runs = [untraced, single, traced]
    if "layers" not in traced or "compute_s" not in untraced:
        return runs, {}
    metrics = traced.pop("layers")
    traced["predictions_violated"] = violated_predictions(workload.name, metrics)
    metrics["trace.overhead_s"] = traced["compute_s"] - untraced["compute_s"]
    return runs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so no child outlives us
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "volbound" / "cli.py").is_file():
        print(f"bench: no volbound sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    probes = []
    if args.trace:
        runs, values = traced_runs(workload, args.seed)
    else:
        runs, probes, values = timed_runs(workload, args.seed, args.seconds)
    sha = mark_hash_mismatches(runs)
    values["cli.verdict_pass"] = sum(r.get("exit_code") == 0 for r in runs) / len(runs)
    mark_hash_mismatches(probes)
    runs += probes
    failed = sum(bool(r["problems"]) for r in runs)
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "machine": machine(),
        "body_sha256": sha,
        "baseline": baseline_status(workload.name, args.seed, sha),
        "verdict_pass": values["cli.verdict_pass"],
        "runs": runs,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and sha is not None and len(metrics) == len(declared),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
