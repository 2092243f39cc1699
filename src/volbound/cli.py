"""Command line front end.

One experiment per invocation. Exit codes: 0 when the command's verdict
passes, 1 when a statistical verdict fails or the computation diverges,
2 on configuration problems (bad file, bad flags, bad values), 3 on I/O
failures. The report is written whenever the computation completes,
whatever the verdict.

Worker count comes from the VOLBOUND_WORKERS environment variable and
defaults to the machine's logical CPU count; by the substream contract
it never changes any reported number.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import gc
import itertools
import sys
import time
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .bound import (
    check_bound,
    densification_study,
    densify_grid,
    pricing_residuals,
    tail_route,
)
from .config import ResolvedConfig, load_document, parse_override, resolve, set_path
from .errors import (
    ConfigParseError,
    ConfigurationError,
    DivergenceError,
    DomainError,
    SearchError,
    VolboundError,
)
from .models import BUILTIN_MODELS, Z_GATE, builtin_model, worker_count
from .phi import (
    martingale_check_U,
    martingale_check_V,
    semigroup_check,
    semigroup_route,
    verify_phi,
)
from .pricing import implied_vol
from .report import build_report, render_csv, render_json

#: residual tolerance of the eigenfunction ODE check
PHI_TOLERANCE = 1e-10

#: the commands with a CSV form: the key of their rows in the results
_TABULAR = {"scan": "rows", "densify": "steps"}

#: the commands that read the simulation section; the others leave it out
#: of the report's config echo
_SIMULATING = ("check-bound", "scan", "martingale-check")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volbound",
        description=(
            "Scenario experiments on driftless diffusions: eigenfunction "
            "validation, option pricing, implied vol, and universal bounds "
            "on implied-volatility variation."
        ),
        epilog=(
            "VOLBOUND_WORKERS sets the worker count (default: logical CPUs); "
            "results never depend on it."
        ),
    )
    parser.add_argument("--version", action="version", version=f"volbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="scenario config file (YAML)")
        p.add_argument("--seed", type=int, help="override simulation.seed")
        p.add_argument("--paths", type=int, help="override simulation.paths")
        p.add_argument("--dt", type=float, help="override simulation.dt")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
        p.add_argument(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="csv is available for scan and densify",
        )
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="config override, repeatable (dotted keys, YAML scalar values)",
        )
    return parser


def _absorption(times, fraction, mass) -> dict:
    """Absorbed share of the paths per stored time, next to the law's
    absorbed mass where the law has an atom."""
    out = {"times": list(times), "fraction": list(fraction)}
    if mass is not None:
        out["absorbed_mass"] = list(mass)
    return out


def _mart_payload(rep, model, sigma) -> dict:
    mass_fn = getattr(model.law, "absorbed_mass", None)
    mass = None
    if mass_fn is not None:
        mass = [mass_fn(model.z0, sigma * sigma * t) for t in rep.times]
    return {
        "means": rep.means,
        "ses": rep.ses,
        "references": rep.references,
        "z_scores": rep.z_scores,
        "verdict": rep.verdict,
        "absorption": _absorption(rep.times, rep.absorbed_fraction, mass),
    }


def _stepping(results) -> dict | list:
    """The stepping routes that a command's results carry, each from the
    simulation that took it (PathEnsemble.stepping), named once: the steps
    of simulations on one route add up. A result that is None, or whose
    stepping is None, simulated nothing. Simulations on different routes (a
    scan over dt, or over a theta that moves at some points only) give one
    entry per route."""
    merged = {}
    for route in filter(None, [r.stepping for r in results if r is not None]):
        key = tuple(item for item in route.items() if item[0] != "steps")
        if key in merged and "steps" in route:
            merged[key]["steps"] += route["steps"]
        merged.setdefault(key, dict(route))
    out = list(merged.values())
    return out[0] if len(out) == 1 else out


def _cmd_validate_phi(models, _doc):
    per = {}
    ok = True
    for model in models:
        # inside the open domain: [0.05, 10] if it is unbounded, else inset
        # by 0.5% of its width
        lower, upper = model.beta.lower, model.beta.upper
        inset = 0.005 * (upper - lower)
        lo, hi = (0.05, 10.0) if np.isinf(inset) else (lower + inset, upper - inset)
        rep = verify_phi(model, np.linspace(lo, hi, 200), PHI_TOLERANCE)
        per[model.name] = {
            "grid": [lo, hi, 200],
            "tolerance": PHI_TOLERANCE,
            "max_abs_residual": rep.max_abs,
            "relative_scale": rep.rel_scale,
            "positive": rep.positive,
            "convex": rep.convex,
            "passed": rep.passed,
        }
        ok = ok and rep.passed
    return {"models": per}, ok


def _need(value, section: str, keys: str):
    """value, what the command reads of the config's section, or a config
    error naming the section where the document has none."""
    if not value:
        raise ConfigParseError(f"this command needs a {section} section ({keys})", key=section)
    return value


def _cmd_price(rc: ResolvedConfig, _doc):
    spec = _need(rc.pricing, "pricing", "maturity, strike")
    model, sigma = rc.model, rc.scenario.sigma0
    T, strike = spec["maturity"], spec["strike"]
    results = {
        "maturity": T,
        "strike": strike,
        "value": model.law.call(model.z0, strike, sigma * sigma * T),
        "route": model.law.call_route(),
    }
    return results, True


def _cmd_implied_vol(rc: ResolvedConfig, _doc):
    spec = _need(rc.pricing, "pricing", "maturity, strike")
    if "price" not in spec:
        raise ConfigParseError(
            "implied-vol inverts an observed price; add it to the pricing section",
            key="pricing.price",
        )
    model = rc.model
    T, strike, price = spec["maturity"], spec["strike"], spec["price"]
    res = implied_vol(model, price, T, strike, model.z0)
    results = {
        "maturity": T,
        "strike": strike,
        "price": price,
        "implied_vol": res.sigma,
        "iterations": res.iterations,
        "price_residual": res.residual,
        "forward_map": res.forward_map,
    }
    return results, True


def _bound_payload(rc: ResolvedConfig, rep) -> dict:
    mass = None if rep.absorbed_mass is None else [rep.absorbed_mass]
    return {
        "t": rep.t,
        "lhs": rep.lhs,
        "lhs_se": rep.lhs_se,
        "rhs": rep.rhs,
        "satisfied": rep.satisfied,
        "gap_term_mean": rep.nq_mean,
        "gap_term_se": rep.nq_se,
        "tail_correction_mean": rep.g_corr_mean,
        "tail_correction_se": rep.g_corr_se,
        "tail_route": tail_route(rc.model),
        "lhs_route": rep.lhs_route,
        "absorption": _absorption([rep.t], [rep.absorbed_fraction], mass),
        "phi_prime_convention": rep.phi_prime_convention,
        "n_paths": rep.n_paths,
        "band_diagnostics": list(rep.l_diagnostics),
        # enough to recompute the right side offline
        "rhs_inputs": {
            "alphas": rep.q.alphas,
            "coefficients": rep.q.coeffs,
            "pin_point": rep.q.x0,
            "strikes": rc.strikes.strikes,
        },
        "per_weight": list(rep.per_weight),
    }


def _residual_payload(res) -> dict:
    # the stepping goes into the command's stepping routes instead
    payload = dataclasses.asdict(res)
    del payload["stepping"]
    return {**payload, "max_abs_z": res.max_abs_z}


def _history_key(rc: ResolvedConfig) -> tuple:
    """Everything check_bound reads of a resolved config. The market enters
    only up to the evaluation time, so theta enters as its history there; a
    builtin model is fixed by its name and start."""
    return (
        rc.scenario.theta_process.until(rc.eval_time), rc.model.name, rc.model.z0,
        rc.mats, rc.strikes, rc.eval_time, rc.sim,
    )


def _residuals(rc: ResolvedConfig):
    """rc's pricing_residuals table, or None where the law's call is not
    closed form, although pricing_residuals reprices on every law: the gate
    stays only because bench/workloads.py predicts bound.residuals.s zero
    on bessel0-bound."""
    if rc.model.law.call_route()["route"] != "closed-form":
        return None
    return pricing_residuals(rc.scenario, rc.mats, rc.strikes, rc.eval_time, rc.sim)


def _cmd_check_bound(rc: ResolvedConfig, _doc):
    _need(rc.sim, "simulation", "paths, dt, seed")
    rep = check_bound(rc.scenario, rc.mats, rc.strikes, rc.eval_time, rc.sim)
    res = _residuals(rc)
    results = {"bound": _bound_payload(rc, rep)}
    if res is not None:
        results["repricing"] = _residual_payload(res)
    results["stepping"] = _stepping([rep, res])
    return results, rep.satisfied


def _cmd_densify(rc: ResolvedConfig, _doc):
    sizes = _need(rc.densify_sizes, "densify", "grid_sizes")
    schedule = [densify_grid(rc.model, n) for n in sizes]
    rep = densification_study(rc.model, rc.scenario.sigma0, rc.mats, schedule)
    results = {
        "schedule_ok": rep.schedule_ok,
        "phi_prime_convention": rep.phi_prime_convention,
        "steps": [dataclasses.asdict(s) for s in rep.steps],
    }
    return results, rep.schedule_ok


def _cmd_martingale_check(rc: ResolvedConfig, _doc):
    model, sigma = rc.model, rc.scenario.sigma0
    times, sim = rc.martingale_times, _need(rc.sim, "simulation", "paths, dt, seed")
    u = martingale_check_U(model, sigma, times, sim)
    v = martingale_check_V(model, sigma, times, sim)
    sg = semigroup_check(model, sigma, times[-1], sim)
    results = {
        "times": times,
        "discounted_eigenfunction": _mart_payload(u, model, sigma),
        "compensated_eigenfunction": _mart_payload(v, model, sigma),
        "semigroup": {
            **_mart_payload(sg, model, sigma),
            "reference_route": semigroup_route(model),
        },
        "stepping": _stepping([u, v, sg]),
    }
    return results, u.verdict and v.verdict and sg.verdict


def _cmd_scan(rc: ResolvedConfig, base_doc):
    _need(rc.scan_axes, "scan", "axes")
    keys = [k for k, _ in rc.scan_axes]
    # every point is resolved before any is computed, so a bad axis value
    # fails at once, named as the user wrote it
    points = []
    for point in itertools.product(*(vals for _, vals in rc.scan_axes)):
        doc = copy.deepcopy(base_doc)
        for key, value in zip(keys, point):
            set_path(doc, key, value)
        try:
            point_rc = resolve(doc)
            _need(point_rc.sim, "simulation", "paths, dt, seed")
            points.append((_history_key(point_rc), point, point_rc))
        except ConfigParseError as exc:
            where = ", ".join(f"{k}={v}" for k, v in zip(keys, point))
            raise ConfigParseError(f"scan point {where}: {exc}") from exc
    # points that share a history share its bound, made at the first of
    # them; each point reprices on its own, and the shared bound's steps
    # count toward every point that shares it
    bounds = {}
    rows, ran = [], []
    for key, point, point_rc in points:
        try:
            if key not in bounds:
                bounds[key] = check_bound(
                    point_rc.scenario, point_rc.mats, point_rc.strikes, point_rc.eval_time, point_rc.sim
                )
            rep, res = bounds[key], _residuals(point_rc)
        except VolboundError as exc:
            where = "; ".join(
                ", ".join(f"{k}={v}" for k, v in zip(keys, p)) for other, p, _ in points if other == key
            )
            raise type(exc)(f"scan point {where}: {exc}") from exc
        ran += [rep, res]
        max_z = None if res is None else res.max_abs_z
        # a violated bound must come with residuals that do not reprice:
        # noisy ones on the path route, any nonzero one (z inf) on the exact
        # route. They test repricing at t only, so a theta that moved before
        # t can reprice there (z 0.0) and still break the bound, and fail
        # this check
        conjunction_ok = max_z is None or rep.satisfied or max_z > Z_GATE
        feasible = rep.satisfied and (max_z is None or max_z <= Z_GATE)
        rows.append({
            **dict(zip(keys, point)),
            "lhs": rep.lhs, "lhs_se": rep.lhs_se, "rhs": rep.rhs, "satisfied": rep.satisfied,
            "gap_term_mean": rep.nq_mean, "tail_correction_mean": rep.g_corr_mean,
            "max_resid_z": max_z, "feasible": feasible, "conjunction_ok": conjunction_ok,
            "per_weight": list(rep.per_weight),
        })
    verdict = all(row["conjunction_ok"] for row in rows)
    results = {
        "axes": [{"key": k, "values": list(v)} for k, v in rc.scan_axes],
        "rows": rows,
        "stepping": _stepping(ran),
    }
    return results, verdict


#: every command: its help text and the function that runs it on the
#: resolved config (validate-phi: the models to check) and the document it
#: came from (None without --config), returning (results, verdict)
_COMMANDS = {
    "validate-phi": ("check the eigenfunction ODE for builtin models", _cmd_validate_phi),
    "price": ("price the configured call by its transition law", _cmd_price),
    "implied-vol": ("invert the configured option price for its vol", _cmd_implied_vol),
    "check-bound": ("evaluate both sides of the variation bound", _cmd_check_bound),
    "scan": ("sweep scenario parameters and map the feasible region", _cmd_scan),
    "densify": ("run the strike-grid densification study", _cmd_densify),
    "martingale-check": ("test the discounted eigenfunction processes", _cmd_martingale_check),
}


def _run(args) -> int:
    if args.format == "csv" and args.command not in _TABULAR:
        raise ConfigParseError(
            f"--format csv is only available for {' and '.join(_TABULAR)}"
        )

    rc = None
    base_doc = None
    if args.config is not None:
        doc = load_document(Path(args.config).read_text())
        for item in args.set:
            set_path(doc, *parse_override(item))
        # a shortcut completes a simulation section and never starts one: a
        # command that simulates then names the missing section (_need), and
        # one that does not runs as without the flag
        if isinstance(doc.get("simulation"), dict):
            for key in ("seed", "paths", "dt"):
                if getattr(args, key) is not None:
                    set_path(doc, f"simulation.{key}", getattr(args, key))
        base_doc = doc
        rc = resolve(doc)
    elif args.command != "validate-phi":
        raise ConfigParseError(f"--config is required for {args.command}")

    subject = rc
    if args.command == "validate-phi":
        # the models are built before the timer starts, as resolve builds a
        # configured one
        subject = (rc.model,) if rc is not None else tuple(map(builtin_model, BUILTIN_MODELS))
    workers = worker_count()
    started = time.perf_counter()
    results, verdict = _COMMANDS[args.command][1](subject, base_doc)
    elapsed = time.perf_counter() - started

    config_doc = rc.document if rc is not None else {}
    if args.command not in _SIMULATING:
        config_doc = {k: v for k, v in config_doc.items() if k != "simulation"}
    report = build_report(args.command, config_doc, results, verdict)
    # how this run was made, outside the canonical body: no reported number
    # depends on it
    report["timing"] = {
        "wall_seconds": elapsed,
        "workers": workers,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
    }

    if args.format == "csv":
        rows = results[_TABULAR[args.command]]
        text = render_csv(list(rows[0]), [list(row.values()) for row in rows])
    else:
        text = render_json(report)

    if args.out is not None:
        Path(args.out).write_text(text)
        print(f"{args.command}: {'pass' if verdict else 'FAIL'} -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0 if verdict else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigParseError as exc:
        print(f"volbound: config error: {exc}", file=sys.stderr)
        return 2
    except (ConfigurationError, DomainError) as exc:
        print(f"volbound: invalid input: {exc}", file=sys.stderr)
        return 2
    except (SearchError, DivergenceError) as exc:
        print(f"volbound: computation failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"volbound: i/o error: {exc}", file=sys.stderr)
        return 3


def run() -> NoReturn:
    """The process entry: main, then exit with its code.

    Freezing the collector on the way out lets the interpreter's exit
    collections skip every object the run made, the import-time ones
    above all. ``main`` stays the in-process API and leaves it alone.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
