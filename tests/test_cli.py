"""Config parsing, report serialization, and the CLI front end."""

import csv
import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import canonical_json, lognormal_call_oracle, mc_call_price, strip_timing
from volbound import cli
from volbound.cli import main
from volbound.config import load_document, parse_config, parse_override, resolve, set_path
from volbound.errors import ConfigParseError
from volbound.models import SimConfig, builtin_model
from volbound.report import plain, render_csv

BASE = """\
model: gbm
sigma: 0.2
generator: self-consistent

maturities: [1.0, 2.0, 3.0]
strikes: [0.0, 0.5, 1.0, 1.5, 2.0]
eval_time: 0.5

simulation:
  paths: 4000
  dt: 0.01
  seed: 11

pricing:
  maturity: 1.0
  strike: 1.0
"""

SCAN = """\
model: gbm
sigma: 0.2
generator: step-vol
theta:
  jump_time: 0.75
  jump_size: 0.0

maturities: [1.0, 2.0, 3.0]
strikes: [0.0, 0.5, 1.0, 1.5, 2.0]
eval_time: 0.5

simulation:
  paths: 4000
  dt: 0.01
  seed: 11

scan:
  axes:
    - key: theta.jump_size
      values: [0.0, 0.1, 0.3]
"""


@pytest.fixture
def base_path(tmp_path):
    p = tmp_path / "base.yaml"
    p.write_text(BASE)
    return str(p)


@pytest.fixture
def bound_calls(monkeypatch):
    """The scenarios the CLI hands check_bound, in order."""
    calls = []
    check_bound = cli.check_bound

    def counted(scn, *args, **kwargs):
        calls.append(scn)
        return check_bound(scn, *args, **kwargs)

    monkeypatch.setattr(cli, "check_bound", counted)
    return calls


@pytest.fixture
def scan_path(tmp_path):
    p = tmp_path / "scan.yaml"
    p.write_text(SCAN)
    return str(p)


class TestConfigParsing:
    def test_minimal_document_resolves(self):
        rc = parse_config(BASE)
        assert rc.model.name == "gbm"
        assert rc.scenario.generator == "self-consistent"
        assert rc.scenario.sigma0 == 0.2
        assert rc.mats.times == (1.0, 2.0, 3.0)
        assert rc.strikes.k_max == 2.0
        assert rc.eval_time == 0.5
        assert rc.sim.seed == 11

    def test_first_strike_invariant_carries_line(self):
        bad = BASE.replace("strikes: [0.0,", "strikes: [0.25,")
        with pytest.raises(ConfigParseError) as err:
            parse_config(bad)
        assert "first strike" in str(err.value)
        assert err.value.key == "strikes"
        assert err.value.line == 6

    def test_a_bad_last_strike_of_a_dense_grid_names_its_line(self):
        # a 4097-strike document, the size of a dense grid, keeps its line
        # marks on the loader's parser
        ks = ", ".join(repr(8.0 * i / 4096) for i in range(4096))
        bad = BASE.replace("strikes: [0.0, 0.5, 1.0, 1.5, 2.0]", f"strikes: [{ks}, abc]")
        with pytest.raises(ConfigParseError) as err:
            parse_config(bad)
        assert "'abc'" in str(err.value)
        assert err.value.key == "strikes"
        assert err.value.line == next(
            i for i, ln in enumerate(bad.splitlines(), 1) if ln.endswith(", abc]")
        ) == 6

    def test_the_loader_parses_with_libyaml_where_pyyaml_has_it(self):
        yaml = pytest.importorskip("yaml")
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("pyyaml was built without libyaml")
        from volbound import config

        assert issubclass(config._Loader, yaml.CSafeLoader)

    def test_two_maturities_rejected(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config(BASE.replace("[1.0, 2.0, 3.0]", "[1.0, 2.0]"))
        assert "at least 3 maturities" in str(err.value)

    @pytest.mark.parametrize("command", ["densify", "check-bound"])
    def test_negative_maturity_names_its_key_and_line(self, command, tmp_path, capsys):
        # the grid is refused as the maturities it is, not as an eval_time
        # that the file never set and that would lie outside [0, -1.0]
        text = BASE.replace("[1.0, 2.0, 3.0]", "[-1.0, 1.0, 2.0]").replace("eval_time: 0.5\n", "")
        cfg = tmp_path / "negative.yaml"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 2
        line = text.splitlines().index("maturities: [-1.0, 1.0, 2.0]") + 1
        assert capsys.readouterr().err == (
            "volbound: config error: maturities must be nonnegative, got first maturity -1.0 "
            f"[key: maturities] (line {line})\n"
        )

    def test_unknown_key_named_with_line(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config(BASE + "mystery: 1\n")
        assert err.value.key == "mystery"
        assert err.value.line is not None

    def test_missing_required_key(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config(BASE.replace("sigma: 0.2\n", ""))
        assert err.value.key == "sigma"

    def test_nested_key_errors_point_into_the_section(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config(BASE.replace("paths: 4000", "paths: twenty"))
        assert err.value.key == "simulation.paths"
        assert err.value.line == 10

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigParseError):
            parse_config(BASE.replace("sigma: 0.2", "sigma: true"))

    @pytest.mark.parametrize(
        "extra, key",
        [("weights: [1.0]", "weights"), ("  block_size: 16384", "simulation.block_size")],
        ids=["weights", "block_size"],
    )
    def test_removed_keys_fail_as_unknown_keys(self, extra, key, tmp_path, capsys):
        # check-bound answers for every weight vector and the path blocks are
        # fixed, so neither key is read: each fails as any unknown key does
        cfg = tmp_path / "old.yaml"
        cfg.write_text(BASE.replace("  seed: 11\n", f"  seed: 11\n{extra}\n"))
        assert main(["check-bound", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"volbound: config error: unknown key [key: {key}] (line 13)\n"

    def test_eval_time_window(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config(BASE.replace("eval_time: 0.5", "eval_time: 1.5"))
        assert err.value.key == "eval_time"

    def test_theta_section_forbidden_for_self_consistent(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config(BASE + "theta: {rate: 1.0}\n")
        assert err.value.key == "theta"

    def test_step_sugar_and_list_form_agree(self):
        sugar = parse_config(SCAN)
        full = parse_config(
            SCAN.replace(
                "  jump_time: 0.75\n  jump_size: 0.0",
                "  jump_times: [0.75]\n  jump_values: [0.2]",
            )
        )
        assert sugar.scenario.theta_process == full.scenario.theta_process

    def test_mixed_step_forms_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config(SCAN.replace("jump_time: 0.75", "jump_times: [0.75]"))

    def test_meanrev_requires_its_parameters(self):
        doc = BASE.replace("generator: self-consistent", "generator: meanrev-vol")
        with pytest.raises(ConfigParseError) as err:
            parse_config(doc + "theta: {rate: 1.0, level: 0.3}\n")
        assert err.value.key == "theta.vol_of_vol"

    def test_bad_correlation_names_its_key_and_line(self):
        doc = BASE.replace("generator: self-consistent", "generator: meanrev-vol") + (
            "theta:\n  rate: 1.0\n  level: 0.3\n  vol_of_vol: 0.4\n  correlation: 1.5\n"
        )
        with pytest.raises(ConfigParseError) as err:
            parse_config(doc)
        assert "correlation must lie in [-1, 1]" in str(err.value)
        assert err.value.key == "theta.correlation"
        assert err.value.line == doc.splitlines().index("  correlation: 1.5") + 1

    @pytest.mark.parametrize("key", ["maturities", "strikes"])
    def test_type_error_in_a_grid_names_its_key_once(self, key):
        # the typed read's own location is not wrapped a second time
        doc = "\n".join(f"{key}: [abc]" if ln.startswith(f"{key}:") else ln
                        for ln in BASE.splitlines())
        with pytest.raises(ConfigParseError) as err:
            parse_config(doc)
        line = doc.splitlines().index(f"{key}: [abc]") + 1
        where = f"[key: {key}] (line {line})"
        assert str(err.value) == f"expected numbers in the list, got 'abc' {where}"

    @pytest.mark.parametrize(
        "key, source",
        [
            ("paths", "file"), ("paths", "set"), ("paths", "flag"),
            ("dt", "file"), ("dt", "set"), ("dt", "flag"),
            ("seed", "file"), ("seed", "set"), ("seed", "flag"),
        ],
    )
    def test_simulation_errors_name_their_key(self, key, source, tmp_path, capsys):
        # the bad value is named by its own dotted key, in the config's words,
        # and by its line only where the file holds it
        text = BASE
        argv = []
        bad = "-1" if key == "seed" else "0"
        if source == "file":
            text = text.replace(f"  {key}: ", f"  {key}: {bad} #")
        elif source == "set":
            argv = ["--set", f"simulation.{key}={bad}"]
        else:
            argv = [f"--{key}", bad]
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        assert main(["check-bound", "--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err
        line = next(i for i, ln in enumerate(text.splitlines(), 1) if ln.startswith(f"  {key}:"))
        where = f" (line {line})" if source == "file" else ""
        message = {
            "paths": "paths must be >= 1, got 0",
            "dt": "dt must be positive, got 0.0",
            "seed": "seed must be >= 0, got -1",
        }[key]
        assert err == f"volbound: config error: {message} [key: simulation.{key}]{where}\n"

    @pytest.mark.parametrize("value", [".inf", ".nan"])
    @pytest.mark.parametrize("command, key, values", [
        ("check-bound", "strikes", "[0.0, 0.5, {}]"),
        ("check-bound", "maturities", "[1.0, 2.0, {}]"),
        ("martingale-check", "martingale.times", "[0.5, {}]"),
        ("check-bound", "theta.jump_values", "[{}]"),
    ], ids=["strikes", "maturities", "martingale.times", "theta.jump_values"])
    def test_non_finite_list_entries_name_their_key(
        self, command, key, values, value, tmp_path, capsys
    ):
        # an entry of a number list is checked as a single number is, in the
        # config layer, not later by the special functions on bessel0
        cfg = tmp_path / "bessel0.yaml"
        cfg.write_text(BASE.replace("model: gbm", "model: bessel0"))
        argv = ["--set", f"{key}={values.format(value)}"]
        if key.startswith("theta."):
            argv += ["--set", "generator=step-vol", "--set", "theta.jump_times=[0.75]"]
        assert main([command, "--config", str(cfg), *argv]) == 2
        got = {".inf": "inf", ".nan": "nan"}[value]
        assert capsys.readouterr().err == (
            f"volbound: config error: expected a finite number, got {got} [key: {key}]\n"
        )

    @pytest.mark.parametrize("times", ["[0.5, 0.25]", "[0.5, 0.5]"])
    @pytest.mark.parametrize("source", ["file", "set"])
    def test_martingale_times_out_of_order_name_their_key(self, times, source, tmp_path, capsys):
        # descending or repeated check times fail in the config layer, with
        # the key and the file's line, not later in the martingale checks
        in_file = f"  times: {times if source == 'file' else '[0.25, 0.5]'}"
        text = BASE + f"\nmartingale:\n{in_file}\n"
        argv = ["--set", f"martingale.times={times}"] if source == "set" else []
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        assert main(["martingale-check", "--config", str(cfg), *argv]) == 2
        line = text.splitlines().index(in_file) + 1
        where = f" (line {line})" if source == "file" else ""
        assert capsys.readouterr().err == (
            f"volbound: config error: check times must increase strictly, got {times} "
            f"[key: martingale.times]{where}\n"
        )

    @pytest.mark.parametrize("sizes", ["[16, 4]", "[4, 4]"])
    @pytest.mark.parametrize("source", ["file", "set"])
    def test_densify_grid_sizes_out_of_order_name_their_key(self, sizes, source, tmp_path, capsys):
        # descending or repeated grid sizes fail in the config layer, with
        # the key and the file's line, before any grid is built
        in_file = f"  grid_sizes: {sizes if source == 'file' else '[4, 16]'}"
        text = BASE + f"\ndensify:\n{in_file}\n"
        argv = ["--set", f"densify.grid_sizes={sizes}"] if source == "set" else []
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        assert main(["densify", "--config", str(cfg), *argv]) == 2
        line = text.splitlines().index(in_file) + 1
        where = f" (line {line})" if source == "file" else ""
        assert capsys.readouterr().err == (
            f"volbound: config error: grid sizes must increase strictly, got {sizes} "
            f"[key: densify.grid_sizes]{where}\n"
        )

    @pytest.mark.parametrize("old, new, argv, message", [
        ("sigma: 0.2", "sigma: .nan", [],
         "expected a finite number, got nan [key: sigma] (line 2)"),
        ("model: gbm", "model: 3", [], "expected a string, got 3 [key: model] (line 1)"),
        ("strikes: [0.0, 0.5, 1.0, 1.5, 2.0]", "strikes: 1.0", [],
         "expected a non-empty list of numbers, got 1.0 [key: strikes] (line 6)"),
        ("simulation:\n  paths: 4000\n  dt: 0.01\n  seed: 11", "simulation: 5", [],
         "expected a section (mapping), got 5 [key: simulation] (line 9)"),
        ("generator: self-consistent", "generator: jumpy", [],
         "unknown generator 'jumpy' [key: generator] (line 3)"),
        ("  maturity: 1.0", "  maturity: 0", [],
         "maturity must be positive, got 0.0 [key: pricing.maturity] (line 15)"),
        ("  strike: 1.0", "  strike: -0.5", [],
         "strike cannot be negative, got -0.5 [key: pricing.strike] (line 16)"),
        (None, "densify:\n  grid_sizes: 4\n", [],
         "expected a non-empty list of integers, got 4 [key: densify.grid_sizes] (line 18)"),
        (None, "densify:\n  grid_sizes: [1, 4]\n", [],
         "grid sizes must be integers >= 2, got 1 [key: densify.grid_sizes] (line 18)"),
        (None, "scan:\n  axes: 3\n", [],
         "expected a non-empty list of axis sections [key: scan.axes] (line 18)"),
        (None, "scan:\n  axes: [3]\n", [],
         "each axis must be a mapping, got 3 [key: scan.axes] (line 18)"),
        (None, "martingale:\n  times: [0.0, 1.0]\n", [],
         "check times must be positive [key: martingale.times] (line 18)"),
        (None, "", ["--set", "sigma=[0.2"],
         "override value '[0.2' is not a YAML scalar [key: sigma]"),
    ], ids=[
        "non-finite", "model-not-string", "scalar-strikes", "scalar-simulation",
        "unknown-generator", "maturity", "negative-strike", "scalar-grid-sizes",
        "grid-size-below-2", "scalar-axes", "scalar-axis", "martingale-time", "set-not-yaml",
    ])
    def test_outside_input_is_rejected_with_key_and_line(
        self, old, new, argv, message, tmp_path, capsys
    ):
        # each check on the config file or a --set value exits 2 with one
        # line naming the bad key, and its line where the file holds it
        if old is None:
            text = BASE + new
        else:
            assert old in BASE
            text = BASE.replace(old, new)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        assert main(["price", "--config", str(cfg), *argv]) == 2
        assert capsys.readouterr().err == f"volbound: config error: {message}\n"

    @pytest.mark.parametrize("command, argv", [
        ("price", ["--set", "sigma=-0.1"]),
        ("scan", []),
    ])
    def test_replaced_values_cite_no_file_line(self, command, argv, tmp_path, capsys):
        # a value from --set or from a scan axis replaces the file's
        # "sigma: 0.2" on line 2; the error names the key, not that line, and
        # scan names the point it came from
        point = "scan point sigma=-0.1: " if command == "scan" else ""
        scan = "scan:\n  axes:\n    - key: sigma\n      values: [0.2, -0.1]\n"
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(BASE + scan)
        assert main([command, "--config", str(cfg), *argv]) == 2
        assert capsys.readouterr().err == (
            f"volbound: config error: {point}volatility must be positive, got -0.1 [key: sigma]\n"
        )

    def test_overrides_apply_before_validation(self):
        rc = parse_config(BASE, overrides=["simulation.seed=99", "sigma=0.5"])
        assert rc.sim.seed == 99
        assert rc.scenario.sigma0 == 0.5
        with pytest.raises(ConfigParseError):
            parse_config(BASE, overrides=["strikes=[0.5, 1.0]"])

    def test_override_values_are_yaml_scalars(self):
        assert parse_override("a.b=3") == ("a.b", 3)
        assert parse_override("a=0.5") == ("a", 0.5)
        assert parse_override("a=[1, 2]") == ("a", [1, 2])
        assert parse_override("a=text") == ("a", "text")
        with pytest.raises(ConfigParseError):
            parse_override("no-equals-sign")

    def test_set_path_creates_sections(self):
        doc = {"a": 1}
        set_path(doc, "b.c.d", 5)
        assert doc == {"a": 1, "b": {"c": {"d": 5}}}

    def test_resolved_document_round_trips(self):
        # the embedded document must reproduce the run it describes
        rc = parse_config(SCAN)
        again = resolve(rc.document)
        assert again.document == rc.document
        # the step sugar as written, and no z0 where none is given
        assert rc.document["theta"] == {"jump_time": 0.75, "jump_size": 0.0}
        assert "z0" not in rc.document
        assert again.scenario.reference.name == rc.scenario.reference.name
        assert again.scenario.sigma0 == rc.scenario.sigma0
        assert again.scenario.generator == rc.scenario.generator
        assert again.scenario.theta_process == rc.scenario.theta_process
        assert again.sim == rc.sim

    def test_scan_axis_validation(self):
        with pytest.raises(ConfigParseError):
            parse_config(SCAN.replace("values: [0.0, 0.1, 0.3]", "values: []"))
        four = SCAN + "".join(
            f"    - key: k{i}\n      values: [1]\n" for i in range(4)
        )
        with pytest.raises(ConfigParseError) as err:
            parse_config(four)
        assert "at most 3" in str(err.value)

    def test_a_repeated_scan_axis_names_its_key(self, tmp_path, capsys):
        # a second axis on the same key would override the first on every
        # point, so the scan's rows would not read the values they report
        text = SCAN.replace("[0.0, 0.1, 0.3]", "[0.1, 0.3]") + (
            "    - key: theta.jump_size\n      values: [0.2]\n"
        )
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        assert main(["scan", "--config", str(cfg)]) == 2
        line = len(text.splitlines()) - 1
        assert capsys.readouterr().err == (
            "volbound: config error: axis key 'theta.jump_size' is already scanned by an "
            f"earlier axis [key: scan.axes[1].key] (line {line})\n"
        )

    def test_not_yaml_and_not_mapping(self):
        with pytest.raises(ConfigParseError):
            parse_config("model: [unclosed")
        with pytest.raises(ConfigParseError):
            parse_config("- just\n- a list\n")
        with pytest.raises(ConfigParseError):
            parse_config("")


class TestReportSerialization:
    def test_plain_converts_numpy(self):
        out = plain(
            {
                "a": np.float64(0.5),
                "b": np.arange(3),
                "c": (1, 2),
                "d": np.bool_(True),
                "e": None,
            }
        )
        assert out == {"a": 0.5, "b": [0, 1, 2], "c": [1, 2], "d": True, "e": None}
        assert type(out["a"]) is float
        assert type(out["b"][0]) is int

    def test_plain_spells_out_non_finite(self):
        assert plain(math.inf) == "inf"
        assert plain(float("nan")) == "nan"

    def test_plain_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            plain({"x": object()})

    def test_canonical_form_drops_timing_and_sorts(self):
        report = {"z": 1, "a": 2, "timing": {"wall_seconds": 0.1}}
        text = canonical_json(report)
        assert "timing" not in text
        assert text.index('"a"') < text.index('"z"')
        assert strip_timing(report) == {"z": 1, "a": 2}

    def test_csv_cells(self):
        text = render_csv(["x", "ok", "v"], [[0.1, True, None], [2, False, "s"]])
        lines = text.splitlines()
        assert lines[0] == "x,ok,v"
        assert lines[1] == "0.1,true,"
        assert lines[2] == "2,false,s"
        assert render_csv(["f"], [[np.float64(0.25)]]).splitlines()[1] == "0.25"


class TestCliCommands:
    def test_validate_phi_needs_no_config(self, capsys):
        assert main(["validate-phi"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is True
        assert set(doc["results"]["models"]) == {"gbm", "bessel0", "logdiff"}

    def test_price_all_routes_agree(self, base_path, capsys):
        # price reports gbm's closed form; the test oracles, adaptive
        # quadrature and Monte Carlo, agree with it
        assert main(["price", "--config", base_path]) == 0
        r = json.loads(capsys.readouterr().out)["results"]
        assert r["route"] == {"route": "closed-form"}
        assert r["value"] == 0.07965567455405798
        assert r["value"] == pytest.approx(lognormal_call_oracle(1.0, 1.0, 0.2 * 0.2), abs=1e-12)
        gbm = builtin_model("gbm")
        mc = mc_call_price(gbm, 0.2, 0.0, 1.0, 1.0, 1.0, SimConfig(n_paths=4000, dt=0.01, seed=11))
        assert abs(r["value"] - mc.value) <= 3.0 * mc.se

    @pytest.mark.parametrize("name, strike, route", [
        ("gbm", 1.0, {"route": "closed-form"}),
        ("bessel0", 1.0, {"route": "quadrature", "nodes": 48, "window": 8.0}),
        ("logdiff", 0.4, {"route": "quadrature", "nodes": 48, "window": 8.0}),
    ])
    def test_price_reads_the_law_on_every_model(self, name, strike, route, tmp_path, capsys):
        cfg = tmp_path / "p.yaml"
        cfg.write_text(BASE.replace("model: gbm", f"model: {name}"))
        m = builtin_model(name)

        def price(k):
            assert main(["price", "--config", str(cfg), "--set", f"pricing.strike={k}"]) == 0
            out = capsys.readouterr()
            assert out.err == ""
            return json.loads(out.out)["results"]

        r = price(strike)
        assert r["route"] == route
        assert r["value"] == m.law.call(m.z0, strike, 0.2 * 0.2 * 1.0)
        # at strike 0 the call is the start itself, with no warning on stderr
        assert price(0.0)["value"] == pytest.approx(m.z0, rel=0.0, abs=1e-12)
        if name == "logdiff":
            # Z never exceeds 1, so no strike at or above 1 pays
            for k in (1.0, 1.5):
                value = price(k)["value"]
                assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_implied_vol_round_trip(self, base_path, capsys):
        price = builtin_model("gbm").law.call(1.0, 1.0, 0.2 * 0.2)
        code = main(
            ["implied-vol", "--config", base_path, "--set", f"pricing.price={price!r}"]
        )
        assert code == 0
        r = json.loads(capsys.readouterr().out)["results"]
        assert r["implied_vol"] == pytest.approx(0.2, abs=1e-8)
        assert r["forward_map"] == "gbm-closed-form"

    def test_implied_vol_inverts_bessel0(self, tmp_path, capsys):
        cfg = tmp_path / "bes.yaml"
        cfg.write_text(BASE.replace("model: gbm", "model: bessel0"))
        price = builtin_model("bessel0").law.call(1.0, 1.0, 0.2 * 0.2)
        code = main(["implied-vol", "--config", str(cfg), "--set", f"pricing.price={price!r}"])
        assert code == 0
        r = json.loads(capsys.readouterr().out)["results"]
        assert r["implied_vol"] == pytest.approx(0.2, rel=0.0, abs=1e-8)
        assert r["forward_map"] == "bessel0-quadrature"

    def test_implied_vol_requires_a_price(self, base_path, capsys):
        assert main(["implied-vol", "--config", base_path]) == 2

    def test_scheme_key_is_rejected(self, tmp_path, capsys):
        # the model's transition law decides how it steps; no key selects it
        p = tmp_path / "scheme.yaml"
        p.write_text(BASE.replace("  seed: 11\n", "  seed: 11\n  scheme: exact-gbm\n"))
        assert main(["price", "--config", str(p)]) == 2
        assert "simulation.scheme" in capsys.readouterr().err

    def test_check_bound_report_is_auditable(self, base_path, capsys):
        assert main(["check-bound", "--config", base_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        b = doc["results"]["bound"]
        assert b["satisfied"] is True
        assert b["gap_term_mean"] == 0.0
        assert b["tail_route"] == {"route": "closed-form"}
        assert b["lhs_route"] == {"route": "exact", "phi_mean": {"route": "closed-form"}}
        # the self-consistent left side is exact: 0.0, not -0.0 or noise
        zero_fields = ("lhs", "lhs_se", "gap_term_mean", "tail_correction_mean")
        assert [math.copysign(1.0, b[k]) if b[k] == 0.0 else b[k] for k in zero_fields] == [1.0] * 4
        # the embedded inputs recompute the embedded right side
        from volbound.bound import StrikeGrid, grid_factor, rhs_bound
        from volbound.models import builtin_model

        coeffs = tuple(b["rhs_inputs"]["coefficients"])
        grid = StrikeGrid(strikes=tuple(b["rhs_inputs"]["strikes"]))
        assert rhs_bound(coeffs, grid_factor(grid, builtin_model("gbm").phi)[0]) == b["rhs"]
        # the self-consistent residuals are exact, and no field describes paths
        rp = doc["results"]["repricing"]
        assert rp["route"] == {"route": "exact"}
        assert rp["max_abs_z"] == 0.0 and rp["ses"] == [[0.0] * 5] * 3
        assert [rp[k] for k in ("tail_counts", "calibrated", "min_tail_count", "n_paths")] == [
            None
        ] * 4

    @pytest.mark.parametrize(
        "model, z0, strikes",
        [("bessel0", 1.0, "[0.0, 0.5, 1.0, 1.5, 2.0]"), ("logdiff", 0.5, "[0.0, 0.3, 0.6, 0.9]")],
    )
    def test_bessel_right_sides_recompute_from_the_report(self, model, z0, strikes, tmp_path, capsys):
        # phi' diverges at the strike 0 on both Bessel models, so the grid
        # factor takes the zero-strike convention; the report's inputs still
        # recompute its right side, and each unit weight's, bit for bit
        from volbound.bound import StrikeGrid, grid_factor, rhs_bound

        cfg = tmp_path / f"{model}.yaml"
        cfg.write_text(
            BASE.replace("model: gbm", f"model: {model}\nz0: {z0}")
            .replace("sigma: 0.2", "sigma: 0.5")
            .replace("[1.0, 2.0, 3.0]", "[1.0, 2.0, 3.0, 4.0, 5.0]")
            .replace("strikes: [0.0, 0.5, 1.0, 1.5, 2.0]", f"strikes: {strikes}")
            .replace("paths: 4000", "paths: 256")
        )
        assert main(["check-bound", "--config", str(cfg)]) in (0, 1)
        b = json.loads(capsys.readouterr().out)["results"]["bound"]
        assert b["phi_prime_convention"] is True
        grid = StrikeGrid(strikes=tuple(b["rhs_inputs"]["strikes"]))
        factor = grid_factor(grid, builtin_model(model).phi)[0]
        assert rhs_bound(tuple(b["rhs_inputs"]["coefficients"]), factor) == b["rhs"]
        rows = b["per_weight"]
        assert len(rows) == 3
        assert [rhs_bound(tuple(r["coefficients"]), factor) for r in rows] == [r["rhs"] for r in rows]

    def test_check_bound_flags_convention_for_bessel(self, tmp_path, capsys):
        cfg = tmp_path / "bes.yaml"
        cfg.write_text(
            BASE.replace("model: gbm", "model: bessel0")
            .replace("sigma: 0.2", "sigma: 0.5")
            .replace("[1.0, 2.0, 3.0]", "[0.5, 1.0, 1.5]")
            .replace("strikes: [0.0, 0.5, 1.0, 1.5, 2.0]", "strikes: [0.0, 0.75, 1.5]")
            .replace("eval_time: 0.5", "eval_time: 0.25")
            .replace("paths: 4000", "paths: 1024")
            .replace("dt: 0.01", "dt: 0.02")
        )
        assert main(["check-bound", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["bound"]["phi_prime_convention"] is True
        assert doc["results"]["bound"]["tail_route"] == {
            "route": "quadrature", "nodes": 48, "window": 8.0
        }
        assert doc["results"]["bound"]["lhs_route"] == {
            "route": "exact", "phi_mean": {"route": "quadrature", "nodes": 128, "window": 16.0}
        }
        assert "repricing" not in doc["results"]  # no closed-form price map

    def test_bessel_tail_blocks_never_change_the_report(self, tmp_path, capsys, monkeypatch):
        # 20000 paths: two simulation blocks and three blocks of the tail
        # term's quadrature, split over one thread and over two; a moving
        # theta, since only its left side integrates the tail on every path
        cfg = tmp_path / "bes.yaml"
        cfg.write_text(
            BASE.replace("model: gbm", "model: bessel0")
            .replace("sigma: 0.2", "sigma: 1.0")
            .replace(
                "generator: self-consistent",
                "generator: meanrev-vol\ntheta: {rate: 2.0, level: 0.8, vol_of_vol: 0.4}",
            )
            .replace("strikes: [0.0, 0.5, 1.0, 1.5, 2.0]", "strikes: [0.0, 0.75, 1.5]")
            .replace("paths: 4000", "paths: 20000")
        )
        docs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("VOLBOUND_WORKERS", workers)
            assert main(["check-bound", "--config", str(cfg)]) in (0, 1)
            docs.append(canonical_json(json.loads(capsys.readouterr().out)))
        assert docs[0] == docs[1]
        b = json.loads(docs[0])["results"]["bound"]
        assert b["n_paths"] == 20000 and b["tail_correction_mean"] != 0.0
        assert b["lhs_route"] == {"route": "monte-carlo", "paths": 20000}

    def test_check_bound_reports_the_logdiff_law(self, tmp_path, capsys, monkeypatch):
        # logdiff steps by its exact law and integrates G against it; at
        # sigma = 1 a path reaches the atom at Z = 1 by t = 0.25 with
        # probability 0.5^(1 / (1 - e^-0.25)), and by t = 1 with 0.334
        cfg = tmp_path / "ld.yaml"
        cfg.write_text(
            BASE.replace("model: gbm", "model: logdiff")
            .replace("sigma: 0.2", "sigma: 1.0")
            .replace("[1.0, 2.0, 3.0]", "[0.5, 0.75, 1.0]")
            .replace("strikes: [0.0, 0.5, 1.0, 1.5, 2.0]", "strikes: [0.0, 0.45, 0.9]")
            .replace("eval_time: 0.5", "eval_time: 0.25")
            .replace("paths: 4000", "paths: 2000")
        )
        docs = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("VOLBOUND_WORKERS", workers)
            for cmd in ("check-bound", "martingale-check"):
                main([cmd, "--config", str(cfg)])
                docs[cmd, workers] = canonical_json(json.loads(capsys.readouterr().out))
        for cmd in ("check-bound", "martingale-check"):
            assert docs[cmd, "1"] == docs[cmd, "2"]
        b = json.loads(docs["check-bound", "1"])["results"]
        assert b["bound"]["tail_route"] == {"route": "quadrature", "nodes": 48, "window": 8.0}
        assert b["stepping"] == {"route": "exact-law", "steps": 1}  # [0, 0.25]
        ab = b["bound"]["absorption"]
        mass = 0.5 ** (1.0 / -math.expm1(-0.25))
        assert ab["absorbed_mass"] == [pytest.approx(mass, rel=1e-14, abs=0.0)]
        assert abs(ab["fraction"][0] - mass) < 4.0 * math.sqrt(mass * (1.0 - mass) / 2000)
        sg = json.loads(docs["martingale-check", "1"])["results"]["semigroup"]
        assert sg["absorption"]["absorbed_mass"] == [pytest.approx(0.33402391255973, rel=1e-12)]
        # phi vanishes at logdiff's atom, so the closed form stands
        assert sg["reference_route"] == {"route": "closed-form"}

    def test_simulating_commands_name_their_stepping_route(
        self, base_path, scan_path, tmp_path, capsys
    ):
        def stepping(*argv):
            assert main(list(argv)) in (0, 1)
            return json.loads(capsys.readouterr().out)["results"]["stepping"]

        # gbm's law samples exactly: one step per interval between the
        # stored times and theta's change times, [0, 0.5] for the bound.
        # Where theta does not move the repricing is exact and steps no path
        assert stepping("check-bound", "--config", base_path) == {
            "route": "exact-law", "steps": 1
        }
        # the same per scan point
        assert stepping("scan", "--config", scan_path) == {"route": "exact-law", "steps": 3}
        # U on [0, 0.25, 0.5, 1], V on 65 points, the semigroup on [0, 1]
        assert stepping("martingale-check", "--config", base_path, "--paths", "64") == {
            "route": "exact-law", "steps": 68
        }
        meanrev = tmp_path / "meanrev.yaml"
        meanrev.write_text(
            BASE.replace("generator: self-consistent", "generator: meanrev-vol\n"
                         "theta: {rate: 1.0, level: 0.2, vol_of_vol: 0.1}")
        )
        assert stepping("check-bound", "--config", str(meanrev), "--paths", "256") == {
            "route": "exact-law", "dt": 0.01
        }
        # logdiff samples its law exactly, and takes Euler steps while theta moves
        ld = tmp_path / "ld.yaml"
        ld.write_text(BASE.replace("model: gbm", "model: logdiff"))
        assert stepping("martingale-check", "--config", str(ld), "--paths", "64") == {
            "route": "exact-law", "steps": 68
        }
        ld.write_text(meanrev.read_text().replace("model: gbm", "model: logdiff"))
        assert stepping("check-bound", "--config", str(ld), "--paths", "256") == {
            "route": "euler", "dt": 0.01
        }
        # a scan whose points step differently lists each route once, the
        # exact draws of the points whose theta stays put added up
        gbm_scan = Path(__file__).resolve().parents[1] / "bench" / "configs" / "gbm-scan.yaml"
        assert stepping(
            "scan", "--config", str(gbm_scan), "--paths", "256",
            "--set", "generator=meanrev-vol",
            "--set", "theta={rate: 2.0, level: 0.2, vol_of_vol: 0.4}",
            "--set", "scan.axes=[{key: simulation.dt, values: [0.01, 0.02]}, "
            "{key: theta.vol_of_vol, values: [0.0, 0.4]}]",
        ) == [
            {"route": "exact-law", "steps": 2},
            {"route": "exact-law", "dt": 0.01},
            {"route": "exact-law", "dt": 0.02},
        ]

    def test_absorbed_fraction_is_reported_next_to_the_law(self, base_path, tmp_path, capsys):
        bes = tmp_path / "bes.yaml"
        bes.write_text(
            BASE.replace("model: gbm", "model: bessel0").replace("sigma: 0.2", "sigma: 1.0")
        )
        assert main(["martingale-check", "--config", str(bes)]) == 0
        r = json.loads(capsys.readouterr().out)["results"]
        for key in ("discounted_eigenfunction", "compensated_eigenfunction", "semigroup"):
            ab = r[key]["absorption"]
            assert ab["times"] == ([1.0] if key == "semigroup" else r["times"])
            for t, frac, mass in zip(ab["times"], ab["fraction"], ab["absorbed_mass"]):
                assert mass == pytest.approx(math.exp(-2.0 / t), rel=1e-14, abs=0.0)
                assert abs(frac - mass) < 4.0 * math.sqrt(mass * (1.0 - mass) / 4000)
        # the stopped process's mean comes from the law: atom plus density,
        # by a 64-node rule on each side of sqrt(z0)
        assert r["semigroup"]["reference_route"] == {
            "route": "quadrature", "nodes": 128, "window": 16.0
        }
        ref = pytest.approx(0.33341074657405034, rel=1e-13, abs=0.0)
        assert r["semigroup"]["references"] == [ref]
        assert main(["check-bound", "--config", base_path, "--paths", "256"]) == 0
        ab = json.loads(capsys.readouterr().out)["results"]["bound"]["absorption"]
        assert ab == {"times": [0.5], "fraction": [0.0]}  # gbm has no atom

    def test_out_file_and_summary_line(self, base_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["check-bound", "--config", base_path, "--out", str(out)]) == 0
        assert "pass" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["command"] == "check-bound"
        assert doc["config"]["simulation"]["seed"] == 11

    def test_seed_flag_overrides(self, base_path, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(["check-bound", "--config", base_path, "--seed", "77", "--out", str(out)])
        capsys.readouterr()
        assert json.loads(out.read_text())["config"]["simulation"]["seed"] == 77

    def test_exponent_floats_are_numbers(self, base_path, tmp_path, capsys):
        # YAML 1.1 reads 1e-3 as a string; the loader takes YAML 1.2's floats
        # in a file, in --set, and in a report's own config block, where json
        # writes 1e-05
        assert parse_config(BASE.replace("dt: 0.01", "dt: 1e-3")).sim.dt == 0.001
        assert parse_override("simulation.dt=2.5e2") == ("simulation.dt", 250.0)
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        args = ["check-bound", "--paths", "256"]
        assert main([*args, "--config", base_path, "--set", "simulation.dt=1e-05",
                     "--out", str(first)]) == 0
        report = json.loads(first.read_text())
        assert '"dt": 1e-05' in json.dumps(report["config"])
        echoed = tmp_path / "echoed.yaml"
        echoed.write_text(json.dumps(report["config"]))
        assert main([*args, "--config", str(echoed), "--out", str(again)]) == 0
        capsys.readouterr()
        assert canonical_json(json.loads(again.read_text())) == canonical_json(report)

    def test_integers_follow_yaml_1_2(self, base_path, tmp_path, capsys):
        # YAML 1.1 reads 010 as octal 8, 1:30 as 90 (base 60) and 1_000 as
        # 1000; under YAML 1.2's core schema 010 is ten, 0o10 and 0x10 keep
        # their prefixes, and the other two are strings, rejected by name
        assert parse_config(BASE.replace("seed: 11", "seed: 010")).sim.seed == 10
        assert parse_config(BASE.replace("seed: 11", "seed: 0o10")).sim.seed == 8
        assert parse_config(BASE.replace("seed: 11", "seed: 0x10")).sim.seed == 16
        assert parse_override("simulation.seed=010") == ("simulation.seed", 10)
        out = tmp_path / "seed.json"
        assert main(["check-bound", "--config", base_path, "--paths", "256",
                     "--set", "simulation.seed=010", "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["config"]["simulation"]["seed"] == 10
        for text in ("1:30", "1_000"):
            message = f"expected an integer, got '{text}' [key: simulation.paths] (line 10)"
            with pytest.raises(ConfigParseError, match=re.escape(message)):
                parse_config(BASE.replace("paths: 4000", f"paths: {text}"))
            bad = tmp_path / "bad.yaml"
            bad.write_text(BASE.replace("seed: 11", f"seed: {text}"))
            assert main(["check-bound", "--config", str(bad)]) == 2
            assert "simulation.seed" in capsys.readouterr().err
            assert main(["check-bound", "--config", base_path,
                         "--set", f"simulation.seed={text}"]) == 2
            assert "simulation.seed" in capsys.readouterr().err

    def test_floats_and_bools_follow_yaml_1_2(self, base_path, capsys):
        # YAML 1.1 reads 1_000.0 as 1000.0, 1:30.0 as 90.0 (base 60) and
        # yes/no/on/off as booleans; under YAML 1.2's core schema they are
        # strings, which a number key rejects by name, and by line in a file
        assert load_document("a: 1_000.0\nb: 1:30.0\nc: yes\nd: on") == {
            "a": "1_000.0", "b": "1:30.0", "c": "yes", "d": "on"
        }
        doc = load_document("a: true\nb: FALSE\nc: -.inf\nd: .5e1\ne: .nan")
        assert doc["a"] is True and doc["b"] is False
        assert doc["c"] == -math.inf and doc["d"] == 5.0 and math.isnan(doc["e"])
        for text in ("1_000.0", "1:30.0", "yes", "no", "on", "off"):
            message = f"expected a number, got '{text}' [key: sigma]"
            with pytest.raises(ConfigParseError, match=re.escape(message + " (line 2)")):
                parse_config(BASE.replace("sigma: 0.2", f"sigma: {text}"))
            assert main(["check-bound", "--config", base_path, "--set", f"sigma={text}"]) == 2
            assert capsys.readouterr().err == f"volbound: config error: {message}\n"

    def test_reports_reproduce_across_runs_and_workers(
        self, base_path, tmp_path, capsys, monkeypatch
    ):
        outs = []
        for name, workers in (("a.json", "1"), ("b.json", "8")):
            monkeypatch.setenv("VOLBOUND_WORKERS", workers)
            out = tmp_path / name
            assert main(["check-bound", "--config", base_path, "--out", str(out)]) == 0
            outs.append(json.loads(out.read_text()))
        capsys.readouterr()
        assert canonical_json(outs[0]) == canonical_json(outs[1])
        # the timing block says how each run was made, outside the body
        for doc, workers in zip(outs, (1, 8)):
            assert doc["timing"] == {
                "wall_seconds": doc["timing"]["wall_seconds"],
                "workers": workers,
                "python": ".".join(map(str, sys.version_info[:3])),
                "numpy": np.__version__,
            }

    def test_martingale_reports_reproduce_across_workers(self, tmp_path, capsys, monkeypatch):
        # 40000 paths are three blocks; on bessel0 at sigma = 1 paths absorb,
        # and the compensated check sums each block's columns as it is drawn
        cfg = tmp_path / "bes.yaml"
        cfg.write_text(
            BASE.replace("model: gbm", "model: bessel0").replace("sigma: 0.2", "sigma: 1.0")
        )
        bodies = []
        for workers in ("1", "2", "8"):
            monkeypatch.setenv("VOLBOUND_WORKERS", workers)
            assert main(["martingale-check", "--config", str(cfg), "--paths", "40000"]) == 0
            bodies.append(canonical_json(json.loads(capsys.readouterr().out)))
        assert bodies[0] == bodies[1] == bodies[2]

    @pytest.mark.parametrize(
        "command, bench, overrides",
        [
            ("check-bound", None, ()),
            ("price", None, ()),
            ("densify", None, ("densify={grid_sizes: [3, 5]}",)),
            ("martingale-check", None, ()),
            ("scan", "gbm-scan", ()),
            (
                "scan", None,
                (
                    "generator=step-vol", "theta={jump_time: 0.25, jump_size: 0.1}",
                    "scan={axes: [{key: sigma, values: [0.2, 0.3]}]}",
                ),
            ),
            (
                "scan", None,
                (
                    "model=bessel0", "strikes=[0.0, 0.3, 0.6, 0.9]",
                    "scan={axes: [{key: model, values: [bessel0, logdiff]}]}",
                ),
            ),
        ],
        ids=[
            "check-bound", "price", "densify", "martingale-check", "bench-gbm-scan",
            "sigma-scan-with-step-sugar", "model-scan-without-z0",
        ],
    )
    def test_a_reports_config_reproduces_its_run(
        self, command, bench, overrides, base_path, tmp_path, capsys
    ):
        # the config block alone, passed back, gives the same body: a scan
        # axis on the step sugar still finds it, the sugar's jump still
        # rides on each point's sigma, and each scanned model starts at its
        # own z0
        config = base_path
        if bench is not None:
            config = str(Path(__file__).resolve().parents[1] / "bench" / "configs" / f"{bench}.yaml")
        sets = [arg for value in overrides for arg in ("--set", value)]
        code = main([command, "--config", config, *sets])
        first = json.loads(capsys.readouterr().out)
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(first["config"]))
        assert main([command, "--config", str(echo)]) == code
        assert canonical_json(json.loads(capsys.readouterr().out)) == canonical_json(first)

    @pytest.mark.parametrize("command", ["check-bound", "scan"])
    def test_meanrev_readme_example_runs(self, command, tmp_path, capsys):
        # the README's meanrev-vol theta goes below 0 on some paths by the
        # evaluation time; the band diagnostics must still run on them
        cfg = tmp_path / "meanrev.yaml"
        cfg.write_text(
            BASE.replace(
                "generator: self-consistent",
                "generator: meanrev-vol\n"
                "theta: {rate: 2.0, level: 0.3, vol_of_vol: 0.4, correlation: -0.5}",
            )
            + "scan:\n  axes:\n    - key: theta.vol_of_vol\n      values: [0.0, 0.4]\n"
        )
        assert main([command, "--config", str(cfg), "--paths", "2000"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        if command == "check-bound":
            assert len(results["bound"]["band_diagnostics"]) == 3
        else:
            assert [r["theta.vol_of_vol"] for r in results["rows"]] == [0.0, 0.4]

    def test_readme_working_config_runs_its_scan(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg = tmp_path / "readme.yaml"
        cfg.write_text(readme.split("A working config:\n\n```yaml\n")[1].split("```")[0])
        assert main(["scan", "--config", str(cfg), "--paths", "2000"]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        assert [r["theta.jump_size"] for r in rows] == [0.0, 0.1, 0.3, 0.5]

    def test_single_point_scan_matches_check_bound(self, scan_path, base_path, tmp_path, capsys):
        out = tmp_path / "scan.json"
        single = tmp_path / "single.yaml"
        single.write_text(SCAN.replace("values: [0.0, 0.1, 0.3]", "values: [0.0]"))
        assert main(["scan", "--config", str(single), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = json.loads(out.read_text())["results"]["rows"]
        assert len(rows) == 1

        cb = tmp_path / "cb.json"
        assert main(["check-bound", "--config", str(single), "--out", str(cb)]) == 0
        capsys.readouterr()
        bound = json.loads(cb.read_text())["results"]["bound"]
        assert rows[0]["lhs"] == bound["lhs"]
        assert rows[0]["rhs"] == bound["rhs"]

    #: the scan row's columns copied from check-bound's bound block
    BOUND_COLUMNS = (
        "lhs", "lhs_se", "rhs", "satisfied", "gap_term_mean", "tail_correction_mean",
    )

    #: a step theta by its one jump's time and size
    STEP_AT = "generator: step-vol\ntheta: {jump_time: %s, jump_size: %s}"
    #: a mean-reverting theta, which is its own history
    MOVING = "generator: meanrev-vol\ntheta: {rate: 2.0, level: 0.3, vol_of_vol: %s}"

    @pytest.mark.parametrize(
        "model, key, values, evaluations",
        [
            # before, at and after eval_time: three histories
            ("gbm", "theta.jump_time", [0.25, 0.5, 0.75], 3),
            # a jump after eval_time: one history
            ("gbm", "theta.jump_size", [0.0, 0.1, 0.3], 1),
            # the same on bessel0, whose tail term is a quadrature
            ("bessel0", "theta.jump_time", [0.25, 0.5, 0.75], 3),
            ("bessel0", "theta.jump_size", [0.0, 0.1, 0.3], 1),
            # the simulation block and the model's start are part of the key
            ("gbm", "simulation.seed", [11, 12], 2),
            ("gbm", "z0", [1.0, 1.5], 2),
        ],
    )
    def test_scan_rows_equal_standalone_check_bound(
        self, model, key, values, evaluations, tmp_path, capsys, bound_calls
    ):
        text = SCAN.replace("model: gbm", f"model: {model}").replace("paths: 4000", "paths: 1500")
        text = text.replace("key: theta.jump_size\n      values: [0.0, 0.1, 0.3]",
                            f"key: {key}\n      values: {values}")
        cfg = tmp_path / "scan.yaml"
        cfg.write_text(text)
        assert main(["scan", "--config", str(cfg)]) in (0, 1)
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        assert len(bound_calls) == evaluations
        assert [r[key] for r in rows] == values
        for row, value in zip(rows, values):
            assert main(["check-bound", "--config", str(cfg), "--set", f"{key}={value}"]) in (0, 1)
            alone = json.loads(capsys.readouterr().out)["results"]
            want = {col: alone["bound"][col] for col in self.BOUND_COLUMNS}
            assert json.dumps({col: row[col] for col in want}) == json.dumps(want)
            # the residuals are each point's own
            if "repricing" in alone:
                assert row["max_resid_z"] == alone["repricing"]["max_abs_z"]
            else:
                assert row["max_resid_z"] is None

    def test_grouped_scan_is_the_points_run_one_at_a_time(self, tmp_path, capsys, monkeypatch):
        # jumps at 0.75 and 1.5 fall after eval_time, so those four points
        # share one history; a jump at 0.25 or 0.5 makes a point its own
        text = SCAN.replace("paths: 4000", "paths: 1500").replace(
            "key: theta.jump_size\n      values: [0.0, 0.1, 0.3]",
            "key: theta.jump_time\n      values: [0.25, 0.75, 0.5, 1.5]\n"
            "    - key: theta.jump_size\n      values: [0.1, 0.3]",
        )
        cfg = tmp_path / "scan.yaml"
        cfg.write_text(text)
        runs = []
        repriced = []
        pricing_residuals = cli.pricing_residuals

        def counted(scn, *args):
            repriced.append(scn)
            return pricing_residuals(scn, *args)

        monkeypatch.setattr(cli, "pricing_residuals", counted)
        for workers in ("1", "2"):
            monkeypatch.setenv("VOLBOUND_WORKERS", workers)
            assert main(["scan", "--config", str(cfg)]) in (0, 1)
            runs.append(json.loads(capsys.readouterr().out))
        # one repricing per point, whatever the groups
        assert len(repriced) == 8 * 2
        # a key no two points share: every point is a group of one
        monkeypatch.setattr(cli, "_history_key", lambda rc: object())
        assert main(["scan", "--config", str(cfg)]) in (0, 1)
        runs.append(json.loads(capsys.readouterr().out))
        assert len(repriced) == 8 * 3
        assert canonical_json(runs[0]) == canonical_json(runs[1]) == canonical_json(runs[2])

    @pytest.mark.parametrize(
        "theta, same, other",
        [
            (STEP_AT % (0.75, 0.1), STEP_AT % (0.75, 0.4), STEP_AT % (0.25, 0.1)),
            (STEP_AT % (0.75, 0.1), STEP_AT % (1.5, 0.1), STEP_AT % (0.5, 0.1)),
            (MOVING % 0.4, MOVING % 0.4, MOVING % 0.3),
            (MOVING % 0.4, MOVING % 0.4, "generator: self-consistent"),
        ],
        ids=["jump-before-t", "jump-at-t", "other-vol-of-vol", "constant"],
    )
    def test_history_key_parts_points_whose_histories_differ_by_t(self, theta, same, other):
        # a scan shares one check_bound across the points of a key, so a
        # point whose market differs by eval_time must get a key of its own
        key = cli._history_key
        first, twin, apart = (
            parse_config(BASE.replace("generator: self-consistent", text))
            for text in (theta, same, other)
        )
        assert key(first) == key(twin)
        assert key(first) != key(apart)

    @pytest.mark.parametrize(
        "axes, code, named, error",
        [
            # theta jumps to 60 before eval_time: exp(60^2 (1 - 0.5)) overflows
            ("    - key: theta.jump_time\n      values: [0.75, 0.25]\n"
             "    - key: theta.jump_size\n      values: [0.1, 60.0]\n",
             1, "theta.jump_time=0.25, theta.jump_size=60.0", "growth factor at t=0.5"),
            # the pin point exp(40^2) overflows for both points of the sigma 40 group
            ("    - key: sigma\n      values: [0.2, 40.0]\n"
             "    - key: theta.jump_size\n      values: [0.0, 0.1]\n",
             2, "sigma=40.0, theta.jump_size=0.0; sigma=40.0, theta.jump_size=0.1",
             "pin point must be positive and finite"),
        ],
    )
    def test_a_failing_scan_group_names_its_points(
        self, axes, code, named, error, tmp_path, capsys
    ):
        cfg = tmp_path / "scan.yaml"
        cfg.write_text(SCAN.replace("paths: 4000", "paths: 200").split("scan:\n")[0]
                       + "scan:\n  axes:\n" + axes)
        with np.errstate(over="ignore"):
            assert main(["scan", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert f"scan point {named}: {error}" in err
        assert err.count("scan point") == 1

    def test_moving_theta_never_shares_an_evaluation(self, tmp_path, capsys, bound_calls):
        # a moving theta's history is the whole process, so a scan over the
        # correlation of its noise evaluates the bound at every point
        cfg = tmp_path / "meanrev.yaml"
        cfg.write_text(
            BASE.replace(
                "generator: self-consistent",
                "generator: meanrev-vol\ntheta: {rate: 2.0, level: 0.3, vol_of_vol: 0.4}",
            )
            + "scan:\n  axes:\n    - key: theta.correlation\n      values: [0.0, -0.5, 0.5]\n"
        )
        assert main(["scan", "--config", str(cfg), "--paths", "1000"]) in (0, 1)
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        assert [scn.theta_process.correlation for scn in bound_calls] == [0.0, -0.5, 0.5]
        assert len({row["lhs"] for row in rows}) == 3

    def test_duplicate_moving_points_are_each_the_point_alone(
        self, tmp_path, capsys, bound_calls
    ):
        # two equal points of a moving theta share one history, so one
        # check_bound; each reprices over its own paths, as check-bound does
        cfg = tmp_path / "meanrev.yaml"
        cfg.write_text(
            BASE.replace(
                "generator: self-consistent",
                "generator: meanrev-vol\n"
                "theta: {rate: 2.0, level: 0.3, vol_of_vol: 0.4, correlation: -0.5}",
            )
            + "scan:\n  axes:\n    - key: theta.vol_of_vol\n      values: [0.4, 0.4]\n"
        )
        assert main(["scan", "--config", str(cfg), "--paths", "1000"]) in (0, 1)
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        assert len(bound_calls) == 1
        assert canonical_json(rows[0]) == canonical_json(rows[1])
        assert main(["check-bound", "--config", str(cfg), "--paths", "1000"]) in (0, 1)
        alone = json.loads(capsys.readouterr().out)["results"]["repricing"]
        assert alone["route"] == {"route": "monte-carlo", "paths": 1000}
        assert [row["max_resid_z"] for row in rows] == [alone["max_abs_z"]] * 2

    def test_scan_sweep_structure(self, scan_path, capsys):
        assert main(["scan", "--config", scan_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = doc["results"]["rows"]
        assert [r["theta.jump_size"] for r in rows] == [0.0, 0.1, 0.3]
        assert all(r["conjunction_ok"] for r in rows)
        assert rows[0]["feasible"] is True
        # theta does not move, so the residuals are exact: 0.0 where the
        # point reprices, inf (spelled out, as JSON has no literal) where not
        assert [r["max_resid_z"] for r in rows] == [0.0, "inf", "inf"]
        # a post-evaluation-time jump cannot move time-t data
        assert rows[0]["lhs"] == rows[1]["lhs"] == rows[2]["lhs"]

    def test_scan_csv_is_flat_and_typed(self, scan_path, capsys):
        assert main(["scan", "--config", scan_path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("theta.jump_size,lhs,lhs_se,rhs,satisfied")
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0.0"
        assert first[4] == "true"
        # the nested per_weight block, last, is one cell of canonical JSON
        header, row = list(csv.reader(lines[:2]))
        assert header[-1] == "per_weight"
        assert [w["maturity"] for w in json.loads(row[-1])] == [3.0]

    def test_scan_rejects_a_bad_axis_value_before_computing(self, tmp_path, capsys, bound_calls):
        # the third point's jump takes theta below zero: no point runs, and the
        # error names the axis value as written, not the key it resolves to
        cfg = tmp_path / "scan.yaml"
        cfg.write_text(SCAN.replace("[0.0, 0.1, 0.3]", "[0.0, 0.1, -0.5]"))
        assert main(["scan", "--config", str(cfg)]) == 2
        assert bound_calls == []
        assert "theta.jump_size=-0.5" in capsys.readouterr().err

    def test_densify_canonical_schedule(self, base_path, capsys):
        code = main(
            [
                "densify",
                "--config",
                base_path,
                "--set",
                "densify.grid_sizes=[4, 16, 64]",
                "--paths",
                "2000",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        steps = doc["results"]["steps"]
        assert doc["results"]["schedule_ok"] is True
        for step, n in zip(steps, (4, 16, 64)):
            assert step["diagnostic"] == pytest.approx(2.0 / math.sqrt(n), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("model", ["gbm", "bessel0", "logdiff"])
    def test_densify_passes_on_every_model_without_paths(self, model, tmp_path, capsys):
        # the schedule comes from the state domain and phi, and the left side
        # is exactly 0, so the study neither fails on a model nor reads the
        # simulation block
        cfg = tmp_path / "densify.yaml"
        cfg.write_text(
            BASE.replace("model: gbm", f"model: {model}")
            + "\ndensify:\n  grid_sizes: [4, 16, 64, 256]\n"
        )
        assert main(["densify", "--config", str(cfg)]) == 0
        own = json.loads(capsys.readouterr().out)["results"]
        assert own["schedule_ok"] is True
        assert [s["n_strikes"] for s in own["steps"]] == [5, 17, 65, 257]
        assert "stepping" not in own
        assert main(["densify", "--config", str(cfg), "--paths", "16", "--seed", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["results"] == own

    #: BASE without its simulation section, with what densify and
    #: implied-vol read
    NO_SIM = (
        BASE.replace("simulation:\n  paths: 4000\n  dt: 0.01\n  seed: 11\n\n", "")
        + "  price: 0.0796556745541312\ndensify:\n  grid_sizes: [4, 16, 64]\n"
    )

    @pytest.mark.parametrize("command", ["price", "implied-vol", "densify", "validate-phi"])
    def test_commands_that_do_not_simulate_need_no_simulation(self, command, tmp_path, capsys):
        # they read no simulation section, and their config echo leaves it
        # out, so a run with one has the body of a run without
        assert "simulation" not in self.NO_SIM
        bare, full = tmp_path / "bare.yaml", tmp_path / "full.yaml"
        bare.write_text(self.NO_SIM)
        full.write_text(self.NO_SIM + "simulation: {paths: 100, dt: 0.5, seed: 3}\n")
        docs = []
        for path in (bare, full):
            assert main([command, "--config", str(path)]) == 0
            out = capsys.readouterr()
            assert out.err == ""
            docs.append(json.loads(out.out))
        assert "simulation" not in docs[1]["config"]
        assert canonical_json(docs[0]) == canonical_json(docs[1])

    @pytest.mark.parametrize("command", ["check-bound", "scan", "martingale-check"])
    def test_simulating_commands_name_the_missing_simulation(self, command, tmp_path, capsys):
        cfg = tmp_path / "bare.yaml"
        cfg.write_text(
            self.NO_SIM + "scan:\n  axes:\n    - {key: sigma, values: [0.2, 0.3]}\n"
        )
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("volbound: config error: ")
        assert "needs a simulation section" in err and "[key: simulation]" in err

    SHORTCUTS = [("--paths", "100"), ("--seed", "5"), ("--dt", "0.05")]

    @pytest.mark.parametrize("flag,value", SHORTCUTS, ids=[f for f, _ in SHORTCUTS])
    @pytest.mark.parametrize("command", ["price", "implied-vol", "densify", "validate-phi"])
    def test_a_shortcut_without_simulation_changes_nothing(
        self, command, flag, value, tmp_path, capsys
    ):
        # a shortcut completes a simulation section and never starts one, so
        # a command that does not simulate runs as without the flag
        cfg = tmp_path / "bare.yaml"
        cfg.write_text(self.NO_SIM)
        bodies = []
        for extra in ([], [flag, value]):
            assert main([command, "--config", str(cfg), *extra]) == 0
            out = capsys.readouterr()
            assert out.err == ""
            bodies.append(canonical_json(json.loads(out.out)))
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("flag,value", SHORTCUTS, ids=[f for f, _ in SHORTCUTS])
    @pytest.mark.parametrize("command", ["check-bound", "scan", "martingale-check"])
    def test_a_shortcut_does_not_stand_in_for_simulation(
        self, command, flag, value, tmp_path, capsys
    ):
        cfg = tmp_path / "bare.yaml"
        cfg.write_text(
            self.NO_SIM + "scan:\n  axes:\n    - {key: sigma, values: [0.2, 0.3]}\n"
        )
        assert main([command, "--config", str(cfg), flag, value]) == 2
        err = capsys.readouterr().err
        assert "needs a simulation section" in err and "[key: simulation]" in err

    def test_martingale_check(self, base_path, capsys):
        assert main(["martingale-check", "--config", base_path, "--paths", "4000"]) == 0
        r = json.loads(capsys.readouterr().out)["results"]
        assert r["discounted_eigenfunction"]["verdict"] is True
        assert r["compensated_eigenfunction"]["verdict"] is True
        assert r["semigroup"]["verdict"] is True
        assert r["semigroup"]["reference_route"] == {"route": "closed-form"}

    def test_exit_codes(self, base_path, tmp_path, capsys):
        assert main(["check-bound", "--config", str(tmp_path / "missing.yaml")]) == 3
        assert main(["check-bound", "--config", base_path, "--format", "csv"]) == 2
        assert main(["price", "--config", base_path, "--set", "sigma=-1"]) == 2
        assert main(["check-bound"]) == 2  # config required
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, bench, overrides, code",
        [
            ("check-bound", "bessel0-bound", ("model=gbm", "strikes=[0.0, 0.5, 1e308]"), 2),
            ("check-bound", "bessel0-bound", ("strikes=[0.0, 0.5, 1e308]",), 2),
            ("check-bound", "bessel0-bound", ("model=gbm", "maturities=[1.0, 2.0, 1e300]"), 2),
            ("check-bound", "bessel0-bound", ("sigma=50",), 2),
            (
                "implied-vol", "bessel0-bound",
                ("pricing={maturity: 1.0, strike: 1e300, price: 1e-300}",), 1,
            ),
            ("check-bound", "bessel0-bound", ("model=gbm", "z0=1e300"), 1),
            ("martingale-check", "bessel0-martingale", ("model=gbm", "z0=1e200"), 1),
            (
                "check-bound", "bessel0-bound",
                ("model=gbm", "maturities=[1.0, 2.0, 3.0, 4.0]", "generator=step-vol",
                 "theta={jump_time: 0.25, jump_size: 15.8}"), 1,
            ),
            (
                "martingale-check", "bessel0-martingale",
                ("model=gbm", "z0=1e153", "simulation.paths=2000"), 1,
            ),
        ],
        ids=[
            "gbm-strike-overflows", "bessel0-strike-overflows", "gbm-maturity-overflows",
            "pin-point-overflows", "bessel0-density-overflows", "gbm-phi-overflows",
            "gbm-martingale-reference-overflows", "gbm-left-side-overflows",
            "gbm-martingale-mean-overflows",
        ],
    )
    def test_out_of_range_finite_inputs_fail_in_one_line(self, command, bench, overrides, code):
        # finite values whose slopes, weights, density, phi, left side or
        # sample means overflow: an
        # invalid input (exit 2) or a failed computation (exit 1) named in
        # one line, with no numpy warning, no traceback and no report
        config = Path(__file__).resolve().parents[1] / "bench" / "configs" / f"{bench}.yaml"
        sets = [arg for value in overrides for arg in ("--set", value)]
        proc = subprocess.run(
            [sys.executable, "-m", "volbound", command, "--config", str(config), *sets],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
        )
        assert proc.returncode == code
        prefix = {1: "volbound: computation failed:", 2: "volbound: invalid input:"}[code]
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr
        assert proc.stdout == ""

    def test_python_m_volbound_reports_a_usage_error(self, base_path):
        proc = subprocess.run(
            [sys.executable, "-m", "volbound", "validate-phi", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "csv is only available" in proc.stderr


class TestProcessEntry:
    """``cli.run`` is the process entry: ``python -m volbound``, ``python -m
    volbound.cli`` and the console script run ``main`` through it, and it
    freezes the collector once ``main`` is done, so the interpreter's exit
    collections skip the run's objects. ``main`` is the in-process API."""

    BOUND_ARGV = (
        "check-bound", "--config",
        str(Path(__file__).resolve().parents[1] / "bench" / "configs" / "bessel0-bound.yaml"),
    )
    #: starts a module as ``python -m`` does, after registering an exit hook
    #: that reports how many objects the collector holds frozen
    LAUNCH = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        "runpy.run_module(sys.argv.pop(1), run_name='__main__', alter_sys=True)\n"
    )

    @staticmethod
    def launch(*argv) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
        )

    @pytest.mark.parametrize(
        "sets, code",
        [
            ((), 0),
            (("generator=step-vol", "theta={jump_time: 0.25, jump_size: 1.0}"), 1),
            (("strikes=[0.5, 1.0]",), 2),
        ],
        ids=["pass", "failed-verdict", "config-error"],
    )
    def test_main_leaves_the_collector_alone(self, sets, code, capsys):
        # tests and the bench tracer call main in one long process, where a
        # freeze would keep every later object out of collection
        before = (gc.get_freeze_count(), gc.isenabled())
        assert main([*self.BOUND_ARGV, *(arg for s in sets for arg in ("--set", s))]) == code
        capsys.readouterr()
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    @pytest.mark.parametrize("module", ["volbound", "volbound.cli"])
    def test_python_m_writes_mains_report(self, module, capsys):
        proc = self.launch("-m", module, *self.BOUND_ARGV)
        code = main(list(self.BOUND_ARGV))
        assert (proc.returncode, proc.stderr) == (code, "")
        assert canonical_json(json.loads(proc.stdout)) == canonical_json(
            json.loads(capsys.readouterr().out)
        )

    @pytest.mark.parametrize("argv", [BOUND_ARGV, ("--version",)], ids=["check-bound", "version"])
    @pytest.mark.parametrize("module", ["volbound", "volbound.cli"])
    def test_exit_hooks_see_a_frozen_collector(self, module, argv):
        # --version leaves main by argparse's SystemExit, not by a return
        proc = self.launch("-c", self.LAUNCH, module, *argv)
        assert proc.returncode == 0
        frozen = re.fullmatch(r"frozen (\d+)\n", proc.stderr)
        assert frozen and int(frozen[1]) > 0, proc.stderr

    def test_console_script_runs_the_process_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert tomllib.loads(pyproject.read_text())["project"]["scripts"] == {
            "volbound": "volbound.cli:run"
        }


class TestCheckBoundVerdict:
    """check-bound exits 0 exactly when the bound holds: lhs <= rhs + 3 se."""

    BENCH_BOUND = Path(__file__).resolve().parents[1] / "bench" / "configs" / "bessel0-bound.yaml"
    STEP = "generator: step-vol\ntheta: {jump_time: 0.25, jump_size: %s}"
    MEANREV = (
        "generator: meanrev-vol\n"
        "theta: {rate: 4.0, level: %s, vol_of_vol: 0.4, correlation: -0.5}"
    )
    #: the three exact-route fields, then every number of the left side
    LAW_FIELDS = (
        "lhs_route", "satisfied", "lhs", "lhs_se", "rhs", "gap_term_mean", "gap_term_se",
        "tail_correction_mean", "tail_correction_se",
    )

    @staticmethod
    def bound(capsys) -> dict:
        return json.loads(capsys.readouterr().out)["results"]["bound"]

    @pytest.mark.parametrize("seed", [533, 601, 920])
    def test_bench_seeds_pass_with_the_exact_zero_left_side(self, seed, capsys):
        # the paths at these seeds once failed a split-half comparison of
        # their means, which the exact left side never reads
        argv = ["check-bound", "--config", str(self.BENCH_BOUND), "--seed", str(seed)]
        assert main(argv) == 0
        b = self.bound(capsys)
        assert (b["lhs"], b["rhs"], b["satisfied"]) == (0.0, 1.7115141633941515, True)

    @pytest.mark.parametrize(
        "route, theta, values",
        [("exact", STEP, [0.0, 0.3, 1.0]), ("monte-carlo", MEANREV, [0.3, 1.5])],
    )
    def test_exit_code_is_satisfied(self, route, theta, values, tmp_path, capsys):
        cfg = tmp_path / "bes.yaml"
        verdicts = []
        for value in values:
            cfg.write_text(
                BASE.replace("model: gbm", "model: bessel0")
                .replace("generator: self-consistent", theta % value)
            )
            code = main(["check-bound", "--config", str(cfg), "--paths", "2000"])
            b = self.bound(capsys)
            assert b["lhs_route"]["route"] == route
            assert code == (0 if b["satisfied"] else 1)
            verdicts.append(b["satisfied"])
        assert verdicts[0] and not verdicts[-1]

    @pytest.mark.parametrize(
        "model, strikes, jump",
        [
            ("gbm", "[0.0, 0.5, 1.0, 1.5, 2.0]", 0.3),
            ("bessel0", "[0.0, 0.5, 1.0, 1.5, 2.0]", 1.0),
            ("logdiff", "[0.0, 0.3, 0.6, 0.9]", 0.3),
        ],
    )
    def test_exact_verdict_reads_the_law_alone(
        self, model, strikes, jump, tmp_path, capsys, monkeypatch
    ):
        # where theta does not move, neither the seed, nor the path count,
        # nor the worker count changes the left side or the exit code
        cfg = tmp_path / f"{model}.yaml"
        cfg.write_text(
            BASE.replace("model: gbm", f"model: {model}")
            .replace("strikes: [0.0, 0.5, 1.0, 1.5, 2.0]", f"strikes: {strikes}")
            .replace("generator: self-consistent", self.STEP % jump)
        )
        outs = []
        for seed, paths, workers in itertools.product((1, 533), (16, 20000), ("1", "2")):
            monkeypatch.setenv("VOLBOUND_WORKERS", workers)
            argv = ["check-bound", "--config", str(cfg), "--seed", str(seed), "--paths", str(paths)]
            code = main(argv)
            b = self.bound(capsys)
            outs.append([code] + [b[k] for k in self.LAW_FIELDS])
        assert outs[0][1]["route"] == "exact"
        assert all(out == outs[0] for out in outs)


    @pytest.mark.parametrize(
        "model, sigma, ratios, code",
        [("bessel0", 1.0, [0.646, 3.07, 9.24], 1), ("gbm", 0.2, None, 0)],
        ids=["bessel0", "gbm"],
    )
    def test_every_weight_vector_rules_the_scenario_out(
        self, model, sigma, ratios, code, tmp_path, capsys
    ):
        # a +0.5 jump at 0.25 under five maturities: weighting T_3 alone
        # passes bessel0, weighting T_5 alone breaks it nine times over, and
        # the verdict reads every weight; gbm at sigma 0.2 passes them all
        cfg = tmp_path / "five.yaml"
        cfg.write_text(
            BASE.replace("model: gbm", f"model: {model}")
            .replace("sigma: 0.2", f"sigma: {sigma}")
            .replace("[1.0, 2.0, 3.0]", "[1.0, 1.5, 2.0, 3.0, 4.0]")
            .replace("generator: self-consistent", self.STEP % 0.5)
        )
        assert main(["check-bound", "--config", str(cfg)]) == code
        b = self.bound(capsys)
        rows = b["per_weight"]
        assert [row["maturity"] for row in rows] == [2.0, 3.0, 4.0]
        got = [row["lhs"] / row["rhs"] for row in rows]
        if ratios is None:
            assert all(row["satisfied"] for row in rows) and b["satisfied"]
        else:
            assert got == pytest.approx(ratios, abs=5e-3)
            assert [row["satisfied"] for row in rows] == [True, False, False]
            # the top level is the sharpest row, T_5's
            top = rows[-1]
            assert (b["lhs"], b["rhs"], b["rhs_inputs"]["coefficients"]) == (
                top["lhs"], top["rhs"], top["coefficients"]
            )


def test_readme_python_examples_run():
    # the README's Python blocks, run in order in one namespace as a reader
    # would paste them, so no example can go stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
