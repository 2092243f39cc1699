"""Design guards: structural rules the source tree must keep."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import canonical_json

SRC = Path(__file__).resolve().parents[1] / "src" / "volbound"

# `x.name == ...`, `x.name != ...`, and the same with the operands swapped
NAME_COMPARISON = re.compile(r"\.name\s*[!=]=|[!=]=\s*[\w.]+\.name\b")


def name_comparisons(src: Path) -> list[str]:
    return [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if NAME_COMPARISON.search(line)
    ]


def test_models_dispatch_on_their_law_not_their_name():
    # how a model is stepped, priced and integrated follows from its
    # transition law and eigenfunction, so a user model with the same law
    # takes the same routes as the builtin that carries it
    assert name_comparisons(SRC) == []


def parsed_sources(src: Path):
    for path in sorted(src.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_bessel_density_takes_the_real_argument_kernel():
    # the density's argument is never negative, so special_functions'
    # bessel_i1e, e^-x I1(x) for real x >= 0, serves it: no kernel of
    # complex argument such as scipy.special's ive(1, x) comes back
    uses = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_sources(SRC)
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "scipy.special"
            and any(alias.name == "ive" for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "ive")
    ]
    assert uses == []


def test_one_thread_pool_site():
    # simulation blocks and the tail term's quadrature blocks share one
    # block runner, so one worker count governs both: every thread start in
    # src is the one in _map_blocks
    calls, helper = [], range(0)
    for name, tree in parsed_sources(SRC):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
                    ("Thread", "PoolExecutor", "start_new_thread")):
                calls.append((name, node.lineno))
            if name == "models.py" and getattr(node, "name", None) == "_map_blocks":
                helper = range(node.lineno, node.end_lineno + 1)
    assert calls and all(name == "models.py" and line in helper for name, line in calls)


def sites(match) -> set[str]:
    """module.name of each top-level function or class holding a node that
    match accepts."""
    return {
        f"{name.removesuffix('.py')}.{top.name}"
        for name, tree in parsed_sources(SRC)
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and any(match(node) for node in ast.walk(top))
    }


def test_one_rng_stream_constructor():
    # every random stream is the Philox substream of (seed, *key)
    def seeds(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).endswith("SeedSequence")

    assert sites(seeds) == {"models.rng_substream"}


def test_one_path_engine():
    # reference paths and joint (S, theta) paths come from one function: only
    # it opens the path blocks' random streams, and the bound reaches none of
    # the engine's private parts
    def opens_stream(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).endswith("rng_substream")

    assert sites(opens_stream) == {"models.step_paths"}
    bound = dict(parsed_sources(SRC))["bound.py"]
    imported = {
        alias.name
        for node in ast.walk(bound)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported.isdisjoint({"_diffuse", "_step_grid", "rng_substream"})


def test_one_sample_mean():
    # the exact shortcut for a sample without noise is taken in one place,
    # with the mean and standard error that go with it: a sample's form
    # np.all(x == x[0]) or a table's, each row against its first column
    shortcut = re.compile(
        r"np\.all\((\w+) == \1\[(0|(\.\.\.|:), (0?:1|\[0\]|0, None))\](, axis=-?1)?\)")

    def takes_shortcut(node):
        return isinstance(node, ast.Call) and shortcut.fullmatch(ast.unparse(node))

    assert sites(takes_shortcut) == {"models.sample_mean"}


def test_one_standard_error_rule():
    # every standard error of a sample mean comes from sample_mean, so two
    # reported errors of one sample cannot differ in their last bits
    def takes_ddof(node):
        return isinstance(node, ast.keyword) and node.arg == "ddof"

    assert sites(takes_ddof) == {"models.sample_mean"}


def names_scipy_integrate(node) -> bool:
    """Whether node imports scipy.integrate or reaches into it."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("scipy.integrate") or (
            module == "scipy" and any(a.name == "integrate" for a in node.names))
    if isinstance(node, ast.Import):
        return any(a.name.startswith("scipy.integrate") for a in node.names)
    return isinstance(node, ast.Attribute) and ast.unparse(node) == "scipy.integrate"


def test_adaptive_quadrature_only_in_the_oracles():
    # scipy's adaptive quadrature is an oracle route, and the oracles live in
    # tests/conftest.py: every law prices by a closed form or its fixed-node
    # rule, so nothing in the package names scipy.integrate
    uses = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_sources(SRC)
        for node in ast.walk(tree)
        if names_scipy_integrate(node)
    ]
    assert uses == []


def test_law_type_checks_only_shrink():
    # a route follows from what a law can do (call, tail, sample) and the
    # route it names, not from its type: no check on it is left, and none
    # may be added
    def checks_lognormal(node):
        return (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                and "LognormalLaw" in ast.unparse(node.args[1]))

    assert sites(checks_lognormal) == set()


def callers_of(method: str) -> set[str]:
    """module.Class.function (or module.function) of each function, nested
    functions folded into the one that holds them, that calls a method of
    that name."""
    found = set()

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and not in_function:
                visit(child, scope + [child.name], False)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and not in_function:
                visit(child, scope + [child.name], True)
            else:
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                        and child.func.attr == method):
                    found.add(".".join(scope))
                visit(child, scope, in_function)

    for name, tree in parsed_sources(SRC):
        visit(tree, [name.removesuffix(".py")], False)
    return found


def test_one_tail_integral():
    # every fixed-node integral against a law is the law's own tail: the
    # call price, the tail term G and repricing all ask it, so no second
    # integrator sums a tail_rule
    assert callers_of("tail_rule") == {"models.TransitionLaw.tail"}


def test_every_definition_is_reached():
    # the package ships only what runs: each top-level function or class is
    # named somewhere in src/volbound outside its own body, or is part of
    # the package's public interface; an oracle that only tests call
    # belongs in tests/conftest.py
    import volbound

    trees = dict(parsed_sources(SRC))
    unreached = []
    for name, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name in volbound.__all__:
                continue
            own = {id(node) for node in ast.walk(top)}
            if not any(
                id(node) not in own and top.name in (getattr(node, "id", None), getattr(node, "attr", None))
                for other in trees.values()
                for node in ast.walk(other)
            ):
                unreached.append(f"{name.removesuffix('.py')}.{top.name}")
    assert unreached == []


def test_builtin_names_spelled_only_in_models():
    # the builtin models are named in one place; everything else derives
    # what it needs (grids, defaults) from the model or takes the names
    # from models.BUILTIN_MODELS
    spelled = {
        f"{name}:{node.lineno}"
        for name, tree in parsed_sources(SRC)
        if name != "models.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ("gbm", "bessel0", "logdiff")
    }
    assert spelled == set()


def test_no_numeric_eigenfunction_construction():
    # every builtin model carries its eigenfunction in closed form and
    # verify_phi checks it on a grid; nothing integrates the eigenfunction
    # ODE, and no error type is kept for a construction that cannot succeed
    def ode_or_infeasible(node):
        if isinstance(node, ast.ImportFrom):
            return any(a.name in ("solve_ivp", "InfeasibleError") for a in node.names)
        if isinstance(node, ast.ClassDef):
            return node.name == "InfeasibleError"
        return (isinstance(node, ast.Attribute) and node.attr == "solve_ivp") or (
            isinstance(node, ast.Name) and node.id in ("solve_ivp", "InfeasibleError"))

    assert sites(ode_or_infeasible) == set()


def run_child(code: str) -> str:
    """Run code in a fresh child and return what it prints."""
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def loaded_after(code: str, module: str) -> bool:
    """Whether module is imported once code has run in a fresh child."""
    out = run_child(code + f"\nimport sys; print({module!r} in sys.modules)")
    return out.strip().splitlines()[-1] == "True"


def test_cli_start_up_leaves_scipy_out():
    # importing the CLI pays for no part of scipy: no model needs any of it
    assert not loaded_after("import volbound.cli", "scipy")


@pytest.mark.parametrize("module", ["concurrent.futures", "logging"])
def test_cli_start_up_leaves_the_executor_out(module):
    # the block runner starts plain threads, so importing the CLI pays for
    # no executor and for no logging module behind one
    assert not loaded_after("import volbound.cli", module)


GBM_RUN = (
    "model: gbm\nsigma: 0.2\ngenerator: step-vol\n"
    "theta: {jump_time: 0.75, jump_size: 0.1}\nmaturities: [1.0, 2.0, 3.0]\n"
    "strikes: [0.0, 0.5, 1.0, 1.5, 2.0]\neval_time: 0.5\n"
    "simulation: {paths: 2000, dt: 0.01, seed: 1}\n"
    "pricing: {maturity: 1.0, strike: 1.0, price: 0.1}\n"
    "scan: {axes: [{key: theta.jump_size, values: [0.0, 0.1]}]}\n"
    "densify: {grid_sizes: [4, 8]}\nmartingale: {times: [0.25, 0.5]}\n"
)


def bessel_run(model: str, z0: float) -> str:
    """A config on which every command runs on a Bessel model, small."""
    return (
        f"model: {model}\nz0: {z0}\nsigma: 0.5\nmaturities: [1.0, 2.0, 3.0]\n"
        "strikes: [0.0, 0.25, 0.5, 0.9]\neval_time: 0.5\n"
        "simulation: {paths: 400, dt: 0.01, seed: 1}\n"
        f"pricing: {{maturity: 1.0, strike: {z0}, price: {0.1 * z0}}}\n"
        "scan: {axes: [{key: sigma, values: [0.4, 0.5]}]}\n"
        "densify: {grid_sizes: [4, 8]}\nmartingale: {times: [0.25, 0.5]}\n"
    )


RUNS = {"gbm": GBM_RUN, "bessel0": bessel_run("bessel0", 1.0), "logdiff": bessel_run("logdiff", 0.5)}
COMMANDS = ("validate-phi", "price", "implied-vol", "check-bound", "scan", "densify", "martingale-check")


def run_every_command(model: str, tmp_path) -> str:
    """Child code that runs every command on model's config, each report to
    tmp_path/<command>.json."""
    cfg = tmp_path / f"{model}.yaml"
    cfg.write_text(RUNS[model])
    return (
        "from volbound.cli import main\n"
        f"for command in {COMMANDS!r}:\n"
        f"    out = {str(tmp_path)!r} + '/' + command + '.json'\n"
        f"    argv = [command, '--config', {str(cfg)!r}, '--out', out]\n"
        "    assert main(argv) in (0, 1), command\n"
    )


@pytest.mark.parametrize("module", ["scipy", "numpy.polynomial"])
@pytest.mark.parametrize("model", ["gbm", "bessel0", "logdiff"])
def test_runs_leave_scipy_and_numpy_polynomial_out(model, module, tmp_path):
    # gbm's special function is the normal distribution function, which the
    # standard library's erfc computes, and the Bessel models' K0, K1 and
    # scaled I1 are the package's own series; the laws' Gauss-Legendre rules
    # are frozen tables, so no run builds one with leggauss
    assert not loaded_after(run_every_command(model, tmp_path), module)


@pytest.mark.parametrize("model", ["bessel0", "logdiff"])
def test_bessel_runs_need_no_scipy(model, tmp_path, capsys):
    # with scipy made unimportable, every command writes the body a normal
    # run writes, byte for byte
    blocked, normal = tmp_path / "blocked", tmp_path / "normal"
    blocked.mkdir()
    normal.mkdir()
    # an import of scipy or of any of its modules raises in the child
    run_child("import sys\nsys.modules['scipy'] = None\n" + run_every_command(model, blocked))
    exec(run_every_command(model, normal), {})
    capsys.readouterr()
    for command in COMMANDS:
        bodies = [
            canonical_json(json.loads((d / f"{command}.json").read_text())) for d in (blocked, normal)
        ]
        assert bodies[0] == bodies[1], command


def test_timed_gbm_scan_imports_nothing():
    # everything gbm-scan's computation uses is imported before the timer
    # starts: numpy.random with the models, and no lazy numpy.ma behind
    # np.unique, so the report's wall_seconds times computation alone
    cfg = SRC.parents[1] / "bench" / "configs" / "gbm-scan.yaml"
    run = (
        "import sys\n"
        "from volbound import cli\n"
        "help_, command = cli._COMMANDS['scan']\n"
        "def timed(rc, doc):\n"
        "    before = set(sys.modules)\n"
        "    out = command(rc, doc)\n"
        "    assert set(sys.modules) == before, sorted(set(sys.modules) - before)\n"
        "    return out\n"
        "cli._COMMANDS['scan'] = (help_, timed)\n"
        f"assert cli.main(['scan', '--config', {str(cfg)!r}, '--out', '/dev/null']) in (0, 1)"
    )
    assert not loaded_after(run, "scipy")



def test_timed_validate_phi_imports_nothing():
    # without --config validate-phi checks every builtin model; the models
    # are built before the timer starts, so the report's wall_seconds times
    # the check alone, and no model loads scipy
    run = (
        "import sys\n"
        "from volbound import cli\n"
        "help_, command = cli._COMMANDS['validate-phi']\n"
        "def timed(models, doc):\n"
        "    before = set(sys.modules)\n"
        "    out = command(models, doc)\n"
        "    assert set(sys.modules) == before, sorted(set(sys.modules) - before)\n"
        "    return out\n"
        "cli._COMMANDS['validate-phi'] = (help_, timed)\n"
        "assert cli.main(['validate-phi', '--out', '/dev/null']) == 0"
    )
    assert not loaded_after(run, "scipy")


@pytest.mark.parametrize("command", ["price", "implied-vol"])
@pytest.mark.parametrize("model, z0", [("gbm", 1.0), ("bessel0", 1.0), ("logdiff", 0.5)])
def test_pricing_commands_leave_scipy_integrate_out(command, model, z0, tmp_path):
    # every law prices a call by its closed form or its fixed-node rule
    cfg = tmp_path / f"{model}.yaml"
    cfg.write_text(
        f"model: {model}\nsigma: 0.5\nmaturities: [1.0, 2.0, 3.0]\n"
        "strikes: [0.0, 0.5, 0.9]\nsimulation: {paths: 16, dt: 0.01, seed: 1}\n"
        f"pricing: {{maturity: 1.0, strike: {z0}, price: {0.1 * z0}}}\n"
    )
    run = (
        "from volbound.cli import main\n"
        f"assert main([{command!r}, '--config', {str(cfg)!r}]) == 0"
    )
    assert not loaded_after(run, "scipy.integrate")


@pytest.mark.parametrize("model", ["gbm", "bessel0", "logdiff"])
def test_martingale_check_leaves_scipy_integrate_out(model, tmp_path):
    # the semigroup reference is closed form, or, for bessel0's stopped
    # process, its law's fixed-node rule; neither is an adaptive quadrature
    cfg = tmp_path / f"{model}.yaml"
    cfg.write_text(
        f"model: {model}\nsigma: 1.0\nmaturities: [1.0, 2.0, 3.0]\n"
        "strikes: [0.0, 0.5, 0.9]\nsimulation: {paths: 4000, dt: 0.001, seed: 1}\n"
    )
    run = (
        "from volbound.cli import main\n"
        f"argv = ['martingale-check', '--config', {str(cfg)!r}, '--set', 'simulation.paths=200']\n"
        "assert main(argv) in (0, 1)"
    )
    assert not loaded_after(run, "scipy.integrate")


def test_one_z_score_rule():
    # a difference without noise (se = 0) reads z = 0 when there is none and
    # inf otherwise; every verdict takes that rule from one place, in a
    # scalar's form (a conditional expression) or a table's (np.where)
    def takes_rule(node):
        if isinstance(node, ast.IfExp):
            test = node.test
        elif (isinstance(node, ast.Call) and node.args
              and ast.unparse(node.func) in ("np.where", "numpy.where")):
            test = node.args[0]
        else:
            return False
        return "inf" in ast.unparse(node) and ast.unparse(test).endswith("== 0.0")

    assert sites(takes_rule) == {"models.z_score"}


def test_one_verdict_gate():
    # every verdict passes within models.Z_GATE standard errors, so a
    # recalibration changes one line: no comparison or product in the
    # package states the gate's 3.0 itself
    def states_gate(node):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            operands = [node.left, node.right]
        else:
            return False
        return any(isinstance(x, ast.Constant) and type(x.value) is float and x.value == 3.0
                   for x in operands)

    assert sites(states_gate) == set()
    gates = [
        name
        for name, tree in parsed_sources(SRC)
        for node in tree.body
        if isinstance(node, ast.Assign) and "Z_GATE" in map(ast.unparse, node.targets)
    ]
    assert gates == ["models.py"]


# the midpoint of two names: 0.5 * (a + b), (a + b) * 0.5 or (a + b) / 2
MIDPOINT = re.compile(r"0\.5 \* \(\w+ \+ \w+\)|\(\w+ \+ \w+\) (\* 0\.5|/ 2(\.0)?)")


def test_one_root_finder():
    # the densification schedule and the implied volatility both invert an
    # increasing function by one bisection to adjacent floats: no other loop
    # halves a bracket
    def halves_a_bracket(node):
        return isinstance(node, (ast.While, ast.For)) and any(
            isinstance(n, ast.BinOp) and MIDPOINT.fullmatch(ast.unparse(n))
            for n in ast.walk(node)
        )

    assert sites(halves_a_bracket) == {"models.bisect_increasing"}


#: import name -> distribution name, where the two differ
DISTRIBUTIONS = {"yaml": "pyyaml"}


def test_test_imports_are_declared():
    # CI installs the package with its test extra and nothing more, so every
    # third-party module a test imports is a dependency or in that extra
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[\w.-]+", req).group().lower()
        for req in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    tests = Path(__file__).resolve().parent
    local = {SRC.name} | {path.stem for path in tests.glob("*.py")}
    imported = set()
    for path in sorted(tests.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert sorted({DISTRIBUTIONS.get(m, m) for m in third_party} - declared) == []
