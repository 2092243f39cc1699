"""Design guards: structural rules the source tree must keep."""

import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_cli_start_up_leaves_scipy_integrate_out():
    # only the oracle routes (g_value, decomposition_check, quad_call_price,
    # solve_phi, semigroup_check) integrate adaptively; importing the CLI
    # must not pay for scipy.integrate
    code = "import sys, volbound.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    ).stdout
    assert out.strip() == "False"
