"""Smoke test: every script in demos/ runs to the end at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# (script, extra arguments, a line its last section prints)
DEMOS = [
    ("heat_flow_lift.py", [], "tightness: sup_n ratio = "),
    ("path_regularity_tour.py", [], "3-variation of a 5-point path: "),
    ("sde_quantile_oracle.py", [], "degenerate preset correctly refused: "),
    ("stochastic_heat.py", ["--n-mc", "4"],
     "(lower bound holds: True, attained by quantile: True)"),
]


@pytest.mark.parametrize("script,args,line", DEMOS, ids=[d[0] for d in DEMOS])
def test_demo_runs(script, args, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert line in run.stdout
