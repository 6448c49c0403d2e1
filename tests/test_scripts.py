"""The experiment scripts under ``scripts/`` share the command line's front
end (``penner.cli.run_command``): bad input exits 2 with one line on
stderr, not a traceback, and prints nothing to stdout."""

import os
import subprocess
import sys

import pytest

import penner

SRC = os.path.dirname(os.path.dirname(os.path.abspath(penner.__file__)))
SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


@pytest.mark.parametrize("script, argv, message", [
    ("eigenvector_estimate.py", ["--scales", "0"], "scale factor must be positive, got 0"),
    ("eigenvector_estimate.py", ["--scales", "-4,4"], "scale factor must be positive, got -4"),
    ("ray_convergence.py", ["--scales", "4,x"],
     "expected a comma-separated integer list, got '4,x'"),
    ("max_degree_recipe.py", ["--id", "nope"], "unknown catalog id 'nope'"),
    ("eigenvector_estimate.py", ["--scales", ","], "need at least one scale"),
    ("eigenvector_estimate.py", ["--scales", "4,0"], "scale factor must be positive, got 0"),
])
def test_bad_script_input_exits_2_with_one_line(script, argv, message):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and message in done.stderr
