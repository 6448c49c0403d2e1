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
    # rejected by argparse, which prints the same one line and no usage
    ("max_degree_recipe.py", ["--digits", "abc"],
     "error: argument --digits: value must be an integer, got 'abc'"),
    ("ray_convergence.py", ["--bogus"], "error: unrecognized arguments: --bogus"),
])
def test_bad_script_input_exits_2_with_one_line(script, argv, message):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and message in done.stderr


def run_script(script, argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_eigenvector_estimate_prints_a_row_per_scale():
    done = run_script("eigenvector_estimate.py", ["--scales", "1,2", "--digits", "20"])
    assert done.returncode == 0 and done.stderr == ""
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["k", "measured", "lhs", "bound", "rhs"]
    assert [row.split()[0] for row in rows] == ["1", "2"]


@pytest.mark.parametrize("script, argv, line", [
    ("max_degree_recipe.py", ["--id", "Mr-3", "--digits", "20"], "degree = rank = 3"),
    ("ray_convergence.py", ["--scales", "4,8", "--digits", "20"],
     "limit polynomial: x^2 + x"),
])
def test_script_success_path_exits_0(script, argv, line):
    done = run_script(script, argv)
    assert done.returncode == 0 and done.stderr == ""
    assert line in done.stdout.splitlines()
