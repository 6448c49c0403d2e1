"""End-to-end tests for the command-line interface: subcommands, JSON
output, precision environment variable, and exit codes."""

import json
import os
import subprocess
import sys

import mpmath as mp
import pytest

import penner
import penner.cli
import penner.recipe

from penner.catalog import catalog_get
from penner.cli import main
from penner.graphs import graph_of, spanning_tree_tour
from penner.spectral import default_digits

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


OMEGA3 = {"n": 3, "entries": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}


@pytest.fixture
def omega_file(tmp_path):
    path = tmp_path / "omega3.json"
    path.write_text(json.dumps(OMEGA3))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_degree_json(omega_file, capsys):
    code, out, _ = run(capsys, [
        "degree", "--omega", omega_file, "--gamma", "1,2,3", "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 3
    assert payload["charpoly"] == "x^3 - 7*x^2 + 5*x - 1"
    assert payload["lambda"].startswith("6.22226252312")


def test_degree_text_output(omega_file, capsys):
    code, out, _ = run(capsys, [
        "degree", "--omega", omega_file, "--gamma", "1,2,3",
    ])
    assert code == 0
    assert "degree: 3" in out


def test_recipe(omega_file, capsys):
    code, out, _ = run(capsys, [
        "recipe", "--omega", omega_file, "--gamma", "1,2,1,3",
        "--check-powering", "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == payload["degree"] == 3
    assert payload["k_star"] >= 1


def test_recipe_rejects_noncontractible(omega_file, capsys):
    code, _, err = run(capsys, [
        "recipe", "--omega", omega_file, "--gamma", "1,2,3",
    ])
    assert code == 3
    assert "contractible" in err


def test_recipe_budget_exhausted(omega_file, capsys):
    code, _, err = run(capsys, [
        "recipe", "--omega", omega_file, "--gamma", "1,2,1,3",
        "--k-max", "0",
    ])
    assert code == 4


@pytest.mark.parametrize("window", ["0", "-3"])
def test_recipe_window_below_one_exits_2_before_scanning(
        window, omega_file, capsys, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a scale was scanned")

    monkeypatch.setattr(penner.recipe, "twist_product", refuse)
    code, _, err = run(capsys, [
        "recipe", "--omega", omega_file, "--gamma", "1,2,1,3",
        "--window", window,
    ])
    assert code == 2
    assert err.count("\n") == 1 and "window" in err


@pytest.fixture
def half_file(tmp_path):
    """Rational entries: the twist product over 1, 2 has trace 9/4."""
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"entries": [[0, "1/2"], ["1/2", 0]]}))
    return str(path)


def test_degree_with_rational_omega(half_file, capsys):
    code, out, err = run(capsys, [
        "degree", "--omega", half_file, "--gamma", "1,2", "--json",
    ])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["degree"] == 2
    assert payload["minpoly"] == "x^2 - 9/4*x + 1"


def test_recipe_with_rational_omega(half_file, capsys):
    code, out, err = run(capsys, [
        "recipe", "--omega", half_file, "--gamma", "1,2", "--json",
    ])
    assert code == 0, err
    payload = json.loads(out)
    # at k = 3 the trace is 17/4 and x^2 - 17/4*x + 1 = (x - 4)(x - 1/4)
    assert payload["k_star"] == 4 and payload["degree"] == 2
    assert payload["minpoly"] == "x^2 - 6*x + 1"


@pytest.fixture
def one_curve_file(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "entries": [[0]]}))
    return str(path)


def test_degree_with_one_curve_exits_3(one_curve_file, capsys):
    code, _, err = run(capsys, ["degree", "--omega", one_curve_file, "--gamma", "1"])
    assert code == 3
    assert err.count("\n") == 1 and "not Perron-Frobenius" in err
    assert "a single curve meets nothing" in err and "connected" not in err


def test_recipe_with_one_curve_exits_3_before_scanning(
        one_curve_file, capsys, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a scale was scanned")

    monkeypatch.setattr(penner.recipe, "twist_product", refuse)
    code, _, err = run(capsys, ["recipe", "--omega", one_curve_file, "--gamma", "1"])
    assert code == 3
    assert err.count("\n") == 1 and "not Perron-Frobenius" in err


def test_degree_root_finding_failure_exits_3(omega_file, capsys, monkeypatch):
    def fail(*_args, **_kwargs):
        raise mp.libmp.libhyper.NoConvergence("Didn't converge in maxsteps=300")

    monkeypatch.setattr(mp, "polyroots", fail)
    code, out, err = run(capsys, ["degree", "--omega", omega_file, "--gamma", "1,2,3", "--json"])
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "root finding failed" in err


def assert_golden(capsys, monkeypatch, name, argv):
    """``penner`` prints exactly the bytes of ``tests/golden/<name>``."""
    monkeypatch.delenv("PENNER_PRECISION", raising=False)
    code, out, err = run(capsys, argv)
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert (code, out, err) == (0, fh.read(), "")


def test_degree_json_golden(tmp_path, capsys, monkeypatch):
    # Mr-5 scaled by k = 2, word: the spanning-tree tour from curve 1
    entry = catalog_get("Mr-5")
    path = tmp_path / "mr5-k2.json"
    path.write_text(json.dumps({"n": entry.omega.n, "entries": [
        [2 * x for x in row] for row in entry.omega.entries]}))
    gamma = spanning_tree_tour(graph_of(entry.omega), root=1)
    assert_golden(capsys, monkeypatch, "degree_mr5_k2.json", [
        "degree", "--omega", str(path), "--gamma", ",".join(map(str, gamma)), "--json"])


def test_limit_json_golden(omega_file, capsys, monkeypatch):
    assert_golden(capsys, monkeypatch, "limit_triangle_4_8.json", [
        "limit", "--omega", omega_file, "--gamma", "1,2,3", "--scales", "4,8", "--json"])


def test_limit_supported(omega_file, capsys):
    code, out, _ = run(capsys, [
        "limit", "--omega", omega_file, "--gamma", "1,2,3",
        "--scales", "4,8", "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["supported"] and payload["limit"] == "x^2 + x"


@pytest.fixture
def div4_file(tmp_path):
    """The 4x4 collection with a missing edge: the path 1,2,3,4 is not
    supported in its intersection graph."""
    path = tmp_path / "div4.json"
    path.write_text(json.dumps({
        "n": 4,
        "entries": [[0, 0, 1, 2], [0, 0, 1, 1], [1, 1, 0, 1], [2, 1, 1, 0]],
    }))
    return str(path)


def test_limit_divergent(div4_file, capsys):
    code, out, _ = run(capsys, [
        "limit", "--omega", div4_file, "--gamma", "1,2,3,4",
        "--scales", "16,32,64,128", "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert not payload["supported"]
    assert len(payload["exponents"]) == 4


def test_limit_divergent_one_scale_exits_2_before_root_finding(
        div4_file, capsys, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("roots found before the scales were checked")

    monkeypatch.setattr(mp, "polyroots", refuse)
    code, _, err = run(capsys, [
        "limit", "--omega", div4_file, "--gamma", "1,2,3,4", "--scales", "4",
    ])
    assert code == 2
    assert err.count("\n") == 1 and "two scales" in err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, ["catalog", "list"])
    assert code == 0
    assert "S43-max" in out and "Mr-12" in out


def test_catalog_show(capsys):
    code, out, _ = run(capsys, ["catalog", "show", "Mr-4", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4 and payload["rank"] == 4


def test_catalog_show_unknown(capsys):
    code, _, err = run(capsys, ["catalog", "show", "bogus"])
    assert code == 2


def test_catalog_degrees(capsys):
    code, out, _ = run(capsys, [
        "catalog", "degrees", "--kind", "S", "--genus", "2", "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["degree_sets"] == [[2, 3, 4, 6]]


def test_catalog_degrees_no_pa(capsys):
    code, _, err = run(capsys, [
        "catalog", "degrees", "--kind", "N", "--genus", "3",
    ])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["--genus", "-1"],
    ["--kind", "N", "--genus", "0"],
    ["--punctures", "-2"],
])
def test_catalog_degrees_invalid_surface_exits_2(argv, capsys):
    code, _, err = run(capsys, ["catalog", "degrees", *argv])
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_selftest(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    assert "FAIL" not in out


def test_selftest_has_no_json_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_invalid_omega_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for content in (
        json.dumps({"n": 2, "entries": [[0, -1], [-1, 0]]}).encode(),
        b'{"n": 3, "entries": [[0, 1',  # truncated JSON
        b"\xff\xfe\x00{",  # not UTF-8
        b'{"n": 2, "entries": [[0, 1' + b"0" * 5000 + b'], [1, 0]]}',
        b'{"n": 1, "entries": ' + b"[" * 100000 + b"]" * 100000 + b"}",
    ):
        path.write_bytes(content)
        code, _, err = run(capsys, [
            "degree", "--omega", str(path), "--gamma", "1,2,3",
        ])
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")


def test_missing_omega_file(capsys):
    code, _, err = run(capsys, [
        "degree", "--omega", "/nonexistent.json", "--gamma", "1,2",
    ])
    assert code == 2


def test_precision_env_var(monkeypatch):
    monkeypatch.setenv("PENNER_PRECISION", "80")
    assert default_digits() == 80
    monkeypatch.delenv("PENNER_PRECISION")
    assert default_digits() == 50


@pytest.mark.parametrize("entries, message", [
    ([[0, 1.0, 1], [1, 0, 1], [1, 1, 0]], "entry at (1,2) is 1.0"),
    ([[0, True, 1], [1, 0, 1], [1, 1, 0]], "entry at (1,2) is True"),
    (["011", "101", "110"], "omega file must be"),
])
def test_non_integer_entry_exits_2(entries, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "entries": entries}))
    code, _, err = run(capsys, [
        "degree", "--omega", str(path), "--gamma", "1,2,3",
    ])
    assert code == 2
    assert err.count("\n") == 1 and message in err


def test_digits_below_minimum_exits_2(omega_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["degree", "--omega", omega_file, "--gamma", "1,2,3", "--digits", "0"])
    assert exc.value.code == 2
    assert "at least 5" in capsys.readouterr().err


def test_malformed_precision_env_var_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("PENNER_PRECISION", "abc")
    code, _, err = run(capsys, ["catalog", "list"])
    assert code == 2
    assert err.count("\n") == 1 and "PENNER_PRECISION" in err


def test_python_dash_m_penner():
    src = os.path.dirname(os.path.dirname(os.path.abspath(penner.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "penner", "catalog", "list"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "S43-max" in done.stdout
