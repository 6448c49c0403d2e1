"""End-to-end tests for the command-line interface: subcommands, JSON
output, the precision option, and exit codes."""

import json
import os
import subprocess
import sys

import mpmath as mp
import pytest

import penner
import penner.catalog
import penner.cli
import penner.recipe
import penner.spectral

from penner.catalog import catalog_get, catalog_ids
from penner.cli import MAX_DIGITS, MAX_SURFACE, digits_arg, main
from penner.graphs import graph_of, spanning_tree_tour
from penner.spectral import brackets_root

from conftest import count_calls

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
        "recipe", "--omega", omega_file, "--gamma", "1,2,1,3", "--json",
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


@pytest.mark.parametrize("entries, gamma, message", [
    ([[0, 1, 0], [1, 0, 1], [0, 1, 0]], "1,3", "trace a closed path"),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], "1,2", "visit every curve"),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], "1,2,3", "contractible"),
])
def test_recipe_rejected_word_exits_3(entries, gamma, message, tmp_path, capsys):
    path = tmp_path / "omega.json"
    path.write_text(json.dumps({"entries": entries}))
    code, out, err = run(capsys, ["recipe", "--omega", str(path), "--gamma", gamma])
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and message in err


def test_limit_word_that_misses_a_curve_exits_3(omega_file, capsys):
    code, out, err = run(capsys, ["limit", "--omega", omega_file, "--gamma", "1,2"])
    assert (code, out, err) == (3, "", "error: the path must visit every curve\n")


@pytest.mark.parametrize("command, gamma", [("limit", "1,2,3,1"), ("recipe", "1,2,3,2,1")])
def test_path_that_starts_and_ends_on_one_curve_exits_2(command, gamma, omega_file, capsys):
    # read cyclically, the word twists curve 1 twice in a row
    code, out, err = run(capsys, [command, "--omega", omega_file, "--gamma", gamma])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "cannot start and end on curve 1" in err


@pytest.mark.parametrize("command, gamma", [
    ("degree", "1,2,9"), ("recipe", "1,2,3,9"), ("limit", "1,2,3,9")])
def test_curve_index_out_of_range_exits_2(command, gamma, omega_file, capsys):
    code, out, err = run(capsys, [command, "--omega", omega_file, "--gamma", gamma])
    assert (code, out, err) == (2, "", "error: curve index 9 out of range 1..3\n")


@pytest.mark.parametrize("option", ["window", "k_max"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_recipe_budget_below_one_exits_2_before_scanning(
        option, value, omega_file, capsys, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a scale was scanned")

    monkeypatch.setattr(penner.recipe, "twist_charpoly", refuse)
    code, _, err = run(capsys, [
        "recipe", "--omega", omega_file, "--gamma", "1,2,1,3",
        f"--{option.replace('_', '-')}={value}",
    ])
    assert code == 2
    assert err.count("\n") == 1 and f"{option} must be at least 1" in err


def test_recipe_window_above_k_max_exits_2_before_scanning(
        omega_file, capsys, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a scale was scanned")

    monkeypatch.setattr(penner.recipe, "twist_charpoly", refuse)
    code, out, err = run(capsys, [
        "recipe", "--omega", omega_file, "--gamma", "1,2,1,3",
        "--window", "300", "--k-max", "2",
    ])
    assert (code, out) == (2, "")
    assert err == "error: a window of 300 scales does not fit in k <= 2\n"


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


def test_recipe_budget_exhausted(half_file, capsys):
    # k = 3 factors (see above), so k = 4, 5 are too few for a window of 3
    code, _, err = run(capsys, [
        "recipe", "--omega", half_file, "--gamma", "1,2", "--k-max", "5",
    ])
    assert code == 4
    assert err.count("\n") == 1 and "within k <= 5" in err


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


def test_degree_with_disconnected_omega_exits_3(tmp_path, capsys):
    path = tmp_path / "disconnected.json"
    path.write_text(json.dumps({"n": 3, "entries": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}))
    code, out, err = run(capsys, ["degree", "--omega", str(path), "--gamma", "1,2,3"])
    assert (code, out) == (3, "")
    assert err == ("error: twist product is not Perron-Frobenius: the intersection "
                   "graph must be connected and the path must visit every curve\n")


def test_recipe_with_one_curve_exits_3_before_scanning(
        one_curve_file, capsys, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a scale was scanned")

    monkeypatch.setattr(penner.recipe, "twist_charpoly", refuse)
    code, _, err = run(capsys, ["recipe", "--omega", one_curve_file, "--gamma", "1"])
    assert code == 3
    assert err.count("\n") == 1 and "not Perron-Frobenius" in err


def test_degree_root_finding_failure_exits_3(omega_file, capsys, monkeypatch):
    def fail(*_args, **_kwargs):
        raise mp.libmp.libhyper.NoConvergence("Didn't converge in maxsteps=300")

    monkeypatch.setattr(penner.spectral, "_durand_kerner", fail)
    code, out, err = run(capsys, ["degree", "--omega", omega_file, "--gamma", "1,2,3", "--json"])
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "root finding failed" in err


def assert_golden(capsys, name, argv):
    """``penner`` prints exactly the bytes of ``tests/golden/<name>``."""
    code, out, err = run(capsys, argv)
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert (code, out, err) == (0, fh.read(), "")


def catalog_degree_argv(tmp_path, entry_id, k):
    """``degree --json`` on the catalog entry scaled by ``k``, word: the
    spanning-tree tour from curve 1."""
    entry = catalog_get(entry_id)
    path = tmp_path / f"{entry_id}-k{k}.json"
    path.write_text(json.dumps({"n": entry.omega.n, "entries": [
        [k * x for x in row] for row in entry.omega.entries]}))
    gamma = spanning_tree_tour(graph_of(entry.omega), root=1)
    return ["degree", "--omega", str(path), "--gamma", ",".join(map(str, gamma)), "--json"]


def test_degree_json_golden(tmp_path, capsys):
    assert_golden(capsys, "degree_mr5_k2.json",
                  catalog_degree_argv(tmp_path, "Mr-5", 2))


def test_degree_json_golden_palindromic(tmp_path, capsys):
    # S43-max is bipartite: its reduced polynomial is palindromic and folds
    assert_golden(capsys, "degree_s43max_k3.json",
                  catalog_degree_argv(tmp_path, "S43-max", 3))


def test_degree_s43max_k64_is_certified(tmp_path, capsys):
    code, out, err = run(capsys, catalog_degree_argv(tmp_path, "S43-max", 64))
    assert (code, err) == (0, "")
    entry = catalog_get("S43-max")
    gamma = spanning_tree_tour(graph_of(entry.omega), root=1)
    report = penner.spectral_report(penner.scale(entry.omega, 64),
                                    penner.TwistWord(gamma, (1,) * len(gamma)))
    assert json.loads(out)["degree"] == 24
    assert brackets_root(report.reduced, report.pf_value, report.pf_error)


@pytest.mark.parametrize("entry_id", catalog_ids())
def test_degree_complexity_is_the_rank(entry_id, tmp_path, capsys):
    code, out, err = run(capsys, catalog_degree_argv(tmp_path, entry_id, 1))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["complexity"] == payload["rank"] == catalog_get(entry_id).expected_rank


def test_limit_json_golden(omega_file, capsys):
    assert_golden(capsys, "limit_triangle_4_8.json", [
        "limit", "--omega", omega_file, "--gamma", "1,2,3", "--scales", "4,8", "--json"])


def test_limit_supported(omega_file, capsys):
    code, out, _ = run(capsys, [
        "limit", "--omega", omega_file, "--gamma", "1,2,3",
        "--scales", "4,8", "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["supported"] and payload["limit"] == "x^2 + x"


@pytest.mark.parametrize("scales", [",", ""])
def test_limit_without_scales_exits_2(scales, omega_file, capsys):
    # an empty list is not the default list
    code, out, err = run(capsys, [
        "limit", "--omega", omega_file, "--gamma", "1,2,3", f"--scales={scales}"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "at least one scale" in err


@pytest.mark.parametrize("command", ["degree", "recipe", "limit"])
def test_empty_powers_exit_2(command, omega_file, capsys):
    # an empty list is not the default of all ones
    code, out, err = run(capsys, [
        command, "--omega", omega_file, "--gamma", "1,2,3", "--powers="])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "equal length" in err


@pytest.mark.parametrize("command", ["degree", "recipe", "limit"])
def test_empty_gamma_exits_2(command, omega_file, capsys):
    code, out, err = run(capsys, [command, "--omega", omega_file, "--gamma", ","])
    assert (code, out, err) == (2, "", "error: twist word must have at least one letter\n")


@pytest.mark.parametrize("option, value", [
    ("--gamma", ",1,,2,3,4,5,4,3,2,"),
    ("--gamma", "1 2,3,4,5,4,3,2"),
    ("--gamma", "1,2,3,4,5,4,3,2.0"),
    ("--powers", "1,1,1,,1,1,1,1"),
    ("--scales", "4,,8"),
])
def test_malformed_integer_list_exits_2(option, value, tmp_path, capsys):
    argv = ["limit", *catalog_degree_argv(tmp_path, "Mr-5", 1)[1:], "--scales", "4,8"]
    code, out, err = run(capsys, [*argv, f"{option}={value}"])
    assert (code, out) == (2, "")
    assert err == f"error: expected a comma-separated integer list, got {value!r}\n"


@pytest.mark.parametrize("command, option, value, message", [
    ("limit", "--scales", "-4,4", "scale factor must be positive, got -4"),
    ("degree", "--powers", "-1,2,3", "exponents must be positive integers, got -1"),
    ("degree", "--gamma", "-1,2,3", "curve indices must be positive integers, got -1"),
])
def test_list_value_with_a_leading_minus_reaches_validation(
        command, option, value, message, omega_file, capsys):
    # a separate value, as with `=`: argparse would take "-4,4" for an option
    argv = [command, "--omega", omega_file, "--gamma", "1,2,3"]
    for joined in (False, True):
        code, out, err = run(capsys, [*argv, f"{option}={value}"] if joined
                             else [*argv, option, value])
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_integer_list_items_may_carry_spaces(tmp_path, capsys):
    argv = catalog_degree_argv(tmp_path, "Mr-5", 1)
    code, out, err = run(capsys, argv)
    argv[argv.index("--gamma") + 1] = " 1, 2,3 ,4,5,4,3,2 "
    assert run(capsys, argv) == (code, out, err) and code == 0


def test_limit_distances_at_large_scales(tmp_path, capsys):
    # the Mr-5 tour's deflated polynomials are accurate at k = 4096, where
    # lambda is about 7.9e28
    argv = catalog_degree_argv(tmp_path, "Mr-5", 1)
    code, out, err = run(capsys, ["limit", *argv[1:], "--scales", "256,4096"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [row["distance"] for row in rows] == ["0.0921806", "0.00585318"]


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

    monkeypatch.setattr(penner.spectral, "_durand_kerner", refuse)
    code, _, err = run(capsys, [
        "limit", "--omega", div4_file, "--gamma", "1,2,3,4", "--scales", "4",
    ])
    assert code == 2
    assert err.count("\n") == 1 and "two scales" in err


def test_limit_divergent_repeated_scale_exits_2(div4_file, capsys):
    # the log-log fit needs two different scales, not one scale twice
    code, out, err = run(capsys, [
        "limit", "--omega", div4_file, "--gamma", "1,2,3,4", "--scales", "4,4",
    ])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "two scales" in err


def test_limit_divergent_json_golden(div4_file, capsys):
    assert_golden(capsys, "limit_div4_16_128.json", [
        "limit", "--omega", div4_file, "--gamma", "1,2,3,4",
        "--scales", "16,32,64,128", "--json"])


def test_limit_divergent_root_finding_failure_exits_3(div4_file, capsys, monkeypatch):
    def fail(*_args, **_kwargs):
        raise mp.libmp.libhyper.NoConvergence("Didn't converge in maxsteps=300")

    monkeypatch.setattr(penner.spectral, "_durand_kerner", fail)
    code, out, err = run(capsys, ["limit", "--omega", div4_file, "--gamma", "1,2,3,4"])
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "k = 4: root finding failed" in err


@pytest.mark.parametrize("entries, gamma", [
    # two disjoint pairs of curves: repeated eigenvalues
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], "1,2,3,4"),
    # the missing-edge 4x4 with curve 4 doubled twice: rank 4 of 6
    ([[0, 0, 1, 2, 2, 2], [0, 0, 1, 1, 1, 1], [1, 1, 0, 1, 1, 1],
      [2, 1, 1, 0, 0, 0], [2, 1, 1, 0, 0, 0], [2, 1, 1, 0, 0, 0]], "1,2,3,4,3,5,3,6"),
])
def test_limit_divergent_with_repeated_eigenvalues(entries, gamma, tmp_path, capsys):
    path = tmp_path / "omega.json"
    path.write_text(json.dumps({"entries": entries}))
    code, out, err = run(capsys, ["limit", "--omega", str(path), "--gamma", gamma,
                                  "--scales", "16,32,64,128", "--json"])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["exponents"]) == len(entries)


@pytest.mark.parametrize("pairs", [3, 4])
def test_limit_on_disjoint_pairs_with_eigenvalues_of_multiplicity_three_and_four(
        pairs, tmp_path, capsys):
    # the characteristic polynomial is (x^2 - (k^2 + 2) x + 1)^pairs
    n = 2 * pairs
    entries = [[int(i ^ 1 == j) for j in range(n)] for i in range(n)]
    path = tmp_path / "omega.json"
    path.write_text(json.dumps({"entries": entries}))
    code, out, err = run(capsys, ["limit", "--omega", str(path),
                                  "--gamma", ",".join(map(str, range(1, n + 1))),
                                  "--scales", "4,8,16,32", "--json"])
    assert (code, err) == (0, "")
    exponents = json.loads(out)["exponents"]
    assert len(exponents) == n
    assert all(abs(e - 2) < 0.1 for e in exponents[:pairs])
    assert all(abs(e + 2) < 0.1 for e in exponents[pairs:])


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


def test_catalog_show_without_an_id_exits_2(capsys):
    code, out, err = run(capsys, ["catalog", "show"])
    assert (code, out, err) == (2, "", "error: catalog show requires an id\n")


def test_catalog_degrees(capsys):
    code, out, _ = run(capsys, [
        "catalog", "degrees", "--kind", "S", "--genus", "2", "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["degree_sets"] == [[2, 3, 4, 6]]


def test_catalog_degrees_ambiguous_case_text(capsys):
    code, out, _ = run(capsys, ["catalog", "degrees", "--genus", "3", "--punctures", "1"])
    assert code == 0
    assert out.splitlines()[:4] == [
        "surface: S_{3,1}",
        "ambiguous case: two candidate degree sets",
        "degrees: [2, 3, 4, 5, 6, 7, 8, 10, 12, 14]",
        "degrees: [2, 3, 4, 5, 6, 8, 10, 12, 14]",
    ]


def test_catalog_degrees_s11_has_one_set(capsys):
    code, out, _ = run(capsys, ["catalog", "degrees", "--genus", "1", "--punctures", "1"])
    assert code == 0
    assert "ambiguous" not in out and out.count("degrees: [2]") == 1
    code, out, _ = run(capsys, [
        "catalog", "degrees", "--genus", "1", "--punctures", "1", "--json"])
    payload = json.loads(out)
    assert (payload["degree_sets"], payload["ambiguous"]) == ([[2]], False)


def test_catalog_degrees_no_pa(capsys):
    code, _, err = run(capsys, [
        "catalog", "degrees", "--kind", "N", "--genus", "3",
    ])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["--genus", "-1"],
    ["--kind", "N", "--genus", "0"],
    ["--punctures", "-2"],
    # these built every degree up to the Teichmueller dimension and ran out
    # of memory under an 800 MB address-space cap
    ["--genus", "100000000"],
    ["--kind", "N", "--genus", "3", "--punctures", "100000000"],
])
def test_catalog_degrees_invalid_surface_exits_2(argv, capsys, monkeypatch):
    built = count_calls(monkeypatch, penner.catalog, "degree_set")
    code, _, err = run(capsys, ["catalog", "degrees", *argv])
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert built == []


def test_catalog_degrees_surface_maximum_is_accepted_and_shown_in_help(capsys):
    assert MAX_SURFACE == 10_000
    code, out, _ = run(capsys, ["catalog", "degrees", "--genus", str(MAX_SURFACE),
                                "--punctures", str(MAX_SURFACE), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["surface"] == "S_{10000,10000}"
    # the Teichmueller dimension 6g - 6 + 2n is the largest degree
    assert [max(s) for s in payload["degree_sets"]] == [79_994]
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--help"])
    assert exc.value.code == 0
    assert f"at most {MAX_SURFACE}" in " ".join(capsys.readouterr().out.split())


def test_selftest(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    assert "FAIL" not in out
    assert "selftest characteristic polynomial modulo a prime: PASS" in out


@pytest.mark.parametrize("broken, line", [
    (lambda omega, i: None, "selftest elementary twist matrix: FAIL"),
    (lambda omega, i: 1 / 0, "selftest elementary twist matrix (division by zero): FAIL"),
])
def test_selftest_reports_a_failed_check_and_returns_1(broken, line, capsys, monkeypatch):
    monkeypatch.setattr(penner.cli, "generator", broken)
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    assert [s for s in out.splitlines() if "FAIL" in s] == [line]


def test_selftest_has_no_json_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--json"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --json\n"


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["catalog", "degrees", "--genus", "abc"], "argument --genus: invalid int value: 'abc'"),
])
def test_rejected_command_lines_print_one_error_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


@pytest.mark.parametrize("entries, message", [
    ([[0, 1.0, 1], [1, 0, 1], [1, 1, 0]], "entry at (1,2) is 1.0"),
    ([[0, True, 1], [1, 0, 1], [1, 1, 0]], "entry at (1,2) is True"),
    (["011", "101", "110"], "omega file must be"),
    ([], "empty matrix"),
])
def test_non_integer_entry_exits_2(entries, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "entries": entries}))
    code, _, err = run(capsys, [
        "degree", "--omega", str(path), "--gamma", "1,2,3",
    ])
    assert code == 2
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("n, entries, message", [
    ("3", OMEGA3["entries"], """"n" must be an integer, got '3'"""),
    (3.0, OMEGA3["entries"], '"n" must be an integer, got 3.0'),
    (True, [[0]], '"n" must be an integer, got True'),
    (None, [[0]], '"n" must be an integer, got None'),
    (4, OMEGA3["entries"], "omega file declares n = 4 but has 3 rows"),
])
def test_declared_n_must_be_the_integer_row_count(n, entries, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": n, "entries": entries}))
    code, _, err = run(capsys, [
        "degree", "--omega", str(path), "--gamma", "1,2,3",
    ])
    assert code == 2
    assert err.count("\n") == 1 and message in err


def test_digits_below_minimum_exits_2(omega_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["degree", "--omega", omega_file, "--gamma", "1,2,3", "--digits", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "error: argument --digits: value must be at least 5, got 0\n")


@pytest.mark.parametrize("digits", [10**17, 10**19])
def test_digits_above_maximum_exits_2(digits, omega_file, capsys):
    # mpmath raised MemoryError at 10^17 and OverflowError at 10^19
    with pytest.raises(SystemExit) as exc:
        main(["degree", "--omega", omega_file, "--gamma", "1,2,3", "--digits", str(digits)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error: argument --digits: value must be at most {MAX_DIGITS}, got {digits}\n")


def test_digits_not_an_integer_exits_2(omega_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["degree", "--omega", omega_file, "--gamma", "1,2,3", "--digits", "abc"])
    assert exc.value.code == 2
    # one line, as every library error prints, and no usage lines before it
    assert capsys.readouterr().err == (
        "error: argument --digits: value must be an integer, got 'abc'\n")


def test_digits_maximum_is_accepted_and_shown_in_help(capsys):
    assert MAX_DIGITS >= 10_000 and digits_arg(str(MAX_DIGITS)) == MAX_DIGITS
    with pytest.raises(SystemExit) as exc:
        main(["degree", "--help"])
    assert exc.value.code == 0
    assert f"5 to {MAX_DIGITS}" in " ".join(capsys.readouterr().out.split())


def test_digits_option_sets_the_printed_precision(omega_file, capsys):
    code, out, _ = run(capsys, [
        "degree", "--omega", omega_file, "--gamma", "1,2,3", "--digits", "20", "--json"])
    assert code == 0
    # 20 significant digits of sympy's 6.222262523120398626674561...
    assert json.loads(out)["lambda"] == "6.2222625231203986267"


def penner_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(penner.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_dash_m_penner():
    done = subprocess.run([sys.executable, "-m", "penner", "catalog", "list"],
                          env=penner_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "S43-max" in done.stdout


def test_closed_stdout_exits_1_without_a_message():
    # as `penner catalog degrees --genus 2000 --json | head -c 10`: the
    # output, about 140 KB, outgrows the pipe, so printing it meets the
    # closed read end
    proc = subprocess.Popen(
        [sys.executable, "-m", "penner", "catalog", "degrees", "--genus", "2000", "--json"],
        env=penner_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "surfa'
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=120) == 1
