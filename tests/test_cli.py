import json
import math
import re
from pathlib import Path

import numpy as np
import numpy.linalg as la
import pytest

from multinoise import (
    MonteCarloConfig,
    NumericalError,
    closed_loop_substitution,
    simulate_second_moment,
)
from multinoise.cli import _pendulum_table, main
from multinoise.problems import inverted_pendulum, load_problem

from conftest import problem_to_dict


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def stable_doc():
    return {
        "A": [[0.5, 0.1], [0.0, 0.6]],
        "B": [[0.0], [1.0]],
        "A_dirs": [[[0.0, 1.0], [0.0, 0.0]]],
        "alpha": [0.05],
        "theta": [1.0],
        "Q": [[1.0, 0.0], [0.0, 1.0]],
        "R": [[1.0]],
    }


def pendulum_doc():
    return problem_to_dict(inverted_pendulum())


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_mss_stable(tmp_path, capsys):
    path = write_problem(tmp_path, stable_doc())
    code, out = run_json(capsys, ["check-mss", path])
    assert code == 0
    assert out["mss"] is True
    assert out["moment_radius"] < 1


def test_check_mss_unstable_exit_one(tmp_path, capsys):
    path = write_problem(tmp_path, pendulum_doc())
    code, out = run_json(capsys, ["check-mss", path])
    assert code == 1
    assert out["mss"] is False
    assert out["moment_radius"] > 1


def test_solve_gare_reports_solution(tmp_path, capsys):
    path = write_problem(tmp_path, stable_doc())
    code, out = run_json(capsys, ["solve-gare", path])
    assert code == 0
    assert out["converged"] is True
    assert out["closed_loop_mss"] is True
    assert np.asarray(out["P"]).shape == (2, 2)


def test_solve_gare_diverges_exit_one(tmp_path, capsys):
    doc = pendulum_doc()
    doc["alpha"] = [150.0]
    path = write_problem(tmp_path, doc)
    code, out = run_json(capsys, ["solve-gare", path])
    assert code == 1
    assert out["converged"] is False
    assert out["status"] == "blowup" and "diverged" in out["reason"]


def test_solve_gare_iteration_cap_is_not_divergence(tmp_path, capsys):
    path = write_problem(tmp_path, pendulum_doc())
    code, out = run_json(capsys, ["solve-gare", path, "--max-iter", "2"])
    assert code == 3
    assert out["converged"] is False and out["iterations"] == 2
    assert out["status"] == "iteration_cap"
    assert "diverged" not in out["reason"]
    assert "iteration cap" in out["reason"]


@pytest.mark.parametrize("field, value, name", [
    ("A_dirs", [[[1.0, 0.0], [0.0, 1.0]]], "A_dirs[0]"),  # 2x2 on a 1x1 A
    ("B_dirs", [[[1.0, 0.0]]], "B_dirs[0]"),               # 1x2 on a 1x1 B
])
def test_direction_shape_mismatch_exit_two(tmp_path, capsys, field, value,
                                           name):
    doc = {"A": [[0.5]], "B": [[1.0]], field: value,
           "alpha" if field == "A_dirs" else "beta": [0.1]}
    path = write_problem(tmp_path, doc)
    assert main(["check-mss", path]) == 2
    err = capsys.readouterr().err
    assert f"field '{name}'" in err and "1x1" in err


@pytest.mark.parametrize(
    "method", ["shared-uni", "shared-bi", "aux", "cons-lin", "cons-simple"]
)
def test_margins_methods(tmp_path, capsys, method):
    path = write_problem(tmp_path, stable_doc())
    code, out = run_json(capsys, ["margins", path, "--method", method])
    assert code == 0
    assert out["method"] == method
    assert out["y_star"] > 0
    assert len(out["eta"]) == 1


def test_margins_scalar_method(tmp_path, capsys):
    doc = {"A": [[0.5]], "B": [[1.0]], "A_dirs": [[[1.0]]],
           "alpha": [0.25], "theta": [1.0]}
    path = write_problem(tmp_path, doc)
    code, out = run_json(capsys, ["margins", path, "--method", "scalar"])
    assert code == 0
    assert out["bidirectional"] is True
    assert out["eta"][0] == pytest.approx(np.sqrt(0.5) - 0.5, abs=1e-9)


def test_margins_conservative_without_theta(tmp_path, capsys):
    doc = stable_doc()
    del doc["theta"]
    path = write_problem(tmp_path, doc)
    code, out = run_json(capsys, ["margins", path, "--method", "cons-lin"])
    assert code == 0
    assert out["y_star"] > 0
    code = main(["margins", path, "--method", "shared-uni"])
    assert code == 2  # proportional bisection needs the weights


def test_margins_not_mss_exit_one(tmp_path, capsys):
    path = write_problem(tmp_path, pendulum_doc())
    for method in ("shared-uni", "aux"):
        code, out = run_json(capsys, ["margins", path, "--method", method])
        assert code == 1
        assert out["status"] == "infeasible"


def test_margins_rejects_input_uncertainty(tmp_path, capsys):
    doc = stable_doc()
    doc["B_dirs"] = [[[0.0], [1.0]]]
    doc["beta"] = [0.1]
    doc["phi"] = [1.0]
    path = write_problem(tmp_path, doc)
    code = main(["margins", path, "--method", "shared-uni"])
    assert code == 2


def test_design_ce_matches_benchmark(tmp_path, capsys):
    path = write_problem(tmp_path, pendulum_doc())
    code, out = run_json(capsys, ["design", path, "--algo", "ce"])
    assert code == 0
    np.testing.assert_allclose(out["K"], [[-9.14, -4.15]], rtol=0.01)
    assert out["certificate"] is None


def test_design_then_verify_grid_round_trip(tmp_path, capsys):
    path = write_problem(tmp_path, pendulum_doc())
    code, out = run_json(capsys, ["design", path, "--algo", "1"])
    assert code == 0
    cert_path = tmp_path / "design1.json"
    cert_path.write_text(json.dumps(out))
    code, report = run_json(
        capsys, ["verify-grid", path, "--cert", str(cert_path),
                 "--samples", "2000"],
    )
    assert code == 0
    assert report["all_stable"] is True
    assert report["worst_rho"] == pytest.approx(0.841, abs=0.02)
    assert 1 <= report["eigensolves"] < report["samples"] == 2000


def test_verify_grid_unsound_certificate_exit_one(tmp_path, capsys):
    # a hand-written box far beyond any certified margin must be caught
    doc = stable_doc()
    doc["A_dirs"] = [[[0.0, 0.0], [1.0, 0.0]]]  # destabilizing direction
    path = write_problem(tmp_path, doc)
    bogus = {
        "method": "shared-uni", "y_star": 50.0, "eta": [50.0], "psi": [],
        "bidirectional": False, "cap_hit": False, "P": None,
        "q_matrix": None, "zeta": None,
    }
    cert_path = tmp_path / "bogus.json"
    cert_path.write_text(json.dumps(bogus))
    code, report = run_json(
        capsys, ["verify-grid", path, "--cert", str(cert_path),
                 "--samples", "200"],
    )
    assert code == 1
    assert report["all_stable"] is False


@pytest.mark.parametrize("bidirectional, code, worst_rho", [
    (False, 0, 0.5),
    # read as true, the string swept (-0.7, 0.7) and found rho 1.2
    ("false", 2, None),
])
def test_verify_grid_reads_only_json_flags(tmp_path, capsys, bidirectional,
                                           code, worst_rho):
    path = write_problem(tmp_path, {"A": [[-0.5]], "B": [[1.0]],
                                    "A_dirs": [[[1.0]]]})
    cert = {"method": "shared-uni", "y_star": 0.7, "eta": [0.7], "psi": [],
            "bidirectional": bidirectional}
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    argv = ["verify-grid", path, "--cert", str(cert_path), "--samples", "50"]
    if code:
        assert main(argv) == code
        assert "field 'bidirectional'" in capsys.readouterr().err
    else:
        got, report = run_json(capsys, argv)
        assert got == code
        assert report["worst_rho"] == pytest.approx(worst_rho)


def _scalar_cert(**fields):
    cert = {"method": "shared-uni", "y_star": 0.7, "eta": [0.7], "psi": [],
            "bidirectional": False}
    return {**cert, **fields}


@pytest.mark.parametrize("doc, field", [
    # float("0.7") would read the string as the number
    (_scalar_cert(eta=["0.7"]), "eta"),
    (_scalar_cert(P=[[True]]), "P"),
    ({"K": [[0.0]], "y_star": 0.7, "certificate": _scalar_cert(),
      "diagnostics": {"rho_closed_loop": 0.5, "worst_box_rho": "inf"}},
     "diagnostics.worst_box_rho"),
])
def test_verify_grid_reads_only_json_numbers(tmp_path, capsys, doc, field):
    path = write_problem(tmp_path, {"A": [[-0.5]], "B": [[1.0]],
                                    "A_dirs": [[[1.0]]]})
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    assert main(["verify-grid", path, "--cert", str(cert_path),
                 "--samples", "50"]) == 2
    assert f"field '{field}'" in capsys.readouterr().err


def write_result(tmp_path, capsys, argv, name):
    """Run a JSON command and store its document as a result file."""
    code, out = run_json(capsys, argv)
    assert code == 0
    path = tmp_path / name
    path.write_text(json.dumps(out))
    return str(path), out


def test_verify_grid_rejects_a_result_without_certificate(tmp_path, capsys):
    path = write_problem(tmp_path, pendulum_doc())
    cert, _ = write_result(tmp_path, capsys, ["design", path, "--algo", "ce"],
                           "ce.json")
    assert main(["verify-grid", path, "--cert", cert]) == 2
    assert "carries no margin certificate" in capsys.readouterr().err


def test_simulate_with_a_bare_certificate_runs_the_open_loop(tmp_path,
                                                             capsys):
    path = write_problem(tmp_path, stable_doc())
    cert, _ = write_result(tmp_path, capsys,
                           ["margins", path, "--method", "aux"], "aux.json")
    argv = ["simulate", path, "--trials", "50", "--seed", "5",
            "--horizon", "8"]
    assert main(argv) == 0
    without = capsys.readouterr()
    assert main(argv + ["--cert", cert]) == 0
    assert capsys.readouterr() == without


def test_simulate_with_a_design_result_runs_its_gain(tmp_path, capsys):
    path = write_problem(tmp_path, stable_doc())
    cert, result = write_result(tmp_path, capsys,
                                ["design", path, "--algo", "1"], "a1.json")
    code, out = run_json(capsys, ["simulate", path, "--trials", "50",
                                  "--seed", "5", "--horizon", "8",
                                  "--law", "rademacher", "--cert", cert])
    assert code == 0
    problem = load_problem(path)
    A_cl, dirs = closed_loop_substitution(problem.system, problem.noise,
                                          np.array(result["K"]))
    hist = simulate_second_moment(
        A_cl, dirs, MonteCarloConfig(horizon=8, trials=50, seed=5,
                                     noise_law="rademacher"), np.eye(2))
    assert out["final_empirical"] == hist.empirical[-1].tolist()
    assert out["final_exact"] == hist.exact[-1].tolist()
    assert out["empirical_norm"] == [float(la.norm(S, "fro"))
                                     for S in hist.empirical]


def test_result_document_names_a_missing_field(tmp_path, capsys):
    path = write_problem(tmp_path, pendulum_doc())
    assert main(["verify-grid", path, "--cert", path]) == 2
    assert capsys.readouterr().err == (
        "error: certificate document: field 'eta': missing\n")


def test_design_algo2_emits_bidirectional_box(tmp_path, capsys):
    path = write_problem(tmp_path, pendulum_doc())
    code, out = run_json(capsys, ["design", path, "--algo", "2"])
    assert code == 0
    assert out["certificate"]["bidirectional"] is True
    assert out["certificate"]["eta"][0] == pytest.approx(3.970, rel=0.05)


def test_design_unstabilizable_exit_one(tmp_path, capsys):
    doc = {
        "A": [[2.0, 0.0], [0.0, 0.5]],
        "B": [[0.0], [1.0]],
        "Q": [[1.0, 0.0], [0.0, 1.0]],
        "R": [[1.0]],
    }
    path = write_problem(tmp_path, doc)
    code, out = run_json(capsys, ["design", path, "--algo", "ce"])
    assert code == 1
    assert out["status"] == "infeasible"


def test_simulate_deterministic(tmp_path, capsys):
    path = write_problem(tmp_path, stable_doc())
    argv = ["simulate", path, "--trials", "200", "--seed", "42",
            "--horizon", "10"]
    code1, out1 = run_json(capsys, argv)
    code2, out2 = run_json(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1["exact_norm"]) == 11


@pytest.mark.parametrize("flag, value", [("--seed", "-1"),
                                         ("--trials", "0"),
                                         ("--horizon", "0")])
def test_simulate_bad_config_exit_two(tmp_path, capsys, flag, value):
    path = write_problem(tmp_path, stable_doc())
    argv = {"--trials": "10", "--seed": "1", "--horizon": "5"}
    argv[flag] = value
    code = main(["simulate", path] + [x for kv in argv.items() for x in kv])
    assert code == 2
    assert (f"MonteCarloConfig.{flag[2:]} must be an integer >="
            in capsys.readouterr().err)


def test_parse_error_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert main(["check-mss", str(path)]) == 2
    assert main(["check-mss", str(tmp_path / "missing.json")]) == 2
    bad = write_problem(tmp_path, {"A": [[1.0]]}, "nob.json")
    assert main(["check-mss", bad]) == 2


def test_directory_path_exit_two(tmp_path, capsys):
    # a directory where a file is expected is bad input, not an infeasible
    # instance, and ends in one error line rather than a traceback
    assert main(["check-mss", str(tmp_path)]) == 2
    problem = write_problem(tmp_path, pendulum_doc())
    assert main(["verify-grid", problem, "--cert", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--trials", "3", "--seed", "1", "--cert", ""],
    ["verify-grid", "--cert", ""],
], ids=["simulate", "verify-grid"])
def test_empty_cert_path_exit_two(tmp_path, capsys, argv):
    # an empty path is bad input for both commands, not "no document" for
    # one and the current directory for the other
    problem = write_problem(tmp_path, pendulum_doc())
    assert main([argv[0], problem] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: option '--cert': empty path\n"


def test_reproduce_pendulum_names_a_bad_samples_flag(capsys):
    assert main(["reproduce-pendulum", "--samples", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: option '--samples': ")
    assert err.count("\n") == 1


def test_numerical_failure_exit_three(tmp_path, capsys, monkeypatch):
    path = write_problem(tmp_path, stable_doc())
    import multinoise.cli as cli_mod

    def boom(args):
        raise NumericalError("synthetic failure")

    monkeypatch.setitem(cli_mod.__dict__, "cmd_check_mss", boom)
    parser = cli_mod.build_parser()
    args = parser.parse_args(["check-mss", path])
    args.func = boom
    monkeypatch.setattr(cli_mod, "build_parser", lambda: parser)
    monkeypatch.setattr(parser, "parse_args", lambda argv=None: args)
    assert cli_mod.main(["check-mss", path]) == 3


def test_lapack_failure_exit_three(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError subclasses ValueError, which exits 2
    path = write_problem(tmp_path, stable_doc())
    import multinoise.cli as cli_mod

    def boom(args):
        raise la.LinAlgError("synthetic LAPACK failure")

    parser = cli_mod.build_parser()
    args = parser.parse_args(["check-mss", path])
    args.func = boom
    monkeypatch.setattr(cli_mod, "build_parser", lambda: parser)
    monkeypatch.setattr(parser, "parse_args", lambda argv=None: args)
    assert cli_mod.main(["check-mss", path]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--trials", "10", "--seed", "1", "--horizon", "5"]),
    ("verify-grid", ["--samples", "10"]),
])
def test_non_finite_gain_in_result_document_exit_two(tmp_path, capsys,
                                                     command, flags):
    path = write_problem(tmp_path, stable_doc())
    design = {
        "K": [[math.nan, 0.0]], "y_star": 0.1, "z_star": None,
        "cap_hit": False,
        "certificate": {
            "method": "shared-uni", "y_star": 0.1, "eta": [0.1], "psi": [],
            "bidirectional": False, "cap_hit": False, "P": None,
            "q_matrix": None, "zeta": None,
        },
        "diagnostics": {"rho_closed_loop": 0.6},
    }
    cert_path = tmp_path / "design.json"
    cert_path.write_text(json.dumps(design))
    code = main([command, path, "--cert", str(cert_path)] + flags)
    assert code == 2
    assert "field 'K'" in capsys.readouterr().err


def test_reproduce_pendulum_table(capsys):
    code = main(["reproduce-pendulum", "--samples", "2000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "algorithm-1" in out
    assert "max rho over box" in out


def test_reproduce_pendulum_json(capsys):
    code, out = run_json(capsys, ["reproduce-pendulum", "--samples", "2000"])
    assert code == 0
    assert out["open_loop"]["rho_closed_loop"] == pytest.approx(1.223, abs=0.01)
    assert out["algorithm_1"]["eta_1"] == pytest.approx(6.997, rel=0.05)
    assert out["algorithm_2"]["eta_1"] == pytest.approx(3.970, rel=0.05)


def _readme_pendulum_table():
    """The table that the README prints for ``reproduce-pendulum``, as
    {row label: [cell per column]}."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = text[text.index("```\nparameter ") + 4:]
    lines = block[:block.index("```")].splitlines()
    return {row[0]: row[1:] for row in
            (re.split(r" {2,}", line) for line in lines[2:])}


def test_readme_pendulum_table_matches_reproduce_pendulum(capsys):
    code, report = run_json(capsys, ["reproduce-pendulum"])
    assert code == 0
    table = _pendulum_table(report)
    assert all(line == line.rstrip() for line in table.splitlines())
    columns = ["open_loop", "certainty_equivalent", "algorithm_1",
               "algorithm_2"]
    keys = {"K": "K", "rho(true closed loop)": "rho_true_closed_loop",
            "rho(nominal closed loop)": "rho_closed_loop", "eta_1": "eta_1",
            "max rho over box": "worst_box_rho"}
    readme = _readme_pendulum_table()
    assert set(readme) == set(keys)
    for label, key in keys.items():
        for column, cell in zip(columns, readme[label], strict=True):
            got = report[column][key]
            if cell == "-":
                assert got is None, (label, column)
                continue
            want = np.array(cell.strip("[]").split(), dtype=float)
            np.testing.assert_allclose(np.ravel(got), want, rtol=1e-5,
                                       atol=0.0, err_msg=f"{label}, {column}")


def test_table_format_six_significant_digits(tmp_path, capsys):
    path = write_problem(tmp_path, stable_doc())
    code = main(["check-mss", path])
    out = capsys.readouterr().out
    assert code == 0
    # six significant digits in table mode
    radius_line = [l for l in out.splitlines() if "moment_radius" in l][0]
    value = radius_line.split(":")[1].strip()
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 6


def test_solver_overrides(tmp_path, capsys):
    path = write_problem(tmp_path, stable_doc())
    code, out = run_json(
        capsys, ["solve-gare", path, "--tol", "1e-4", "--max-iter", "50"]
    )
    assert code == 0
    assert out["iterations"] <= 50


@pytest.mark.parametrize("argv, field", [
    (["check-mss"], "A"),
    (["margins", "--method", "shared-uni"], "A"),
    (["solve-gare"], "A"),
    (["design", "--algo", "1"], "A"),
    (["design", "--algo", "1"], "alpha"),
    (["margins", "--method", "aux"], "alpha"),
])
def test_non_finite_input_exit_two(tmp_path, capsys, argv, field):
    doc = stable_doc()
    if field == "A":
        doc["A"][0][0] = float("nan")
    else:
        doc["alpha"] = [float("inf")]
    path = write_problem(tmp_path, doc)  # json writes NaN and Infinity
    assert main([argv[0], path] + argv[1:]) == 2
    assert f"field '{field}'" in capsys.readouterr().err


def test_check_mss_rejects_solver_flags(tmp_path):
    path = write_problem(tmp_path, stable_doc())
    with pytest.raises(SystemExit) as exc:
        main(["check-mss", path, "--tol", "1e-3"])
    assert exc.value.code == 2


def test_margins_rejects_bisect_tol(tmp_path):
    # every margin method solves for its edge: no bisection reads the flag
    path = write_problem(tmp_path, stable_doc())
    with pytest.raises(SystemExit) as exc:
        main(["margins", path, "--method", "aux", "--bisect-tol", "1e-3"])
    assert exc.value.code == 2


def test_design_bisect_tol_reaches_bisection(tmp_path, capsys, monkeypatch):
    import multinoise.design as design_mod

    seen = []
    bisect = design_mod.bisect_max_feasible

    def recording(feasible, opts=None):
        seen.append(opts.rel_tol)

        def stacked(ys):  # one verdict per point of the tuple
            assert isinstance(ys, tuple)
            verdicts = feasible(ys)
            assert len(verdicts) == len(ys)
            return verdicts

        return bisect(stacked, opts)

    monkeypatch.setattr(design_mod, "bisect_max_feasible", recording)
    path = write_problem(tmp_path, stable_doc())
    code, _ = run_json(
        capsys, ["design", path, "--algo", "1", "--bisect-tol", "0.25"]
    )
    assert code == 0
    # the variance bisection; the margin step solves for its edge
    assert seen == [0.25]


@pytest.fixture
def no_solver_runs(monkeypatch):
    """Fail at once if a command starts a solve: a bad option must be
    rejected before any run that it could keep from ending."""
    import multinoise.cli as cli_mod

    def started(*args, **kwargs):
        raise AssertionError("a solver run started")

    for name in ("solve_gare", "compute_margins", "design_algorithm_1"):
        monkeypatch.setattr(cli_mod, name, started)


@pytest.mark.parametrize("options, argv, field", [
    # tolerances are finite and >= 0
    ({"tol_rel": float("nan")}, ["solve-gare"], "options.tol_rel"),
    ({"bisect_rel_tol": -0.1}, ["margins", "--method", "shared-uni"],
     "options.bisect_rel_tol"),
    ({"bisect_rel_tol": float("inf")}, ["design", "--algo", "2"],
     "options.bisect_rel_tol"),
    # blowup is finite and > 0
    ({"blowup": 0.0}, ["solve-gare"], "options.blowup"),
    # the bisection's absolute floor and its cap are constants, not options
    ({"bracket_cap": 1e6}, ["design", "--algo", "2"], "options.bracket_cap"),
    # max_iter is an integer >= 1
    ({"max_iter": -3}, ["solve-gare"], "options.max_iter"),
    ({"max_iter": 2.5}, ["design", "--algo", "1"], "options.max_iter"),
    ({"bisect_abs_tol": 1e-12}, ["design", "--algo", "1"],
     "options.bisect_abs_tol"),
])
def test_bad_solver_option_exit_two(tmp_path, capsys, no_solver_runs,
                                    options, argv, field):
    doc = stable_doc()
    doc["options"] = options
    path = write_problem(tmp_path, doc)  # json writes NaN and Infinity
    assert main([argv[0], path] + argv[1:]) == 2
    assert f"field '{field}" in capsys.readouterr().err


@pytest.mark.parametrize("options, argv, flag", [
    ({}, ["solve-gare", "--tol", "nan"], "--tol"),
    ({}, ["solve-gare", "--max-iter", "-3"], "--max-iter"),
    ({}, ["design", "--algo", "1", "--blowup", "-1"], "--blowup"),
    ({}, ["design", "--algo", "1", "--bisect-tol", "-0.001"],
     "--bisect-tol"),
    ({}, ["design", "--algo", "2", "--bisect-tol", "inf"], "--bisect-tol"),
])
def test_bad_solver_flag_exit_two(tmp_path, capsys, no_solver_runs,
                                  options, argv, flag):
    doc = stable_doc()
    doc["options"] = options
    path = write_problem(tmp_path, doc)
    assert main([argv[0], path] + argv[1:]) == 2
    assert f"option '{flag}'" in capsys.readouterr().err


def test_valid_solver_options_still_parse(tmp_path, capsys):
    doc = stable_doc()
    doc["options"] = {"tol_abs": 0.0, "bisect_rel_tol": 0.0,
                      "max_iter": 50.0}
    path = write_problem(tmp_path, doc)
    code, out = run_json(capsys, ["solve-gare", path, "--tol", "1e-4"])
    assert code == 0
    assert out["iterations"] <= 50
