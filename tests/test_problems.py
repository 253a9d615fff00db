import json
import math
import re

import numpy as np
import pytest

from multinoise import ProblemFormatError
from multinoise.problems import (
    certificate_from_dict,
    certificate_to_dict,
    design_result_from_dict,
    design_result_to_dict,
    inverted_pendulum,
    load_problem,
    parse_problem,
)

from conftest import problem_to_dict


def minimal_doc():
    return {
        "A": [[1.0, 0.1], [0.5, 1.0]],
        "B": [[0.0], [0.1]],
        "A_dirs": [[[0.0, 0.0], [1.0, 0.0]]],
        "alpha": [0.2],
        "theta": [1.0],
        "Q": [[1.0, 0.0], [0.0, 1.0]],
        "R": [[1.0]],
    }


def test_parse_minimal_document():
    problem = parse_problem(minimal_doc())
    assert problem.system.n == 2 and problem.system.m == 1
    assert problem.noise.p == 1 and problem.noise.q == 0
    assert problem.noise.a_dirs[0][1] == 0.2
    assert problem.structure.theta[0] == 1.0
    assert problem.costs is not None
    assert problem.true_system is None


def test_parse_errors_name_the_field():
    with pytest.raises(ProblemFormatError, match="field 'A'"):
        parse_problem({"B": [[1.0]]})
    doc = minimal_doc()
    doc["alpha"] = [0.2, 0.3]
    with pytest.raises(ProblemFormatError, match="'alpha'"):
        parse_problem(doc)
    doc = minimal_doc()
    doc["A_bar"] = [[1.0, 0.1], [1.0, 1.0]]
    with pytest.raises(ProblemFormatError, match="A_bar"):
        parse_problem(doc)
    doc = minimal_doc()
    doc["Q"] = [[1.0, 2.0], [0.0, 1.0]]
    with pytest.raises(ProblemFormatError, match="'Q'"):
        parse_problem(doc)
    # the bisection's absolute floor and its cap are constants, not options
    for key in ("bogus", "bisect_abs_tol", "bracket_cap"):
        doc = minimal_doc()
        doc["options"] = {key: 1}
        with pytest.raises(ProblemFormatError,
                           match=rf"field 'options\.{key}': unknown option"):
            parse_problem(doc)


def test_direction_errors_name_one_field():
    cases = [
        ("A_dirs", [np.eye(3).tolist()], "field 'A_dirs[0]': expected a 2x2"),
        ("A_dirs", [[[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0]],
         "field 'A_dirs[1]': expected a 2x2"),
        ("B_dirs", [np.eye(2).tolist()], "field 'B_dirs[0]': expected a 2x1"),
        ("alpha", [0.2, 0.3], "field 'alpha': expected 1 entries, got 2"),
        ("alpha", [-0.2], "field 'alpha[0]': must be nonnegative"),
    ]
    for field, value, message in cases:
        doc = minimal_doc()
        doc[field] = value
        if field == "B_dirs":
            doc["beta"] = [0.1]
        with pytest.raises(ProblemFormatError) as info:
            parse_problem(doc)
        assert str(info.value).startswith(message), str(info.value)
        assert str(info.value).count("field '") == 1


def test_load_problem_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"A\": [[1,\n}")
    with pytest.raises(ProblemFormatError, match="line"):
        load_problem(path)


def test_options_flow_through():
    doc = minimal_doc()
    doc["options"] = {"tol_rel": 1e-6, "max_iter": 500, "bisect_rel_tol": 1e-4}
    problem = parse_problem(doc)
    assert problem.gare_options.tol_rel == 1e-6
    assert problem.gare_options.max_iter == 500
    assert problem.bisect_options.rel_tol == 1e-4


def test_problem_round_trip():
    problem = inverted_pendulum()
    doc = problem_to_dict(problem)
    again = parse_problem(json.loads(json.dumps(doc)))
    np.testing.assert_array_equal(again.system.A, problem.system.A)
    np.testing.assert_array_equal(again.true_system.A_bar,
                                  problem.true_system.A_bar)
    assert again.gare_options == problem.gare_options
    assert again.bisect_options == problem.bisect_options
    assert list(doc["options"]) == ["tol_abs", "tol_rel", "blowup",
                                    "max_iter", "bisect_rel_tol"]


@pytest.mark.parametrize("doc", [[1], "x"])
def test_result_documents_must_be_objects(doc):
    with pytest.raises(ProblemFormatError, match="design document"):
        design_result_from_dict(doc)
    with pytest.raises(ProblemFormatError, match="certificate document"):
        certificate_from_dict(doc)


def test_pendulum_builtin_values():
    problem = inverted_pendulum()
    np.testing.assert_allclose(problem.system.A, [[1.0, 0.1], [0.5, 1.0]])
    np.testing.assert_allclose(problem.true_system.A_bar,
                               [[1.0, 0.1], [1.0, 1.0]])
    np.testing.assert_allclose(problem.system.B, [[0.0], [0.1]])
    np.testing.assert_allclose(problem.noise.a_dirs[0][0],
                               [[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(problem.costs.Q, np.eye(2))
    np.testing.assert_allclose(problem.costs.R, np.eye(1))
    assert problem.structure.theta[0] == 1.0


def test_canonical_problem_file_matches_builtin():
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "problems" / "pendulum.json"
    problem = load_problem(path)
    builtin = inverted_pendulum()
    np.testing.assert_array_equal(problem.system.A, builtin.system.A)
    np.testing.assert_array_equal(problem.system.B, builtin.system.B)
    np.testing.assert_array_equal(problem.true_system.A_bar,
                                  builtin.true_system.A_bar)
    np.testing.assert_array_equal(problem.noise.a_dirs[0][0],
                                  builtin.noise.a_dirs[0][0])
    assert problem.gare_options == builtin.gare_options


def test_design_result_round_trip_identical(pendulum_alg1):
    doc = design_result_to_dict(pendulum_alg1)
    text = json.dumps(doc)
    again = design_result_from_dict(json.loads(text))
    np.testing.assert_array_equal(again.K, pendulum_alg1.K)
    assert again.y_star == pendulum_alg1.y_star
    assert again.z_star == pendulum_alg1.z_star
    c0, c1 = pendulum_alg1.certificate, again.certificate
    np.testing.assert_array_equal(c1.box.eta, c0.box.eta)
    np.testing.assert_array_equal(c1.P, c0.P)
    np.testing.assert_array_equal(c1.q_matrix, c0.q_matrix)
    assert c1.method is c0.method
    assert c1.box.bidirectional == c0.box.bidirectional
    d0, d1 = pendulum_alg1.diagnostics, again.diagnostics
    assert d1.rho_closed_loop == d0.rho_closed_loop
    assert d1.worst_box_rho == d0.worst_box_rho
    assert d1.rho_true_closed_loop == d0.rho_true_closed_loop


def test_certificate_round_trip_identical(pendulum_alg2):
    cert = pendulum_alg2.certificate
    again = certificate_from_dict(json.loads(json.dumps(
        certificate_to_dict(cert)
    )))
    np.testing.assert_array_equal(again.box.eta, cert.box.eta)
    np.testing.assert_array_equal(again.P, cert.P)
    assert again.y_star == cert.y_star
    assert again.method is cert.method


def certificate_doc():
    return {
        "method": "cons-lin", "y_star": 1.0, "eta": [1.0], "psi": [],
        "bidirectional": False, "cap_hit": False,
        "P": [[1.0, 0.0], [0.0, 1.0]], "q_matrix": [[1.0, 0.0], [0.0, 1.0]],
        "zeta": [0.5],
    }


def design_doc(cert):
    return {"K": [[-1.0, -1.0]], "y_star": 1.0, "certificate": cert,
            "diagnostics": {"rho_closed_loop": 0.5}}


@pytest.mark.parametrize("kind, name", [
    ("certificate", "method"), ("certificate", "y_star"),
    ("certificate", "eta"), ("certificate", "psi"),
    ("certificate", "bidirectional"), ("design", "K"), ("design", "y_star"),
])
def test_result_documents_name_a_missing_field(kind, name):
    # named as problem files name theirs, not by the bare key
    doc = certificate_doc() if kind == "certificate" else design_doc(
        certificate_doc())
    del doc[name]
    parse = (certificate_from_dict if kind == "certificate"
             else design_result_from_dict)
    with pytest.raises(ProblemFormatError) as info:
        parse(doc)
    assert str(info.value) == f"{kind} document: field '{name}': missing"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["P", "q_matrix", "zeta"])
def test_certificate_fields_must_be_finite(name, bad):
    cert = certificate_doc()
    value = np.array(cert[name])
    value.flat[0] = bad
    cert[name] = value.tolist()
    with pytest.raises(ProblemFormatError, match=f"field '{name}'"):
        certificate_from_dict(cert)
    with pytest.raises(ProblemFormatError, match=f"field '{name}'"):
        design_result_from_dict(design_doc(cert))


@pytest.mark.parametrize("name, bad", [
    # bool("false") is True and float("nan") is NaN: only JSON true or
    # false is a flag, and only a finite JSON number is a scale
    ("bidirectional", "false"), ("bidirectional", 0), ("bidirectional", None),
    ("cap_hit", "false"), ("cap_hit", 1), ("cap_hit", None),
    ("y_star", "nan"), ("y_star", "1.0"), ("y_star", math.nan),
    ("y_star", math.inf), ("y_star", True),
    pytest.param("y_star", 10 ** 400, id="y_star-past-float-range"),
])
def test_certificate_flags_and_scale_are_strict(name, bad):
    cert = certificate_doc()
    cert[name] = bad
    with pytest.raises(ProblemFormatError, match=f"field '{name}'"):
        certificate_from_dict(cert)
    with pytest.raises(ProblemFormatError, match=f"field '{name}'"):
        design_result_from_dict(design_doc(cert))


@pytest.mark.parametrize("name, bad", [
    # float("0.7") would read the string, and a bool would read as 0 or 1
    ("eta", ["0.7"]), ("eta", [None]), ("psi", [True]), ("eta", "0.7"),
    ("P", [[1.0, "0"], [0.0, 1.0]]), ("zeta", [False]),
])
def test_certificate_arrays_are_json_numbers(name, bad):
    cert = certificate_doc()
    cert[name] = bad
    with pytest.raises(ProblemFormatError, match=f"field '{name}'"):
        certificate_from_dict(cert)
    with pytest.raises(ProblemFormatError, match=f"field '{name}'"):
        design_result_from_dict(design_doc(cert))


@pytest.mark.parametrize("name, bad", [
    ("rho_closed_loop", "nan"), ("rho_closed_loop", None),
    ("rho_closed_loop", True), ("worst_box_rho", "inf"),
    ("worst_box_rho", [0.5]), ("rho_true_closed_loop", math.nan),
])
def test_design_diagnostics_are_strict(name, bad):
    doc = design_doc(certificate_doc())
    doc["diagnostics"][name] = bad
    with pytest.raises(ProblemFormatError, match=f"field 'diagnostics.{name}'"):
        design_result_from_dict(doc)


def test_design_diagnostics_must_be_an_object():
    doc = design_doc(certificate_doc())
    doc["diagnostics"] = [0.5]
    with pytest.raises(ProblemFormatError, match="field 'diagnostics'"):
        design_result_from_dict(doc)


@pytest.mark.parametrize("name, bad, field", [
    ("A", [[1.0, 0.1], ["0.5", 1.0]], "A"),
    ("A", [[1.0, 0.1], [True, 1.0]], "A"),
    ("alpha", ["0.2"], "alpha"),
    ("A_dirs", [[[0.0, 0.0], [None, 0.0]]], "A_dirs[0]"),
    ("options", {"tol_rel": "1e-3"}, "options.tol_rel"),
    ("options", {"max_iter": True}, "options.max_iter"),
    ("options", {"bisect_rel_tol": [1e-6]}, "options.bisect_rel_tol"),
])
def test_problem_numbers_are_json_numbers(name, bad, field):
    doc = minimal_doc()
    doc[name] = bad
    with pytest.raises(ProblemFormatError, match=rf"field '{re.escape(field)}'"):
        parse_problem(doc)


@pytest.mark.parametrize("name, bad", [
    ("cap_hit", "false"), ("cap_hit", 0), ("y_star", "nan"),
    ("y_star", -math.inf), ("z_star", "nan"), ("z_star", math.inf),
    ("z_star", False),
])
def test_design_flags_and_scales_are_strict(name, bad):
    doc = design_doc(certificate_doc())
    doc[name] = bad
    with pytest.raises(ProblemFormatError, match=f"field '{name}'"):
        design_result_from_dict(doc)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_design_gain_must_be_finite(bad):
    doc = design_doc(certificate_doc())
    doc["K"][0][1] = bad
    with pytest.raises(ProblemFormatError, match="field 'K'"):
        design_result_from_dict(doc)
