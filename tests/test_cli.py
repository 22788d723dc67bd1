import json
import math
import warnings

import numpy as np
import pytest

from projcone.cli import dumps, main, matrix_to_csv, matrix_to_json, read_kernel_grid, read_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


def run_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code != 0
    assert out == ""
    payload = json.loads(err)
    assert set(payload) == {"code", "message", "location"}
    return payload


# ---------------------------------------------------------------------------
# serialization


def test_dumps_float_round_trip():
    for x in (0.6, 1 / 3, 1e-300, 2.0 ** 52 + 0.5, 0.1):
        assert float(json.loads(dumps(x))) == x
    assert dumps(math.inf) == '"inf"'
    assert dumps(-math.inf) == '"-inf"'
    assert dumps({"a": [1, True, None, "s"]}) == '{"a": [1,true,null,"s"]}'
    with pytest.raises(ValueError):
        dumps(math.nan)


def test_dumps_indent_is_valid_json():
    obj = {"x": [1.5, {"y": [None, False]}], "z": {}}
    assert json.loads(dumps(obj, indent=2)) == obj


def test_matrix_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(51)
    M = rng.uniform(0.0, 10.0, size=(4, 4))
    M[0, 2] = 0.0
    csv_path = tmp_path / "m.csv"
    csv_path.write_text(matrix_to_csv(M))
    np.testing.assert_array_equal(read_matrix(str(csv_path)), M)
    json_path = tmp_path / "m.json"
    json_path.write_text(matrix_to_json(M))
    np.testing.assert_array_equal(read_matrix(str(json_path)), M)


# ---------------------------------------------------------------------------
# parsing errors


def test_csv_negative_entry_has_dedicated_code(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n-3,4\n")
    payload = run_error(capsys, "coeff", str(path))
    assert payload["code"] == "negative_entry"
    assert ":2" in payload["location"]


def test_csv_accepts_scientific_notation(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1e-2,2E3\n4,5.5e0\n")
    np.testing.assert_array_equal(read_matrix(str(path)), [[0.01, 2000.0], [4.0, 5.5]])


def test_csv_ragged_rows_rejected(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3\n")
    assert run_error(capsys, "coeff", str(path))["code"] == "parse_error"


def test_json_matrix_errors(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[1]]}')
    assert run_error(capsys, "coeff", str(path))["code"] == "parse_error"
    path.write_text('{"matrix": [[1, -2], [3, 4]]}')
    assert run_error(capsys, "coeff", str(path))["code"] == "negative_entry"


def test_json_integer_beyond_double_range(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"matrix": [[1, 2], [3, 1' + "0" * 400 + "]]}")
    payload = run_error(capsys, "coeff", str(path))
    assert payload["code"] == "parse_error"
    assert "(1,1)" in payload["message"]
    assert payload["location"] == str(path)


def test_missing_file(capsys):
    assert run_error(capsys, "coeff", "/nonexistent/m.csv")["code"] == "file_not_found"


def test_bad_flags_are_structured(capsys):
    assert run_error(capsys, "coeff")["code"] == "bad_flags"
    assert run_error(capsys, "nosuchcommand")["code"] == "bad_flags"


# ---------------------------------------------------------------------------
# dist


def test_dist_vector_literals(capsys):
    report = run_report(capsys, "dist", "1,2", "2,1")
    assert report["command"] == "dist"
    assert report["results"]["d"] == 0.6
    assert report["results"]["d_H"] == pytest.approx(math.log(4.0))
    assert report["results"]["m"] == 0.25
    assert report["results"]["aleph_fg"] == 0.5


def test_dist_identical_vectors(capsys):
    report = run_report(capsys, "dist", "3,5,7", "3,5,7")
    assert report["results"]["d"] == 0.0


def test_dist_boundary_pair_renders_inf(capsys):
    report = run_report(capsys, "dist", "1,0", "0,1")
    assert report["results"]["d"] == 1.0
    assert report["results"]["d_H"] == "inf"


def test_dist_from_two_row_file(tmp_path, capsys):
    path = tmp_path / "v.csv"
    path.write_text("1,2\n2,1\n")
    report = run_report(capsys, "dist", "--file", str(path))
    assert report["results"]["d"] == 0.6
    path.write_text("1,2\n2,1\n1,1\n")
    assert run_error(capsys, "dist", "--file", str(path))["code"] == "invalid_input"


def test_dist_dimension_mismatch(capsys):
    assert run_error(capsys, "dist", "1,2", "1,2,3")["code"] == "invalid_input"


# ---------------------------------------------------------------------------
# coeff


def test_coeff_report(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("2,1\n1,2\n")
    report = run_report(capsys, "coeff", str(path))
    res = report["results"]
    assert res["c"] == 0.6 and res["is_strict"] is True
    assert res["a_star"] == pytest.approx(2.0)
    assert res["witness"] == [0, 1] and res["method"] == "definitional"
    assert res["elapsed"] >= 0.0


def test_coeff_identity_has_no_a_star(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,0\n0,1\n")
    res = run_report(capsys, "coeff", str(path))["results"]
    assert res["c"] == 1.0 and res["is_strict"] is False and "a_star" not in res


def test_coeff_formula_flag(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("3,1\n1,3\n")
    res = run_report(capsys, "coeff", str(path), "--formula")["results"]
    assert res["c"] == 0.8 and res["method"] == "closed_form"
    path.write_text("1,1\n0,1\n")
    assert run_error(capsys, "coeff", str(path), "--formula")["code"] == "not_strictly_positive"


@pytest.mark.parametrize("text", ["1e-310,1e-310\n1e-310,2e-310\n", "1e300,1e300\n1e300,1e-300\n"])
def test_coeff_formula_refuses_products_beyond_the_double_range(tmp_path, capsys, text):
    # the products under- or overflow, so the closed form would read NaN ratios and report c = 0
    path = tmp_path / "m.csv"
    path.write_text(text)
    # both matrices are strictly positive: the refusal is for the range, an invalid input
    payload = run_error(capsys, "coeff", str(path), "--formula")
    assert payload["code"] == "invalid_input" and payload["location"] == "coeff"
    assert "normal double range" in payload["message"]


def test_coeff_names_offending_column(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,0\n1,0\n")
    payload = run_error(capsys, "coeff", str(path))
    assert payload["code"] == "not_cone_preserving"
    assert "column 1" in payload["message"]


# ---------------------------------------------------------------------------
# check


def test_check_positive_matrix(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("2,1\n1,2\n")
    res = run_report(capsys, "check", str(path))["results"]
    assert res["cone_preserving"] and res["uniformly_positive"] and res["strictly_contracting"]
    assert res["certificate"]["A"] == 2.0
    assert res["certificate"]["h"] == [2.0, 1.0]
    assert res["certificate"]["i0"] == 0 and res["certificate"]["j0"] == 0


def test_check_identity(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,0\n0,1\n")
    res = run_report(capsys, "check", str(path))["results"]
    assert res["cone_preserving"] is True
    assert res["uniformly_positive"] is False
    assert res["strictly_contracting"] is False
    assert res["certificate"] is None


def test_check_non_preserving_warns(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,0\n1,0\n")
    report = run_report(capsys, "check", str(path))
    assert report["results"]["cone_preserving"] is False
    assert report["results"]["strictly_contracting"] is None
    assert report["warnings"]


@pytest.mark.parametrize("text, flags", [
    ("1,1\n0.3,0\n", ["--zero-tol", "0.5"]),  # row 1's only positive entry is at or below zero_tol
    ("1e-310,1e-310\n1e-310,2e-310\n", []),  # subnormal entries
])
def test_check_reports_a_failed_certificate(tmp_path, capsys, text, flags):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_report(capsys, "check", str(path), *flags)
    res = report["results"]
    assert res["cone_preserving"] and res["uniformly_positive"] and res["strictly_contracting"]
    assert res["certificate"] is None
    assert report["warnings"] == ["certificate omitted: the constructed sandwich failed validation"]


@pytest.mark.parametrize("text", [
    "1e-310,1e-310\n1e-310,2e-310\n",
    "1e300,1e300\n1e300,1e-300\n",
    "1,1e-310,1e300,1e-310\n" * 4,
    "1,1\n1,1e-310\n",  # 1 / 1e-310 overflows: the parent reported a certificate with A = inf
], ids=["subnormal", "1e300-1e-300", "1e300-1e-310", "inverse-ratio-overflow"])
def test_check_raises_no_warning_at_the_ends_of_the_double_range(tmp_path, capsys, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "check", str(path))
    assert code == 0 and err == ""
    assert out.replace(str(path), "FILE") == (
        '{"command": "check","inputs": {"file": "FILE","zero_tol": 0},"results": {"cone_preserving": true,'
        '"uniformly_positive": true,"strictly_contracting": true,"certificate": null},'
        '"warnings": ["certificate omitted: the constructed sandwich failed validation"]}\n'
    )


# ---------------------------------------------------------------------------
# perron


def test_perron_report(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("2,1\n1,2\n")
    report = run_report(capsys, "perron", str(path))
    res = report["results"]
    assert res["converged"] is True
    assert res["eigenvalue_lower"] <= 3.0 <= res["eigenvalue_upper"]
    assert np.allclose(res["eigenvector"], [1.0, 1.0], atol=1e-9)
    assert "error_bound" in res and report["warnings"] == []


def test_perron_rank_one_single_iteration(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,1\n1,1\n")
    res = run_report(capsys, "perron", str(path))["results"]
    assert res["iterations"] == 1


def test_perron_no_certificate_warning(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("2,0\n0,1\n")
    report = run_report(capsys, "perron", str(path), "--max-iter", "50")
    assert any("no contraction certificate" in w for w in report["warnings"])
    assert any("max-iter" in w for w in report["warnings"])
    assert "error_bound" not in report["results"]


def test_perron_skips_the_bound_above_dimension_512(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text(matrix_to_csv(np.random.default_rng(52).uniform(0.5, 1.5, size=(513, 513))))
    report = run_report(capsys, "perron", str(path))
    assert report["warnings"] == ["contraction coefficient skipped for dimension > 512; error bound unavailable"]
    assert report["results"]["converged"] and "error_bound" not in report["results"]


_PERRON_AT_THE_ENDS_OF_THE_DOUBLE_RANGE = [
    (
        "1e-310,1e-310\n1e-310,2e-310\n",
        '{"command": "perron","inputs": {"file": "FILE","tol": 9.9999999999999998e-13,"max_iter": 10000,"zero_tol": 0},'
        '"results": {"eigenvector": [0.61803398874998616,1],"eigenvalue_lower": 2.6180339887495736e-310,'
        '"eigenvalue_upper": 2.6180339887500183e-310,"iterations": 15,"final_step_distance": 4.4902970230984616e-13,'
        '"converged": true,"error_bound": 2.2451485115492305e-13},"warnings": []}\n',
    ),
    (
        "1,1e-310,1e300,1e-310\n" * 4,
        '{"command": "perron","inputs": {"file": "FILE","tol": 9.9999999999999998e-13,"max_iter": 10000,"zero_tol": 0},'
        '"results": {"eigenvector": [1,1,1,1],"eigenvalue_lower": 9.999999999999999e+299,'
        '"eigenvalue_upper": 1.0000000000000002e+300,"iterations": 1,"final_step_distance": 0,"converged": true},'
        '"warnings": ["no contraction certificate (c = 1); error bound unavailable"]}\n',
    ),
    (
        # iterates mix subnormal and normal entries, so a quotient of the step distance overflows
        "1e-300,0.3,0\n1e-300,1,2\n1e-310,0,1e-310\n",
        '{"command": "perron","inputs": {"file": "FILE","tol": 9.9999999999999998e-13,"max_iter": 10000,"zero_tol": 0},'
        '"results": {"eigenvector": [0.29999999999999999,1,2.9999999999998426e-311],"eigenvalue_lower": 1,'
        '"eigenvalue_upper": 1,"iterations": 4,"final_step_distance": 0,"converged": true},'
        '"warnings": ["no contraction certificate (c = 1); error bound unavailable"]}\n',
    ),
]


@pytest.mark.parametrize("text, expected", _PERRON_AT_THE_ENDS_OF_THE_DOUBLE_RANGE, ids=["subnormal", "1e300-1e-310", "step-overflow"])
def test_perron_bracket_raises_no_warning_at_the_ends_of_the_double_range(tmp_path, capsys, text, expected):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if "1e300" in text:  # the c(M) scan of this matrix still overflows (inf * 0 = NaN); the bracket must not
            warnings.filterwarnings("ignore", module=r"projcone\.matrices$")
        code, out, err = run(capsys, "perron", str(path))
    assert code == 0 and err == ""
    assert out.replace(str(path), "FILE") == expected


def test_perron_start_flag(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("2,1\n1,2\n")
    report = run_report(capsys, "perron", str(path), "--start", "1,0", "--tol", "1e-12")
    assert report["results"]["iterations"] <= 30
    assert run_error(capsys, "perron", str(path), "--tol", "0")["code"] == "bad_flags"
    assert run_error(capsys, "perron", str(path), "--start", "0,-1")["code"] == "negative_entry"


# ---------------------------------------------------------------------------
# kernel


def test_kernel_builtin_separable(capsys):
    res = run_report(capsys, "kernel", "--builtin", "separable", "--n", "6")["results"]
    assert res["c_grid"] <= 1e-12
    assert res["certificate"]["A"] <= 1.0 + 1e-12
    assert res["psi_of_A"] <= 1e-12
    assert res["weight_invariance"]["within_1e-12"] is True


def test_kernel_builtin_poly(capsys):
    res = run_report(capsys, "kernel", "--builtin", "poly1xy", "--n", "8")["results"]
    assert 0.0 < res["c_grid"] < 1.0
    assert res["c_grid"] <= res["psi_of_A"] + 1e-10


def test_kernel_gaussian_with_param(capsys):
    res = run_report(capsys, "kernel", "--builtin", "gaussian", "--n", "5", "--param", "sigma=0.5")["results"]
    assert 0.0 < res["c_grid"] < 1.0


def test_kernel_from_file(tmp_path, capsys):
    grid = {
        "nodes": [0.25, 0.75],
        "weights": [0.5, 0.5],
        "values": [[1.0, 1.0], [1.0, 2.0]],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    res = run_report(capsys, "kernel", "--file", str(path))["results"]
    assert 0.0 < res["c_grid"] < 1.0


def test_kernel_pattern_failure_is_structured(tmp_path, capsys):
    grid = {
        "nodes": [0.1, 0.5, 0.9],
        "weights": [1 / 3, 1 / 3, 1 / 3],
        "values": [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    payload = run_error(capsys, "kernel", "--file", str(path))
    assert payload["code"] == "pattern_failure"
    assert payload["location"] == "values[0][2]"


def test_kernel_pattern_failure_precedes_the_scan(capsys):
    # at this size the scan overflows in divide; the O(n^2) pattern check
    # rejects the grid first, so the error object is all that is printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "kernel", "--builtin", "gaussian", "--param", "sigma=1e-4", "--n", "96")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["code"] == "pattern_failure"


def test_kernel_cone_check_precedes_pattern_check(tmp_path, capsys):
    # under --zero-tol 0.05 the weighted column 1 (0.1/3) vanishes, and the
    # value grid also has a pattern failure at (0, 2): the cone check wins
    grid = {
        "nodes": [0.1, 0.5, 0.9],
        "weights": [1 / 3, 1 / 3, 1 / 3],
        "values": [[1.0, 0.1, 0.0], [1.0, 0.1, 1.0], [1.0, 0.1, 1.0]],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    payload = run_error(capsys, "kernel", "--file", str(path), "--zero-tol", "0.05")
    assert payload["code"] == "invalid_input"
    assert "column 1" in payload["message"]


def test_kernel_failed_certificate_is_structured(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"nodes": [0.25, 0.75], "weights": [0.5, 0.5], "values": [[1, 1], [0.3, 0]]}))
    payload = run_error(capsys, "kernel", "--file", str(path), "--zero-tol", "0.4")
    assert payload["code"] == "certificate_failure"
    assert payload["location"] == "kernel"


@pytest.mark.parametrize("values", [
    [[1, 1e-300], [1e-300, 1e-300]],
    [[1e300, 1e-300], [1e-300, 1e300]],
    [[1, 1], [1, 1e-310]],
])
def test_kernel_certificate_beyond_the_double_range_fails_without_warnings(tmp_path, capsys, values):
    # a product g1 * g2 or a ratio leaves the double range, so A = inf, which certifies nothing
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"nodes": [0.25, 0.75], "weights": [0.5, 0.5], "values": values}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = run_error(capsys, "kernel", "--file", str(path))
    assert payload == {
        "code": "certificate_failure",
        "message": "the constructed factorization certificate failed validation",
        "location": "kernel",
    }


@pytest.mark.parametrize("argv", [["coeff"], ["kernel", "--file"]])
def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    payload = run_error(capsys, *argv, str(path))
    assert payload["code"] == "parse_error"
    assert payload["location"] == str(path)


@pytest.mark.parametrize("argv, name", [(["coeff"], "bad.csv"), (["kernel", "--file"], "bad.json")])
def test_non_utf8_file_is_a_parse_error(tmp_path, capsys, argv, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe1,2")
    payload = run_error(capsys, *argv, str(path))
    assert payload["code"] == "parse_error"
    assert payload["location"] == str(path)


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_zero_tol_must_be_finite_and_nonnegative(tmp_path, capsys, value):
    path = tmp_path / "m.csv"
    path.write_text("1,0\n1,1\n")
    for argv in (["coeff", str(path)], ["check", str(path)], ["perron", str(path)], ["dist", "1,0", "0,1"],
                 ["kernel", "--builtin", "constant", "--n", "4"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            payload = run_error(capsys, *argv, "--zero-tol", value)
        assert payload["code"] == "bad_flags", (argv, payload)
        assert payload["location"] == f"projcone {argv[0]}"
        assert "--zero-tol" in payload["message"] and repr(value) in payload["message"]


@pytest.mark.parametrize("argv, message", [
    *((["perron", "M.csv", "--tol", value], f"argument --tol: must be finite and positive, got '{value}'")
      for value in ("0", "nan", "inf")),
    (["perron", "M.csv", "--tol", "x"], "argument --tol: invalid float value: 'x'"),
    (["perron", "M.csv", "--max-iter", "0"], "argument --max-iter: must be at least 1, got '0'"),
    (["perron", "M.csv", "--max-iter", "1.5"], "argument --max-iter: invalid int value: '1.5'"),
    (["perron", "M.csv", "--zero-tol", "-1"], "argument --zero-tol: must be finite and nonnegative, got '-1'"),
    (["kernel"], "one of the arguments --file --builtin is required"),
    (["kernel", "--file", "g.json", "--builtin", "constant"], "argument --builtin: not allowed with argument --file"),
    (["kernel", "--builtin", "gaussian", "--param", "sigma"], "argument --param: expects name=value, got 'sigma'"),
])
def test_flag_errors_come_from_the_parser(tmp_path, capsys, argv, message):
    # the file exists, so only the flag can be at fault
    (tmp_path / "M.csv").write_text("2,1\n1,2\n")
    argv = [str(tmp_path / arg) if arg == "M.csv" else arg for arg in argv]
    payload = run_error(capsys, *argv)
    assert payload == {"code": "bad_flags", "message": message, "location": f"projcone {argv[0]}"}


@pytest.mark.parametrize("argv, message", [
    (["dist", "1,2", "1,2,3"], "dimension mismatch"),
    (["perron", "M.csv", "--start", "1,2,3"], "dimension mismatch"),
    (["kernel", "--builtin", "constant", "--n", "8", "--zero-tol", "0.2"], "not cone-preserving"),
    (["coeff", "NaN.csv"], "cannot serialize NaN"),
    (["perron", "M.csv", "--zero-tol", "1.5", "--start", "5,5"], "perron_iterate requires zero_tol < 1, got 1.5"),
])
def test_library_errors_are_invalid_input_at_the_subcommand(tmp_path, capsys, argv, message):
    (tmp_path / "M.csv").write_text("2,1\n1,2\n")
    (tmp_path / "NaN.csv").write_text("1,1e-310,1e300,1e-310\n" * 4)  # c(M) is inf * 0
    argv = [str(tmp_path / arg) if arg.endswith(".csv") else arg for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the NaN's overflow, a separate defect
        payload = run_error(capsys, *argv)
    assert payload["code"] == "invalid_input" and payload["location"] == argv[0]
    assert message in payload["message"]


def test_kernel_flag_validation(capsys):
    assert run_error(capsys, "kernel")["code"] == "bad_flags"
    assert run_error(capsys, "kernel", "--builtin", "nosuch", "--n", "4")["code"] == "bad_flags"
    assert run_error(capsys, "kernel", "--builtin", "gaussian", "--param", "sigma")["code"] == "bad_flags"


def test_kernel_grid_beyond_memory_is_a_flag_error(capsys):
    # the nodes and weights fit; the 5e6 x 5e6 values request fails at once
    payload = run_error(capsys, "kernel", "--builtin", "constant", "--n", "5000000")
    assert payload["code"] == "bad_flags" and payload["location"] == "kernel"
    assert "allocate" in payload["message"]


def test_invalid_grid_file(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"nodes": [0.5, 0.25], "weights": [0.5, 0.5], "values": [[1, 1], [1, 1]]}))
    assert run_error(capsys, "kernel", "--file", str(path))["code"] == "invalid_grid"


def test_grid_integer_beyond_double_range(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text('{"nodes": [0.25, 0.75], "weights": [0.5, 0.5], "values": [[1, 1], [1, 1' + "0" * 400 + "]]}")
    payload = run_error(capsys, "kernel", "--file", str(path))
    assert payload["code"] == "invalid_grid"
    assert payload["location"] == str(path)


@pytest.mark.parametrize(
    "grid, message",
    [
        ('{"nodes":[0.25,"0.75"],"weights":[0.5,0.5],"values":[["1",true],[1," 2 "]]}', "nodes[1] is not a number"),
        ('{"nodes":[0.25,0.75],"weights":[true,0.5],"values":[[1,1],[1,1]]}', "weights[0] is not a number"),
        ('{"nodes":[0.25,0.75],"weights":[0.5,0.5],"values":[[1,1],[1," 2 "]]}', "values[1, 1] is not a number"),
        ('{"nodes":[0.25,0.75],"weights":[0.5,0.5],"values":[[1,false],[1,1]]}', "values[0, 1] is not a number"),
        ('{"nodes":[0.25,0.75],"weights":[0.5,0.5],"values":[[1,[1]],[1,1]]}', "values[0, 1] is not a number"),
    ],
)
def test_grid_entries_must_be_json_numbers(tmp_path, capsys, grid, message):
    path = tmp_path / "grid.json"
    path.write_text(grid)
    assert run_error(capsys, "kernel", "--file", str(path)) == {"code": "invalid_grid", "message": message, "location": str(path)}


# ---------------------------------------------------------------------------
# report discipline


def test_reports_are_deterministic(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("2,1\n1,2\n")
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1

    for _ in range(2):
        code, out, _ = run(capsys, "dist", "1,2,0", "2,1,3")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 2

    for _ in range(2):
        code, out, _ = run(capsys, "kernel", "--builtin", "gaussian", "--n", "6", "--param", "sigma=0.7")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 3


def test_coeff_rejects_non_square(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5,6\n")
    assert run_error(capsys, "coeff", str(path))["code"] == "invalid_input"


def test_coeff_deterministic_modulo_elapsed(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("2,1\n1,2\n")
    payloads = []
    for _ in range(2):
        report = run_report(capsys, "coeff", str(path))
        del report["results"]["elapsed"]
        payloads.append(report)
    assert payloads[0] == payloads[1]


def test_json_indent_flag(tmp_path, capsys):
    code, out, _ = run(capsys, "dist", "1,2", "2,1", "--json-indent", "2")
    assert code == 0
    assert "\n  " in out
    assert json.loads(out)["results"]["d"] == 0.6
