"""Command-line surface: JSON output, exit codes, determinism."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy as sp

import jetweyl
from jetweyl import checks
from jetweyl.cli import main
from jetweyl.dsl import parse_solution


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_dims(capsys):
    code, doc = run(["dims", "2"], capsys)
    assert code == 0
    assert doc["dim_jet_space"] == 23
    assert doc["dim_equation"] == 21


def test_reduce(capsys):
    code, doc = run(["reduce", "u_tx"], capsys)
    assert code == 0
    assert "u_yy" in doc["reduced"]
    assert "u_tx" not in doc["reduced"]


def test_check_symmetry_single_family(capsys):
    code, doc = run(["check-symmetry", "3"], capsys)
    assert code == 0 and doc["ok"]


def test_check_symmetry_refuses_a_fractional_power_parameter(capsys):
    code, doc = run(["check-symmetry", "1", "--parameter", "t^(1/2)"], capsys)
    assert code == 4 and doc["error"] == "domain"
    assert "rational function of t" in doc["message"]


@pytest.mark.parametrize("parameter", ["t^(1/2)", "2^(1/2)*t"])
def test_a_refused_parameter_is_named_in_the_input_language(capsys, parameter):
    # the message prints the parameter as the DSL reads it: passed back, the
    # printed form is refused the same way (sympy's sqrt(t) would be a parse
    # error instead)
    code, doc = run(["check-symmetry", "1", "--parameter", parameter], capsys)
    printed = doc["message"].rsplit("got ", 1)[1]
    assert code == 4 and printed == parameter
    code, again = run(["check-symmetry", "1", "--parameter", printed], capsys)
    assert code == 4 and again == doc


@pytest.mark.parametrize(
    "argv",
    [
        ["check-symmetry", "1", "--parameter", "u"],
        ["check-symmetry", "1", "--parameter", "x*t"],
        ["check-symmetry", "1", "--parameter", "u_x"],
        ["check-solution", "sl2-family", "--f", "u"],
        ["check-solution", "dkp-partial", "--h", "u_x"],
        ["signature", "exp-family", "--f", "x", "--h", "1"],
    ],
)
def test_a_parameter_that_is_not_a_function_of_t_is_a_domain_error(capsys, argv):
    code, doc = run(argv, capsys)
    assert code == 4 and doc["error"] == "domain"
    assert "parameter must depend on t only" in doc["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["check-symmetry", "1", "--parameter", "sqrt(t)"],
        ["reduce", "log(t)*u_x"],
        ["reduce", "sin(t) + u"],
        ["reduce", "u_x/log10(t)"],
        ["check-symmetry", "2", "--parameter", "cosh(t)"],
    ],
)
def test_elementary_function_names_are_parse_errors(capsys, argv):
    # the language has no elementary functions besides exp; read as formal
    # functions these names would stand for some other function of t
    code, doc = run(argv, capsys)
    assert code == 3 and doc["error"] == "parse"
    assert "elementary function" in doc["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "erf(t)*u_x"],
        ["check-symmetry", "1", "--parameter", "gamma(t)"],
        ["reduce", "u + besselj(t)"],
        ["reduce", "zeta(t)*u_x + airyai(t)"],
        ["check-symmetry", "2", "--parameter", "Ei(t)"],
        ["reduce", "floor(t)*u"],
    ],
)
def test_special_function_names_are_parse_errors(capsys, argv):
    code, doc = run(argv, capsys)
    assert code == 3 and doc["error"] == "parse"
    assert "special function" in doc["message"]


def test_sqrt_points_to_the_fractional_power(capsys):
    code, doc = run(["reduce", "sqrt(t)*u_x"], capsys)
    assert code == 3 and "t^(1/2)" in doc["message"]


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["check-symmetry", "1", "--parameter", "f(t)"], "f(t)"),
        (["reduce", "h''(t)*u_x"], "h''(t)*u_x"),
        (["reduce", "a(t)*b(t)*c(t)*d(t)*e(t)*u_x"], "a(t)*b(t)*c(t)*d(t)*e(t)*u_x"),
    ],
)
def test_formal_functions_still_parse(capsys, argv, shown):
    code, doc = run(argv, capsys)
    assert code == 0
    assert shown == (doc["checks"][0]["parameter"] if "checks" in doc else doc["reduced"])


def test_grading(capsys):
    code, doc = run(["grading", ], capsys)
    assert code == 0 and doc["ok"]


def test_orbit_dim_special_point(capsys):
    code, doc = run(["orbit-dim", "2", "--point", "special"], capsys)
    assert code == 0
    assert doc["dimension"] == 18
    assert doc["expected"] == 18


def test_orbit_dim_at_order_zero(capsys):
    # the special point assigns u_x and u_xx only where the order reaches
    code, doc = run(["orbit-dim", "0"], capsys)
    assert code == 0
    assert doc["dimension"] == doc["expected"] == 5


def test_invariants_eval(capsys):
    code, doc = run(
        ["invariants", "--eval", "(u_xy + v_xx)/u_x^2", "--at", "u_x=1,u_xx=1,u_xy=1,v_xx=1"],
        capsys,
    )
    assert code == 0
    assert doc["eval"]["value"] == "2"
    assert doc["I"]["1"] == "(u_xy + v_xx)/u_x^2"


def test_invariants_eval_singular_point_is_a_domain_error(capsys):
    code, _ = run(
        ["invariants", "--eval", "(u_xy + v_xx)/u_x^2", "--at", "u_x=0,u_xx=1"], capsys
    )
    assert code == 4


@pytest.mark.parametrize("expr", ["1/u_y", "u_y/u_xx"])
def test_invariants_eval_names_a_pole(expr, capsys):
    # 1/0 and 0/0: the vanishing denominator is named with the point
    code, doc = run(["invariants", "--eval", expr, "--at", "u_x=2"], capsys)
    assert code == 4 and doc["error"] == "domain"
    assert doc["message"] == (
        f"the denominator of {expr} vanishes at the jet point (t=0, x=0, y=0, u_x=2)"
    )
    # the rational control off the pole
    code, doc = run(["invariants", "--eval", expr, "--at", "u_x=2,u_y=4,u_xx=3"], capsys)
    assert code == 0
    assert doc["eval"]["value"] == {"1/u_y": "1/4", "u_y/u_xx": "4/3"}[expr]


@pytest.mark.parametrize("at, value", [("u_xxxx=5", "5"), ("u_x=1", "0")])
def test_invariants_eval_past_order_three(at, value, capsys):
    # a coordinate of order 4 named in --at raises the point's order; one not
    # named extends the order-3 point by zero
    code, doc = run(["invariants", "--eval", "u_xxxx", "--at", at], capsys)
    assert code == 0
    assert doc["eval"] == {"expr": "u_xxxx", "value": value}


def test_counts(capsys):
    code, doc = run(["counts", "ms", "--upto", "6"], capsys)
    assert code == 0
    by_k = {rec["k"]: rec for rec in doc["values"]}
    assert by_k[2]["h"] == 3 and by_k[6]["h"] == 21
    assert "poincare" in doc


def test_check_solution_catalog(capsys):
    code, doc = run(["check-solution", "trivial"], capsys)
    assert code == 0
    assert doc["solves_system"] and doc["ew_exact"]
    assert doc["lambda"] == "0"


def test_check_solution_negative_control(capsys):
    code, doc = run(["check-solution", "u = x*y ; v = 0"], capsys)
    assert code == 1
    assert doc["solves_system"] is False
    # without --points no sample is taken, on the Einstein branch or off it
    assert doc["lambda_samples"] == [] and doc["ew_residual_max"] == 0.0
    # the sample of Lambda = 1 + y^2/8 is exact off the Einstein branch too
    code, doc = run(["check-solution", "u = x*y ; v = 0", "--points", "1"], capsys)
    assert code == 1
    assert doc["lambda_samples"] == [{"point": ["0", "-2/3", "-6/5"], "value": "59/50"}]


def test_check_solution_of_a_formal_non_solution_needs_no_binding(capsys):
    # the exact verdict exists without binding f; only samples would need it
    code, doc = run(["check-solution", "u = f(t)*x*y ; v = 0"], capsys)
    assert code == 1
    assert doc["ok"] is False and doc["solves_system"] is False
    assert doc["lambda_samples"] == []


def test_a_hierarchy_potential_with_a_jet_coordinate_is_a_domain_error(capsys):
    code, doc = run(["check-solution", "hierarchy", "--w", "u_x*x"], capsys)
    assert code == 4 and doc["error"] == "domain"
    assert doc["message"] == "a hierarchy potential is given by a closed form, not jet coordinates"


_ROOT_X = "u = x^(1/2) ; v = x^(1/2)"


def test_check_solution_samples_a_fractional_power_where_it_is_real(capsys):
    # x^(1/2) is real for x > 0 only; samples with x <= 0 are skipped
    code, doc = run(["check-solution", _ROOT_X, "--points", "3"], capsys)
    assert code == 0 and doc["ok"] and doc["ew_exact"]
    assert len(doc["lambda_samples"]) == 3
    assert all(Fraction(s["point"][1]) > 0 for s in doc["lambda_samples"])


def test_signature_samples_a_fractional_power_where_it_is_real(capsys):
    code, doc = run(["signature", _ROOT_X, "--n", "4"], capsys)
    assert code == 0 and len(doc["points"]) == 4
    assert all(Fraction(p[1]) > 0 for p in doc["points"])


def test_check_solution_parse_error(capsys):
    code, _ = run(["check-solution", "u = ; v = 0"], capsys)
    assert code == 3


@pytest.mark.parametrize(
    "text, message",
    [
        ("u = x ; v = 1 +* 2", "expected a value, found '*' (at position 15)"),
        ("u = x ; u = 1", "duplicate binding for u (at position 8)"),
        ("u = x\n\nu = 1", "duplicate binding for u (at position 7)"),
        ("v = 0 ; u = u_x", "solution component may not reference jet coordinate u_x (at position 8)"),
    ],
)
def test_solution_errors_point_into_the_whole_text(text, message, capsys):
    code, doc = run(["check-solution", text], capsys)
    assert code == 3 and doc == {"error": "parse", "message": message}


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "-1"],
        ["counts", "ms", "--upto", "-1"],
        ["orbit-dim", "-1"],
        ["reduce", "u_xx", "--order", "-1"],
        ["check-solution", "trivial", "--points", "-2"],
        ["signature", "u = x^(1/2) ; v = x^(1/2)", "--n", "0"],
        ["signature", "sl2-family", "--f", "0", "--h", "0", "--n", "0"],
        ["signature", "sl2-family", "--f", "0", "--h", "0", "--n", "-3"],
    ],
)
def test_a_negative_order_is_a_usage_error(argv, capsys):
    # a jet order or a number of check points may be 0, a signature's
    # number of points may not
    kind = "positive" if "--n" in argv else "non-negative"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{argv[-1]!r} is not a {kind} integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "at, named",
    [
        ("u_x=abc", "'abc' is not a rational number"),
        ("foo=1", "'foo' is not t, x, y"),
        ("u_x0=3", "'u_x0' is not t, x, y"),
        ("u_x=1,u_x=2", "'u_x' is named twice"),
    ],
)
def test_a_bad_at_piece_is_a_parse_error(at, named, capsys):
    # the message names the refused piece, here the last one
    code, doc = run(["invariants", "--eval", "u_x", "--at", at], capsys)
    assert code == 3 and doc["error"] == "parse"
    assert f"'{at.split(',')[-1]}'" in doc["message"] and named in doc["message"]


@pytest.mark.parametrize(
    "argv, value",
    [
        (["transform", "trivial", "--B"], "-1/3"),
        (["transform", "trivial", "--A"], "-t"),
        (["check-symmetry", "1", "--parameter"], "-t"),
        (["invariants", "--eval"], "-u_x"),
        (["check-solution", "sl2-family", "--f"], "-t"),
    ],
)
def test_a_dsl_value_may_begin_with_a_minus(argv, value, capsys):
    # a separate value that begins with "-" reads as the "=" form
    code, doc = run([*argv, value], capsys)
    assert code == 0
    assert (code, doc) == run([*argv[:-1], f"{argv[-1]}={value}"], capsys)


@pytest.mark.parametrize("value", ["-h", "--pretty", "--pre"])
def test_an_option_is_no_value_of_a_dsl_option(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "trivial", "--B", value])
    assert exc.value.code == 2
    assert "argument --B: expected one argument" in capsys.readouterr().err


def test_positional_text_may_begin_with_a_minus_after_a_double_dash(capsys):
    code, doc = run(["reduce", "--", "-u_tx"], capsys)
    assert code == 0 and doc["input"] == "-u_tx"


def test_a_zero_count_in_a_jet_word_is_an_unknown_identifier(capsys):
    # u_x0 is no jet coordinate: read as u, it would reduce to u + v_y
    code, doc = run(["reduce", "u_x0 + v_t0y"], capsys)
    assert code == 3
    assert doc == {"error": "parse", "message": "unknown identifier 'u_x0' (at position 0)"}


def test_compare_of_a_missing_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "nofile.json"
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(missing), str(missing)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot read '{missing}'" in err and "No such file" in err


def test_transform_reflection(capsys):
    code, doc = run(["transform", "hierarchy", "--w", "x^3", "--reflect", "txy"], capsys)
    assert code == 0
    assert doc["still_solution"]


@pytest.mark.parametrize("flags", [["--A", "1"], ["--D", "2*t", "--E", "3"]])
def test_transform_refuses_element_flags_with_a_reflection(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "trivial", "--reflect", "txy", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--reflect cannot be combined with " + ", ".join(flags[::2]) in err


@pytest.mark.parametrize("at", [None, "u_x=1"])
def test_an_empty_eval_is_a_parse_error(at, capsys):
    # read as reduce reads it, not ignored, with or without a point
    argv = ["invariants", "--eval", ""] + ([] if at is None else ["--at", at])
    code, doc = run(argv, capsys)
    assert code == 3 and doc["error"] == "parse"
    assert (code, doc) == run(["reduce", ""], capsys)


@pytest.mark.parametrize("at", ["garbage", "u_x=1/0", "u_x=1"])
def test_invariants_at_without_eval_is_a_usage_error(at, capsys):
    # the point of --eval, never read without it
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--at", at])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--at needs --eval" in captured.err


def test_transform_element(capsys):
    code, doc = run(["transform", "hierarchy", "--w", "x^3", "--D", "4*t", "--E", "2"], capsys)
    assert code == 0 and doc["still_solution"]


# stdout of the parent commit of the field move, byte for byte
_TRANSFORM_GOLDEN = {
    "sl2-family --f 0 --h 0 --D 4*t --E 8": (
        '{"input": "u = (-10*x + 3*y^(5/3))/(3*y); v = (-175*x^2 + 63*y^(10/3) + '
        '30*x*y^(5/3))/(75*y^2)", "output": "u = (-20*x + 3*2^(1/3)*y^(5/3))/(6*y); '
        "v = (-700*x^2 + 63*2^(2/3)*y^(10/3) + 60*2^(1/3)*x*y^(5/3))/(300*y^2)\", "
        '"still_solution": true}\n'
    ),
    "hierarchy --D 4*t --E 2": (
        '{"input": "u = 3*x^2; v = 0", "output": "u = 3*x^2/16; v = 0", '
        '"still_solution": true}\n'
    ),
    "dkp-partial --h 0 --reflect yu": (
        '{"input": "u = 0; v = 1/12*y^4 + x*y", "output": "u = 0; v = 1/12*y^4 - x*y", '
        '"still_solution": true}\n'
    ),
    "exp-family --f 1 --h 1 --D 4*t --E 2": (
        '{"input": "u = x + exp(y); v = (1 + exp(y))/exp(y)", "output": '
        '"u = 1/4*x + exp(1/4*y); v = (1 + exp(1/4*y))/exp(1/4*y)", '
        '"still_solution": true}\n'
    ),
    # t^(1/2) drops out of (w_x, -w_y), so it neither limits the move nor
    # rides along with it
    "hierarchy --w x^3+t^(1/2) --reflect txy": (
        '{"input": "u = 3*x^2; v = 0", "output": "u = 3*x^2; v = 0", "still_solution": true}\n'
    ),
    "hierarchy --w x^3+t^(1/2) --D t+1": (
        '{"input": "u = 3*x^2; v = 0", "output": "u = 3*x^2; v = 0", "still_solution": true}\n'
    ),
}


@pytest.mark.parametrize("args", list(_TRANSFORM_GOLDEN))
def test_transform_stdout_is_byte_identical(args, capsys):
    assert main(["transform", *args.split()]) == 0
    assert capsys.readouterr().out == _TRANSFORM_GOLDEN[args]


def test_transform_with_a_constant_exponential_round_trips(capsys):
    # a y-shift of exp-family leaves exp(1) in the moved section
    code, doc = run(["transform", "exp-family", "--f", "1", "--h", "1", "--B", "1"], capsys)
    assert code == 0 and doc["still_solution"]
    assert "exp(1)" in doc["output"]
    bindings = parse_solution(doc["output"])
    assert bindings["u"].has(sp.E)
    code, check = run(["check-solution", doc["output"]], capsys)
    assert code == 0 and check["solves_system"] and check["ew_exact"]


def test_transform_refuses_a_non_affine_time_map(capsys):
    code, doc = run(["transform", "trivial", "--D", "t^3+t"], capsys)
    assert code == 4 and doc["error"] == "domain"
    assert "must be affine" in doc["message"]


def test_signature_and_compare_round_trip(tmp_path, capsys):
    sl2 = tmp_path / "sl2.json"
    exp = tmp_path / "exp.json"
    code, _ = run(
        ["signature", "sl2-family", "--f", "0", "--h", "0", "--out", str(sl2)], capsys
    )
    assert code == 0
    code, _ = run(
        ["signature", "exp-family", "--f", "1", "--h", "1", "--out", str(exp)], capsys
    )
    assert code == 0
    code, doc = run(["compare", str(sl2), str(exp)], capsys)
    assert code == 1
    assert doc["verdict"] == "distinct"
    code, doc = run(["compare", str(sl2), str(sl2)], capsys)
    assert code == 0
    assert doc["verdict"] == "equivalent-evidence"


@pytest.mark.parametrize("a, b", [("1000000000", "3000000001/3"), ("1", "1000000000001/1000000000000")])
def test_compare_of_near_exact_clouds_is_distinct(a, b, tmp_path, capsys):
    # both gaps lie below the default tolerance 1e-9 * (1 + scale)
    paths = []
    for name, value in (("a", a), ("b", b)):
        path = tmp_path / f"{name}.json"
        doc = {"points": [["0", "0", "0"]], "values": [[value] + ["0"] * 11], "precision": "exact"}
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    code, doc = run(["compare", *paths], capsys)
    assert code == 1
    assert doc["verdict"] == "distinct"
    assert 0 < doc["hausdorff"] < doc["tol"] * (1 + doc["scale"])
    code, doc = run(["compare", paths[0], paths[0], "--tol", "10"], capsys)
    assert code == 0 and doc["verdict"] == "equivalent-evidence"


def test_signature_singular_branch_is_a_domain_error(capsys):
    code, _ = run(["signature", "trivial"], capsys)
    assert code == 4


def test_signature_bytes_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _ = run(
            ["signature", "sl2-family", "--f", "0", "--h", "0", "--seed", "5", "--out", str(out)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_all_single_suite(capsys):
    for name in ("coframe", "mutation"):
        code, doc = run(["verify-all", "--only", name], capsys)
        assert code == 0
        assert list(doc["suites"]) == [name] and doc["suites"][name]["ok"]


def test_verify_all_unknown_suite_is_a_domain_error(capsys):
    code, doc = run(["verify-all", "--only", "frobnicate"], capsys)
    assert code == 4 and doc["error"] == "domain"
    assert all(name in doc["message"] for name in checks.REGISTRY)


def test_verify_all_runs_the_registry_in_order(capsys, monkeypatch):
    seen = []
    for name, check in checks.REGISTRY.items():
        def stub(name=name):
            seen.append(name)
            return True, {}

        monkeypatch.setitem(checks.REGISTRY, name, dataclasses.replace(check, run=stub))
    code, doc = run(["verify-all"], capsys)
    assert code == 0 and doc["ok"]
    assert seen == list(checks.REGISTRY)
    assert sorted(doc["suites"]) == sorted(checks.REGISTRY)


def test_verify_all_orbit_suite_runs_to_order_4(capsys):
    code, doc = run(["verify-all", "--only", "orbit"], capsys)
    assert code == 0
    assert doc["suites"]["orbit"]["dimensions"] == {"1": 11, "2": 18, "3": 23, "4": 28}


def test_module_entry_point():
    # the child finds the package where this process did, installed or not
    env = dict(os.environ)
    src = pathlib.Path(jetweyl.__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "jetweyl.cli", "dims", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim_equation"] == 11
