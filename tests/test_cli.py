import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ocquad import cli, kk, symexpr
from ocquad.cli import build_parser, main, render_text, run_analyze
from ocquad.problems import BUILTIN_NAMES, ProblemFileError, builtin, load_problem


def analyze_options(argv):
    return build_parser().parse_args(["analyze", "dummy"] + argv)


def run(source, *argv):
    return run_analyze(source, analyze_options(list(argv)))


class TestLazyCompiles:
    """A family or a selection is one PhaseFunction, compiled on its first
    evaluation as one values and one gradient function: a family that is
    only printed, or a selection that the exact rank pre-gate decides, is
    never compiled."""

    @staticmethod
    def spied(monkeypatch, name, *flags):
        """`analyze NAME FLAGS` with `symexpr.compile_fn` spied: the exit
        code, the families found, the number of projected rank gates, and
        each function compiled over a PhaseFunction's arguments, the sample
        rows and H."""
        compiled, families, gates = [], [], []
        compile_fn, rank = symexpr.compile_fn, kk.independence_rank

        def compile_spy(e, args, *options, **kwargs):
            fn = compile_fn(e, args, *options, **kwargs)
            if args[-1] is symexpr.HAMILTONIAN_SYMBOL:
                compiled.append(fn)
            return fn

        def found(discover):
            def spy(*args, **kwargs):
                families.append(discover(*args, **kwargs))
                return families[-1]
            return spy

        def rank_spy(*args):
            gates.append(args[0])
            return rank(*args)

        monkeypatch.setattr(symexpr, "compile_fn", compile_spy)
        monkeypatch.setattr(kk, "independence_rank", rank_spy)
        for attr in ("discover_family", "discover_polynomial_integrals"):
            monkeypatch.setattr(cli, attr, found(getattr(cli, attr)))
        _, code = run(name, *flags)
        monkeypatch.undo()
        return code, families, gates, compiled

    def test_the_printed_polynomial_family_compiles_nothing(self, monkeypatch):
        code, (family, poly), gates, compiled = self.spied(
            monkeypatch, "sr-2-3", "--poly-degree", "4")
        assert code == 0 and (family.m, poly.m) == (62, 100)
        assert "function" not in vars(poly)
        func = family.function
        # the family's values and gradient, then each projected selection's
        assert len(gates) == 1
        assert compiled == [func._value_fn, func._gradient_fn,
                            gates[0]._value_fn, gates[0]._gradient_fn]

    def test_pre_gated_selections_compile_nothing(self, monkeypatch):
        # martinet: the exact pre-gate decides all 23 rank gates
        code, (family,), gates, compiled = self.spied(monkeypatch, "martinet")
        assert code == 2 and gates == []
        assert compiled == [family.function._value_fn, family.function._gradient_fn]


class TestExitCodes:
    def test_solvable_is_zero(self, capsys):
        code = main(["analyze", "dubins"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"]["verdict"] == "SolvableOnLevelSet"

    def test_inconclusive_is_two(self, capsys):
        assert main(["analyze", "martinet", "--no-time"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"]["verdict"] == "Inconclusive"

    def test_schema_error_is_one(self, tmp_path, capsys):
        doc = builtin("dubins")
        doc["dynamics"] = doc["dynamics"][:2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["analyze", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_source_is_one(self, capsys):
        assert main(["analyze", "no-such-problem"]) == 1
        assert "builtin" in capsys.readouterr().err


# (key, value, part of the message[, builtin[, flags]]) for entries that each
# make a built-in problem file (dubins unless named) invalid; a value "@raw"
# goes into the JSON text unquoted
HOSTILE_ENTRIES = {
    "k_u_string": ("k_u", "abc", "k_u must be"),
    "control_guess_string": ("control_guess", ["abc", 0.0], "control_guess[0]"),
    "parameters_list": ("parameters", [1, 2], "'parameters' must be a dict"),
    "sampling_box_list": ("sampling_box", [1], "'sampling_box' must be a dict"),
    # a report prints the Hamiltonian placeholder as H, so a state of that
    # name would read the same in a family expression
    "state_named_H": ("states", ["H", "x2", "x3"], "symbol name 'H' is reserved"),
    "sampling_box_nan": ("sampling_box", {"x1": [-1, "@NaN"]}, "sampling_box['x1']"),
    "sampling_box_overflow": ("sampling_box", {"x1": [-1, "@1e400"]}, "sampling_box['x1']"),
    # only states, costates and the time are sampled
    "sampling_box_control": ("sampling_box", {"u1": [5, 6]}, "'u1', which is not a state"),
    "sampling_box_parameter": ("sampling_box", {"alpha": [0, 1]},
                               "'alpha', which is not a state", "martinet"),
    "excluded_denominators_overflow": ("excluded_denominators", ["x1 + 10^400"],
                                       "error: excluded_denominators[0]: cannot compile"),
    # a string would be read one character at a time
    "excluded_denominators_string": ("excluded_denominators", "x1",
                                     "'excluded_denominators' must be a list"),
    # every draw is within 0.1 of the pole 0: the sampler starves and says why
    "excluded_denominators_zero": ("excluded_denominators", ["0"],
                                   "error: could not find 180 admissible points in 36900 draws: "
                                   "36900 within 0.1 of excluded_denominators[0]"),
    # the same, in the sampled check of a supplied law, which is not a failed
    # control elimination
    "excluded_denominators_zero_with_law": (
        ("excluded_denominators", "control_solution"),
        (["0"], ["psi1*cos(x3) + psi2*sin(x3)", "psi3"]),
        "error: cannot check control_solution on sample points: could not find 50 "
        "admissible points in 11000 draws: 11000 within 0.1 of excluded_denominators[0]"),
    # the costates enter only through H = -L + psi.phi
    "lagrangian_costate": ("lagrangian", "(u1^2 + u2^2)/2 + psi1",
                           "error: lagrangian must not mention costates\n"),
    # the controls are what dH/du = 0 eliminates, whatever the backend
    "excluded_denominators_control": ("excluded_denominators", ["1 + u1^2"],
                                      "error: excluded_denominators[0] must not mention "
                                      "controls\n"),
    "control_solution_control": ("control_solution", ["u1", "psi3"],
                                 "error: control_solution[0] must not mention controls\n"),
    "control_solution_control_implicit": (
        "control_solution", ["u1", "psi3"],
        "error: control_solution[0] must not mention controls\n",
        "dubins", ["--backend", "implicit"]),
    # str.isdigit() is true for a superscript digit, which Fraction rejects
    "dynamics_superscript_digit": ("dynamics", ["u1*\u00b2", "u1*sin(x3)", "u2"],
                                   "error: dynamics[0]: unexpected character '\u00b2' "
                                   "(at position 3)\n"),
    # a negative constant under a fractional power is not real, a real odd
    # root included: refused where it is parsed, naming the entry
    "dynamics_non_real_constant": ("dynamics", ["u1*cos(x3)", "u1*sin(x3)", "u2*(-8)^(1/3)"],
                                   "error: dynamics[2]: constant (-8)^(1/3) is not real\n"),
    "dynamics_zero_to_a_negative_power": ("dynamics", ["u1*0^(-1/2)", "u1*sin(x3)", "u2"],
                                          "error: dynamics[0]: division by zero in "
                                          "constant\n"),
    "lagrangian_superscript_digit": ("lagrangian", "1\u00b2 + u1^2",
                                     "error: lagrangian: unexpected character '\u00b2' "
                                     "(at position 1)\n"),
    # Fraction reads any Unicode decimal digit: an Arabic-Indic three would
    # bind alpha = 3, where the same digit in an expression is refused
    "parameter_arabic_indic_digit": ("parameters", {"alpha": "\u0663"},
                                     "error: parameter 'alpha' must be a finite number, "
                                     "got '\u0663'\n", "martinet"),
}


def _hostile_entry(key, value, message, problem="dubins", flags=()):
    return key, value, message, problem, flags


def _polynomial(var, terms):
    return " + ".join(["1"] + [f"{var}^{k}" for k in range(1, terms)])


# (dynamics, parameters, part of the message) for problem files whose
# expressions the parser or the compiler cannot take
HOSTILE_EXPRESSIONS = {
    "nested_parentheses": (["(" * 400 + "u1" + ")" * 400], {}, "nested too deeply"),
    "unary_minus_chain": (["-" * 3000 + "u1"], {}, "nested too deeply"),
    "power_chain": (["u1" + "^1" * 3000], {}, "nested too deeply"),
    "constant_overflow": (["u1*10^400"], {},
                          "error: reduced Hamiltonian: cannot compile: a constant is beyond"),
    # a finite parameter whose square in the reduced H is not
    "parameter_square_overflow": (["a*u1"], {"a": 1e200}, "beyond the float range"),
    # the reduced H would expand to one flat sum of 3,600 terms, past the
    # term budget of `expand`
    "flat_sum_too_long": (["u1", f"({_polynomial('x1', 60)})*({_polynomial('x2', 60)})"],
                          {}, "too long or too deeply nested"),
    # the power alone expands to 4,845 terms: the term budget of `expand`
    # stops it at 3,060, before any differentiation or compile
    "power_past_the_term_budget": (
        ["u1", "(x1 + x2 + x3 + t + 1)^16", "x1"], {},
        "error: reduced Hamiltonian: cannot compile: expression too long or too deeply nested "
        "(expanding (1 + x1 + x2 + x3 + t)^16 gives more than 2,800 terms)\n"),
}


class TestHostileProblemFiles:
    @pytest.mark.parametrize("case", sorted(HOSTILE_ENTRIES))
    def test_bad_entry_is_an_error_not_a_traceback(self, case, tmp_path, capsys):
        key, value, message, problem, flags = _hostile_entry(*HOSTILE_ENTRIES[case])
        doc = builtin(problem)
        if isinstance(key, tuple):      # several entries at once
            doc.update(zip(key, value))
        else:
            doc[key] = value
        text = json.dumps(doc)
        for raw in ("NaN", "1e400"):
            text = text.replace(f'"@{raw}"', raw)
        path = tmp_path / "p.json"
        path.write_text(text)
        assert main(["analyze", str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("case", sorted(HOSTILE_EXPRESSIONS))
    def test_hostile_expression_is_an_error_not_a_traceback(self, case, tmp_path, capsys):
        dynamics, parameters, message = HOSTILE_EXPRESSIONS[case]
        doc = {"name": case, "states": [f"x{i + 1}" for i in range(len(dynamics))],
               "controls": ["u1"], "time": "t", "lagrangian": "u1^2/2",
               "dynamics": dynamics, "parameters": parameters}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error:")
        assert out.err.count("\n") == 1
        assert message in out.err

    def test_compile_error_names_the_hamiltonian_on_the_implicit_backend(self, tmp_path,
                                                                         capsys):
        doc = {"name": "big", "states": ["x1"], "controls": ["u1"], "time": "t",
               "lagrangian": "u1^2/2", "dynamics": ["u1*10^400"]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path), "--backend", "implicit"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: Hamiltonian: cannot compile: a constant is beyond")
        assert out.err.count("\n") == 1

    def test_sampled_system_beyond_the_float_range(self, tmp_path, capsys):
        # monomials of x1 in [-1e100, 1e100] overflow: the residual system
        # is not finite, which is an error naming the box, not an SVD failure
        doc = {"name": "bigbox", "states": ["x1", "x2"], "controls": ["u1"],
               "time": "t", "lagrangian": "u1^2/2", "dynamics": ["u1", "x1*u1"],
               "sampling_box": {"x1": [-1e100, 1e100]}}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error:")
        assert out.err.count("\n") == 1
        assert "sampling_box" in out.err

    def test_directory_as_problem_path(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")


    def test_flow_leaving_the_real_domain_is_not_a_traceback(self, tmp_path, capsys):
        # x1 starts in [0.001, 0.02] and RK4 stages step it below 0, where
        # x1^(1/2) and x1^(-1/2) are not real; those trajectories are skipped
        doc = {
            "name": "sqrt-drift",
            "states": ["x1", "x2"],
            "controls": ["u1"],
            "time": "t",
            "lagrangian": "u1^2/2",
            "dynamics": ["u1", "(x1)^(1/2)"],
            "sampling_box": {"x1": [0.001, 0.02]},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) in (0, 2)
        json.loads(capsys.readouterr().out)

    def test_complex_excluded_denominator_skips_the_trajectory(self, tmp_path, capsys):
        # at seed 1 an RK4 step takes x1 below 0, where the excluded
        # denominator x1^(1/2) is complex; that trajectory is skipped
        doc = {
            "name": "sqrtden",
            "states": ["x1"],
            "controls": ["u1"],
            "time": "t",
            "lagrangian": "u1^2/2",
            "dynamics": ["u1"],
            "excluded_denominators": ["x1^(1/2)"],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path), "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["verification"]["trajectories"]) == 3

    def test_complex_power_under_a_function_warns_nothing(self, tmp_path, capsys):
        # RK4 stages step x1 below 0, where sqrt(x1) is complex: exp of it
        # must end the trajectory, not go on with its real part and warn
        doc = {"name": "fz158", "states": ["x1", "x2"], "controls": ["u1", "u2"],
               "time": "t", "lagrangian": "u1^2/2 + u2^2/2",
               "dynamics": ["u1*exp(sqrt(x1))", "u1*3"], "excluded_denominators": ["3"]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path), "--seed", "42"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert len(json.loads(out.out)["verification"]["trajectories"]) == 3

    @pytest.mark.parametrize("seed", ["42", "7"])
    def test_overflow_in_an_rk4_stage_warns_nothing(self, seed, tmp_path, capsys):
        # with x1 in [0, 1] and psi1 in [1, 2] the flow drives x1 up until
        # exp(10*x1) overflows in an RK4 stage: that trajectory is dropped
        doc = {"name": "blow", "states": ["x1"], "controls": ["u1"], "time": "t",
               "lagrangian": "u1^2/2", "dynamics": ["u1*exp(10*x1)"],
               "sampling_box": {"x1": [0, 1], "psi1": [1, 2]}}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path), "--seed", seed]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        json.loads(out.out)

    def test_numpy_scalar_leaving_the_real_domain_warns_nothing(self, tmp_path):
        # sin(x1) evaluates to a numpy scalar, and RK4 stages step x1 below 0,
        # where its square root is not real: under -W error::RuntimeWarning
        # the run must end as the plain run does, with nothing on stderr
        doc = {
            "name": "sin-root-drift",
            "states": ["x1", "x2"],
            "controls": ["u1"],
            "time": "t",
            "lagrangian": "u1^2/2",
            "dynamics": ["u1", "(sin(x1))^(1/2)"],
            "sampling_box": {"x1": [0.001, 0.02]},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        plain, strict = (
            subprocess.run([sys.executable, *flags, "-m", "ocquad.cli", "analyze", str(path)],
                           capture_output=True, text=True, env=env, timeout=300)
            for flags in ([], ["-W", "error::RuntimeWarning"]))
        assert plain.returncode in (0, 2)
        assert strict.returncode == plain.returncode
        assert plain.stderr == strict.stderr == ""
        assert strict.stdout == plain.stdout


# (problem, flags, part of the message) for command lines that must end with
# exit code 1 and a one-line error; "{tmp}" stands for a fresh directory
HOSTILE_FLAGS = {
    "holdout_zero": ("dubins", ["--holdout", "0"], "--holdout"),
    "holdout_negative": ("dubins", ["--holdout", "-3"], "--holdout"),
    "samples_zero": ("dubins", ["--samples", "0"], "--samples"),
    "samples_negative": ("dubins", ["--samples", "-5"], "--samples"),
    "tol_nan": ("dubins", ["--tol", "nan"], "--tol"),
    "seed_negative": ("dubins", ["--seed", "-1"], "--seed"),
    "output_in_missing_directory": ("dubins", ["--output", "{tmp}/missing/x.json"],
                                    "cannot write"),
    "param_overflow": ("martinet", ["--param", "alpha=1e400"], "parameter 'alpha'"),
    # ASCII digits only, as in an expression
    "param_arabic_indic_digit": ("martinet", ["--param", "alpha=\u0663"],
                                 "error: parameter 'alpha' must be a finite number, "
                                 "got '\u0663'\n"),
    # alpha is finite, but alpha^2 in the reduced H is not
    "param_square_overflow": ("sr-2-3-5", ["--param", "alpha=1e200"],
                              "error: reduced Hamiltonian: cannot compile: a constant is beyond"),
    # 2,804 coefficients at 3 sample rows each, refused before sampling
    "degree_oversized": ("dubins", ["--degree", "100"], "sampled system too large"),
    "samples_oversized": ("dubins", ["--samples", "1000000"], "sampled system too large"),
    # the dense search runs over x, psi and t only
    "poly_vars_control": ("martinet", ["--poly-degree", "2", "--poly-vars", "u1"], "'u1'"),
    "poly_vars_parameter": ("martinet", ["--poly-degree", "2", "--poly-vars", "alpha"],
                            "'alpha'"),
    # x1 twice would give the ansatz one monomial column per repetition
    "poly_vars_twice": ("sr-2-3", ["--poly-degree", "2", "--poly-vars", "x1,x1"],
                        "'x1' is named twice"),
    # checked whether or not the dense search runs
    "poly_vars_without_degree": ("dubins", ["--poly-vars", "u1"], "'u1'"),
    # an empty list is not the default of every variable
    "poly_vars_empty": ("dubins", ["--poly-degree", "2", "--poly-vars="], "--poly-vars"),
    # a malformed command line is a failed run, not the inconclusive exit 2
    "flag_unknown": ("dubins", ["--bogus"], "error: unrecognized arguments: --bogus\n"),
    "degree_not_an_int": ("dubins", ["--degree", "x"], "invalid int value: 'x'"),
    "backend_unknown": ("dubins", ["--backend", "fast"], "invalid choice: 'fast'"),
    "seed_without_value": ("dubins", ["--seed"], "expected one argument"),
}


class TestHostileFlags:
    @pytest.mark.parametrize("case", sorted(HOSTILE_FLAGS))
    def test_bad_flag_is_an_error_not_a_traceback(self, case, tmp_path, capsys):
        problem, flags, message = HOSTILE_FLAGS[case]
        flags = [f.replace("{tmp}", str(tmp_path)) for f in flags]
        start = time.monotonic()
        assert main(["analyze", problem, *flags]) == 1
        assert time.monotonic() - start < 5.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error:")
        assert out.err.count("\n") == 1
        assert message in out.err

    def test_no_command_is_one_error_line(self, capsys):
        assert main([]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: the following arguments are required: command\n")

    def test_dump_onto_an_existing_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("keep")
        assert main(["problems", "--dump", str(target)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert target.read_text() == "keep"


class TestDeterminism:
    def test_reports_are_byte_identical_under_a_seed(self):
        r1, c1 = run("dubins", "--seed", "7")
        r2, c2 = run("dubins", "--seed", "7")
        assert c1 == c2
        assert json.dumps(r1, indent=2) == json.dumps(r2, indent=2)

    def test_seed_changes_sampling_but_not_the_verdict(self):
        r1, c1 = run("dubins", "--seed", "1")
        r2, c2 = run("dubins", "--seed", "2")
        assert c1 == c2 == 0
        assert r1["certificate"]["integrals"] == r2["certificate"]["integrals"]


class TestProblemFiles:
    def test_builtins_round_trip_through_json(self):
        for name in BUILTIN_NAMES:
            doc = builtin(name)
            again = json.loads(json.dumps(doc))
            p1, _ = load_problem(doc)
            p2, _ = load_problem(again)
            assert p1.lagrangian == p2.lagrangian
            assert p1.dynamics == p2.dynamics
            assert p1.parameters == p2.parameters

    def test_unknown_builtin(self):
        with pytest.raises(ProblemFileError, match="unknown builtin"):
            builtin("nope")

    def test_file_source(self, tmp_path):
        path = tmp_path / "dubins.json"
        path.write_text(json.dumps(builtin("dubins")))
        report, code = run(str(path))
        assert code == 0
        assert report["problem"]["name"] == "dubins"

    def test_param_override(self):
        report, _ = run("martinet", "--param", "alpha=2")
        assert report["problem"]["parameters"] == {"alpha": "2"}
        assert "2*x1" in report["true_hamiltonian"] or "x1" in report["true_hamiltonian"]

    def test_param_must_exist(self):
        from ocquad.cli import AnalysisError
        with pytest.raises(AnalysisError, match="not a problem parameter"):
            run("dubins", "--param", "gamma=1")


class TestReportContent:
    def test_tol_default_is_the_family_tolerance(self, capsys):
        # `noether.FAMILY_TOL` is the one owner of the default
        from ocquad.noether import FAMILY_TOL
        assert analyze_options([]).tol == FAMILY_TOL == 1e-8
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        assert "family holdout tolerance (default 1e-08)" in capsys.readouterr().out
        report, _ = run("dubins")
        assert report["options"]["tol"] == 1e-8

    def test_family_and_certificate_sections(self):
        report, _ = run("dubins")
        assert {"expr", "holdout_residual", "rational", "generators"} <= set(
            report["family"][0])
        cert = report["certificate"]
        assert cert["solvability"]["derived_series_depth"] == 2
        assert cert["solvability"]["prop2_identity"] is False
        assert "bracket_convention" in cert
        assert len(report["verification"]["trajectories"]) == 3

    @pytest.mark.parametrize("name", ["dubins", "trailer"])
    def test_structure_table_agrees_with_certificate(self, name):
        # the table entry of each selected pair holds the certificate's xi,
        # placed at the selection's family indices
        report, code = run(name, "--seed", "42")
        assert code == 0
        cert = report["certificate"]
        sel = cert["selection"]
        table = {tuple(e["pair"]): e for e in report["structure"]["pairs"]}
        m = len(report["family"])
        for entry in cert["xi"]:
            a, b = entry["pair"]
            want = [Fraction(0)] * m
            for s, v in zip(sel, entry["coefficients"]):
                want[s] = Fraction(v)
            row = table[(sel[a], sel[b])]
            assert "xi" in row, f"pair {(sel[a], sel[b])} unresolved"
            assert [Fraction(v) for v in row["xi"]] == want

    def test_timings_only_on_request(self):
        plain, _ = run("dubins")
        timed, _ = run("dubins", "--timings")
        assert "timings" not in plain
        assert "timings" in timed
        line = render_text(timed).splitlines()[-1]
        head = "timings [s]: "
        assert line.startswith(head)
        # the values are wall-clock times: only the keys are fixed
        assert [item.split("=")[0] for item in line[len(head):].split(", ")] == [
            "hamiltonian", "family", "structure", "certificate", "verify", "total"]

    def test_text_rendering(self):
        report, _ = run("dubins")
        text = render_text(report)
        assert "certificate: SolvableOnLevelSet" in text
        assert "psi1" in text

    def test_polynomial_family_section(self):
        report, _ = run("dubins", "--poly-degree", "2")
        exprs = [c["expr"] for c in report["polynomial_family"]]
        assert any("H" in e for e in exprs)
        lines = render_text(report).splitlines()
        start = lines.index("polynomial family (7 integrals):")
        assert [line.split("   (holdout ")[0] for line in lines[start + 1:start + 8]] == [
            f"  {e}" for e in exprs]
        assert lines[start + 8] == ""

    def test_text_says_the_polynomial_family_is_empty(self):
        report, _ = run("dubins", "--poly-degree", "1", "--poly-vars", "x1",
                        "--poly-no-hamiltonian")
        assert ("polynomial family: no symmetry found at this ansatz degree"
                in render_text(report).splitlines())

    def test_poly_time_joins_explicit_poly_vars(self):
        # the free particle: x1 - psi1*t is an integral only once t is a variable
        doc = {"name": "free-particle", "time": "t", "states": ["x1"], "controls": ["u1"],
               "lagrangian": "u1^2/2", "dynamics": ["u1"]}
        report, _ = run(doc, "--poly-degree", "2", "--poly-vars", "x1,psi1", "--poly-time")
        assert report["options"]["poly_include_time"] is True
        assert "-x1 + psi1*t" in [c["expr"] for c in report["polynomial_family"]]

    def test_dense_search_runs_when_the_generator_family_is_empty(self):
        doc = {"name": "timed-scaling", "time": "t", "states": ["x1"], "controls": ["u1"],
               "lagrangian": "u1^2/2", "dynamics": ["u1*x1*t"]}
        report, code = run(doc, "--degree", "0", "--poly-degree", "2")
        assert code == 2
        assert report["family"] == []
        assert report["certificate"]["verdict"] == "Inconclusive"
        assert "x1*psi1" in [c["expr"] for c in report["polynomial_family"]]
        assert report["verification"] == {"trajectories": [], "drift": []}

    def test_no_extremal_reports_no_drift(self):
        # ln(t) is singular at t0 = 0, where every extremal starts: each fails
        doc = {"name": "ln-t", "time": "t", "states": ["x1"], "controls": ["u1"],
               "lagrangian": "u1^2/2", "dynamics": ["u1*ln(t)"]}
        report, code = run(doc)
        assert code == 0
        assert report["verification"]["trajectories"] == []
        assert [d["max_drift"] for d in report["verification"]["drift"]] == [None] * 3
        assert "  not verified  psi1" in render_text(report).splitlines()

    def test_degree_five_polynomial_family(self):
        # 3,003 coefficients, solved on the exact block path
        report, code = run("sr-2-3-5", "--poly-degree", "5")
        assert code == 0
        poly = report["polynomial_family"]
        assert len(poly) == 95
        assert all(c["rational"] and c["holdout_residual"] < 1e-8 for c in poly)

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["analyze", "dubins", "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["problem"]["name"] == "dubins"


class TestUserControlLaw:
    def test_valid_supplied_law_is_used(self):
        doc = builtin("dubins")
        doc["control_solution"] = ["psi1*cos(x3) + psi2*sin(x3)", "psi3"]
        report, code = run(doc)
        assert code == 0
        assert report["control_law"] == ["psi1*cos(x3) + psi2*sin(x3)", "psi3"]

    def test_wrong_supplied_law_is_rejected(self, tmp_path, capsys):
        doc = builtin("dubins")
        doc["control_solution"] = ["psi1", "psi3"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error:")
        assert out.err.count("\n") == 1
        assert "violates dH/du1 = 0" in out.err

    def test_positive_k_u_needs_a_law(self, tmp_path, capsys):
        doc = builtin("dubins")
        doc["k_u"] = 1
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 1
        assert "control_solution" in capsys.readouterr().err


class TestProblemsSubcommand:
    def test_list(self, capsys):
        assert main(["problems"]) == 0
        out = capsys.readouterr().out.split()
        assert out == sorted(BUILTIN_NAMES)

    def test_show(self, capsys):
        assert main(["problems", "--show", "sr-2-3-5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["parameters"] == {"alpha": 1, "beta": 1}
        assert doc["dynamics"][0] == "u1"

    def test_show_unknown(self, capsys):
        assert main(["problems", "--show", "nope"]) == 1

    def test_dump(self, tmp_path, capsys):
        assert main(["problems", "--dump", str(tmp_path)]) == 0
        for name in BUILTIN_NAMES:
            assert (tmp_path / f"{name}.json").exists()
