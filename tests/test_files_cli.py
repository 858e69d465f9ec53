import itertools
import json
import math
from fractions import Fraction as F

import pytest

import twospec
from twospec import cli, files
from twospec.pipeline import reconstruct_circle, reconstruct_real

REAL_DOC = {
    "schema": "v1",
    "setting": "real",
    "zn": ["1", "2", "3", "4"],
    "zm": ["3/2", "7/2"],
    "arithmetic": "rational",
    "profile": "strict",
}

CIRCLE_DOC = {
    "schema": "v1",
    "setting": "circle",
    "zn": ["1/2 pi", "4/3 pi", "5/3 pi"],
    "zm": ["0 pi", "1 pi"],
    "profile": "strict",
}


class TestProblemParsing:
    def test_rational_strings(self):
        problem = files.load_problem(REAL_DOC)
        assert problem.pair.xs == (1, 2, 3, 4)
        assert problem.pair.ys == (F(3, 2), F(7, 2))
        assert problem.arithmetic == "rational"

    def test_decimal_strings_stay_exact(self):
        doc = dict(REAL_DOC, zn=["0.1", "0.2", "0.3"], zm=["0.15"])
        problem = files.load_problem(doc)
        assert problem.pair.xs == (F(1, 10), F(1, 5), F(3, 10))

    def test_json_numbers_via_loader(self):
        text = json.dumps(dict(REAL_DOC, zn=[1, 2, 3.5, 4], zm=["3/2", "15/4"]))
        problem = files.load_problem(files.loads_document(text))
        assert problem.pair.xs == (1, 2, F(7, 2), 4)

    def test_float64_mode(self):
        doc = dict(REAL_DOC, arithmetic="float64")
        problem = files.load_problem(doc)
        assert problem.pair.xs == (1.0, 2.0, 3.0, 4.0)
        assert isinstance(problem.pair.ys[0], float)

    def test_angle_strings(self):
        problem = files.load_problem(CIRCLE_DOC)
        assert problem.pair.thetas == pytest.approx(
            (math.pi / 2, 4 * math.pi / 3, 5 * math.pi / 3)
        )
        assert problem.pair.phis == pytest.approx((0.0, math.pi))

    def test_point_objects(self):
        doc = dict(
            CIRCLE_DOC,
            zn=[{"re": 0, "im": 1}, "4/3 pi", "5/3 pi"],
            zm=[{"re": 1, "im": 0}, {"re": -1, "im": 0}],
        )
        problem = files.load_problem(doc)
        assert problem.pair.xis == (1 + 0j, -1 + 0j)

    def test_bare_numbers_are_radians(self):
        doc = dict(CIRCLE_DOC, zn=[0.5, 2.0, 4.0], zm=[1.0, 3.0])
        problem = files.load_problem(doc)
        assert problem.pair.phis == (1.0, 3.0)

    def test_circle_rational_rejected(self):
        doc = dict(CIRCLE_DOC, arithmetic="rational")
        with pytest.raises(twospec.UnsupportedArithmeticError):
            files.load_problem(doc)

    def test_weights_coefficients(self):
        doc = dict(
            REAL_DOC,
            weights={"strategy": "coefficients", "coefficients": {"s1": "3"}},
        )
        problem = files.load_problem(doc)
        assert problem.selection.strategy == "coefficients"
        assert problem.selection.coefficients == {1: 3}

    def test_bad_inputs_rejected(self):
        with pytest.raises(twospec.ProblemFormatError):
            files.load_problem(dict(REAL_DOC, setting="sphere"))
        with pytest.raises(twospec.ProblemFormatError):
            files.load_problem(dict(REAL_DOC, zn="nope"))
        with pytest.raises(twospec.ProblemFormatError):
            files.load_problem(dict(REAL_DOC, zn=["one", "2", "3"], zm=["3/2"]))
        with pytest.raises(twospec.ProblemFormatError):
            files.load_problem(dict(REAL_DOC, profile="loose"))


class TestSolutionRoundTrip:
    def test_real_rational(self):
        problem = files.load_problem(REAL_DOC)
        solution = reconstruct_real(problem.pair, problem.selection, problem.profile)
        doc = files.encode_solution(solution, problem)
        text = files.dumps_canonical(doc)
        back = files.decode_solution(files.loads_document(text))
        assert back == solution

    def test_real_float(self):
        problem = files.load_problem(dict(REAL_DOC, arithmetic="float64"))
        solution = reconstruct_real(problem.pair, problem.selection, problem.profile)
        text = files.dumps_canonical(files.encode_solution(solution, problem))
        back = files.decode_solution(files.loads_document(text))
        assert back == solution

    def test_real_float_values_are_numbers(self):
        problem = files.load_problem(dict(REAL_DOC, arithmetic="float64"))
        solution = reconstruct_real(problem.pair, problem.selection, problem.profile)
        doc = json.loads(files.dumps_canonical(files.encode_solution(solution, problem)))

        def leaves(value):
            if isinstance(value, dict):
                for v in value.values():
                    yield from leaves(v)
            elif isinstance(value, list):
                for v in value:
                    yield from leaves(v)
            else:
                yield value

        keys = ("omega", "circuits", "polynomials", "recurrence", "moments", "matrices")
        values = [v for key in keys for v in leaves(doc[key])]
        assert 0.0 in values and 1.0 in values
        assert all(type(v) in (int, float) for v in values)

    def test_circle(self):
        problem = files.load_problem(CIRCLE_DOC)
        solution = reconstruct_circle(
            problem.pair, problem.selection, problem.profile
        )
        text = files.dumps_canonical(files.encode_solution(solution, problem))
        back = files.decode_solution(files.loads_document(text))
        assert back == solution

    def test_dump_is_byte_stable(self):
        problem = files.load_problem(REAL_DOC)
        solution = reconstruct_real(problem.pair, problem.selection, problem.profile)
        a = files.dumps_canonical(files.encode_solution(solution, problem))
        solution2 = reconstruct_real(problem.pair, problem.selection, problem.profile)
        b = files.dumps_canonical(files.encode_solution(solution2, problem))
        assert a == b


def run_cli(tmp_path, doc, *argv):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    code = cli.main([*argv, "-i", str(path), "-o", str(out)])
    return code, out.read_text()


class TestCli:
    def test_check_accepted(self, tmp_path):
        code, text = run_cli(tmp_path, REAL_DOC, "check")
        doc = json.loads(text)
        assert code == 0
        assert doc["accepted"] is True
        assert doc["indices"] == [0, 1, 3, 4]
        assert doc["bands"] == [[1], [2, 3], [4]]

    def test_check_circle_accepted(self, tmp_path):
        code, text = run_cli(tmp_path, CIRCLE_DOC, "check")
        doc = json.loads(text)
        assert code == 0
        assert doc["bands"] == [[1], [2, 3]]

    def test_check_rejected(self, tmp_path):
        bad = dict(REAL_DOC, zn=["1", "2", "3"], zm=["1/4"])
        code, text = run_cli(tmp_path, bad, "check")
        doc = json.loads(text)
        assert code == 2
        assert doc["accepted"] is False
        assert doc["code"] == "OUT_OF_RANGE"

    def test_check_shared_point_circle(self, tmp_path):
        bad = dict(CIRCLE_DOC, zm=["0 pi", "1/2 pi"])
        code, text = run_cli(tmp_path, bad, "check")
        assert code == 2
        assert json.loads(text)["code"] == "SHARED_POINT"

    def test_reconstruct_default(self, tmp_path):
        code, text = run_cli(tmp_path, REAL_DOC, "reconstruct")
        doc = json.loads(text)
        assert code == 0
        assert doc["omega"] == ["2/5", "2/3", "2/3", "2/5"]
        assert doc["admissible"]["size"] == 2
        assert doc["admissible"]["family"] == [[1, 2, 4], [1, 3, 4]]
        assert doc["polynomials"][3] == ["-345/32", "269/16", "-15/2", "1"]
        assert doc["verification"]["verdict"] == "pass"

    def test_reconstruct_with_params(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            REAL_DOC,
            "reconstruct",
            "--strategy",
            "coefficients",
            "--param",
            "s1=3",
        )
        doc = json.loads(text)
        assert code == 0
        assert doc["omega"] == ["2/3", "2/3", "2", "14/15"]
        assert doc["polynomials"][1] == ["-11/4", "1"]
        assert doc["polynomials"][3] == ["-187/16", "18", "-31/4", "1"]

    def test_reconstruct_circle_default(self, tmp_path):
        code, text = run_cli(tmp_path, CIRCLE_DOC, "reconstruct")
        doc = json.loads(text)
        assert code == 0
        alpha = doc["recurrence"]["alpha"]
        assert abs(alpha[0]["re"]) < 1e-10
        assert alpha[1]["re"] == pytest.approx(1 - math.sqrt(3), abs=1e-10)
        assert doc["recurrence"]["b_n"]["im"] == pytest.approx(1.0, abs=1e-10)
        assert doc["recurrence"]["b_m"]["re"] == pytest.approx(1.0, abs=1e-10)
        c_m = doc["matrices"]["c_m"]
        assert c_m[0][1]["re"] == pytest.approx(1.0, abs=1e-12)
        assert c_m[0][0]["re"] == pytest.approx(0.0, abs=1e-12)

    def test_reconstruct_byte_identical(self, tmp_path):
        _, a = run_cli(tmp_path, REAL_DOC, "reconstruct")
        _, b = run_cli(tmp_path, REAL_DOC, "reconstruct")
        assert a == b

    def test_reconstruct_rejected_exit_2(self, tmp_path):
        bad = dict(REAL_DOC, zm=["3/2", "17/10", "7/2"])
        code, text = run_cli(tmp_path, bad, "reconstruct")
        assert code == 2
        assert json.loads(text)["code"] == "GAP_OVERFULL"

    def test_reconstruct_error_exit_3(self, tmp_path):
        bad = dict(CIRCLE_DOC, arithmetic="rational")
        code, text = run_cli(tmp_path, bad, "reconstruct")
        assert code == 3
        assert json.loads(text)["error"]["code"] == "UNSUPPORTED_ARITHMETIC"

    def test_uncovered_coefficients_exit_3(self, tmp_path):
        code, text = run_cli(
            tmp_path, REAL_DOC, "reconstruct", "--strategy", "coefficients"
        )
        assert code == 3
        assert json.loads(text)["error"]["code"] == "NOT_COVERED"

    def test_arithmetic_override(self, tmp_path):
        code, text = run_cli(
            tmp_path, REAL_DOC, "reconstruct", "--arithmetic", "float64"
        )
        doc = json.loads(text)
        assert code == 0
        assert doc["arithmetic"] == "float64"
        assert doc["omega"] == [0.4, 2 / 3, 2 / 3, 0.4]
        assert doc["verification"]["mode"] == "float64"

    def test_circuits_twelve_member_circle_family(self, tmp_path):
        import math as _math

        doc_in = dict(
            CIRCLE_DOC,
            zn=[
                _math.pi / 6,
                _math.pi / 3,
                _math.pi / 2,
                2 * _math.pi / 3,
                5 * _math.pi / 6,
                7 * _math.pi / 6,
                3 * _math.pi / 2,
            ],
            zm=[_math.pi / 12, 7 * _math.pi / 12, 3.0],
        )
        code, text = run_cli(tmp_path, doc_in, "circuits")
        doc = json.loads(text)
        assert code == 0
        assert doc["family_size"] == 12
        assert len(doc["circuits"]) == 12

    def test_reconstruct_verification_failure_exit_4(self, tmp_path):
        code, text = run_cli(
            tmp_path, CIRCLE_DOC, "reconstruct", "--profile", "1e-30"
        )
        assert code == 4
        assert json.loads(text)["verification"]["verdict"] == "fail"

    def test_circuits(self, tmp_path):
        code, text = run_cli(tmp_path, REAL_DOC, "circuits")
        doc = json.loads(text)
        assert code == 0
        assert doc["family_size"] == 2
        assert doc["circuits"][0]["support"] == [1, 2, 4]
        assert doc["circuits"][0]["weights"] == ["4/15", "2/3", "0", "2/15"]

    def test_circuits_above_list_limit(self, tmp_path):
        # eleven two-node bands: 2**11 = 2048 members, above LIST_LIMIT
        doc_in = dict(
            REAL_DOC,
            zn=[str(k) for k in range(1, 23)],
            zm=[f"{2 * k + 1}/2" for k in range(2, 22, 2)],
        )
        code, text = run_cli(tmp_path, doc_in, "circuits")
        doc = json.loads(text)
        assert code == 0
        assert doc["bands"] == [[2 * r + 1, 2 * r + 2] for r in range(11)]
        assert doc["family_size"] == 2048
        assert "circuits" not in doc
        family = sorted(itertools.product(*doc["bands"]))
        assert doc["family_head"] == [list(s) for s in family[:10]]

    def test_circuits_consecutive_degrees(self, tmp_path):
        doc_in = dict(
            REAL_DOC, zn=["0", "1", "2", "3"], zm=["1/2", "3/2", "5/2"]
        )
        code, text = run_cli(tmp_path, doc_in, "circuits")
        assert code == 0
        assert json.loads(text)["family_size"] == 1

    def test_fuzz_real_documented_run(self, tmp_path):
        out = tmp_path / "fuzz.json"
        code = cli.main(
            "fuzz --setting real --n 8 --m 3 --count 200 --seed 7".split()
            + ["-o", str(out)]
        )
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["passed"] == 200
        assert doc["failures"] == []
        assert doc["profile"] == "standard"

    def test_fuzz_circle_documented_run(self, tmp_path):
        out = tmp_path / "fuzz.json"
        code = cli.main(
            "fuzz --setting circle --n 6 --m 2 --count 100 --seed 7".split()
            + ["-o", str(out)]
        )
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["passed"] == 100

    def test_fuzz_smallest_instances(self, tmp_path):
        out = tmp_path / "fuzz.json"
        code = cli.main(
            "fuzz --setting real --n 2 --m 1 --count 5 --seed 3".split()
            + ["-o", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["passed"] == 5

    def test_fuzz_failures_carry_reproduction_seeds(self, tmp_path):
        out = tmp_path / "fuzz.json"
        code = cli.main(
            "fuzz --setting circle --n 5 --m 2 --count 3 --seed 1 --profile 1e-30".split()
            + ["-o", str(out)]
        )
        doc = json.loads(out.read_text())
        assert code == 4
        assert doc["failed"] == 3
        assert [f["seed"] for f in doc["failures"]] == ["1:0", "1:1", "1:2"]

    def test_missing_input_exit_3(self, tmp_path, capsys):
        code = cli.main(["check"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "BAD_PROBLEM"

    def test_emit_mathematica(self, tmp_path):
        code, text = run_cli(tmp_path, REAL_DOC, "reconstruct", "--emit-mathematica")
        assert code == 0
        assert text == "OPRLFamily[{1, 2, 3, 4}, {3/2, 7/2}]\n"

    def test_emit_mathematica_with_params(self, tmp_path):
        doc = dict(
            REAL_DOC,
            weights={"strategy": "coefficients", "coefficients": {"s1": "3"}},
        )
        code, text = run_cli(tmp_path, doc, "reconstruct", "--emit-mathematica")
        assert code == 0
        assert text == "OPRLFamily[{1, 2, 3, 4}, {3/2, 7/2}, {s[1] -> 3}]\n"

    def test_emit_mathematica_circle_is_an_error(self, tmp_path):
        code, text = run_cli(tmp_path, CIRCLE_DOC, "check", "--emit-mathematica")
        assert code == 3
