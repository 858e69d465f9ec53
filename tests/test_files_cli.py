import io
import itertools
import json
import math
import random
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import twospec
from twospec import cli, files, fuzz
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

    @pytest.mark.parametrize(
        "doc",
        [
            None,
            "x",
            [1],
            dict(REAL_DOC, weights="abc"),
            dict(REAL_DOC, weights={"coefficients": [1]}),
            dict(REAL_DOC, weights={"coefficients": []}),
        ],
        ids=["null", "string", "array", "weights", "coefficients", "empty_array"],
    )
    def test_non_objects_rejected(self, doc):
        with pytest.raises(twospec.ProblemFormatError):
            files.load_problem(doc)

    def test_bad_inputs_rejected(self):
        with pytest.raises(twospec.ProblemFormatError):
            files.load_problem(dict(REAL_DOC, setting="sphere"))
        with pytest.raises(twospec.ProblemFormatError):
            files.load_problem(dict(REAL_DOC, zn="nope"))
        with pytest.raises(twospec.ProblemFormatError):
            files.load_problem(dict(REAL_DOC, zn=["one", "2", "3"], zm=["3/2"]))
        with pytest.raises(twospec.ProblemFormatError):
            files.load_problem(dict(REAL_DOC, profile="loose"))


class TestProblemDigitCap:
    """Problem values have at most PROBLEM_DIGITS digits in a numerator or a
    denominator; solution values are read whatever their length, but never
    with an exponent of 10^4 or more."""

    @pytest.mark.parametrize(
        "where, value, arithmetic",
        [
            ("zm", "7" * 10**6 + "/3", files.RATIONAL),
            ("zm", "3/" + "7" * 10**6, files.RATIONAL),
            ("zm", "1" * 10**6, files.FLOAT64),
            ("zm", "1e9999999", files.RATIONAL),
            ("s1", "7" * 10**6 + "/3", files.RATIONAL),
        ],
        ids=["numerator", "denominator", "float64", "exponent", "coefficient"],
    )
    def test_a_million_digits_are_refused_at_once(self, where, value, arithmetic):
        doc = dict(REAL_DOC, arithmetic=arithmetic)
        if where == "s1":
            doc["weights"] = {"coefficients": {"s1": value}}
        else:
            doc["zm"] = ["3/2", value]
        start = time.perf_counter()
        with pytest.raises(twospec.ProblemFormatError) as info:
            files.load_problem(doc)
        assert time.perf_counter() - start < 0.1
        assert info.value.code == "BAD_PROBLEM"

    @pytest.mark.parametrize(
        "text",
        [
            "1" + "0" * 4300,
            "1e4300",
            "-1/" + "1" + "0" * 4300,
            "0." + "0" * 4299 + "1",
            "1" * 3000 + "." + "1" * 2000,
        ],
        ids=["integer", "exponent", "denominator", "decimal", "integer_and_fraction"],
    )
    def test_4301_digits_are_refused(self, text):
        with pytest.raises(twospec.ProblemFormatError):
            files.parse_real_value(text, files.RATIONAL, problem=True)
        value = files.parse_real_value(text, files.RATIONAL)  # as solutions are read
        assert max(abs(value.numerator), value.denominator) >= 10**4300

    def test_4300_digits_are_read(self):
        top = "9" * 4300
        for text, value in (
            (f"-{top}/{top[:-1]}8", F(-int(top), int(top) - 1)),
            ("1e4299", F(10**4299)),
            ("0." + "0" * 4298 + "1", F(1, 10**4299)),
        ):
            assert files.parse_real_value(text, files.RATIONAL, problem=True) == value

    def test_circle_values_are_capped(self):
        for value in ('"1e99999 pi"', '{"re": "1' + "0" * 5000 + '", "im": 0}'):
            with pytest.raises(twospec.ProblemFormatError):
                files.load_problem(files.loads_document(circle_text(value)))


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

    @pytest.mark.parametrize(
        "doc",
        [
            REAL_DOC,
            dict(REAL_DOC, arithmetic="float64", weights={"strategy": "sum_all"}),
            CIRCLE_DOC,
        ],
        ids=["rational", "float64_sum_all", "circle"],
    )
    def test_text_round_trip(self, doc):
        # decode -> encode restores the text, derived polynomials and rho included
        problem = files.load_problem(doc)
        solution = twospec.reconstruct(problem.pair, problem.selection, problem.profile)
        text = files.dumps_canonical(files.encode_solution(solution, problem))
        back = files.decode_solution(files.loads_document(text))
        assert files.dumps_canonical(files.encode_solution(back, problem)) == text

    def test_float_cover_text_round_trip_without_polynomials(self):
        pair = fuzz.random_real_instance(random.Random(1), 60, 20)
        problem = files.load_problem(_float_cover_doc(pair))
        solution = twospec.reconstruct(problem.pair, problem.selection, problem.profile)
        text = files.dumps_canonical(files.encode_solution(solution, problem))
        doc = json.loads(text)
        assert doc["polynomials"] is None
        assert len(doc["circuits"]) == pair.n
        for c in doc["circuits"]:
            assert sorted(c) == ["entries", "support"]
            assert len(c["support"]) == len(c["entries"]) == pair.m + 1
        back = files.decode_solution(files.loads_document(text))
        assert back == solution
        assert files.dumps_canonical(files.encode_solution(back, problem)) == text

    @pytest.mark.parametrize("n", [43, 44])
    def test_polynomials_are_listed_up_to_list_limit_coefficients(self, n):
        # P_0..P_n hold (n+1)(n+2)/2 coefficients: 990 at n = 43, 1035 at n = 44
        pair = fuzz.random_real_instance(random.Random(n), n, 10)
        problem = files.load_problem(_float_cover_doc(pair))
        solution = twospec.reconstruct(problem.pair, problem.selection, problem.profile)
        polys = written(files.encode_solution(solution, problem))["polynomials"]
        if n == 43:
            assert polys == [list(p.coeffs) for p in solution.jacobi.polys]
        else:
            assert polys is None

    def test_dense_weights_view(self):
        # the length-n vector with zeros of the pair's field off the support
        problem = files.load_problem(REAL_DOC)
        solution = reconstruct_real(problem.pair, problem.selection, problem.profile)
        dense = solution.weight.circuits[0].weights
        assert dense == (F(4, 15), F(2, 3), F(0), F(2, 15))
        assert all(type(w) is F for w in dense)
        pair = fuzz.random_real_instance(random.Random(2), 12, 4)
        problem = files.load_problem(_float_cover_doc(pair))
        solution = reconstruct_real(problem.pair, problem.selection, problem.profile)
        xs = pair.xs
        for vec in solution.weight.circuits:
            want = [0.0] * pair.n
            for j in vec.support:
                pm = math.prod([xs[j - 1] - y for y in pair.ys])
                others = [xs[j - 1] - xs[i - 1] for i in vec.support if i != j]
                want[j - 1] = 1 / math.prod(others, start=pm)
            if sum(want[j - 1] < 0 for j in vec.support) * 2 > len(vec.support):
                want = [-w for w in want]
            assert vec.weights == tuple(want)
            assert all(type(w) is float for w in vec.weights)

    def test_dump_is_byte_stable(self):
        problem = files.load_problem(REAL_DOC)
        solution = reconstruct_real(problem.pair, problem.selection, problem.profile)
        a = files.dumps_canonical(files.encode_solution(solution, problem))
        solution2 = reconstruct_real(problem.pair, problem.selection, problem.profile)
        b = files.dumps_canonical(files.encode_solution(solution2, problem))
        assert a == b


class TestValueCodec:
    def test_the_type_fixes_the_form(self):
        value = (F(3, 2), 2.5, 7, None, 1 - 2j, [F(-1), 0.0], ((1, 2), (3,)))
        assert written(value) == [
            "3/2", 2.5, 7, None, {"re": 1.0, "im": -2.0}, ["-1", 0.0], [[1, 2], [3]]
        ]

    def test_bools_and_fractions_among_floats_keep_their_form(self):
        assert written((1.0, True, F(1, 3))) == [1.0, True, "1/3"]

    def test_rationals_past_the_digit_limit_round_trip(self):
        limit = sys.get_int_max_str_digits()
        value = (F(10**4400 + 1, 3), F(-(7**6000), 10**4500 + 3))
        text = files.dumps_canonical(value)
        for load in (json.loads, files.loads_document):
            assert files.decode_value(load(text), files.RATIONAL) == value
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize(
        "text, arithmetic",
        [
            ("1" * 5000 + ".5", files.RATIONAL),
            ("1" * 5000 + "/0", files.RATIONAL),
            ("1" * 5000, files.FLOAT64),
        ],
        ids=["decimal", "zero_denominator", "float64_overflow"],
    )
    def test_huge_number_strings_are_bad_problems(self, text, arithmetic):
        with pytest.raises(twospec.ProblemFormatError):
            files.parse_real_value(text, arithmetic)

    @pytest.mark.parametrize(
        "value, arithmetic",
        [
            ((F(3, 2), (F(-1), F(0)), None), files.RATIONAL),
            ((0.1, (1e-320, -2.5), None), files.FLOAT64),
            (((1 + 0.5j, -0.25j), (2.0, 3.0)), files.FLOAT64),
        ],
        ids=["rational", "float64", "complex"],
    )
    def test_decode_inverts_encode(self, value, arithmetic):
        text = files.dumps_canonical(value)
        for load in (json.loads, files.loads_document):
            back = files.decode_value(load(text), arithmetic)
            assert back == value
            assert [type(v) for v in back] == [type(v) for v in value]

    def test_exact_circuit_zeros_are_rational(self):
        problem = files.load_problem(REAL_DOC)
        solution = reconstruct_real(problem.pair, problem.selection, problem.profile)
        weights = [w for c in solution.weight.circuits for w in c.weights]
        assert 0 in weights
        assert all(type(w) is F for w in weights)
        circuits = written(files.encode_circuits(solution.weight.circuits))
        assert circuits[0] == {"support": [1, 2, 4], "entries": ["4/15", "2/3", "2/15"]}


def _float_cover_doc(pair):
    return dict(
        REAL_DOC,
        arithmetic="float64",
        zn=list(pair.xs),
        zm=list(pair.ys),
        weights={"strategy": "cover"},
        profile="standard",
    )


def reference_dumps(value):
    """The definition of the canonical text."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


def reference_encode(value):
    """The JSON form of a result value, by its type: a Fraction is its str()
    text, a complex number an {"re", "im"} object, a tuple or list an array
    and a dict an object of encoded entries; anything else is as it is."""
    if isinstance(value, F):
        return str(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (tuple, list)):
        return [reference_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: reference_encode(v) for k, v in value.items()}
    return value


def written(value):
    """value as the canonical text writes it, read back by json.loads."""
    return json.loads(files.dumps_canonical(value))


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
# raw newlines, quotes, escapes, template and bracket characters, NUL, non-ASCII
TRICKY_TEXT = st.text(st.sampled_from('\n"\\%{[\x00 a,:é€\u2028😀'), max_size=5)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
    st.floats(),
    TRICKY_TEXT,
)
SAME_KEY_ROWS = st.lists(TRICKY_TEXT, min_size=1, max_size=3, unique=True).flatmap(
    lambda keys: st.lists(
        st.fixed_dictionaries({k: SCALARS for k in keys}), min_size=1, max_size=4
    )
)
VALUES = st.recursive(
    SCALARS | SAME_KEY_ROWS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),  # ragged rows, rows of mixed kinds
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TRICKY_TEXT, children, max_size=4),
        # objects that differ in keys or hold non-scalars
        st.lists(st.dictionaries(TRICKY_TEXT, children, max_size=3), max_size=3),
    ),
    max_leaves=24,
)


class TestCanonicalWriter:
    @given(VALUES)
    @settings(max_examples=200, deadline=None)
    def test_equals_the_reference(self, value):
        assert files.dumps_canonical(value) == reference_dumps(value)

    @pytest.mark.parametrize(
        "value",
        [
            [],
            {},
            ((), [{}], {"a": ()}),
            [{1: [1], 2: [2]}, {2.5: [3]}, {math.nan: [4]}, {True: [5]}, {None: [6]}],
            [{"a": 1, "b": 2}, {"b": 3, "a": 4}],  # same keys, another order
            [{"a": 1}, {"a": 2, "b": 3}],
            [{"%s": "%d", "{": "%"}, {"%s": "[", "{": None}],
            [{"re": 1.0, "im": [2.0]}, {"re": 3.0, "im": 4.0}],
            [[{"im": -0.0, "re": math.nan}] * 3, [{"im": math.inf, "re": 2**70}]],
        ],
    )
    def test_edge_cases(self, value):
        assert files.dumps_canonical(value) == reference_dumps(value)

    def test_without_the_c_encoder(self, monkeypatch):
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        value = {"c": [{"im": -0.0, "re": 1.0}] * 2, "d": ("%", None), "e": [2**70]}
        assert files.dumps_canonical(value) == reference_dumps(value)

    @pytest.mark.parametrize(
        "name, arithmetic",
        [
            ("real_small.json", files.RATIONAL),
            ("real_small.json", files.FLOAT64),
            ("large_real.json", files.RATIONAL),
            ("large_real.json", files.FLOAT64),
            ("circle_small.json", files.FLOAT64),
        ],
    )
    def test_problem_documents(self, name, arithmetic):
        doc = dict(json.loads((PROBLEMS / name).read_text()), arithmetic=arithmetic)
        problem = files.load_problem(doc)
        solution = twospec.reconstruct(problem.pair, problem.selection, problem.profile)
        value = files.encode_solution(solution, problem)
        assert files.dumps_canonical(value) == reference_dumps(reference_encode(value))

    def test_circle_instance_document(self):
        pair = fuzz.random_circle_instance(random.Random(1), 40, 12)
        problem = files.Problem(
            "circle", files.FLOAT64, pair, twospec.WeightSelection(), twospec.STANDARD
        )
        solution = reconstruct_circle(pair)
        value = files.encode_solution(solution, problem)
        assert files.dumps_canonical(value) == reference_dumps(reference_encode(value))

    @pytest.mark.parametrize(
        "value", [{1, 2}, Decimal("0.5"), object()], ids=["set", "decimal", "object"]
    )
    def test_other_types_are_a_type_error(self, value):
        with pytest.raises(TypeError):
            files.dumps_canonical({"a": [value]})

    def test_cyclic_input_is_a_recursion_error(self):
        cyclic = []
        cyclic.append(cyclic)
        with pytest.raises(RecursionError):
            files.dumps_canonical(cyclic)

    def test_check_output_bytes(self, capsys):
        assert cli.main(["check", "-i", str(PROBLEMS / "real_small.json")]) == 0
        assert capsys.readouterr().out == (
            '{"accepted":true,"bands":[[1],[2,3],[4]],"command":"check",'
            '"indices":[0,1,3,4],"schema":"v1","setting":"real"}\n'
        )

    @pytest.mark.parametrize(
        "name, arithmetic",
        [
            ("real_small.json", files.RATIONAL),
            ("real_small.json", files.FLOAT64),
            ("large_real.json", files.RATIONAL),
            ("large_real.json", files.FLOAT64),
            ("circle_small.json", files.FLOAT64),
        ],
    )
    def test_indenting_the_text_gives_the_indented_document(self, name, arithmetic):
        # the compact text holds every value: indenting it again gives the
        # indent=2 text of the reference-encoded document
        doc = dict(json.loads((PROBLEMS / name).read_text()), arithmetic=arithmetic)
        problem = files.load_problem(doc)
        solution = twospec.reconstruct(problem.pair, problem.selection, problem.profile)
        value = files.encode_solution(solution, problem)
        text = files.dumps_canonical(value)

        def indented(doc):
            return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

        assert indented(json.loads(text)) == indented(reference_encode(value))


def run_cli(tmp_path, doc, *argv):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    code = cli.main([*argv, "-i", str(path), "-o", str(out)])
    return code, out.read_text()


def real_text(zn="1, 2, 3", zm="1.5", extra=""):
    return (
        '{"schema": "v1", "setting": "real", "arithmetic": "float64", '
        f'"zn": [{zn}], "zm": [{zm}]{extra}}}'
    )


def circle_text(first):
    return f'{{"schema": "v1", "setting": "circle", "zn": [{first}, 1, 2], "zm": [0.5]}}'


# Problem documents holding numbers that are not finite or do not fit binary64.
BAD_NUMBERS = {
    "real_zn_1e400": (["reconstruct"], real_text(zn="1, 2, 1e400")),
    "real_zm_1e400": (["reconstruct"], real_text(zm="1e400")),
    "real_zn_nan": (["reconstruct"], real_text(zn="1, 2, NaN")),
    "real_s1_1e400": (
        ["reconstruct"],
        real_text(extra=', "weights": {"coefficients": {"s1": 1e400}}'),
    ),
    "circle_angle_1e400": (["check"], circle_text('"1e400"')),
    "circle_angle_1e400_pi": (["check"], circle_text('"1e400 pi"')),
    "circle_angle_400_digits": (["check"], circle_text("1" + "0" * 400)),
    "circle_angle_5000_digits": (["check"], circle_text("1" * 5000)),
    "circle_nan_literal": (["check"], circle_text("NaN")),
    "circle_infinity_literal": (["check"], circle_text("-Infinity")),
    "circle_nan_point": (["check"], circle_text('{"re": "nan", "im": 0}')),
    "circle_1e400_point": (["check"], circle_text('{"re": 1e400, "im": 0}')),
    "profile_inf": (["reconstruct", "--profile", "inf"], real_text()),
    "profile_nan": (["reconstruct", "--profile", "nan"], real_text()),
    "profile_negative": (["reconstruct", "--profile=-1e-8"], real_text()),
    "profile_nan_literal": (["reconstruct"], real_text(extra=', "profile": NaN')),
    "fuzz_profile_inf": (
        "fuzz --setting real --n 4 --m 1 --count 1 --profile inf".split(),
        None,
    ),
}


LIST_COEFFICIENTS = real_text(extra=', "weights": {"coefficients": [1]}')


def assert_coded_error(capsys, code, expected):
    """Exit 3 with the error document on stdout and nothing on stderr."""
    out, err = capsys.readouterr()
    assert (code, err) == (3, "")
    assert json.loads(out)["error"]["code"] == expected


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

    def test_param_selects_coefficients_over_the_file_strategy(self, tmp_path):
        doc = dict(REAL_DOC, weights={"strategy": "sum_all"})
        code, text = run_cli(tmp_path, doc, "reconstruct", "--param", "s1=3")
        doc = json.loads(text)
        assert code == 0
        assert doc["problem"]["weights"]["strategy"] == "coefficients"
        assert doc["omega"] == ["2/3", "2/3", "2", "14/15"]

    @pytest.mark.parametrize("strategy", ["sum_all", "cover"])
    def test_param_under_another_strategy_exit_3(self, tmp_path, capsys, strategy):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(REAL_DOC))
        argv = ["reconstruct", "-i", str(path), "--strategy", strategy]
        code = cli.main([*argv, "--param", "s1=3"])
        assert_coded_error(capsys, code, "BAD_PROBLEM")

    def test_coefficients_in_the_file_select_their_strategy(self, tmp_path):
        doc = json.loads((PROBLEMS / "real_small.json").read_text())
        doc["weights"] = {"coefficients": {"s1": "3"}}
        code, text = run_cli(tmp_path, doc, "reconstruct")
        out = json.loads(text)
        assert code == 0
        assert out["problem"]["weights"]["strategy"] == "coefficients"
        assert out["omega"] == ["2/3", "2/3", "2", "14/15"]

    def test_coefficients_under_sum_all_in_the_file_exit_3(self, tmp_path, capsys):
        weights = {"strategy": "sum_all", "coefficients": {"s1": "3"}}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(dict(REAL_DOC, weights=weights)))
        code = cli.main(["reconstruct", "-i", str(path)])
        assert_coded_error(capsys, code, "BAD_PROBLEM")

    def test_fuzz_param_exit_3(self, capsys):
        argv = "fuzz --setting real --n 4 --m 1 --count 1 --param s1=3".split()
        assert_coded_error(capsys, cli.main(argv), "BAD_PROBLEM")

    @pytest.mark.parametrize(
        "flags", ["--arithmetic rational", "-i x.json", "--emit-mathematica"]
    )
    def test_fuzz_problem_flags_exit_3(self, capsys, flags):
        # fuzz draws its own instances: a problem-file flag is a usage error
        argv = f"fuzz --setting real --n 4 --m 1 --count 1 {flags}".split()
        assert_coded_error(capsys, cli.main(argv), "BAD_PROBLEM")

    @pytest.mark.parametrize(
        "doc, code",
        [
            (dict(REAL_DOC, zn=["1", "2", "2", "4"]), "NOT_SORTED"),
            (dict(CIRCLE_DOC, zn=["1/2 pi", "1/2 pi", "5/3 pi"]), "DEGENERATE_ANGLE"),
        ],
        ids=["real", "circle"],
    )
    @pytest.mark.parametrize("command", ["check", "reconstruct"])
    def test_coincident_points_rejected_exit_2(self, tmp_path, doc, code, command):
        exit_code, text = run_cli(tmp_path, doc, command)
        out = json.loads(text)
        assert exit_code == 2
        assert (out["accepted"], out["code"]) == (False, code)

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
        assert doc["circuits"][0]["entries"] == ["4/15", "2/3", "2/15"]

    def test_circuits_of_the_example_problem_are_sparse(self, capsys):
        code = cli.main(["circuits", "-i", str(PROBLEMS / "real_small.json")])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["circuits"][0] == {"support": [1, 2, 4], "entries": ["4/15", "2/3", "2/15"]}

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

    def test_run_fuzz_returns_the_document_body(self, tmp_path):
        out = tmp_path / "fuzz.json"
        argv = "fuzz --setting real --n 8 --m 3 --count 6 --seed 1 --profile 1e-14"
        assert cli.main([*argv.split(), "-o", str(out)]) == 4
        doc = json.loads(out.read_text())
        body = fuzz.run_fuzz("real", 8, 3, 6, 1, files.parse_profile("1e-14"))
        assert written(body) == {k: v for k, v in doc.items() if k not in ("schema", "command")}
        assert 0 < body["failed"] < body["count"]
        assert body["passed"] + body["failed"] == body["count"]
        assert [set(f) for f in body["failures"]] == [{"index", "seed", "code", "detail"}]

    @pytest.mark.parametrize("strategy", ["sum_all", "cover"])
    def test_underflowing_weight_exit_3(self, tmp_path, strategy):
        pair = fuzz.random_real_instance(
            random.Random(1), 120, 60, lo=-1000.0, hi=1000.0
        )
        doc = {
            "schema": "v1",
            "setting": "real",
            "arithmetic": "float64",
            "zn": list(pair.xs),
            "zm": list(pair.ys),
        }
        code, text = run_cli(tmp_path, doc, "reconstruct", "--strategy", strategy)
        assert code == 3
        assert json.loads(text)["error"]["code"] == "NONPOSITIVE_WEIGHT"

    @pytest.mark.parametrize("strategy", ["sum_all", "cover"])
    def test_underflowing_pm_exit_3(self, tmp_path, strategy):
        # the pair interlaces, so check accepts it; P_m(x_0) underflows
        pair = fuzz.random_real_instance(
            random.Random(1), 200, 150, lo=0.0, hi=0.01, min_gap=1e-7
        )
        doc = {
            "schema": "v1",
            "setting": "real",
            "arithmetic": "float64",
            "zn": list(pair.xs),
            "zm": list(pair.ys),
        }
        assert run_cli(tmp_path, doc, "check")[0] == 0
        code, text = run_cli(tmp_path, doc, "reconstruct", "--strategy", strategy)
        assert code == 3
        assert json.loads(text)["error"]["code"] == "NONPOSITIVE_WEIGHT"

    def test_fuzz_sum_all_family_of_millions(self, tmp_path):
        # n=60, m=30: 3,317,760 admissible circuits under the default sum_all
        out = tmp_path / "fuzz.json"
        code = cli.main(
            "fuzz --setting real --n 60 --m 30 --count 2 --seed 7".split()
            + ["-o", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["passed"] == 2

    def test_missing_input_exit_3(self, tmp_path, capsys):
        code = cli.main(["check"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "BAD_PROBLEM"

    @pytest.mark.parametrize("argv, text", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
    def test_bad_number_exit_3(self, tmp_path, capsys, argv, text):
        if text is not None:
            path = tmp_path / "problem.json"
            path.write_text(text)
            argv = [*argv, "-i", str(path)]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 3
        assert json.loads(out)["error"]["code"] == "BAD_PROBLEM"
        assert "NaN" not in out and "Infinity" not in out
        assert err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            "--setting real --n 5 --m 0",
            "--setting real --n 3 --m 5",
            "--setting real --n 300 --m 5",  # 300 nodes 0.1 apart overflow [-10, 10]
            "--setting circle --n 700 --m 2",  # 2*pi/700 is below the 1e-2 gap
            "--setting real --n 5 --m 2 --count -1",
        ],
    )
    def test_fuzz_size_that_cannot_be_drawn_exit_3(self, capsys, argv):
        start = time.perf_counter()
        code = cli.main(["fuzz", *argv.split()])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 3
        assert json.loads(out)["error"]["code"] == "BAD_PROBLEM"
        assert err == ""
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            "reconstruct --strategy foo",
            "fuzz --setting real --n 5 --m 2 --count x",
            "",
        ],
        ids=["bad_choice", "bad_int", "no_command"],
    )
    def test_usage_error_exit_3(self, capsys, argv):
        assert_coded_error(capsys, cli.main(argv.split()), "BAD_PROBLEM")

    @pytest.mark.parametrize("argv", ["--help", "-h", "reconstruct --help"])
    def test_help_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv.split())
        out, err = capsys.readouterr()
        assert (info.value.code, err) == (0, "")
        assert out.startswith("usage: twospec")

    def test_parameter_outside_family_exit_3(self, tmp_path):
        code, text = run_cli(tmp_path, REAL_DOC, "reconstruct", "--param", "s2=1")
        assert code == 3
        assert json.loads(text)["error"]["code"] == "BAD_PROBLEM"

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

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("null", []),
            ('"x"', []),
            ("[1]", []),
            (real_text(extra=', "weights": "abc"'), ["--strategy", "cover"]),
            (LIST_COEFFICIENTS, []),
            (LIST_COEFFICIENTS, ["--param", "s1=2"]),
        ],
        ids=["null", "string", "array", "weights_string", "coefficients", "param"],
    )
    def test_malformed_problem_exit_3(self, tmp_path, capsys, text, argv):
        path = tmp_path / "problem.json"
        path.write_text(text)
        code = cli.main(["reconstruct", "-i", str(path), *argv])
        assert_coded_error(capsys, code, "BAD_PROBLEM")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_problem_exit_3(self, tmp_path, capsys, monkeypatch, source):
        data = real_text(extra=', "note": "\xff"').encode("latin-1")
        path = tmp_path / "problem.json"
        path.write_bytes(data)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code = cli.main(["check", "-i", str(path) if source == "file" else "-"])
        assert_coded_error(capsys, code, "BAD_PROBLEM")

    @pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["no_dir", "a_dir"])
    def test_unwritable_output_exit_3(self, tmp_path, capsys, target):
        argv = ["reconstruct", "-i", str(PROBLEMS / "real_small.json")]
        code = cli.main([*argv, "-o", str(tmp_path / target)])
        assert_coded_error(capsys, code, "BAD_OUTPUT")

    def test_emit_mathematica_circle_is_an_error(self, tmp_path):
        code, text = run_cli(tmp_path, CIRCLE_DOC, "check", "--emit-mathematica")
        assert code == 3


class TestVerificationOutput:
    def test_rational_past_digit_limit_is_written(self, tmp_path):
        assert files.encode_real(F(10**4400 + 1, 3)) == "1" + "0" * 4399 + "1/3"
        # a zero of 1,000 digits over 1,000 gives a solution with rationals
        # past the 4,300-digit limit: it is written and read back, and the
        # process-wide limit stays as it was
        limit = sys.get_int_max_str_digits()
        doc = dict(REAL_DOC, zm=["3/2", "7" + "0" * 998 + "1/2" + "0" * 999])
        code, text = run_cli(tmp_path, doc, "reconstruct")
        assert code == 0
        assert re.search("[0-9]{4301}", text)
        solution = files.decode_solution(files.loads_document(text))
        problem = files.load_problem(doc)
        assert files.dumps_canonical(files.encode_solution(solution, problem)) == text
        assert sys.get_int_max_str_digits() == limit

    def test_exact_n90_document_round_trips(self, tmp_path):
        # short problem values, a solution with rationals of thousands of
        # digits: the problem cap leaves the solution readable
        doc = dict(REAL_DOC, zn=list(range(1, 180, 2)), zm=list(range(2, 101, 2)))
        code, text = run_cli(tmp_path, doc, "reconstruct")
        assert code == 0
        assert re.search(f"[0-9]{{{files.PROBLEM_DIGITS + 1}}}", text)
        solution = files.decode_solution(files.loads_document(text))
        assert solution.report.verdict
        problem = files.load_problem(doc)
        assert files.dumps_canonical(files.encode_solution(solution, problem)) == text

    def test_non_finite_residual_is_written_as_null(self):
        # n=500: the coefficient match overflows to NaN, the spectrum
        # residuals stay near 1e-12
        pair = fuzz.random_real_instance(random.Random(1), 500, 125, min_gap=0.01)
        selection = twospec.WeightSelection(strategy="cover")
        solution = twospec.reconstruct_real(pair, selection)
        problem = files.Problem("real", files.FLOAT64, pair, selection, twospec.STANDARD)
        text = files.dumps_canonical(files.encode_solution(solution, problem)["verification"])

        def refuse(token):
            raise ValueError(f"non-finite token {token}")

        doc = json.loads(text, parse_constant=refuse)
        assert doc["verdict"] == "pass"
        assert doc["poly_match_n"] is None
        assert 0.0 < doc["spectrum_residual_n"] <= 1e-11

    def test_fuzz_cover_n200_verifies(self, tmp_path):
        out = tmp_path / "fuzz.json"
        code = cli.main(
            "fuzz --setting real --n 200 --m 60 --count 2 --seed 1 --strategy cover".split()
            + ["-o", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["passed"] == 2

    def test_fuzz_failure_detail_names_residuals_over_tolerance(self, tmp_path):
        out = tmp_path / "fuzz.json"
        code = cli.main(
            "fuzz --setting circle --n 6 --m 2 --count 3 --seed 7 --profile 1e-30".split()
            + ["-o", str(out)]
        )
        doc = json.loads(out.read_text())
        assert code == 4
        assert doc["failed"] == 3
        gating = (
            "kernel_residual",
            "spectrum_residual_n",
            "spectrum_residual_m",
            "unitarity_defect",
        )
        for failure in doc["failures"]:
            pair = fuzz.random_circle_instance(fuzz._rng(7, failure["index"]), 6, 2)
            report = twospec.reconstruct_circle(
                pair, profile=twospec.Profile.custom(1e-30)
            ).report
            named = dict(item.split("=") for item in failure["detail"].split(", "))
            assert set(named) == {k for k in gating if getattr(report, k) > 1e-30}
            for key, value in named.items():
                assert float(value) == pytest.approx(getattr(report, key), rel=0.06)


# Solution fields that decode_solution derives instead of reading them.
DERIVED = (
    "moments",
    "polynomials",
    "matrices",
    "recurrence.rho",
    "recurrence.b_n",
    "recurrence.b_m",
    "verdict",
    "bands",
    "admissible",
)


def _solved(doc):
    """(problem, solution, canonical text) of a problem document."""
    problem = files.load_problem(doc)
    solution = twospec.reconstruct(problem.pair, problem.selection, problem.profile)
    return problem, solution, files.dumps_canonical(files.encode_solution(solution, problem))


def _solved_file(name):
    return _solved(json.loads((PROBLEMS / name).read_text()))


def _at(doc, path):
    """The object holding the dotted path's last key, and that key."""
    *parents, key = path.split(".")
    for parent in parents:
        doc = doc[parent]
    return doc, key


def _with(doc, key, **changes):
    """doc with doc[key] updated by changes."""
    return dict(doc, **{key: dict(doc[key], **changes)})


def _with_entry(doc, key, index, value):
    """doc with doc[key][index] set to value."""
    values = list(doc[key])
    values[index] = value
    return dict(doc, **{key: values})


def _with_thetas(doc, order):
    """doc with its thetas picked in the given index order."""
    return _with(doc, "problem", thetas=[doc["problem"]["thetas"][i] for i in order])


def _with_report(doc, **changes):
    return _with(doc, "verification", **changes)


def _with_circuit(doc, **changes):
    """doc with its first circuit updated by changes."""
    return dict(doc, circuits=[dict(doc["circuits"][0], **changes), *doc["circuits"][1:]])


class TestSolutionDecoding:
    """decode_solution reads the pair, omega, the circuits, the recurrence
    coefficients and the report, and derives everything else."""

    @pytest.mark.parametrize("field", DERIVED)
    @pytest.mark.parametrize("name", ["real_small.json", "circle_small.json"])
    def test_derived_fields_are_not_read(self, name, field):
        _, solution, text = _solved_file(name)
        doc = files.loads_document(text)
        holder, key = _at(doc, field)
        holder[key] = "not read"
        assert files.decode_solution(doc) == solution

    @pytest.mark.parametrize("name", ["real_small.json", "circle_small.json"])
    def test_decodes_without_derived_fields(self, name):
        problem, solution, text = _solved_file(name)
        doc = files.loads_document(text)
        for field in DERIVED:
            holder, key = _at(doc, field)
            holder.pop(key, None)
        back = files.decode_solution(doc)
        assert back == solution
        assert files.dumps_canonical(files.encode_solution(back, problem)) == text

    @pytest.mark.parametrize(
        "name, path",
        [
            ("real_small.json", "omega"),
            ("real_small.json", "recurrence.beta"),
            ("circle_small.json", "omega"),
            ("circle_small.json", "recurrence.alpha"),
        ],
    )
    def test_read_fields_are_read(self, name, path):
        _, solution, text = _solved_file(name)
        doc = files.loads_document(text)
        holder, key = _at(doc, path)
        values = list(files.decode_value(holder[key], doc["arithmetic"]))
        values[1] /= 2  # a Fraction stays exact
        holder[key] = written(values)
        assert files.decode_solution(doc) != solution

    def test_written_real_fields_match_the_library(self):
        problem, _, text = _solved_file("real_small.json")
        doc = files.loads_document(text)
        xs, omega = problem.pair.xs, files.decode_value(doc["omega"], files.RATIONAL)
        jacobi = twospec.stieltjes(xs, omega)
        assert doc["moments"] == written(twospec.moments_real(xs, omega))
        assert doc["recurrence"] == written(
            {"beta": jacobi.beta, "gamma": jacobi.gamma}
        )
        assert doc["polynomials"] == written([p.coeffs for p in jacobi.polys])
        matrix = twospec.jacobi_matrix(jacobi)
        assert doc["matrices"] == {"jacobi": written(matrix)}

    def test_written_circle_fields_match_the_library(self):
        problem, _, text = _solved_file("circle_small.json")
        doc = json.loads(text)
        pair = problem.pair
        omega = files.decode_value(doc["omega"], files.FLOAT64)
        moments = twospec.trig_moments(pair.zetas, omega)
        alpha = twospec.verblunsky_from_moments(moments).alpha
        b_n, b_m = twospec.boundary_param(pair.zetas), twospec.boundary_param(pair.xis)
        assert doc["moments"] == written(moments)
        assert doc["recurrence"] == written(
            {
                "alpha": alpha,
                "rho": tuple(math.sqrt(1.0 - abs(a) ** 2) for a in alpha),
                "b_n": b_n,
                "b_m": b_m,
            }
        )
        assert doc["polynomials"] == written(
            {
                "psi_n": twospec.szego_popuc(alpha, b_n, pair.n).coeffs,
                "psi_m": twospec.szego_popuc(alpha, b_m, pair.m).coeffs,
            }
        )
        assert doc["matrices"] == written(
            {
                "c_n": twospec.cmv_matrix(alpha, b_n),
                "c_m": twospec.cmv_matrix(alpha[: pair.m - 1], b_m),
            }
        )

    def test_reconstruct_circle_builds_the_circle_parts(self):
        _, solution, _ = _solved_file("circle_small.json")
        parts = twospec.circle_parts(solution.pair, solution.verblunsky.alpha)
        assert {k: getattr(solution, k) for k in parts} == parts

    def test_non_finite_moments_round_trip(self):
        # n = 400 binary64: 322 of the 800 moments overflow to inf or nan
        pair = fuzz.random_real_instance(random.Random(1), 400, 100, min_gap=0.01)
        problem, solution, text = _solved(_float_cover_doc(pair))
        assert solution.report.verdict
        assert not all(map(math.isfinite, solution.moments))
        for load in (json.loads, files.loads_document):
            back = files.decode_solution(load(text))
            # texts, not objects: nan != nan
            assert files.dumps_canonical(files.encode_solution(back, problem)) == text

    @staticmethod
    def _real_doc():
        return files.loads_document(_solved_file("real_small.json")[2])

    @staticmethod
    def _circle_doc():
        return files.loads_document(_solved_file("circle_small.json")[2])

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda doc: {"schema": "v1"},
            lambda doc: {k: v for k, v in doc.items() if k != "omega"},
            lambda doc: dict(doc, recurrence=dict(doc["recurrence"], beta=5)),
            lambda doc: dict(
                doc,
                circuits=[
                    {"support": c["support"], "weights": c["entries"]}
                    for c in doc["circuits"]
                ],
            ),
            lambda doc: None,
            lambda doc: dict(doc, setting="sphere"),
            lambda doc: dict(doc, arithmetic="decimal"),
            lambda doc: dict(doc, problem=dict(doc["problem"], weights={"strategy": 5})),
            lambda doc: dict(doc, verification=dict(doc["verification"], warnings=5)),
            lambda doc: dict(doc, omega=["-" + w for w in doc["omega"]]),
            lambda doc: dict(doc, omega=doc["omega"][:-1]),
            lambda doc: _with(doc, "recurrence", beta=doc["recurrence"]["beta"][:-1]),
            lambda doc: _with(doc, "recurrence", gamma=doc["recurrence"]["gamma"] + ["1"]),
            lambda doc: _with_circuit(doc, support=[1.0, 2, 4]),
            lambda doc: _with_circuit(doc, support=["1", "2", "4"]),
            lambda doc: _with_circuit(doc, support=[0, 2, 4]),
            lambda doc: _with_circuit(doc, entries=doc["circuits"][0]["entries"][:-1]),
            lambda doc: _with(doc, "problem", zm=["1", "7/2"]),
            lambda doc: _with_entry(doc, "omega", 0, "0"),
            lambda doc: _with_entry(doc, "omega", 1, "-" + doc["omega"][1]),
            lambda doc: _with_report(doc, mode="decimal"),
            lambda doc: _with_report(doc, coefficients_ok="no"),
            lambda doc: _with_report(doc, verdict="maybe"),
            lambda doc: _with_report(doc, profile=7),
            lambda doc: _with_report(doc, kernel_residual="-1"),
            lambda doc: _with_report(doc, tolerance="-1e-10"),
            lambda doc: _with_report(doc, warnings=["made up"]),
        ],
        ids=[
            "schema_only",
            "no_omega",
            "beta_number",
            "dense_circuits",
            "null",
            "setting",
            "arithmetic",
            "strategy",
            "warnings_number",
            "negative_omega",
            "omega_short",
            "beta_short",
            "gamma_long",
            "support_float",
            "support_text",
            "support_zero",
            "entries_short",
            "not_interlacing",
            "omega_zero_entry",
            "omega_negative_entry",
            "report_mode",
            "report_coefficients_ok_text",
            "report_verdict",
            "report_profile_number",
            "report_negative_residual",
            "report_negative_tolerance",
            "report_warning_made_up",
        ],
    )
    def test_malformed_documents_are_bad_problem(self, mangle):
        with pytest.raises(twospec.ProblemFormatError) as info:
            files.decode_solution(mangle(self._real_doc()))
        assert info.value.code == "BAD_PROBLEM"

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda doc: _with(doc, "recurrence", alpha=doc["recurrence"]["alpha"] + [0.0]),
            lambda doc: _with(doc, "recurrence", alpha=doc["recurrence"]["alpha"][:-1]),
            lambda doc: _with(
                doc,
                "recurrence",
                alpha=[{"re": 2.0, "im": 0.0}, *doc["recurrence"]["alpha"][1:]],
            ),
            lambda doc: _with(doc, "problem", thetas=doc["problem"]["thetas"][:-1]),
            lambda doc: _with(doc, "problem", phis=doc["problem"]["phis"] + [6.0]),
            lambda doc: _with_circuit(doc, support=[1, 1]),
            lambda doc: _with_entry(doc, "omega", 0, "0"),
            lambda doc: _with_entry(doc, "omega", 1, "-" + doc["omega"][1]),
            lambda doc: _with(doc, "problem", thetas=[1.0, 4.0, 5.5]),
            lambda doc: _with_thetas(doc, (0, 0, 2)),
            lambda doc: _with_thetas(doc, (1, 0, 2)),
            lambda doc: _with(
                doc, "problem", zn=[{"re": 2, "im": 0}, *doc["problem"]["zn"][1:]]
            ),
            lambda doc: _with_report(doc, warnings=["made up"]),
        ],
        ids=[
            "alpha_long",
            "alpha_short",
            "alpha_out_of_disk",
            "thetas_short",
            "phis_long",
            "support_repeated",
            "omega_zero_entry",
            "omega_negative_entry",
            "thetas_off_the_points",
            "theta_repeated",
            "thetas_swapped",
            "point_off_the_circle",
            "report_warning_made_up",
        ],
    )
    def test_malformed_circle_documents_are_bad_problem(self, mangle):
        with pytest.raises(twospec.ProblemFormatError) as info:
            files.decode_solution(mangle(self._circle_doc()))
        assert info.value.code == "BAD_PROBLEM"

    @pytest.mark.parametrize("arithmetic", [files.RATIONAL, files.FLOAT64])
    def test_huge_exponent_is_refused_at_once(self, arithmetic):
        # the power of ten of 1e999999999 alone has a billion digits
        problem = json.loads((PROBLEMS / "real_small.json").read_text())
        doc = files.loads_document(_solved(dict(problem, arithmetic=arithmetic))[2])
        doc["omega"][0] = "1e999999999"
        start = time.perf_counter()
        with pytest.raises(twospec.ProblemFormatError) as info:
            files.decode_solution(doc)
        assert time.perf_counter() - start < 0.5
        assert info.value.code == "BAD_PROBLEM"
