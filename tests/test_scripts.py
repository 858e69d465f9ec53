import contextlib
import importlib.util
import io
import json
import re
from pathlib import Path

from twospec import cli

ROOT = Path(__file__).resolve().parent.parent


def reconstruct(*argv):
    """Exit code and written document of `twospec reconstruct argv`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["reconstruct", *argv])
    return code, json.loads(out.getvalue())


def test_reconstruct_with_a_coefficient_exits_zero():
    # the 4-node line pair of the quick start with s1 = 3
    code, doc = reconstruct("-i", str(ROOT / "problems" / "real_small.json"), "--param", "s1=3")
    assert code == 0
    assert doc["problem"]["weights"] == {"strategy": "coefficients", "coefficients": {"s1": "3"}}
    assert doc["omega"] == ["2/3", "2/3", "2", "14/15"]
    assert doc["verification"]["verdict"] == "pass"


def test_run_large_instance_float64_exits_zero():
    # the 60-node pair (odd 1..119 against even 2..70, sum_all, profile 1e-6)
    code, doc = reconstruct(
        "-i", str(ROOT / "problems" / "large_real.json"), "--arithmetic", "float64"
    )
    assert code == 0
    assert doc["arithmetic"] == "float64"
    assert doc["verification"]["verdict"] == "pass"


def load_digest():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "scripts" / "output_digest.py"
    )
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_output_digest_cli_cases():
    digest = load_digest()
    lines = digest.cli_cases()
    problems = len(list((ROOT / "problems").glob("*.json")))
    assert len(lines) == problems * len(digest.PROBLEM_RUNS) + len(digest.FUZZ_RUNS)
    assert lines == sorted(lines)
    cases = dict(line.split("\t", 1) for line in lines)
    assert len(cases) == len(lines)
    assert all(re.fullmatch(r"[0-9a-f]{40}\t[0234]", v) for v in cases.values())
    assert cases["cli real_small.json reconstruct"].endswith("\t0")
    # circle problems run in binary64 only
    assert cases["cli circle_small.json circuits --arithmetic rational"].endswith("\t3")
    assert digest.cli_cases() == lines


def test_output_digest_values_ignore_the_format():
    digest = load_digest()
    dense = {
        "omega": ["1", "2", "3"],
        "circuits": [{"support": [1, 3], "weights": ["1/2", "0", "-1/3"]}],
        "polynomials": [["1"], ["-1", "1"]],
        "matrices": {"jacobi": [["1"]]},
    }
    sparse = {
        "omega": ["1", "2", "3"],
        "circuits": [{"support": [1, 3], "entries": ["1/2", "-1/3"]}],
        "polynomials": None,
    }
    reduced = digest.reduce_values(json.dumps(dense))
    assert reduced == digest.reduce_values(json.dumps(sparse))
    assert json.loads(reduced) == {
        "omega": ["1", "2", "3"],
        "circuits": [{"support": [1, 3], "values": ["1/2", "-1/3"]}],
    }
    moved = dict(sparse, omega=["1", "2", "4"])
    assert digest.reduce_values(json.dumps(moved)) != reduced
    assert digest.reduce_values("OPRLFamily[{1, 2}, {3/2}]\n") == "OPRLFamily[{1, 2}, {3/2}]\n"
    # the same cases and exit codes, with other digests where a document
    # holds circuits, polynomials or matrices
    plain, values = digest.cli_cases(), digest.cli_cases(values=True)
    split = [line.split("\t") for line in plain], [line.split("\t") for line in values]
    assert [(c, code) for c, _, code in split[0]] == [(c, code) for c, _, code in split[1]]
    same = {c for (c, a, _), (_, b, _) in zip(*split) if a == b}
    assert "cli real_small.json check" in same
    assert "cli real_small.json reconstruct" not in same


def test_output_digest_bytes_follow_each_digest():
    # the default lines, each digest followed by the length of the written text
    digest = load_digest()
    plain, sized = digest.cli_cases(), digest.cli_cases(sizes=True)
    lengths = {}
    for line, with_size in zip(plain, sized, strict=True):
        case, sha, size, code = with_size.split("\t")
        assert line == "\t".join((case, sha, code))
        lengths[case] = int(size)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["reconstruct", "-i", str(ROOT / "problems" / "real_small.json")])
    assert lengths["cli real_small.json reconstruct"] == len(out.getvalue().encode())
