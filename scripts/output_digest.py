#!/usr/bin/env python3
"""Print a digest of everything the program writes: one tab-separated line
per case, sorted, holding the case name and the SHA-1 of its output text
(or the error code it ended with).

    python3 scripts/output_digest.py SEED

Cases:

* every instance of the four perfbench workloads at SEED, as the text
  load_problem -> reconstruct -> encode_solution -> dumps_canonical;
* ``twospec check``, ``circuits`` and ``reconstruct`` on problems/*.json,
  with and without strategy and arithmetic overrides, each line ending in
  the command's exit code;
* three seeded ``twospec fuzz`` runs, with their exit codes.

Two checkouts write the same bytes on these cases iff their digests at the
same seed are equal: ``diff`` them to see which cases moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from twospec import cli, files  # noqa: E402
from twospec.errors import TwospecError  # noqa: E402
from twospec.pipeline import reconstruct  # noqa: E402

PROBLEM_RUNS = (
    ("check",),
    ("circuits",),
    ("circuits", "--arithmetic", "rational"),
    ("reconstruct",),
    ("reconstruct", "--strategy", "cover"),
    ("reconstruct", "--strategy", "coefficients", "--param", "s1=2"),
    ("reconstruct", "--arithmetic", "float64"),
)
FUZZ_RUNS = (
    ("--setting", "real", "--n", "8", "--m", "3", "--count", "20", "--seed", "1"),
    ("--setting", "real", "--n", "40", "--m", "12", "--count", "4", "--seed", "2",
     "--strategy", "cover"),
    ("--setting", "circle", "--n", "12", "--m", "4", "--count", "20", "--seed", "3"),
)  # fmt: skip


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return f"{_sha1(out.getvalue())}\t{code}"


def cli_cases() -> list:
    """Digest lines of the problems/ and fuzz cases, sorted."""
    lines = []
    for path in sorted((ROOT / "problems").glob("*.json")):
        for run in PROBLEM_RUNS:
            argv = (*run, "-i", str(path))
            lines.append(f"cli {path.name} {' '.join(run)}\t{_run_cli(argv)}")
    for run in FUZZ_RUNS:
        lines.append(f"cli fuzz {' '.join(run)}\t{_run_cli(('fuzz', *run))}")
    return sorted(lines)


def perfbench_cases(seed: int) -> list:
    """Digest lines of every perfbench instance at ``seed``, sorted."""
    from perfbench.workloads import WORKLOADS

    lines = []
    for name, build in WORKLOADS.items():
        for inst in build(seed):
            try:
                problem = files.load_problem(files.loads_document(inst.text))
                solution = reconstruct(problem.pair, problem.selection, problem.profile)
                doc = files.encode_solution(solution, problem)
                value = _sha1(files.dumps_canonical(doc))
            except TwospecError as exc:
                value = exc.code
            lines.append(f"perfbench {name} {seed} {inst.index:03d}\t{value}")
    return sorted(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seed", type=int, help="perfbench workload seed")
    args = parser.parse_args(argv)
    for line in sorted(cli_cases() + perfbench_cases(args.seed)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
