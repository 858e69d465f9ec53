#!/usr/bin/env python3
"""Print a digest of everything the program writes: one tab-separated line
per case, sorted, holding the case name and the SHA-1 of its output text
(or the error code it ended with).

    python3 scripts/output_digest.py SEED [--values] [--bytes]

Cases:

* every instance of the four perfbench workloads at SEED, as the text
  load_problem -> reconstruct -> encode_solution -> dumps_canonical;
* ``twospec check``, ``circuits`` and ``reconstruct`` on problems/*.json,
  with and without strategy and arithmetic overrides, each line ending in
  the command's exit code;
* three seeded ``twospec fuzz`` runs, with their exit codes.

Two checkouts write the same bytes on these cases iff their digests at the
same seed are equal: ``diff`` them to see which cases moved.

With ``--values`` each output document is reduced before it is hashed, so
that a change of format alone moves no digest: ``polynomials`` and
``matrices`` are dropped, each circuit becomes its support and its
``entries`` there, and the rest is written again as json.dumps(doc,
sort_keys=True, separators=(",", ":"), ensure_ascii=False) plus a newline,
whatever whitespace the program writes.  Exit and error codes are kept.
Copy the script into another checkout to compare the values two versions
compute.

With ``--bytes`` each digest is followed by a tab and the length in bytes
of the output text as written (0 for a perfbench case that ended with an
error code), so the lengths of two checkouts can be compared and summed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from twospec import cli  # noqa: E402
from twospec.errors import TwospecError  # noqa: E402

PROBLEM_RUNS = (
    ("check",),
    ("circuits",),
    ("circuits", "--arithmetic", "rational"),
    ("reconstruct",),
    ("reconstruct", "--strategy", "cover"),
    ("reconstruct", "--strategy", "coefficients", "--param", "s1=2"),
    ("reconstruct", "--arithmetic", "float64"),
    ("reconstruct", "--arithmetic", "rational"),
)
FUZZ_RUNS = (
    ("--setting", "real", "--n", "8", "--m", "3", "--count", "20", "--seed", "1"),
    ("--setting", "real", "--n", "40", "--m", "12", "--count", "4", "--seed", "2",
     "--strategy", "cover"),
    ("--setting", "circle", "--n", "12", "--m", "4", "--count", "20", "--seed", "3"),
)  # fmt: skip


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _digest(text: str, values=False, sizes=False) -> str:
    """The SHA-1 of the text (reduced with ``values``), and with ``sizes`` a
    tab and the text's length in bytes."""
    digest = _sha1(reduce_values(text) if values else text)
    return f"{digest}\t{len(text.encode())}" if sizes else digest


def reduce_values(text: str) -> str:
    """An output document without its format-only parts (see the module
    docstring), written by the canonical rule but independently of the
    program's writer; a text that is no JSON object is returned as it is."""
    try:
        doc = json.loads(text)
    except ValueError:
        return text
    if not isinstance(doc, dict):
        return text
    doc.pop("polynomials", None)
    doc.pop("matrices", None)
    if doc.get("circuits") is not None:
        doc["circuits"] = [{"support": c["support"], "values": c["entries"]}
                           for c in doc["circuits"]]  # fmt: skip
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


def _run_cli(argv, values=False, sizes=False) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return f"{_digest(out.getvalue(), values, sizes)}\t{code}"


def cli_cases(values=False, sizes=False) -> list:
    """Digest lines of the problems/ and fuzz cases, sorted."""
    lines = []
    for path in sorted((ROOT / "problems").glob("*.json")):
        for run in PROBLEM_RUNS:
            argv = (*run, "-i", str(path))
            lines.append(f"cli {path.name} {' '.join(run)}\t{_run_cli(argv, values, sizes)}")
    for run in FUZZ_RUNS:
        lines.append(f"cli fuzz {' '.join(run)}\t{_run_cli(('fuzz', *run), values, sizes)}")
    return sorted(lines)


def perfbench_cases(seed: int, values=False, sizes=False) -> list:
    """Digest lines of every perfbench instance at ``seed``, each solved by
    the chain the benchmark times, sorted."""
    from perfbench.stages import solve
    from perfbench.workloads import WORKLOADS

    lines = []
    for name, build in WORKLOADS.items():
        for inst in build(seed):
            try:
                value = _digest(solve(inst.text)[2], values, sizes)
            except TwospecError as exc:
                value = f"{exc.code}\t0" if sizes else exc.code
            lines.append(f"perfbench {name} {seed} {inst.index:03d}\t{value}")
    return sorted(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seed", type=int, help="perfbench workload seed")
    parser.add_argument(
        "--values", action="store_true", help="hash the values, not the format"
    )
    parser.add_argument(
        "--bytes", action="store_true", help="print each output's length after its digest"
    )
    args = parser.parse_args(argv)
    lines = cli_cases(args.values, args.bytes) + perfbench_cases(args.seed, args.values, args.bytes)
    for line in sorted(lines):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
