"""The functor and kernel-bound suites' seed-1 reports and the torsion grid
with every trusted constructor checked.

Routes ``IntMatrix._of``, ``FinAbGroup._of``, ``GroupHom._of``, ``Tower._of``
and ``TowerHom._of`` through their validating public constructors, as the
``full_checks`` fixture of ``tests/test_trusted.py`` does, then runs
``arl verify`` for the upsilon, phi, faithful, comparison and lemma-kernel
suites at seed 1 with 100 cases each.  Each report, without its timing line, must match
``tests/data/golden/verify-<suite>-seed1.txt`` byte for byte: a trusted
derivation that builds an invalid value raises, and one that builds a
different value changes the report.  It also runs the 1,800-case
``torsionfree`` grid at seed 0, which must exit 0 with every case passing
and whose first 20 case lines must match ``verify-torsionfree.txt``.

Not a pytest module (it runs about 2,300 cases); run it from the root of a
checkout:

    PYTHONPATH=src python tests/full_checks.py
"""

import contextlib
import difflib
import io
import sys
from pathlib import Path

from arl.cli import main
from arl.groups import FinAbGroup, GroupHom
from arl.intmat import IntMatrix
from arl.towers import Tower, TowerHom

GOLDEN = Path(__file__).parent / "data" / "golden"
SUITES = ("upsilon", "phi", "faithful", "comparison", "lemma-kernel")


def route_trusted_through_validation():
    for cls in (IntMatrix, FinAbGroup, GroupHom, Tower, TowerHom):
        cls._of = classmethod(lambda c, *fields: c(*fields))


GRID_CASES = 1800


def report(suite: str, seed: int = 1, cases: int = 100) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "--suite", suite, "--seed", str(seed), "--cases", str(cases)])
    return code, [line for line in buf.getvalue().splitlines() if not line.startswith("timing:")]


def grid_failure() -> str:
    """Why the full torsion grid fails under full checks, or "" when it passes."""
    code, lines = report("torsionfree", seed=0, cases=GRID_CASES)
    summary = f"summary: pass={GRID_CASES} fail=0 unknown=0"
    if code != 0 or summary not in lines:
        return f"exited {code}; " + "; ".join(
            line for line in lines if line.startswith("summary:")
            or (line.startswith("case ") and ": pass " not in line))
    golden = GOLDEN / "verify-torsionfree.txt"
    expected = [line for line in golden.read_text().splitlines() if line.startswith("case ")]
    head = [line for line in lines if line.startswith("case ")][:len(expected)]
    if head != expected:
        return f"its first {len(expected)} case lines differ from {golden.name}"
    return ""


def run() -> int:
    route_trusted_through_validation()
    failed = 0
    for suite in SUITES:
        golden = GOLDEN / f"verify-{suite}-seed1.txt"
        code, lines = report(suite)
        expected = golden.read_text().splitlines()
        if code != 0 or lines != expected:
            failed += 1
            print(f"full checks: {suite} seed 1 exited {code} or differs from {golden.name}")
            sys.stdout.writelines(line + "\n" for line in difflib.unified_diff(
                expected, lines, str(golden), "report", lineterm=""))
        else:
            print(f"full checks: {suite} seed 1 matches {golden.name}")
    why = grid_failure()
    if why:
        failed += 1
        print(f"full checks: torsionfree grid of {GRID_CASES} cases fails: {why}")
    else:
        print(f"full checks: torsionfree grid of {GRID_CASES} cases passes")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
