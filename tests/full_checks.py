"""The functor suites' seed-1 reports with every trusted constructor checked.

Routes ``IntMatrix._of``, ``FinAbGroup._of``, ``GroupHom._of`` and
``TowerHom._of`` through their validating public constructors, as the
``full_checks`` fixture of ``tests/test_trusted.py`` does, then runs
``arl verify`` for the upsilon, phi, faithful and comparison suites at seed 1
with 100 cases each.  Each report, without its timing line, must match
``tests/data/golden/verify-<suite>-seed1.txt`` byte for byte: a trusted
derivation that builds an invalid value raises, and one that builds a
different value changes the report.

Not a pytest module (it runs about 400 cases); run it from the root of a
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
from arl.towers import TowerHom

GOLDEN = Path(__file__).parent / "data" / "golden"
SUITES = ("upsilon", "phi", "faithful", "comparison")


def route_trusted_through_validation():
    for cls in (IntMatrix, FinAbGroup, GroupHom, TowerHom):
        cls._of = classmethod(lambda c, *fields: c(*fields))


def report(suite: str) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "--suite", suite, "--seed", "1", "--cases", "100"])
    return code, [line for line in buf.getvalue().splitlines() if not line.startswith("timing:")]


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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
