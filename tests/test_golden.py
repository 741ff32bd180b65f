"""Fixed-seed verify reports stay byte-identical across changes to the code.

The files under ``data/golden`` hold the output of
``arl verify --suite <suite> --seed 0 --cases 20`` for every suite, without
its ``timing:`` line.  A change that alters any other line of a report fails
here; regenerate a golden file only for an intended change of output.
"""

from pathlib import Path

import pytest

from arl.cli import main
from arl.suites import SUITES


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_report_matches_golden(capsys, suite):
    code = main(["verify", "--suite", suite, "--seed", "0", "--cases", "20"])
    out = capsys.readouterr().out
    body = [line for line in out.splitlines() if not line.startswith("timing:")]
    assert code == 0
    assert body == (GOLDEN / f"verify-{suite}.txt").read_text().splitlines()
