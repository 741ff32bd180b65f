"""Fixed-seed reports stay byte-identical across changes to the code.

The files under ``data/golden`` hold, without their ``timing:`` line:

- ``verify-<suite>.txt``: ``arl verify --suite <suite> --seed 0 --cases 20``
  for every suite;
- ``cli-<command>-<tower>.txt``: ``normalize``, ``limit``, ``upsilon --h h``
  and ``psi --h h`` on the towers ``zl``, ``noisy`` and ``flat`` of
  ``demos/data/sample.arl.json``, run from the root of the checkout;
- ``verify-<suite>-seed<s>.txt``: ``arl verify --suite <suite> --seed <s>
  --cases 100`` for the six random suites (every suite but ``torsionfree``)
  at seeds 1 and 7.  They take about 17 s, so no test here reads them; the
  "Fixed-seed reports" step of ``.github/workflows/tier1.yml`` regenerates
  each one and diffs it against its file.

A change that alters any other line of a report fails here (or in that
step); regenerate a golden file only for an intended change of output.
"""

from pathlib import Path

import pytest

from arl.cli import main
from arl.suites import SUITES


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "data" / "golden"


def _body(out: str) -> list[str]:
    return [line for line in out.splitlines() if not line.startswith("timing:")]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_report_matches_golden(capsys, suite):
    code = main(["verify", "--suite", suite, "--seed", "0", "--cases", "20"])
    assert code == 0
    assert _body(capsys.readouterr().out) == (GOLDEN / f"verify-{suite}.txt").read_text().splitlines()


@pytest.mark.parametrize("tower", ["zl", "noisy", "flat"])
@pytest.mark.parametrize("command", ["normalize", "limit", "upsilon", "psi"])
def test_cli_report_matches_golden(capsys, monkeypatch, command, tower):
    monkeypatch.chdir(ROOT)
    argv = [command, "--file", "demos/data/sample.arl.json", "--tower", tower]
    if command in ("upsilon", "psi"):
        argv += ["--h", "h"]
    assert main(argv) == 0
    expected = (GOLDEN / f"cli-{command}-{tower}.txt").read_text().splitlines()
    assert _body(capsys.readouterr().out) == expected
