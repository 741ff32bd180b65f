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
  each one and diffs it against its file;
- ``demo-<name>.txt``: the output of ``demos/<name>.py``, run from the root
  of the checkout with ``PYTHONPATH=src``, without its ``timing:`` lines and
  with the checkout path written as ``.``, for the seven demos
  ``01_smith_normal_form`` to ``07_cli_and_verification``.  The "Demos" step
  of ``tier1.yml`` diffs each one; no test here reads them;
- ``cli-towergen-seed1.txt``: ``normalize``, ``limit``, ``upsilon --h`` and
  ``psi --h`` on every tower of the nine files that ``perfbench/towergen.py``
  writes for seed 1 (the eight seeded files and the random-coupling one),
  at the index terms it draws: the commands of the benchmark's
  ``cli-towerfile`` workload, run in-process on files written under a
  temporary directory, whose path is written as ``<dir>``.

A change that alters any other line of a report fails here (or in that
step); regenerate a golden file only for an intended change of output.
"""

import json
import runpy
import sys
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


def test_normalization_and_isomorphism_build_no_kernel_tower(capsys, monkeypatch):
    # the kernel and cokernel certificates are read off the level maps'
    # lattices: with every group kernel and cokernel refused, wherever the
    # library binds them, the reports that normalize and test isomorphisms
    # still match their goldens
    def refuse(f):
        raise AssertionError("a group kernel or cokernel was built")

    for name, module in list(sys.modules.items()):
        if name == "arl" or name.startswith("arl."):
            for attr in ("hom_kernel", "hom_cokernel"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.chdir(ROOT)
    for suite in ("phi", "faithful", "upsilon", "comparison"):
        assert main(["verify", "--suite", suite, "--seed", "0", "--cases", "20"]) == 0
        expected = (GOLDEN / f"verify-{suite}.txt").read_text().splitlines()
        assert _body(capsys.readouterr().out) == expected
    for tower in ("zl", "noisy", "flat"):
        assert main(["normalize", "--file", "demos/data/sample.arl.json", "--tower", tower]) == 0
        expected = (GOLDEN / f"cli-normalize-{tower}.txt").read_text().splitlines()
        assert _body(capsys.readouterr().out) == expected


def test_towergen_reports_match_golden(capsys, tmp_path):
    # run as a script, so that nothing (not even a bytecode cache) is written under perfbench/
    towergen = runpy.run_path(str(ROOT / "perfbench" / "towergen.py"))
    files = [towergen["make_file"](1, index) for index in range(8)]
    files.append(towergen["make_coupled_file"]())
    lines = []
    for index, (data, expect) in enumerate(files):
        path = tmp_path / f"file{index}.arl.json"
        path.write_text(json.dumps(data, indent=1))
        for tower, exp in expect.items():
            base = ["-f", str(path), "-t", tower]
            for argv in (["normalize"] + base, ["limit"] + base,
                         ["upsilon"] + base + ["--h", exp["upsilon_h"]],
                         ["psi"] + base + ["--h", exp["psi_h"]]):
                assert main(argv) == 0
                lines += [line.replace(str(tmp_path), "<dir>")
                          for line in _body(capsys.readouterr().out)]
    assert lines == (GOLDEN / "cli-towergen-seed1.txt").read_text().splitlines()
