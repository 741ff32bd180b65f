import json

import pytest

from arl.cli import main


@pytest.fixture()
def sample(tmp_path):
    doc = {
        "format": 1,
        "l": 2,
        "symbols": ["h", "d1", "d2"],
        "modules": {"M": "Zl^1"},
        "groups": {
            "A0": {"factors": [2]},
            "A1": {"factors": [4]},
            "A2": {"factors": [8]},
            "A3": {"factors": [16]},
            "A4": {"factors": [32]},
            "A5": {"factors": [64]},
            "B0": {"factors": [2, 2]},
            "B1": {"factors": [2, 4]},
            "B2": {"factors": [2, 8]},
        },
        "homs": {
            "u1": {"source": "A1", "target": "A0", "matrix": [[1]]},
            "u2": {"source": "A2", "target": "A1", "matrix": [[1]]},
            "u3": {"source": "A3", "target": "A2", "matrix": [[1]]},
            "u4": {"source": "A4", "target": "A3", "matrix": [[1]]},
            "u5": {"source": "A5", "target": "A4", "matrix": [[1]]},
            "v1": {"source": "B1", "target": "B0", "matrix": [[1, 0], [0, 1]]},
            "v2": {"source": "B2", "target": "B1", "matrix": [[0, 0], [0, 1]]},
            "v3": {"source": "A3", "target": "B2", "matrix": [[0], [1]]},
        },
        "towers": {
            "zl": {
                "levels": ["A0", "A1", "A2", "A3", "A4", "A5"],
                "maps": ["u1", "u2", "u3", "u4", "u5"],
                "tail": {"kind": "eventually-l-adic", "start": 0, "module": "M"},
            },
            "noisy": {
                "levels": ["B0", "B1", "B2", "A3", "A4", "A5"],
                "maps": ["v1", "v2", "v3", "u4", "u5"],
                "tail": {"kind": "truncated"},
            },
        },
    }
    path = tmp_path / "sample.arl.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNormalize:
    def test_l_adic_echoes_input(self, capsys, sample):
        code, out, _ = run(capsys, "normalize", "--file", sample, "--tower", "zl")
        assert code == 0
        assert "shift: r=0" in out
        assert "level 0: Z/2" in out
        assert "iso-check: yes" in out

    def test_noisy_stripped(self, capsys, sample):
        code, out, _ = run(capsys, "normalize", "--file", sample, "--tower", "noisy")
        assert code == 0
        assert "level 0: Z/2" in out
        assert "ml-bound: s=2" in out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.arl.json"
        bad.write_text('{"format": 1, "l": 2, "groups": {"A": {"factors": [2]}}, '
                       '"homs": {"u": {"source": "A", "target": "A", "matrix": [["x"]]}}}')
        code, _, err = run(capsys, "normalize", "--file", str(bad), "--tower", "T")
        assert code == 2
        assert "row 0 col 0" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "normalize", "--file", "/nonexistent.arl.json", "--tower", "T")
        assert code == 2

    def test_not_normalizable_exit_3(self, capsys, tmp_path):
        doc = {
            "format": 1, "l": 2,
            "groups": {f"G{n}": {"factors": [2 ** (n + 6)]} for n in range(8)},
            "homs": {
                f"m{n}": {"source": f"G{n}", "target": f"G{n - 1}", "matrix": [[2]]}
                for n in range(1, 8)
            },
            "towers": {
                "bad": {
                    "levels": [f"G{n}" for n in range(8)],
                    "maps": [f"m{n}" for n in range(1, 8)],
                    "tail": {"kind": "truncated"},
                }
            },
        }
        path = tmp_path / "bad.arl.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "normalize", "--file", str(path), "--tower", "bad")
        assert code == 3
        assert "not-ar-l-adic: no (images still shrinking at the prefix edge)" in out.splitlines()
        code2, _, err2 = run(capsys, "limit", "--file", str(path), "--tower", "bad")
        assert code2 == 3
        code3, _, err3 = run(capsys, "upsilon", "--file", str(path), "--tower", "bad", "--h", "h")
        assert code3 == 3


    @pytest.mark.parametrize("value", ["-1", "abc"])
    def test_bad_default_bound_exit_2(self, capsys, sample, monkeypatch, value):
        monkeypatch.setenv("ARL_DEFAULT_BOUND", value)
        code, out, err = run(capsys, "normalize", "--file", sample, "--tower", "noisy")
        assert code == 2
        assert "ARL_DEFAULT_BOUND" in err
        assert "not-ar-l-adic" not in out


    @pytest.mark.parametrize("mutate, field", [
        pytest.param(lambda d: d["groups"]["A1"].update(factors=[4.5]),
                     "group 'A1': factor 0", id="float-factor"),
        pytest.param(lambda d: d["groups"]["A1"].update(factors=["4"]),
                     "group 'A1': factor 0", id="string-factor"),
        pytest.param(lambda d: d["groups"]["A1"].update(factors=[None]),
                     "group 'A1': factor 0", id="null-factor"),
        pytest.param(lambda d: d["towers"]["zl"].update(tail={"kind": "zero", "start": None}),
                     "tower 'zl': tail 'start'", id="null-start"),
        pytest.param(lambda d: d["towers"]["zl"]["tail"].update(start=2.9),
                     "tower 'zl': tail 'start'", id="float-start"),
        pytest.param(lambda d: d["towers"]["zl"].update(tail="zero"),
                     "tower 'zl': 'tail' must be an object", id="string-tail"),
        pytest.param(lambda d: d.update(groups=[1]),
                     "'groups' must be an object", id="list-groups"),
    ])
    def test_wrong_json_types_exit_2(self, capsys, sample, mutate, field):
        with open(sample) as fh:
            doc = json.load(fh)
        mutate(doc)
        with open(sample, "w") as fh:
            json.dump(doc, fh)
        code, out, err = run(capsys, "normalize", "--file", sample, "--tower", "zl")
        assert code == 2
        assert field in err
        assert "Traceback" not in err


class TestLimit:
    def test_zl(self, capsys, sample):
        code, out, _ = run(capsys, "limit", "--file", sample, "--tower", "zl")
        assert code == 0
        assert "limit: Zl^1" in out

    def test_noisy(self, capsys, sample):
        code, out, _ = run(capsys, "limit", "--file", sample, "--tower", "noisy")
        assert code == 0
        assert "limit: Zl^1" in out

    def test_huge_tail_rank_exit_2(self, capsys, sample):
        with open(sample) as fh:
            doc = json.load(fh)
        doc["modules"]["M"] = "Zl^100000000000000000000"
        with open(sample, "w") as fh:
            json.dump(doc, fh)
        code, _, err = run(capsys, "limit", "--file", sample, "--tower", "noisy")
        assert code == 2
        assert "tower 'zl': tail does not match level 0" in err


class TestUpsilonPsi:
    def test_symbolic_index(self, capsys, sample):
        code, out, _ = run(capsys, "upsilon", "--file", sample, "--tower", "zl", "--h", "h")
        assert code == 0
        assert "star-index: h-1" in out
        assert "quotient mod l^2: Z/4" in out

    def test_finite_index_exit_4(self, capsys, sample):
        code, _, err = run(capsys, "upsilon", "--file", sample, "--tower", "zl", "--h", "5")
        assert code == 4

    def test_renamed_marker_same_form(self, capsys, sample):
        _, out1, _ = run(capsys, "upsilon", "--file", sample, "--tower", "zl", "--h", "h")
        _, out2, _ = run(capsys, "upsilon", "--file", sample, "--tower", "zl", "--h", "h+d1")
        strip = lambda text: [
            line for line in text.splitlines()
            if line.startswith(("quotient", "star-index", "normalization"))
        ]
        q1 = [l for l in strip(out1) if l.startswith(("quotient", "normalization"))]
        q2 = [l for l in strip(out2) if l.startswith(("quotient", "normalization"))]
        assert q1 == q2

    def test_trailing_blank_in_index_term(self, capsys, sample):
        code1, out1, _ = run(capsys, "upsilon", "--file", sample, "--tower", "noisy", "--h", "h")
        code2, out2, _ = run(capsys, "upsilon", "--file", sample, "--tower", "noisy", "--h", "h ")
        body = lambda text: [line for line in text.splitlines()
                             if not line.startswith(("command:", "timing:"))]
        assert code1 == code2 == 0
        assert body(out1) == body(out2)

    def test_psi(self, capsys, sample):
        code, out, _ = run(capsys, "psi", "--file", sample, "--tower", "noisy", "--h", "h")
        assert code == 0
        assert "level 0: Z/2" in out

    def test_bad_index_syntax_exit_2(self, capsys, sample):
        code, _, _ = run(capsys, "upsilon", "--file", sample, "--tower", "zl", "--h", "h*2")
        assert code == 2

    @pytest.mark.parametrize("term", ["h-d1", "d1-h"])
    def test_negative_index_term_exit_2(self, capsys, sample, term):
        code, _, err = run(capsys, "psi", "--file", sample, "--tower", "zl", "--h", term)
        assert code == 2
        assert "index term" in err and "negative coefficient" in err

    @pytest.mark.parametrize("command", ["upsilon", "psi"])
    def test_undeclared_symbol_exit_4(self, capsys, sample, command):
        code, out, err = run(capsys, command, "--file", sample, "--tower", "zl", "--h", "h+zzz")
        assert code == 4
        assert "'zzz'" in err and "['h', 'd1', 'd2']" in err
        assert out == ""

    def test_non_identifier_symbol_exit_2(self, capsys, sample, tmp_path):
        with open(sample, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["symbols"] = ["h", {"a": 2}]
        path = tmp_path / "bad.arl.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "upsilon", "--file", str(path), "--tower", "zl", "--h", "h")
        assert code == 2
        assert "{'a': 2}" in err


@pytest.mark.parametrize("command", [
    ["normalize"], ["upsilon", "--h", "h"], ["psi", "--h", "h"]])
@pytest.mark.parametrize("levels", ["0", "-2"])
def test_levels_below_one_usage_error(capsys, sample, command, levels):
    code, out, err = run(capsys, command[0], "--file", sample, "--tower", "zl",
                         *command[1:], "--levels", levels)
    assert code == 2
    assert "--levels" in err
    assert out == ""


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "phi", "--seed", "7", "--cases", "5")
        assert code == 0
        assert "summary: pass=5 fail=0 unknown=0" in out

    def test_cases_zero_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "lemma-kernel", "--cases", "0")
        assert code == 2

    def test_unknown_suite_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nope", "--cases", "5")
        assert code == 2

    def test_deterministic_body(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "ml", "--seed", "3", "--cases", "4")
        _, out2, _ = run(capsys, "verify", "--suite", "ml", "--seed", "3", "--cases", "4")
        body = lambda s: [l for l in s.splitlines() if not l.startswith("timing:")]
        assert body(out1) == body(out2)

    def test_replay(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--suite", "faithful", "--seed", "2", "--cases", "4")
        assert code == 0
        path = tmp_path / "report.txt"
        path.write_text(out)
        code2, out2, _ = run(capsys, "verify", "--suite", "faithful", "--replay", str(path))
        assert code2 == 0
        assert "summary: pass=4 fail=0 unknown=0" in out2

    def test_replay_of_another_suite_exit_2(self, capsys, tmp_path):
        _, out, _ = run(capsys, "verify", "--suite", "ml", "--seed", "2", "--cases", "2")
        path = tmp_path / "report.txt"
        path.write_text(out)
        code, out2, err = run(capsys, "verify", "--suite", "phi", "--replay", str(path))
        assert code == 2
        assert "phi" in err and "ml" in err
        assert "summary:" not in out2

    def test_replay_detects_tampering(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--suite", "ml", "--seed", "2", "--cases", "3")
        lines = out.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("case 0000:"):
                lines[i] = 'case 0000: pass {"forged":1}'
                break
        path = tmp_path / "report.txt"
        path.write_text("\n".join(lines))
        code2, out2, _ = run(capsys, "verify", "--suite", "ml", "--replay", str(path))
        assert code2 == 1
        assert "replay mismatch" in out2

    def test_replay_with_other_seed_or_cases_exit_2(self, capsys, tmp_path):
        _, out, _ = run(capsys, "verify", "--suite", "ml", "--seed", "2", "--cases", "2")
        path = tmp_path / "report.txt"
        path.write_text(out)
        for flags, named in ((["--seed", "5"], ("--seed 5", "seed 2")),
                             (["--cases", "7"], ("--cases 7", "cases 2"))):
            code, out2, err = run(capsys, "verify", "--suite", "ml", *flags,
                                  "--replay", str(path))
            assert code == 2
            assert all(text in err for text in named)
            assert "summary:" not in out2

    def test_replay_with_matching_seed_and_cases(self, capsys, tmp_path):
        _, out, _ = run(capsys, "verify", "--suite", "ml", "--seed", "2", "--cases", "2")
        path = tmp_path / "report.txt"
        path.write_text(out)
        code, out2, _ = run(capsys, "verify", "--suite", "ml", "--seed", "2", "--cases", "2",
                            "--replay", str(path))
        assert code == 0
        assert "summary: pass=2 fail=0 unknown=0" in out2

    @pytest.mark.parametrize("value", ["-1", "abc"])
    def test_bad_default_bound_fails_verify_with_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("ARL_DEFAULT_BOUND", value)
        code, out, err = run(capsys, "verify", "--suite", "ml", "--cases", "2")
        assert code == 2
        assert "ARL_DEFAULT_BOUND" in err
        assert "case " not in out


def test_internal_error_exit_70_not_usage(capsys, sample, monkeypatch):
    # a bare ValueError from inside the library is a fault, not a bad input
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr("arl.cli.certify_ar_l_adic", broken)
    code, out, err = run(capsys, "normalize", "--file", sample, "--tower", "zl")
    assert code == 70
    assert "Traceback" in err and "internal fault" in err
    assert "timing:" not in out


def test_timing_line_is_last_and_excluded(capsys):
    code = main(["verify", "--suite", "torsionfree", "--seed", "1", "--cases", "2"])
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1].startswith("timing:")
