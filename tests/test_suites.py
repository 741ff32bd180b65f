from dataclasses import replace

import pytest

from arl import suites
from arl.gen import GenParams
from arl.suites import (
    SUITES,
    default_params,
    parse_report,
    replay_report,
    run_case,
    run_suite,
    shrink_case,
    suite_case_count,
    torsion_grid,
)


class TestRunSuite:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_small_runs_pass(self, suite):
        report = run_suite(suite, seed=11, cases=6)
        assert report.all_pass(), report.body_lines()

    def test_deterministic_bodies(self):
        r1 = run_suite("comparison", seed=5, cases=5)
        r2 = run_suite("comparison", seed=5, cases=5)
        assert r1.body_lines() == r2.body_lines()

    def test_seed_changes_instances(self):
        r1 = run_suite("ml", seed=1, cases=6)
        r2 = run_suite("ml", seed=2, cases=6)
        assert r1.body_lines() != r2.body_lines()

    def test_cases_validated(self):
        with pytest.raises(ValueError):
            run_suite("ml", seed=0, cases=0)
        with pytest.raises(ValueError):
            run_suite("nope", seed=0, cases=5)

    def test_torsionfree_exhaustive_capped(self):
        grid = len(torsion_grid())
        assert suite_case_count("torsionfree", grid + 500) == grid
        assert suite_case_count("torsionfree", 7) == 7


class TestShrinking:
    def test_minimizes_levels_then_size(self, monkeypatch):
        def always_fails(rng, params, index):
            return "fail", {"levels": params.levels}, "synthetic failure"

        monkeypatch.setitem(SUITES, "synthetic", always_fails)
        res = shrink_case("synthetic", seed=0, index=0, params=GenParams(levels=8))
        assert res.outcome == "fail"
        assert "levels=3" in res.witness
        assert "max_exponent=1" in res.witness
        assert res.certificate == {"levels": 3}

    def test_shrinking_respects_recovery(self, monkeypatch):
        # a failure that disappears below 6 levels must keep 6 levels
        def fails_above_five(rng, params, index):
            if params.levels >= 6:
                return "fail", {"levels": params.levels}, "needs six levels"
            return "pass", {}, None

        monkeypatch.setitem(SUITES, "synthetic2", fails_above_five)
        res = shrink_case("synthetic2", seed=0, index=0, params=GenParams(levels=9))
        assert res.outcome == "fail"
        assert "levels=6" in res.witness


class TestReplay:
    def test_roundtrip(self):
        report = run_suite("faithful", seed=3, cases=5)
        parsed = parse_report("\n".join(report.body_lines()))
        assert parsed.suite == "faithful" and parsed.seed == 3
        replayed = replay_report(parsed)
        assert replayed.all_pass()

    def test_mismatch_detected(self):
        report = run_suite("ml", seed=4, cases=3)
        lines = report.body_lines()
        lines = [
            'case 0000: pass {"forged":true}' if line.startswith("case 0000") else line
            for line in lines
        ]
        replayed = replay_report(parse_report("\n".join(lines)))
        assert not replayed.all_pass()

    def test_rejects_non_report(self):
        with pytest.raises(ValueError):
            parse_report("hello world")


def test_default_params_per_suite():
    assert default_params("lemma-kernel").primes == (2, 3, 5)
    assert default_params("torsionfree").primes == (2, 3)
    assert default_params("phi").levels == 8


def test_run_case_captures_crashes(monkeypatch):
    def crashes(rng, params, index):
        raise RuntimeError("boom")

    monkeypatch.setitem(SUITES, "crashy", crashes)
    res = run_case("crashy", seed=0, index=0, params=GenParams())
    assert res.outcome == "fail"
    assert res.certificate == {"error": "RuntimeError"}


def test_comparison_suite_reads_the_library_comparison(monkeypatch):
    # the suite keeps no reading of its own: a comparison that reports a
    # disagreement fails every case, with the readings it was given
    real = suites.comparison_check

    def disagreeing(tower):
        return replace(real(tower), operators_match=False)

    monkeypatch.setattr(suites, "comparison_check", disagreeing)
    report = run_suite("comparison", 0, 3)
    assert report.counts()["fail"] == 3
    for res in report.results:
        assert res.witness.startswith("the two module readings disagree [minimized at")
        assert set(res.certificate) == {"l", "left", "right"}
