"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Every tolerance here is exactness: matrix identities hold bit for bit,
canonical forms compare by equality, and no check carries a numeric
epsilon.  Each test prints a single PASS line with its runtime; the stated
budgets are asserted as hard limits.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

from arl.arcat import ar_is_isomorphism, canonical_l_adic, kernel_bound_check, \
    stable_image_bound, stable_image_tower
from arl.gen import (
    GenParams,
    random_ar_l_adic,
    random_armor,
    random_exact_triple,
    random_extension,
    random_l_adic,
    random_prime,
    random_zero_system,
    random_zl_module,
    rng_for,
)
from arl.hypernat import HyperNat
from arl.intmat import IntMatrix, smith_normal_form
from arl.limits import limit, tensor_zl, to_tower
from arl.suites import run_suite, torsion_grid
from arl.towers import is_zero_system
from arl.upsilon import check_right_exact, faithfulness_check, phi_iso, psi, upsilon


H = HyperNat.symbol("h")


def report(name: str, start: float, budget: float):
    elapsed = time.perf_counter() - start
    print(f"PASS {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_acceptance_snf_oracle():
    start = time.perf_counter()
    rng = random.Random(20260809)
    for _ in range(1000):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-10, 10) for _ in range(c)] for _ in range(r)], cols=c)
        u, d, v = smith_normal_form(m)
        assert (u @ m @ v).entries == d.entries
        assert u.det() in (1, -1) and v.det() in (1, -1)
        diag = d.diagonal_values()
        for i, val in enumerate(diag):
            assert val >= 0
            if val and i + 1 < len(diag):
                assert diag[i + 1] % val == 0
    report("snf-oracle-equivalence [1000 matrices]", start, 10)


def test_acceptance_kernel_bound_lemma():
    start = time.perf_counter()
    params = GenParams(levels=8, max_exponent=3, max_torsion_factors=2,
                       max_zero_radius=4, primes=(2, 3, 5))
    checked = 0
    for case in range(200):
        rng = rng_for(1001, case)
        l = random_prime(rng, params)
        g_tower = random_l_adic(rng, l, GenParams(levels=8, max_rank=0,
                                                  max_exponent=3, max_torsion_factors=2))
        n_tower = random_zero_system(rng, l, params, certified_only=False)
        _, incl, proj = random_extension(rng, n_tower, g_tower)
        r = is_zero_system(n_tower).certificate.radius
        for m in range(7):
            for n in range(7):
                if r + m + n <= 6:
                    assert kernel_bound_check(incl, proj, r, m, n), (case, r, m, n)
                    checked += 1
    assert checked > 200
    report(f"kernel-bound-lemma [200 sequences, {checked} triples]", start, 60)


def test_acceptance_ml_property():
    start = time.perf_counter()
    params = GenParams(levels=8)
    for case in range(200):
        rng = rng_for(1002, case)
        l = random_prime(rng, params)
        f = random_ar_l_adic(rng, l, params)
        sb = stable_image_bound(f)
        assert sb, (case, sb.note)
        s = sb.certificate.bound
        assert s <= f.top
        t1, _ = stable_image_tower(f, s=s)
        t2, _ = stable_image_tower(f, s=s + 1)
        assert t1.levelwise_equal(t2, upto=min(t1.top, t2.top)), case
    report("mittag-leffler-property [200 towers]", start, 30)


def test_acceptance_upsilon_normal_form_and_phi():
    start = time.perf_counter()
    params = GenParams(levels=8)
    for case in range(100):
        rng = rng_for(1003, case)
        l = random_prime(rng, params)
        ladic = random_l_adic(rng, l, params)
        p = psi(upsilon(ladic, H))
        assert p.levelwise_equal(ladic) and p.top == ladic.top, case
    for case in range(100):
        rng = rng_for(1004, case)
        l = random_prime(rng, params)
        f = random_ar_l_adic(rng, l, params)
        iso, _ = phi_iso(f, H)
        assert ar_is_isomorphism(iso), case
    report("upsilon-normal-form-and-phi [100+100 towers]", start, 60)


def test_acceptance_choice_independence():
    start = time.perf_counter()
    params = GenParams(levels=8)
    for case in range(100):
        rng = rng_for(1005, case)
        l = random_prime(rng, params)
        f = random_ar_l_adic(rng, l, params)
        s = stable_image_bound(f).certificate.bound
        u1 = upsilon(f, H, ml_bound=s)
        u2 = upsilon(f, H, ml_bound=s + 2)
        k = min(psi(u1).top, psi(u2).top)
        assert u1.canonical_form(k) == u2.canonical_form(k), case
    report("choice-independence [100 towers]", start, 30)


def test_acceptance_faithfulness():
    start = time.perf_counter()
    params = GenParams(levels=8)
    for case in range(100):
        rng = rng_for(1006, case)
        l = random_prime(rng, params)
        f = random_armor(rng, l, params)
        assert faithfulness_check(f, H), case
    report("faithfulness-and-reflection [100 morphisms]", start, 60)


def test_acceptance_right_exactness():
    start = time.perf_counter()
    params = GenParams(levels=8)
    for case in range(100):
        rng = rng_for(1007, case)
        l = random_prime(rng, params)
        f, g = random_exact_triple(rng, l, params)
        assert check_right_exact(f, g, H, levels=6), case
    report("right-exactness [100 sequences]", start, 60)


def test_acceptance_zl_equivalence():
    start = time.perf_counter()
    module_params = GenParams(max_exponent=5, max_rank=3, max_torsion_factors=3)
    for case in range(200):
        rng = rng_for(1008, case)
        l = random_prime(rng, module_params)
        m = random_zl_module(rng, l, module_params)
        assert limit(to_tower(m, 8)) == m, case
    tower_params = GenParams(levels=8)
    for case in range(100):
        rng = rng_for(1009, case)
        l = random_prime(rng, tower_params)
        f = random_ar_l_adic(rng, l, tower_params)
        assert tensor_zl(upsilon(f, H)) == limit(canonical_l_adic(f).tower), case
    report("zl-equivalence [200 modules + 100 towers]", start, 60)


def test_acceptance_torsion_criterion_exhaustive():
    start = time.perf_counter()
    report_suite = run_suite("torsionfree", seed=0, cases=10**9)
    grid = torsion_grid()
    assert report_suite.cases == len(grid)
    assert report_suite.all_pass()
    report(f"torsion-criterion-exhaustive [{len(grid)} pairs]", start, 30)


def test_acceptance_cli_determinism():
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "arl", "verify", "--suite", "comparison",
           "--seed", "99", "--cases", "25"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        body = [line for line in proc.stdout.splitlines()
                if not line.startswith("timing:")]
        runs.append("\n".join(body))
    assert runs[0] == runs[1]
    assert runs[0].encode() == runs[1].encode()
    report("cli-determinism [verify twice, byte-identical bodies]", start, 60)
