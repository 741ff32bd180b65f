"""Randomized verification suites with replayable certificates.

Each suite maps to one result of the tower calculus and runs seeded random
instances of it.  A case returns a pass/fail/unknown outcome plus a
JSON-serializable certificate; reports are deterministic for a fixed seed,
and a saved report can be replayed (every case is regenerated and its fresh
certificate compared against the recorded one).  Failing cases are shrunk by
truncating levels first, then reducing group sizes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Optional

from .arcat import (
    ar_is_isomorphism,
    kernel_bound_check,
    stable_image_bound,
    stable_image_tower,
)
from .gen import (
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
from .hypernat import HyperNat
from .limits import comparison_check, ladic_iff_torsionfree, limit, to_tower
from .towers import is_l_adic, is_zero_system
from .upsilon import check_right_exact, faithfulness_check, phi_iso, psi, upsilon
from .zlmod import ZlModule


H = HyperNat.symbol("h")


@dataclass(frozen=True)
class CaseResult:
    index: int
    outcome: str                 # "pass" | "fail" | "unknown"
    certificate: dict
    witness: Optional[str] = None


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    cases: int
    results: tuple[CaseResult, ...]

    def counts(self) -> dict:
        c = {"pass": 0, "fail": 0, "unknown": 0}
        for r in self.results:
            c[r.outcome] += 1
        return c

    def all_pass(self) -> bool:
        return all(r.outcome == "pass" for r in self.results)

    def body_lines(self) -> list[str]:
        lines = [
            f"suite: {self.suite}",
            f"seed: {self.seed}",
            f"cases: {self.cases}",
        ]
        for r in self.results:
            cert = json.dumps(r.certificate, sort_keys=True, separators=(",", ":"))
            line = f"case {r.index:04d}: {r.outcome} {cert}"
            if r.witness:
                line += f" witness: {r.witness}"
            lines.append(line)
        c = self.counts()
        lines.append(f"summary: pass={c['pass']} fail={c['fail']} unknown={c['unknown']}")
        return lines


# -- the individual suites ----------------------------------------------------

def _case_lemma_kernel(rng, params: GenParams, index: int):
    l = random_prime(rng, params)
    core_params = replace(params, max_rank=0)
    g_tower = random_l_adic(rng, l, core_params)
    n_tower = random_zero_system(rng, l, params, certified_only=False)
    _, incl, proj = random_extension(rng, n_tower, g_tower)
    z = is_zero_system(n_tower)
    if not z:
        return "fail", {"l": l}, f"generated zero system not certified: {z.note}"
    r = z.certificate.radius
    checked = 0
    for m in range(0, 7):
        for n in range(0, 7):
            if r + m + n > 6:
                continue
            if not kernel_bound_check(incl, proj, r, m, n):
                return ("fail", {"l": l, "radius": r},
                        f"kernel bound fails at (r={r}, m={m}, n={n})")
            checked += 1
    return "pass", {"l": l, "radius": r, "triples": checked}, None


def _case_ml(rng, params: GenParams, index: int):
    l = random_prime(rng, params)
    f = random_ar_l_adic(rng, l, params)
    sb = stable_image_bound(f)
    if not sb:
        return "unknown" if sb.is_unknown else "fail", {"l": l}, sb.note
    s = sb.certificate.bound
    t1, _ = stable_image_tower(f, s=s)
    t2, _ = stable_image_tower(f, s=s + 1)
    upto = min(t1.top, t2.top)
    if not t1.levelwise_equal(t2, upto=upto):
        return "fail", {"l": l, "s": s}, "stable images differ between s and s+1"
    return "pass", {"l": l, "s": s, "scope": sb.certificate.scope}, None


def _case_upsilon(rng, params: GenParams, index: int):
    l = random_prime(rng, params)
    f = random_ar_l_adic(rng, l, params)
    sb = stable_image_bound(f)
    if not sb:
        return "unknown", {"l": l}, sb.note
    s = sb.certificate.bound
    u1 = upsilon(f, H, ml_bound=s)
    u2 = upsilon(f, H, ml_bound=s + 2)
    k = min(u1.normalization.tower.top, u2.normalization.tower.top)
    if u1.canonical_form(k) != u2.canonical_form(k):
        return "fail", {"l": l, "s": s}, "normal form depends on the stabilization shift"
    fseq, gseq = random_exact_triple(rng, l, params)
    if not check_right_exact(fseq, gseq, H):
        return "fail", {"l": l}, "induced finite-quotient sequence is not exact"
    form = [list(t) for t in u1.canonical_form(k)[0]]
    return "pass", {"l": l, "s": s, "form": form, "right_exact": True}, None


def _case_phi(rng, params: GenParams, index: int):
    l = random_prime(rng, params)
    ladic = random_l_adic(rng, l, params)
    if not psi(upsilon(ladic, H)).levelwise_equal(ladic):
        return "fail", {"l": l}, "reconstruction differs from the l-adic input"
    f = random_ar_l_adic(rng, l, params)
    iso, inverse = phi_iso(f, H)
    v = ar_is_isomorphism(iso)
    if not v:
        return ("fail" if v.is_no else "unknown",
                {"l": l, "iso_shift": iso.shift_amount}, f"{v.status}: {v.note}")
    return "pass", {"l": l, "iso_shift": iso.shift_amount,
                    "inverse_shift": inverse.shift_amount}, None


def _case_faithful(rng, params: GenParams, index: int):
    l = random_prime(rng, params)
    f = random_armor(rng, l, params)
    if not faithfulness_check(f, H):
        return "fail", {"l": l, "shift": f.shift_amount}, "faithfulness implication failed"
    return "pass", {"l": l, "shift": f.shift_amount}, None


def _case_comparison(rng, params: GenParams, index: int):
    l = random_prime(rng, params)
    module_params = replace(params, max_exponent=5, max_rank=3,
                            max_torsion_factors=3, operators=True)
    m = random_zl_module(rng, l, module_params)
    if limit(to_tower(m, params.levels)) != m:
        return "fail", {"l": l, "module": m.describe()}, "limit of reconstruction differs"
    f = random_ar_l_adic(rng, l, replace(params, operators=True))
    rep = comparison_check(f)
    if not rep.operators_match:
        return ("fail", {"l": l, "left": rep.left.describe(), "right": rep.right.describe()},
                "the two module readings disagree")
    return "pass", {"l": l, "module": m.describe(), "value": rep.left.describe()}, None


@cache
def torsion_grid() -> tuple[tuple[ZlModule, ZlModule], ...]:
    """The exhaustive pair grid for the torsion criterion, built once: for
    l = 2 and 3, every ordered pair of the 30 modules Z_l^rho (+) Z/l^a
    (+) Z/l^b with rho <= 2, at most two torsion summands and exponents
    1..3."""
    pairs = []
    for l in (2, 3):
        multisets = [()]
        for k in (1, 2):
            multisets.extend(itertools.combinations_with_replacement(range(1, 4), k))
        modules = [ZlModule(l, exps, rho) for exps in multisets for rho in range(3)]
        pairs.extend((a, b) for a in modules for b in modules)
    return tuple(pairs)


def _case_torsionfree(rng, params: GenParams, index: int):
    grid = torsion_grid()
    mod_i, mod_next = grid[index % len(grid)]
    res = ladic_iff_torsionfree(mod_i, mod_next, levels=min(params.levels, 6))
    cert = {
        "l": mod_i.l,
        "mod_i": mod_i.describe(),
        "mod_next": mod_next.describe(),
        "torsion_free": mod_next.is_torsion_free(),
        "l_adic": is_l_adic(res.tower).status,
    }
    if not res.verdict:
        return "fail", cert, f"criterion violated, witness {res.witness}"
    return "pass", cert, None


SUITES: dict[str, Callable] = {
    "lemma-kernel": _case_lemma_kernel,
    "ml": _case_ml,
    "upsilon": _case_upsilon,
    "phi": _case_phi,
    "faithful": _case_faithful,
    "comparison": _case_comparison,
    "torsionfree": _case_torsionfree,
}


def default_params(suite: str) -> GenParams:
    if suite == "lemma-kernel":
        return GenParams(levels=8, max_exponent=3, max_torsion_factors=2,
                         max_rank=1, max_zero_radius=4, primes=(2, 3, 5))
    if suite == "torsionfree":
        return GenParams(levels=6, primes=(2, 3))
    return GenParams(levels=8)


def suite_case_count(suite: str, requested: int) -> int:
    if suite == "torsionfree":
        return min(requested, len(torsion_grid()))
    return requested


def run_case(suite: str, seed: int, index: int, params: GenParams) -> CaseResult:
    fn = SUITES[suite]
    rng = rng_for(seed, index)
    try:
        outcome, cert, witness = fn(rng, params, index)
    except Exception as exc:  # a crash is a failing case, not a crashed report
        return CaseResult(index, "fail", {"error": type(exc).__name__}, str(exc))
    return CaseResult(index, outcome, cert, witness)


def shrink_case(suite: str, seed: int, index: int, params: GenParams) -> CaseResult:
    """Minimize a failing case: truncate levels first, then shrink groups."""
    current = params
    result = run_case(suite, seed, index, current)
    while True:
        moved = False
        for move in (GenParams.shrink_levels, GenParams.shrink_size):
            nxt = move(current)
            if nxt is None:
                continue
            attempt = run_case(suite, seed, index, nxt)
            if attempt.outcome == "fail":
                current, result, moved = nxt, attempt, True
                break
        if not moved:
            break
    witness = result.witness or ""
    witness += f" [minimized at levels={current.levels}, max_exponent={current.max_exponent}," \
               f" max_torsion_factors={current.max_torsion_factors}]"
    return CaseResult(index, result.outcome, result.certificate, witness.strip())


def run_suite(suite: str, seed: int, cases: int) -> SuiteReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if cases < 1:
        raise ValueError("cases must be >= 1")
    params = default_params(suite)
    total = suite_case_count(suite, cases)
    results = []
    for index in range(total):
        res = run_case(suite, seed, index, params)
        if res.outcome == "fail":
            res = shrink_case(suite, seed, index, params)
        results.append(res)
    return SuiteReport(suite, seed, total, tuple(results))


# -- replay ---------------------------------------------------------------------

def parse_report(text: str) -> SuiteReport:
    suite = seed = cases = None
    results = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("suite: "):
            suite = line.split(": ", 1)[1]
        elif line.startswith("seed: "):
            seed = int(line.split(": ", 1)[1])
        elif line.startswith("cases: "):
            cases = int(line.split(": ", 1)[1])
        elif line.startswith("case "):
            head, _, rest = line.partition(": ")
            index = int(head.split()[1])
            outcome, _, payload = rest.partition(" ")
            cert_text, _, witness = payload.partition(" witness: ")
            cert = json.loads(cert_text) if cert_text else {}
            results.append(CaseResult(index, outcome, cert, witness or None))
    if suite is None or seed is None or cases is None:
        raise ValueError("not a suite report")
    return SuiteReport(suite, seed, cases, tuple(results))


def replay_report(report: SuiteReport) -> SuiteReport:
    """Re-run every recorded case, with the suite's default parameters, and
    verify outcome and certificate match."""
    params = default_params(report.suite)
    results = []
    for recorded in report.results:
        fresh = run_case(report.suite, report.seed, recorded.index, params)
        if (fresh.outcome, fresh.certificate) == (recorded.outcome, recorded.certificate):
            results.append(CaseResult(recorded.index, "pass",
                                      {"replayed": recorded.outcome}, None))
        else:
            results.append(CaseResult(
                recorded.index, "fail",
                {"recorded": recorded.certificate, "fresh": fresh.certificate},
                "replay mismatch"))
    return SuiteReport(f"replay:{report.suite}", report.seed, report.cases, tuple(results))
