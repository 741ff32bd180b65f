"""Command-line surface: normalize, limit, upsilon, psi, verify.

Reports are deterministic for a fixed input and seed; the trailing
``timing:`` line is the only part excluded from that contract.  Exit codes:
0 success, 1 property failure, 2 parse or usage error, 3 not AR-l-adic,
4 bad index, 70 internal error (any other exception; its traceback goes to
stderr).
"""

from __future__ import annotations

import argparse
import sys
import time

from .arcat import ar_is_isomorphism, canonical_l_adic, certify_ar_l_adic
from .errors import BadSetting, FiniteIndex, NotARladic, NotLAdic, TowerFileError, UndeclaredSymbol
from .limits import limit
from .suites import SUITES, parse_report, replay_report, run_suite
from .towerfile import load_tower_file
from .towers import default_bound
from .upsilon import psi, upsilon

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_NOT_AR_L_ADIC = 3
EXIT_BAD_INDEX = 4
EXIT_SOFTWARE = 70  # sysexits.h EX_SOFTWARE: an internal error, not a usage error


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arl",
        description="Exact calculus of towers of finite abelian groups: "
                    "shift-class normalization, limits, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tower_args(p):
        p.add_argument("--file", "-f", required=True, help="tower file (.arl.json)")
        p.add_argument("--tower", "-t", required=True, help="tower name in the file")

    p_norm = sub.add_parser("normalize", help="canonical l-adic replacement with certificates")
    add_tower_args(p_norm)
    p_norm.add_argument("--levels", type=int, default=None, help="levels to print")

    p_lim = sub.add_parser("limit", help="inverse limit as a Z_l-module")
    add_tower_args(p_lim)

    p_ups = sub.add_parser("upsilon", help="image-quotient normal form at an infinite index")
    add_tower_args(p_ups)
    p_ups.add_argument("--h", required=True, help="index term, e.g. 'h' or 'h+d1'")
    p_ups.add_argument("--levels", type=int, default=4, help="finite quotients to print")

    p_psi = sub.add_parser("psi", help="tower of finite quotients of the image-quotient object")
    add_tower_args(p_psi)
    p_psi.add_argument("--h", required=True, help="index term, e.g. 'h'")
    p_psi.add_argument("--levels", type=int, default=4, help="levels to print")

    p_ver = sub.add_parser("verify", help="run a randomized verification suite")
    p_ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_ver.add_argument("--seed", type=int, default=None, help="default 0")
    p_ver.add_argument("--cases", type=int, default=None, help="default 100")
    p_ver.add_argument("--replay", default=None,
                       help="path to a saved report; re-check its certificates "
                            "(--seed and --cases, when given, must match the report)")
    return parser


def _echo(args: list[str]) -> str:
    return "command: " + " ".join(args)


def _print_timing(start: float):
    print(f"timing: {time.perf_counter() - start:.3f}s")


def _cmd_normalize(ns, argv) -> int:
    tf = load_tower_file(ns.file)
    tower = tf.tower(ns.tower)
    print(_echo(argv))
    cert = certify_ar_l_adic(tower)
    if not cert:
        # a refusal carries a witness, or why the search stopped
        print(f"not-ar-l-adic: {cert.status} ({cert.note or cert.witness})")
        return EXIT_NOT_AR_L_ADIC
    c = cert.certificate
    print(f"tower: {ns.tower}")
    print(f"prime: {tower.l}")
    print(f"shift: r={c.shift}")
    print(f"ml-bound: s={c.ml_bound}")
    hi = c.tower.top if ns.levels is None else min(ns.levels - 1, c.tower.top)
    for n in range(hi + 1):
        print(f"level {n}: {c.tower.level(n).describe()}")
    print(f"witness: epi-shift={c.iso.shift_amount} kernel-radius={c.kernel_cert.radius} "
          f"kernel-scope={c.kernel_cert.scope}")
    v = ar_is_isomorphism(c.iso)
    print(f"iso-check: {v.status}")
    return EXIT_OK if v else EXIT_PROPERTY


def _cmd_limit(ns, argv) -> int:
    tf = load_tower_file(ns.file)
    tower = tf.tower(ns.tower)
    print(_echo(argv))
    c = canonical_l_adic(tower)
    module = limit(c.tower)
    print(f"tower: {ns.tower}")
    print(f"limit: {module.describe()}")
    for label, mat in module.operators:
        print(f"operator {label}: {list(list(row) for row in mat.entries)}")
    return EXIT_OK


def _cmd_upsilon(ns, argv) -> int:
    tf = load_tower_file(ns.file)
    tower = tf.tower(ns.tower)
    h = tf.index(ns.h)
    print(_echo(argv))
    u = upsilon(tower, h)
    print(f"tower: {ns.tower}")
    print(f"annihilator: l^({u.h.describe()})")
    print(f"star-index: {(u.h - 1).describe()}")
    hi = min(ns.levels, u.normalization.tower.top + 1)
    for k in range(1, hi + 1):
        print(f"quotient mod l^{k}: {u.finite_quotient(k).describe()}")
    print(f"normalization: r={u.normalization.shift} s={u.normalization.ml_bound}")
    return EXIT_OK


def _cmd_psi(ns, argv) -> int:
    tf = load_tower_file(ns.file)
    tower = tf.tower(ns.tower)
    h = tf.index(ns.h)
    print(_echo(argv))
    p = psi(upsilon(tower, h))
    print(f"tower: {ns.tower}")
    hi = min(ns.levels - 1, p.top)
    for n in range(hi + 1):
        print(f"level {n}: {p.level(n).describe()}")
    return EXIT_OK


def _cmd_verify(ns, argv) -> int:
    print(_echo(argv))
    if ns.replay:
        try:
            with open(ns.replay, "r", encoding="utf-8") as fh:
                recorded = parse_report(fh.read())
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load report: {exc}", file=sys.stderr)
            return EXIT_USAGE
        given = (("--suite", ns.suite, recorded.suite), ("--seed", ns.seed, recorded.seed),
                 ("--cases", ns.cases, recorded.cases))
        for flag, value, found in given:
            if value is not None and value != found:
                print(f"error: {flag} {value} but the report has {flag[2:]} {found}",
                      file=sys.stderr)
                return EXIT_USAGE
        report = replay_report(recorded)
    else:
        report = run_suite(ns.suite, 0 if ns.seed is None else ns.seed,
                           100 if ns.cases is None else ns.cases)
    for line in report.body_lines():
        print(line)
    return EXIT_OK if report.all_pass() else EXIT_PROPERTY


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    for flag in ("levels", "cases"):  # counts: a value below 1 is a usage error
        if getattr(ns, flag, None) is not None and getattr(ns, flag) < 1:
            print(f"error: --{flag} must be >= 1", file=sys.stderr)
            return EXIT_USAGE
    start = time.perf_counter()
    try:
        default_bound()  # a bad setting is a usage error, before any verdict
        if ns.command == "normalize":
            code = _cmd_normalize(ns, argv)
        elif ns.command == "limit":
            code = _cmd_limit(ns, argv)
        elif ns.command == "upsilon":
            code = _cmd_upsilon(ns, argv)
        elif ns.command == "psi":
            code = _cmd_psi(ns, argv)
        elif ns.command == "verify":
            code = _cmd_verify(ns, argv)
        else:  # pragma: no cover
            return EXIT_USAGE
    except TowerFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotARladic, NotLAdic) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_AR_L_ADIC
    except (FiniteIndex, UndeclaredSymbol) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INDEX
    except BadSetting as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback  # only on this path: it would add to every run's memory
        traceback.print_exc()
        return EXIT_SOFTWARE
    _print_timing(start)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
