"""Command-line entry point: compute polynomial families, run the
verification suites, dump the catalog.

Exit codes: 0 success, 1 verification or construction failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .mkengine import build_polynomial
from .roots import (FAMILIES, build_root_system, catalog_json, dominant_weights_upto, is_dominant,
                    satake_catalog)
from .scalars import DEFAULT_PRECISION
from .weights import KLabel


def _frac(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a fraction: %r" % text)


def _int_at_least(lo):
    def parse(text):
        try:
            k = int(text)
        except ValueError:
            k = None
        if k is None or k < lo:
            raise argparse.ArgumentTypeError(
                "expected an integer >= %d, got %r" % (lo, text))
        return k
    return parse


def _weight(text):
    """Comma-separated doubled coordinates of an even weight."""
    try:
        w = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "not comma-separated integers: %r" % text)
    if any(x % 2 for x in w):
        raise argparse.ArgumentTypeError(
            "doubled coordinates of a family weight are even: %r" % text)
    return w


def make_parser():
    p = argparse.ArgumentParser(prog="mkpolys")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="emit polynomial coefficient tables")
    c.add_argument("--family", required=True, choices=FAMILIES)
    c.add_argument("--n", type=_int_at_least(1), default=None,
                   help="rank, for the families whose rank varies")
    c.add_argument("--m", type=_int_at_least(1), default=None,
                   help="auxiliary size, for the families that have one")
    c.add_argument("--sigma", type=_frac, default=Fraction(0),
                   help="level-shift parameter of the non-reduced families")
    c.add_argument("--level", type=int, default=0)
    c.add_argument("--lambda", dest="lam", type=_weight, default=None,
                   help="comma-separated doubled coordinates")
    c.add_argument("--bound", type=_int_at_least(0), default=4)
    c.add_argument("--format", choices=("json", "csv", "pretty"), default="json")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", help="a suite name, or all")
    v.add_argument("--precision", type=_int_at_least(0), default=DEFAULT_PRECISION)
    v.add_argument("--format", choices=("json", "pretty"), default="pretty")

    g = sub.add_parser("catalog", help="dump the family catalog")
    g.add_argument("--reduced", choices=("true", "false"), default=None)
    return p


def _usage_error(message) -> int:
    print("error: %s" % message, file=sys.stderr)
    return 2


def cmd_compute(args) -> int:
    try:
        entry = satake_catalog(args.family, args.n or 1, args.m or 0)
    except ValueError as exc:
        return _usage_error(exc)
    if args.n not in (None, entry.n):
        return _usage_error("%s has rank %d, not %d" % (entry.family, entry.n, args.n))
    if args.m is not None and not entry.aux:
        return _usage_error("%s has no auxiliary size: --m does not apply"
                            % entry.family)
    if args.sigma and entry.reduced:
        return _usage_error("%s is reduced: --sigma does not apply" % entry.family)
    try:
        ks = entry.recipe(args.level, args.sigma)
    except ValueError as exc:       # the family's identification is open
        print("error: %s" % exc, file=sys.stderr)
        return 1
    try:
        label = KLabel.make(ks, entry.base_exp())
    except ValueError as exc:
        return _usage_error("--sigma %s: %s" % (args.sigma, exc))
    lam = args.lam
    if lam is not None and len(lam) != entry.n:
        return _usage_error("--lambda %s has %d coordinates, but %s has rank %d"
                            % (list(lam), len(lam), entry.family, entry.n))
    if lam is not None and not is_dominant(lam):
        return _usage_error("--lambda %s is not dominant" % (list(lam),))
    if lam is not None and sum(lam) > args.bound:
        return _usage_error("--lambda %s has coordinate sum above --bound %d"
                            % (list(lam), args.bound))
    lams = dominant_weights_upto(entry.n, args.bound) if lam is None else [lam]
    try:
        fam = build_polynomial(label, lams, build_root_system(entry.n),
                               level=args.level, verify=False)
    except (ValueError, MemoryError) as exc:    # a MemoryError carries no message
        print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return 1
    if args.format == "json":
        for lam in lams:
            print(fam[lam].to_json())
    elif args.format == "csv":
        print("lambda,mu,coefficient")
        for lam in lams:
            for mu, c in sorted(fam[lam].coeffs.items()):
                print("\"%s\",\"%s\",\"%s\"" % (list(lam), list(mu), c))
    else:
        for lam in lams:
            print("P%s =" % (list(lam),))
            for mu, c in sorted(fam[lam].coeffs.items(), key=lambda t: (sum(t[0]), t[0])):
                print("    m%s * (%s)" % (list(mu), c))
    return 0


def cmd_verify(args) -> int:
    from .checks import SUITES, cases   # the registry loads only for verify
    names = SUITES + ("all",)
    if args.suite not in names:
        return _usage_error("unknown suite %r (choose from %s)" % (args.suite, ", ".join(names)))
    rows = [check.row(case, args.precision) for check, case in cases(args.suite)]
    rows.sort(key=lambda r: r["id"])
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for r in rows:
            error = "  (error: %s)" % r["error"] if "error" in r else ""
            print("%s  %s%s" % ("PASS" if r["pass"] else "FAIL", r["id"], error))
    return 0 if all(r["pass"] for r in rows) else 1


def cmd_catalog(args) -> int:
    reduced = None
    if args.reduced is not None:
        reduced = args.reduced == "true"
    print(catalog_json(reduced))
    return 0


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "compute":
        return cmd_compute(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_catalog(args)


if __name__ == "__main__":
    sys.exit(main())
