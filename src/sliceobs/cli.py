"""Command line interface.

Subcommands:
  obstruct      full obstruction reports for one knot (or the whole table)
  verify-table  recompute the reference rows and diff the factor lists
  homology      branched cover homology by Smith normal forms of side at
                most min(n, q-1)
  linking       the Q/Z linking form matrix on the 3-fold cover
  metabolizers  invariant metabolizer count and orbit structure
"""

import argparse
import csv
import io
import json
import os
import sys

from .blanchfield import MAX_COVER_SIDE, cover_homology_snf, linking_form
from .metabolizers import check_class
from .report import TABLE_N, census, obstruct, verify_table

__all__ = ["main"]


def _parse_n(text):
    """The family indices that --n names: one integer, or 'all' for the
    table rows."""
    if text == "all":
        return list(TABLE_N)
    try:
        return [int(text)]
    except ValueError:
        raise ValueError(
            f"--n takes an integer or 'all', not {text!r}") from None


def _cmd_obstruct(args):
    if args.json and args.csv:
        raise ValueError("--json and --csv are two output formats; "
                         "pass one")
    reports = []
    for n in _parse_n(args.n):
        reports.extend(obstruct(n, s=args.s, theta=args.theta,
                                exhaustive=args.exhaustive))
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
        return 0
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "sign", "s", "theta", "degree_sequence"])
        for r in reports:
            writer.writerow([r.n, r.sign, r.s, r.theta,
                             " ".join(map(str, r.degree_sequence))])
        sys.stdout.write(buf.getvalue())
        return 0
    for r in reports:
        degs = ", ".join(map(str, r.degree_sequence))
        print(f"n={r.n} chi{r.sign}  mod s={r.s} theta={r.theta}")
        print(f"  factor degrees: [{degs}]  total {r.total_degree} "
              f"(target {r.target_degree}, "
              f"{'ok' if r.degree_check else 'MISMATCH'})")
        print(f"  norm obstructed: {'yes' if r.norm_obstructed else 'NO'}")
        print(f"  metabolizers: {r.metabolizer_count} in orbits "
              f"{list(r.orbit_sizes)}; characters checked: "
              f"{r.characters_checked}")
        print(f"  verdict: {r.verdict}")
    return 0


def _cmd_verify_table(args):
    results = verify_table(_parse_n(args.n))
    if args.json:
        print(json.dumps(results, indent=2, default=list))
        return 0 if all(r["ok"] for r in results) else 1
    failures = 0
    for r in results:
        status = "PASS" if r["ok"] else "FAIL"
        degs = " ".join(map(str, r["degree_sequence"]))
        print(f"[{status}] n={r['n']} chi{r['sign']} "
              f"(s={r['s']}, theta={r['theta']}): degrees {degs}")
        if not r["ok"]:
            failures += 1
            print(f"    expected {list(map(list, r['expected']))}")
            print(f"    got      {list(map(list, r['got']))}")
    print(f"{len(results) - failures}/{len(results)} rows verified")
    return 0 if failures == 0 else 1


def _cmd_homology(args):
    h = cover_homology_snf(args.n, args.q)
    tors = " x ".join(f"Z/{d}" for d in h.torsion) or "trivial"
    print(f"H_1 of the {args.q}-fold branched cover, n={args.n}: {tors}")
    print(f"  invariant factors: {list(h.invariants)}")
    print(f"  order: {h.order}")
    return 0


def _cmd_linking(args):
    form = linking_form(args.n)
    print(f"linking form on (Z/{args.n})^4, basis (a, ta, b, tb):")
    for row in form.matrix:
        print("  [" + ", ".join(f"{v!s:>8}" for v in row) + "]")
    if form.template_sign:
        sgn = "+" if form.template_sign > 0 else "-"
        print(f"  matches closed form with global sign {sgn}1")
    return 0


def _cmd_metabolizers(args):
    check_class(args.n)
    c = census(args.n)
    print(f"n={args.n}: {len(c.metabolizers)} metabolizers, "
          f"orbit sizes {list(c.orbit_sizes)}")
    for orbit in c.orbits:
        head = orbit[0]
        label = "fixed" if len(orbit) == 1 else f"orbit of {len(orbit)}"
        print(f"  {label}: generated by {list(head.canonical)}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="sliceobs",
        description="Sliceness obstructions for the (sigma1 sigma2^-1)^n "
                    "closure family via twisted Alexander polynomials.")
    sub = p.add_subparsers(dest="command", required=True)

    ob = sub.add_parser("obstruct", help="full obstruction report")
    ob.add_argument("--n", required=True,
                    help="family index (or 'all' for the table rows)")
    ob.add_argument("--s", type=int, default=None,
                    help="prime modulus (default: reference witness)")
    ob.add_argument("--theta", type=int, default=None,
                    help="n-th root of unity mod s (default: derived)")
    ob.add_argument("--exhaustive", action="store_true",
                    help="also pull chi+ back through the n-1 period "
                         "shifts of the diagram; each pullback must give "
                         "its polynomial")
    ob.add_argument("--json", action="store_true")
    ob.add_argument("--csv", action="store_true")
    ob.set_defaults(fn=_cmd_obstruct)

    vt = sub.add_parser("verify-table", help="diff against reference rows")
    vt.add_argument("--n", default="all")
    vt.add_argument("--json", action="store_true")
    vt.set_defaults(fn=_cmd_verify_table)

    ho = sub.add_parser(
        "homology", help="branched cover homology, by Smith forms of "
                         "side at most min(n, q-1)")
    ho.add_argument("--n", type=int, required=True)
    ho.add_argument("--q", type=int, default=3,
                    help=f"cover degree, with 2(n-1) q <= {MAX_COVER_SIDE} "
                         f"(default: 3)")
    ho.set_defaults(fn=_cmd_homology)

    li = sub.add_parser("linking", help="Q/Z linking form of the 3-fold cover")
    li.add_argument("--n", type=int, required=True)
    li.set_defaults(fn=_cmd_linking)

    me = sub.add_parser("metabolizers", help="metabolizers and orbits")
    me.add_argument("--n", type=int, required=True)
    me.set_defaults(fn=_cmd_metabolizers)
    return p


def main(argv=None):
    """Run one subcommand.  Bad input (a ValueError) ends in a one-line
    message on stderr and exit code 2, like an argument error.  A reader
    that closed standard output early, such as `head`, ends the run
    quietly with exit code 1."""
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"sliceobs: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit, and what the
        # buffer still holds would fail there too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
