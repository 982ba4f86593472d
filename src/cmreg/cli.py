"""Command-line interface: family construction, Betti tables, regularity,
and the claim verification grid.

Ideal files are plain text: a header line

    ring: char=32003 vars=[X0,X1,X2,X3] order=grevlex

then a ``gens:`` line and one polynomial per line: terms joined by signs (a
run such as ``- -`` is one sign), a term being factors side by side with
whitespace or one ``*`` between two, and a factor an integer, a fraction
``a/b`` or a name with an optional ``^k``; whitespace may surround each.
Run-together names split greedily into the ring's names, longest first, and
a power goes to the last: ``X0X1^2`` is X0*X1^2.  Blank lines and lines
starting with ``#`` are ignored, so emitted files can carry metadata in them.

Errors are one line on stderr, ``cmreg: error: <message>``: exit code 2 for
bad input, 3 for an exhausted budget, a failed genericity search or an
exponent past the ring's cap.  ``verify`` checks its characteristic (and,
for the claims that draw random linear forms, that the field is large
enough), its instance and, for one instance, that the claim belongs to the
instance's family, before any claim runs, so its exit code 1 always means a
failed claim.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import families, resolution, verify
from ._kernel import BudgetExceeded
from .groebner import Ideal
from .ring import PolyRing, field_of_characteristic
from .sections import GenericityFailure, check_section_field

_HEADER_RE = re.compile(
    r"^ring:\s*char=(\d+)\s+vars=\[([^\]]*)\]\s+order=(\w+)\s*$")


def format_ideal_file(ideal, comments=()):
    """Serialize an ideal to the text format (with optional # comment lines)."""
    ring = ideal.ring
    char = ring.field.char
    lines = [f"ring: char={char} vars=[{','.join(ring.names)}] order=grevlex",
             "gens:"]
    lines.extend(str(g) for g in ideal.gens)
    lines.extend(f"# {c}" for c in comments)
    return "\n".join(lines) + "\n"


def parse_ideal_file(text):
    """Parse the text format back into an Ideal."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty ideal file")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ValueError(f"bad header line: {lines[0]!r}")
    char = int(m.group(1))
    names = tuple(s.strip() for s in m.group(2).split(",") if s.strip())
    if not names:
        raise ValueError("no variables in header")
    if m.group(3) != "grevlex":
        raise ValueError(f"unsupported order {m.group(3)!r} (only grevlex)")
    if len(lines) < 2 or lines[1] != "gens:":
        raise ValueError("expected 'gens:' after the header")
    ring = PolyRing(names, field_of_characteristic(char))
    gens = [ring.from_string(ln) for ln in lines[2:]]
    return Ideal(ring, gens)


def _read_ideal(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ideal_file(fh.read())


def _write_out(text, out):
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_family(args):
    fam = families.build_family(args.m, args.n, primed=args.primed, char=args.char)
    meta = {
        "m": fam.m, "n": fam.n, "primed": fam.primed, "char": fam.char,
        "curve_exponents": list(fam.exponents),
        "ci_degrees": list(fam.ci_degrees),
        "extra_degree": fam.extra_degree,
        "generator_degrees": sorted(
            (g.degree() for g in fam.almost_complete_intersection.gens),
            reverse=True),
    }
    text = format_ideal_file(
        fam.almost_complete_intersection,
        comments=["meta: " + json.dumps(meta, sort_keys=True,
                                        separators=(",", ":"))])
    _write_out(text, args.out)
    return 0


def _cmd_betti(args):
    ideal = _read_ideal(args.infile)
    table = resolution.betti(ideal)
    if args.format == "json":
        obj = table.to_json_obj()
        obj["regularity"] = table.regularity()
        obj["pdim"] = table.pdim()
        _write_out(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n",
                   args.out)
    else:
        _write_out(table.to_text(), args.out)
    return 0


def _cmd_reg(args):
    ideal = _read_ideal(args.infile)
    reg_q = resolution.regularity(ideal)
    reg_i = resolution.regularity_ideal(ideal)
    _write_out(f"reg(ideal) = {reg_i}\nreg(quotient) = {reg_q}\n", args.out)
    return 0


def _cmd_verify(args):
    claims = None if args.claim == "all" else [args.claim]
    if (args.m is None) != (args.n is None):
        raise ValueError("--m and --n must be given together")
    if args.primed and args.m is None:
        raise ValueError("--primed needs --m and --n: the grid runs both families")
    field = field_of_characteristic(args.char)
    if args.claim == "all" or args.claim in verify.SECTION_CLAIMS:
        check_section_field(field)
    if args.m is not None:
        families.check_parameters(args.m, args.n, args.primed)
        wanted = verify.FAMILY_CLAIMS[args.primed]
        if args.claim != "all":
            verify.check_claim_family(args.claim, args.primed)
            wanted = [args.claim]
        reports = [verify.run_claim(c, args.m, args.n, args.primed,
                                    seed=args.seed, char=args.char)
                   for c in sorted(wanted)]
    else:
        reports = verify.grid_reports(claims, char=args.char, seed=args.seed)
    if args.format == "json":
        text = verify.render_json(reports, char=args.char, seed=args.seed)
    elif args.format == "csv":
        text = verify.render_csv(reports)
    else:
        text = verify.render_text(reports)
    _write_out(text, args.out)
    return 0 if verify.overall_verdict(reports) == "pass" else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cmreg",
        description="Exact regularity computations for almost complete "
                    "intersections on monomial curves.")
    sub = ap.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("family", help="build a family instance")
    fam.add_argument("--m", type=int, required=True)
    fam.add_argument("--n", type=int, required=True)
    fam.add_argument("--primed", action="store_true")
    fam.add_argument("--char", type=int, default=verify.DEFAULT_CHAR)
    fam.add_argument("--out", default="-")
    fam.set_defaults(func=_cmd_family)

    bet = sub.add_parser("betti", help="Betti table of an ideal file")
    bet.add_argument("--in", dest="infile", required=True)
    bet.add_argument("--format", choices=("json", "text"), default="text")
    bet.add_argument("--out", default="-")
    bet.set_defaults(func=_cmd_betti)

    reg = sub.add_parser("reg", help="regularity of an ideal file")
    reg.add_argument("--in", dest="infile", required=True)
    reg.add_argument("--out", default="-")
    reg.set_defaults(func=_cmd_reg)

    ver = sub.add_parser("verify", help="run claim checks")
    ver.add_argument("claim", choices=verify.CLAIM_IDS + ("all",))
    ver.add_argument("--m", type=int)
    ver.add_argument("--n", type=int)
    ver.add_argument("--primed", action="store_true")
    ver.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    ver.add_argument("--char", type=int, default=verify.DEFAULT_CHAR)
    ver.add_argument("--format", choices=("json", "csv", "text"),
                     default="text")
    ver.add_argument("--out", default="-")
    ver.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"cmreg: error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, GenericityFailure, OverflowError) as exc:
        print(f"cmreg: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
