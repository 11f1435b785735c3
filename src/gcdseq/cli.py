"""Command-line workbench.

Subcommands:

* ``gen``        term generation (csv, jsonl or OEIS b-file output)
* ``verify``     verification suites with a machine-readable JSON report
* ``cf``         evaluate one continued fraction against its closed forms
* ``oeis-check`` cross-check local terms against a downloaded b-file
* ``compare``    prime-yield comparison against the Rowland sequence

Exit codes: 0 clean, 1 usage error, 2 violations or data errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import sys
from enum import Enum
from fractions import Fraction

from . import analytics, conjectures, contfrac, families
from .bfile import format_bfile, read_bfile
from .errors import (
    BFileParseError,
    EmptyRange,
    GcdseqError,
    IndexBelowDomain,
    UnsupportedFamily,
    ZeroDenominator,
)
from .recurrences import b, b_via_left_factorial

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

_DEFAULT_SEED = 20230923


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _family_arg(text):
    try:
        return families.FamilySpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(text, out_path):
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

_CACHE_FIELDS = {"family", "n", "x", "y_mod_x", "d", "a", "class"}


def _read_cache_line(line):
    """The term dict a cache line holds, or None if the line is malformed."""
    try:
        rec = json.loads(line)
    except ValueError:
        return None
    if (not isinstance(rec, dict) or rec.keys() != _CACHE_FIELDS
            or not isinstance(rec["family"], str)
            or not all(type(rec[k]) is int for k in ("n", "x", "y_mod_x", "d", "a"))):
        return None
    return rec


def _cache_entry_ok(family, n, rec):
    """Whether a well-formed cached term dict is consistent with ``term(family, n)``.

    Rowland terms are cheap and compared whole; the others are checked
    structurally (numerator, a*d == x, d == gcd(x, y_mod_x) with the residue
    reduced, and the class of a), since recomputing them is the cost the
    cache saves.
    """
    if family.kind is families.Kind.ROWLAND:
        return rec == families.term(family, n).as_dict()
    x = rec["x"]
    return (
        x == families.numerator(family, n)
        and 0 <= rec["y_mod_x"] < x
        and rec["a"] * rec["d"] == x
        and math.gcd(x, rec["y_mod_x"]) == rec["d"]
        and rec["class"] == families._classify(rec["a"]).value
    )


def _cached_records(family, n_from, n_to, cache_path):
    """Term dicts for the range, reading/extending the append-only cache.

    A malformed line, or a cached entry that fails ``_cache_entry_ok``, gets
    one warning on stderr and its term is recomputed and appended; the later
    line wins on the next read. Existing lines are never rewritten.
    """
    key = str(family)
    cached = {}
    ends_mid_line = False
    if cache_path and os.path.exists(cache_path):
        with open(cache_path, "r", encoding="ascii", errors="replace") as fh:
            for lineno, line in enumerate(fh, 1):
                ends_mid_line = not line.endswith("\n")
                if not line.strip():
                    continue
                rec = _read_cache_line(line)
                if rec is None:
                    print(f"warning: malformed cache line {lineno}; ignored",
                          file=sys.stderr)
                    continue
                cached[(rec["family"], rec["n"])] = rec
    fresh = []
    records = []
    for n in range(n_from, n_to + 1):
        rec = cached.get((key, n))
        if rec is not None:
            if _cache_entry_ok(family, n, rec):
                records.append(rec)
                continue
            print(f"warning: invalid cache entry for {key} n={n}; recomputed",
                  file=sys.stderr)
        computed = families.term(family, n).as_dict()
        records.append(computed)
        fresh.append(computed)
    if cache_path and fresh:
        with open(cache_path, "a", encoding="ascii") as fh:
            if ends_mid_line:
                fh.write("\n")
            for rec in fresh:
                fh.write(json.dumps(rec) + "\n")
    return records


def cmd_gen(args):
    family = args.family
    if args.n_from > args.n_to:
        raise EmptyRange(f"empty range {args.n_from}..{args.n_to}")
    if args.n_from < family.first_index:
        print(
            f"gcdseq gen: error: {family} starts at n={family.first_index}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        records = _cached_records(family, args.n_from, args.n_to, args.cache)
        if args.format == "csv":
            lines = ["n,x,d,a,class"]
            lines += [f"{r['n']},{r['x']},{r['d']},{r['a']},{r['class']}" for r in records]
            _emit("\n".join(lines) + "\n", args.out)
        elif args.format == "jsonl":
            _emit("".join(json.dumps(r) + "\n" for r in records), args.out)
        else:  # bfile
            entries = [(r["n"] + args.offset, r["a"]) for r in records]
            _emit(format_bfile(entries), args.out)
    except OSError as exc:
        print(f"gcdseq gen: error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_terms(args):
    count = args.to if args.to is not None else 10000
    report = conjectures.verify_primes_or_one(args.family or families.MAIN, count)
    return _jsonable(report), report.clean


def _identity_indices(n_max):
    """The n = 3..n_max an identity suite checks; none is a usage error."""
    if n_max < 3:
        raise EmptyRange(f"empty range 3..{n_max}")
    return range(3, n_max + 1)


def _suite_theorem1(args):
    n_max = args.n_max if args.n_max is not None else 60
    indices = _identity_indices(n_max)
    if args.trials < 1:
        raise EmptyRange(f"need at least one trial per n, got {args.trials}")
    eq5_max = args.eq5_max
    rng = random.Random(args.seed)
    checked = 0
    failures = []
    for n in indices:
        done = attempts = 0
        while done < args.trials and attempts < args.trials * 20:
            attempts += 1
            m = rng.randint(-(10**9), 10**9)
            if m == 0:
                continue
            try:
                report = contfrac.verify_theorem(contfrac.Scheme.T1, n, m)
            except ZeroDenominator:
                continue
            done += 1
            checked += 1
            value, equal = report.form("eq1")
            if not equal:
                failures.append(
                    {"n": n, "m": m, "cf": str(report.cf_value), "eq1": str(value)}
                )
    eq5_failures = []
    for n in range(3, eq5_max + 1):
        _, form2 = contfrac.elimination_chain(contfrac.Scheme.T1, n)
        if (form2.alpha, form2.beta) != (b(n - 3), -n * b(n - 4)):
            eq5_failures.append(n)
    clean = not failures and not eq5_failures
    return {
        "n_max": n_max,
        "trials_per_n": args.trials,
        "seed": args.seed,
        "checked": checked,
        "cf_mismatches": failures,
        "eq5_n_max": eq5_max,
        "eq5_failures": eq5_failures,
    }, clean


def _suite_theorem2(args):
    n_max = args.n_max if args.n_max is not None else 12
    indices = _identity_indices(n_max)
    if args.m_min > args.m_max:
        raise EmptyRange(f"empty m range {args.m_min}..{args.m_max}")
    combos = skipped = printed_matches = 0
    derived_failures = []
    printed_mismatches = 0
    for n in indices:
        for m in range(args.m_min, args.m_max + 1):
            try:
                report = contfrac.verify_theorem(contfrac.Scheme.T2, n, m)
            except ZeroDenominator:
                skipped += 1
                continue
            combos += 1
            _, derived_equal = report.form("derived")
            _, printed_equal = report.form("printed")
            if not derived_equal:
                derived_failures.append({"n": n, "m": m, "cf": str(report.cf_value)})
            if printed_equal:
                printed_matches += 1
            else:
                printed_mismatches += 1
    lf_failures = [
        n for n in range(0, args.lf_max + 1) if b(n) != b_via_left_factorial(n)
    ]
    clean = not derived_failures and not lf_failures
    return {
        "n_max": n_max,
        "m_range": [args.m_min, args.m_max],
        "combos": combos,
        "skipped_zero_denominator": skipped,
        "derived_failures": derived_failures,
        "printed_matches": printed_matches,
        "printed_mismatches": printed_mismatches,
        "left_factorial_n_max": args.lf_max,
        "left_factorial_failures": lf_failures,
    }, clean


def _suite_eq4(args):
    n_max = args.n_max if args.n_max is not None else 50
    rows = []
    clean = True
    for n in _identity_indices(n_max):
        report = contfrac.verify_eq4(n)
        rows.append(_jsonable(report))
        if not report.corrected_holds:
            clean = False
    return {"n_max": n_max, "rows": rows}, clean


def _suite_symmetry(args):
    n_max = args.to if args.to is not None else 2000
    report = conjectures.verify_symmetry(args.family or families.MAIN, n_max)
    return _jsonable(report), report.clean


def _suite_pairs(args):
    n_max = args.to if args.to is not None else 2000
    report = conjectures.verify_pair_identities(families.MAIN, n_max)
    return _jsonable(report), report.clean


def _suite_triple(args):
    count = args.to if args.to is not None else 500
    report = conjectures.verify_triple_rule_a2(count)
    return _jsonable(report), report.clean


def _suite_coverage(args):
    n_max = args.to if args.to is not None else 2000
    bound = args.bound if args.bound is not None else n_max + 1
    if bound < 11:
        raise EmptyRange(f"no candidate prime in 11..{bound}")
    report = conjectures.prime_coverage(n_max, bound)
    return _jsonable(report), report.clean


def _suite_gcd_replacement(args):
    n_max = args.to if args.to is not None else 2000
    report = families.verify_factorial_replacement(3, n_max)
    return _jsonable(report), report.clean


def _suite_fastpath(args):
    n_max = args.to if args.to is not None else 1500
    specs = [families.MAIN]
    specs += [families.quadratic(k) for k in range(1, args.k_max + 1)]
    specs += [families.linear(k) for k in range(1, args.k_max + 1)]
    report = families.verify_strategy_equivalence(specs, n_max)
    return _jsonable(report), report.clean


# suite -> (runner, the families its --family may name). None: any family,
# default main; a suite that runs a fixed family accepts only that one.
_SUITE_RUNNERS = {
    "terms": (_suite_terms, None),
    "theorem1": (_suite_theorem1, ()),
    "theorem2": (_suite_theorem2, ()),
    "eq4": (_suite_eq4, ()),
    "symmetry": (_suite_symmetry, None),
    "pairs": (_suite_pairs, (families.MAIN,)),
    "triple": (_suite_triple, (families.quadratic(2),)),
    "coverage": (_suite_coverage, (families.MAIN,)),
    "gcd-replacement": (_suite_gcd_replacement, (families.MAIN,)),
    "fastpath": (_suite_fastpath, ()),
}

SUITES = tuple(_SUITE_RUNNERS)


def cmd_verify(args):
    runner, accepted = _SUITE_RUNNERS[args.suite]
    if args.family is not None and accepted is not None and args.family not in accepted:
        print(f"gcdseq verify: error: suite {args.suite} does not run "
              f"--family {args.family}", file=sys.stderr)
        return EXIT_USAGE
    body, clean = runner(args)
    report = {"suite": args.suite, "clean": clean}
    report.update(body)
    print(json.dumps(report, indent=2))
    return EXIT_OK if clean else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# cf
# ---------------------------------------------------------------------------

def cmd_cf(args):
    scheme = contfrac.Scheme(args.scheme)
    try:
        report = contfrac.verify_theorem(scheme, args.n, args.m)
    except ZeroDenominator as exc:
        where = exc.where or "cf"
        level = f" (level {exc.level})" if exc.level is not None else ""
        print(f"gcdseq cf: zero denominator in {where}{level}: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"cf = {report.cf_value}")
    for name, value, equal in report.forms:
        print(f"{name} = {value} {'equal' if equal else 'differs'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oeis-check
# ---------------------------------------------------------------------------

def _fit_offset(entries, family):
    """Offset maximizing the agreement prefix (ties: smallest offset)."""
    first = family.first_index
    probe = min(8, len(entries))
    candidates = sorted(
        {entries[i][0] - (first + j) for i in range(probe) for j in range(probe)}
    )
    window = entries[: min(64, len(entries))]
    best_offset, best_score = 0, -1
    for offset in candidates:
        score = 0
        for index, value in window:
            n = index - offset
            if n < first:
                continue
            if families.term(family, n).a != value:
                break
            score += 1
        if score > best_score:
            best_offset, best_score = offset, score
    return best_offset


def cmd_oeis_check(args):
    if args.limit < 0:
        print(f"gcdseq oeis-check: error: bad limit {args.limit}", file=sys.stderr)
        return EXIT_USAGE
    try:
        data = read_bfile(args.bfile)
    except BFileParseError as exc:
        print(f"gcdseq oeis-check: {args.bfile}: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except OSError as exc:
        print(f"gcdseq oeis-check: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    family = args.family
    if not data.entries:
        print("warning: empty b-file, nothing compared", file=sys.stderr)
    if args.offset == "auto":
        offset = _fit_offset(data.entries, family)
    else:
        try:
            offset = int(args.offset)
        except ValueError:
            print(f"gcdseq oeis-check: error: bad offset {args.offset!r}",
                  file=sys.stderr)
            return EXIT_USAGE
    compared = skipped = 0
    divergence = None
    for index, value in data.entries[: args.limit or None]:
        n = index - offset
        if n < family.first_index:
            skipped += 1
            continue
        computed = families.term(family, n).a
        compared += 1
        if computed != value:
            divergence = {
                "file_index": index,
                "n": n,
                "file_value": value,
                "computed": computed,
            }
            break
    print(json.dumps({
        "bfile": args.bfile,
        "family": str(family),
        "offset": offset,
        "entries": len(data.entries),
        "compared": compared,
        "skipped_below_domain": skipped,
        "first_divergence": divergence,
    }, indent=2))
    return EXIT_OK if divergence is None else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args):
    report = analytics.compare(args.terms)
    print(json.dumps(_jsonable(report), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="gcdseq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate terms")
    p_gen.add_argument("--family", type=_family_arg, required=True,
                       help="main | quad:<k> | linear:<k> | rowland")
    p_gen.add_argument("--from", dest="n_from", type=int, required=True)
    p_gen.add_argument("--to", dest="n_to", type=int, required=True)
    p_gen.add_argument("--format", choices=("csv", "jsonl", "bfile"), default="csv")
    p_gen.add_argument("--offset", type=int, default=0,
                       help="b-file index = n + offset (bfile format only)")
    p_gen.add_argument("--out", default="-", help="output path, '-' for stdout")
    p_gen.add_argument("--cache", default=None,
                       help="append-only JSONL term cache (opt-in)")
    p_gen.set_defaults(fn=cmd_gen)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--family", type=_family_arg, default=None,
                          help="terms/symmetry suites (default main); other "
                               "suites accept only the family they run")
    p_verify.add_argument("--to", type=int, default=None,
                          help="term count or index bound, per suite")
    p_verify.add_argument("--n-max", dest="n_max", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=50,
                          help="random m per n (theorem1)")
    p_verify.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    p_verify.add_argument("--eq5-max", dest="eq5_max", type=int, default=200)
    p_verify.add_argument("--m-min", dest="m_min", type=int, default=-20)
    p_verify.add_argument("--m-max", dest="m_max", type=int, default=20)
    p_verify.add_argument("--lf-max", dest="lf_max", type=int, default=1000)
    p_verify.add_argument("--bound", type=int, default=None,
                          help="value bound for the coverage suite")
    p_verify.add_argument("--k-max", dest="k_max", type=int, default=5)
    p_verify.set_defaults(fn=cmd_verify)

    p_cf = sub.add_parser("cf", help="evaluate a continued fraction")
    p_cf.add_argument("--scheme", choices=("t1", "t2"), required=True)
    p_cf.add_argument("--n", type=int, required=True)
    p_cf.add_argument("--m", type=int, required=True)
    p_cf.set_defaults(fn=cmd_cf)

    p_oeis = sub.add_parser("oeis-check", help="diff local terms against a b-file")
    p_oeis.add_argument("--bfile", required=True)
    p_oeis.add_argument("--family", type=_family_arg, required=True)
    p_oeis.add_argument("--offset", default="0",
                        help="integer, or 'auto' to fit by longest agreement")
    p_oeis.add_argument("--limit", type=int, default=0,
                        help="compare at most this many entries (0 = all)")
    p_oeis.set_defaults(fn=cmd_oeis_check)

    p_cmp = sub.add_parser("compare", help="prime yield vs the Rowland sequence")
    p_cmp.add_argument("--terms", type=int, default=25)
    p_cmp.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GcdseqError as exc:
        print(f"gcdseq {args.command}: error: {exc}", file=sys.stderr)
        usage = (EmptyRange, UnsupportedFamily, IndexBelowDomain)
        return EXIT_USAGE if isinstance(exc, usage) else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
