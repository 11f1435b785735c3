"""Command-line workbench.

Subcommands:

* ``gen``        term generation (csv, jsonl or OEIS b-file output)
* ``verify``     verification suites with a machine-readable JSON report
* ``cf``         evaluate one continued fraction against its closed forms
* ``oeis-check`` cross-check local terms against a downloaded b-file
* ``compare``    prime-yield comparison against the Rowland sequence

Exit codes: 0 clean, 1 usage error (such as an option the ``verify`` suite
does not read), 2 violations, data or output errors (such as a closed stdout).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
from enum import Enum

from .bfile import format_bfile, read_bfile, read_int
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


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _arg_type(parse):
    """An argparse type that reports ``parse``'s ValueError message."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _parse_family(text):
    from . import families

    return families.FamilySpec.parse(text)


_family_arg = _arg_type(_parse_family)
_int_arg = _arg_type(read_int)


def _jsonable(obj):
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):  # a record
        return {name: _jsonable(value) for name, value in zip(obj._fields, obj)}
    fractions = sys.modules.get("fractions")  # no Fraction exists until it is loaded
    if fractions is not None and isinstance(obj, fractions.Fraction):
        return str(obj)
    if isinstance(obj, Enum):
        return obj._value_
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


@contextlib.contextmanager
def _int_digits(digits):
    """Inside the block, ints of up to ``digits`` digits (0: any number)
    convert to and from text, past Python's limit
    (``sys.get_int_max_str_digits()``, 4300 by default)."""
    limit = sys.get_int_max_str_digits()
    if limit and not 0 < digits <= limit:
        sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _exact_text():
    """Output prints exact values of any size; input keeps the limit."""
    return _int_digits(0)


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


def _read_cache_line(line, key, n_from, n_to):
    """The term dict a cache line holds, or None if the line is malformed.

    A line with an integer past the digit limit in force (the larger of
    Python's and the run's own, set by ``_cached_records``) is malformed
    unless it is an ASCII entry of another family than ``key``, or of an n
    outside n_from..n_to, read with its integers left as text; then it is
    returned as it stands, to be kept byte for byte.
    """
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        return None
    except ValueError:  # an integer past the digit limit
        with contextlib.suppress(ValueError, TypeError, KeyError):
            rec = json.loads(line, parse_int=str)
            if line.isascii() and type(rec["family"]) is str and (
                    rec["family"] != key or not n_from <= int(rec["n"]) <= n_to):
                return line.rstrip("\n")
        return None
    if (not isinstance(rec, dict) or rec.keys() != _CACHE_FIELDS
            or not isinstance(rec["family"], str)
            or type(rec["n"]) is not int or type(rec["x"]) is not int
            or type(rec["y_mod_x"]) is not int or type(rec["d"]) is not int
            or type(rec["a"]) is not int):  # bool is not int here
        return None
    return rec


def _cached_records(family, n_from, n_to, cache_path):
    """Term dicts for the range, read from and written back to the cache, and
    beside them, position for position, the JSON text each was written as
    (None for a term this run did not write).

    Every term comes from one ``scan`` of the range. A cached entry equal to
    the scanned record is kept as read; any other entry for the range, and
    any malformed line, gets one warning on stderr and is dropped. Integers
    are read up to the larger of Python's digit limit
    (``sys.get_int_max_str_digits()``, 4300 by default) and the digits of the
    run's largest term; a line past that is malformed unless it is another
    family's entry or one for an n outside the range, which is kept byte for
    byte. A run that adds a term or drops a line rewrites the whole file
    (valid entries in file order, then fresh ones) through a temporary file
    and ``os.replace``; a run served wholly from a clean cache writes
    nothing. Each fresh term is serialized once, for the file, and that
    text is returned for ``gen --format jsonl`` to print.
    """
    from . import families

    key = str(family)
    cached = {}
    dropped = False
    if cache_path and os.path.exists(cache_path):
        # a line may hold as many digits as the run's largest term (x at n_to,
        # or a Rowland difference, at most n_to + 1) or Python's limit, if more
        largest = (n_to + 1 if family.kind is families.Kind.ROWLAND
                   else families.numerator(family, n_to))
        with _exact_text():
            digits = len(str(largest))
        with open(cache_path, "r", encoding="ascii", errors="replace") as fh, \
                _int_digits(digits):
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                rec = _read_cache_line(line, key, n_from, n_to)
                if rec is None:
                    print(f"warning: malformed cache line {lineno}; ignored",
                          file=sys.stderr)
                    dropped = True
                    continue
                # another term's line past the digit limit is kept under its number
                cached[lineno if type(rec) is str else (rec["family"], rec["n"])] = rec
    records = []
    fresh = []  # the positions in records of the terms not found in the cache
    for scanned in families.scan(family, n_from, n_to):
        rec = scanned.as_dict()
        hit = cached.get((key, scanned.n))
        if hit == rec:
            rec = hit
        else:
            if hit is not None:
                print(f"warning: invalid cache entry for {key} n={scanned.n}; recomputed",
                      file=sys.stderr)
                del cached[(key, scanned.n)]
            fresh.append(len(records))
        records.append(rec)
    texts = [None] * len(records)
    if cache_path and (fresh or dropped):
        tmp = f"{cache_path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="ascii") as fh, _exact_text():
                for rec in cached.values():
                    fh.write((rec if type(rec) is str else json.dumps(rec)) + "\n")
                for i in fresh:
                    texts[i] = json.dumps(records[i])
                    fh.write(texts[i] + "\n")
            os.replace(tmp, cache_path)
        except OSError as exc:
            # name the path the user gave, not the temporary file beside it
            raise OSError(exc.errno, exc.strerror, cache_path) from None
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return records, texts


def cmd_gen(args):
    if args.offset is not None and args.format != "bfile":
        print("gcdseq gen: error: --offset applies to --format bfile only",
              file=sys.stderr)
        return EXIT_USAGE
    from . import families

    families._check_range(args.family, args.n_from, args.n_to)
    try:
        records, texts = _cached_records(args.family, args.n_from, args.n_to, args.cache)
        with _exact_text():
            if args.format == "csv":
                lines = ["n,x,d,a,class"]
                lines += [f"{r['n']},{r['x']},{r['d']},{r['a']},{r['class']}" for r in records]
                _emit("\n".join(lines) + "\n", args.out)
            elif args.format == "jsonl":
                # a term this run wrote to the cache prints the text it was written as
                lines = [json.dumps(r) if t is None else t for r, t in zip(records, texts)]
                _emit("\n".join(lines) + "\n", args.out)
            else:  # bfile
                entries = [(r["n"] + (args.offset or 0), r["a"]) for r in records]
                _emit(format_bfile(entries), args.out)
    except BrokenPipeError:
        raise  # a closed stdout is handled in main
    except OSError as exc:
        print(f"gcdseq gen: error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _identity_indices(n_max):
    """The n = 3..n_max an identity suite checks; none is a usage error."""
    if n_max < 3:
        raise EmptyRange(f"empty range 3..{n_max}")
    return range(3, n_max + 1)


def _suite_theorem1(o):
    from . import contfrac

    indices = _identity_indices(o.to)
    if o.trials < 1:
        raise EmptyRange(f"need at least one trial per n, got {o.trials}")
    rng = random.Random(o.seed)
    checked = 0
    failures = []
    row_failures = []
    for n in indices:
        (eq1,) = contfrac.closed_forms(contfrac.Scheme.T1, n)
        if not eq1.row_identity():
            row_failures.append(n)
        done = attempts = 0
        while done < o.trials and attempts < o.trials * 20:
            attempts += 1
            m = rng.randint(-(10**9), 10**9)
            if m == 0:
                continue
            try:
                cf = contfrac.eval_cf(contfrac.cf_spec(contfrac.Scheme.T1, n, m))
                equal = eq1.equals(cf, m)
            except ZeroDenominator:
                continue
            done += 1
            checked += 1
            if not equal:
                failures.append({"n": n, "m": m, "cf": str(cf), "eq1": str(eq1.value(m))})
    eq5_failures = []
    for n in range(3, o.eq5_max + 1):
        _, form2 = contfrac.elimination_chain(contfrac.Scheme.T1, n)
        if (form2.alpha, form2.beta) != (b(n - 3), -n * b(n - 4)):
            eq5_failures.append(n)
    clean = not failures and not row_failures and not eq5_failures
    return {
        "n_max": o.to,
        "trials_per_n": o.trials,
        "seed": o.seed,
        "checked": checked,
        "cf_mismatches": failures,
        "eq1_row_failures": row_failures,
        "eq5_n_max": o.eq5_max,
        "eq5_failures": eq5_failures,
    }, clean


def _suite_theorem2(o):
    from . import contfrac

    indices = _identity_indices(o.to)
    if o.m_min > o.m_max:
        raise EmptyRange(f"empty m range {o.m_min}..{o.m_max}")
    combos = skipped = printed_matches = printed_rows = 0
    derived_failures = []
    derived_row_failures = []
    for n in indices:
        printed, derived = contfrac.closed_forms(contfrac.Scheme.T2, n)
        printed_rows += printed.row_identity()
        if not derived.row_identity():
            derived_row_failures.append(n)
        for m in range(o.m_min, o.m_max + 1):
            try:
                cf = contfrac.eval_cf(contfrac.cf_spec(contfrac.Scheme.T2, n, m))
                printed_equal = printed.equals(cf, m)
                derived_equal = derived.equals(cf, m)
            except ZeroDenominator:
                skipped += 1
                continue
            combos += 1
            if not derived_equal:
                derived_failures.append({"n": n, "m": m, "cf": str(cf)})
            if printed_equal:
                printed_matches += 1
    if combos == 0:
        raise EmptyRange(f"every (n, m) in 3..{o.to} x {o.m_min}..{o.m_max} "
                         f"has a zero denominator")
    lf_failures = [
        n for n in range(0, o.lf_max + 1) if b(n) != b_via_left_factorial(n)
    ]
    clean = not derived_failures and not derived_row_failures and not lf_failures
    return {
        "n_max": o.to,
        "m_range": [o.m_min, o.m_max],
        "combos": combos,
        "skipped_zero_denominator": skipped,
        "derived_failures": derived_failures,
        "printed_matches": printed_matches,
        "printed_mismatches": combos - printed_matches,
        "derived_row_failures": derived_row_failures,
        "printed_row_matches": printed_rows,
        "left_factorial_n_max": o.lf_max,
        "left_factorial_failures": lf_failures,
    }, clean


def _suite_eq4(o):
    from . import contfrac

    rows = []
    clean = True
    for n in _identity_indices(o.to):
        report = contfrac.verify_eq4(n)
        rows.append(_jsonable(report))
        if not report.corrected_holds:
            clean = False
    return {"n_max": o.to, "rows": rows}, clean


def _suite_terms(o):
    from . import conjectures

    return conjectures.verify_primes_or_one(o.family, o.to)


def _suite_symmetry(o):
    from . import conjectures

    return conjectures.verify_symmetry(o.family, o.to)


def _suite_pairs(o):
    from . import conjectures

    return conjectures.verify_pair_identities(o.family, o.to)


def _suite_triple(o):
    from . import conjectures

    return conjectures.verify_triple_rule_a2(o.to)


def _suite_coverage(o):
    from . import conjectures

    bound = o.to + 1 if o.bound is None else o.bound
    if bound < 11:
        raise EmptyRange(f"no candidate prime in 11..{bound}")
    return conjectures.prime_coverage(o.to, bound)


def _suite_gcd_replacement(o):
    from . import families

    return families.verify_factorial_replacement(3, o.to)


def _suite_fastpath(o):
    from . import families

    ks = range(1, o.k_max + 1)
    specs = [families.MAIN, *map(families.quadratic, ks), *map(families.linear, ks)]
    return families.verify_strategy_equivalence(specs, o.to)


# suite -> (runner, the families its --family may name, by str(family), the
# defaults of the other options it reads; giving any other is a usage error).
# Families None: any family, default main; (): no --family. A runner returns
# a library report (a named tuple) or a plain (body, clean) tuple.
_SUITE_RUNNERS = {
    "terms": (_suite_terms, None, {"to": 10000}),
    "theorem1": (_suite_theorem1, (),
                 {"to": 60, "trials": 50, "seed": 20230923, "eq5_max": 200}),
    "theorem2": (_suite_theorem2, (),
                 {"to": 12, "m_min": -20, "m_max": 20, "lf_max": 1000}),
    "eq4": (_suite_eq4, (), {"to": 50}),
    "symmetry": (_suite_symmetry, None, {"to": 2000}),
    "pairs": (_suite_pairs, ("main",), {"to": 2000}),
    "triple": (_suite_triple, ("quad:2",), {"to": 500}),
    "coverage": (_suite_coverage, ("main",), {"to": 2000, "bound": None}),
    "gcd-replacement": (_suite_gcd_replacement, ("main",), {"to": 2000}),
    "fastpath": (_suite_fastpath, (), {"to": 1500, "k_max": 5}),
}

SUITES = tuple(_SUITE_RUNNERS)


@_exact_text()
def cmd_verify(args):
    runner, accepted, defaults = _SUITE_RUNNERS[args.suite]
    given = {k: v for k, v in vars(args).items() if k not in ("command", "fn", "suite")}
    family = given.pop("family", None)
    if family is not None and accepted is not None and str(family) not in accepted:
        print(f"gcdseq verify: error: suite {args.suite} does not run "
              f"--family {family}", file=sys.stderr)
        return EXIT_USAGE
    foreign = [f"--{name.replace('_', '-')}" for name in given if name not in defaults]
    if foreign:
        print(f"gcdseq verify: error: suite {args.suite} does not read "
              f"{', '.join(foreign)}", file=sys.stderr)
        return EXIT_USAGE
    if family is None and accepted != ():
        from . import families

        family = families.MAIN
    result = runner(argparse.Namespace(family=family, **{**defaults, **given}))
    if type(result) is tuple:  # not a report, which is a tuple subclass
        body, clean = result
    else:
        body, clean = _jsonable(result), result.clean
    print(json.dumps({"suite": args.suite, "clean": clean, **body}, indent=2))
    return EXIT_OK if clean else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# cf
# ---------------------------------------------------------------------------

@_exact_text()
def cmd_cf(args):
    from . import contfrac

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

def _agreement(entries, family, offset):
    """(compared, skipped below domain, first divergence) of ``entries`` read
    as term ``index - offset``; comparison stops at the first divergence."""
    from . import families

    compared = skipped = 0
    for index, value in entries:
        n = index - offset
        if n < family.first_index:
            skipped += 1
            continue
        computed = families.term(family, n).a
        compared += 1
        if computed != value:
            return compared, skipped, {"file_index": index, "n": n,
                                       "file_value": value, "computed": computed}
    return compared, skipped, None


def _fit_offset(entries, family):
    """Offset maximizing the agreement prefix (ties: smallest offset).

    Candidates: each offset that puts one of the file's first 8 indices at
    one of the family's first 8, and 0 (index = n, as ``gen`` writes by
    default), which fits a b-file that starts far out.
    """
    first = family.first_index
    probe = min(8, len(entries))
    candidates = sorted(
        {0, *(entries[i][0] - (first + j) for i in range(probe) for j in range(probe))}
    )
    window = entries[:64]

    def matches(offset):
        compared, _, divergence = _agreement(window, family, offset)
        return compared - (divergence is not None)

    return max(candidates, key=matches, default=0)


def cmd_oeis_check(args):
    if args.limit < 0:
        print(f"gcdseq oeis-check: error: bad limit {args.limit}", file=sys.stderr)
        return EXIT_USAGE
    if args.offset != "auto":
        try:
            offset = read_int(args.offset)
        except ValueError:
            print(f"gcdseq oeis-check: error: bad offset {args.offset!r}",
                  file=sys.stderr)
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
    if args.offset == "auto":
        offset = _fit_offset(data.entries, family)
    compared, skipped, divergence = _agreement(
        data.entries[: args.limit or None], family, offset)
    if compared == 0:
        why = ("empty b-file" if not data.entries else
               f"every entry read falls below n = {family.first_index} at offset {offset}")
        print(f"warning: {why}, nothing compared", file=sys.stderr)
    with _exact_text():
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

@_exact_text()
def cmd_compare(args):
    from . import analytics

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
    p_gen.add_argument("--from", dest="n_from", type=_int_arg, required=True)
    p_gen.add_argument("--to", dest="n_to", type=_int_arg, required=True)
    p_gen.add_argument("--format", choices=("csv", "jsonl", "bfile"), default="csv")
    p_gen.add_argument("--offset", type=_int_arg,
                       help="b-file index = n + offset, default 0 (bfile only)")
    p_gen.add_argument("--out", default="-", help="output path, '-' for stdout")
    p_gen.add_argument("--cache", default=None,
                       help="JSONL term cache (opt-in), checked against the scan, "
                            "rewritten whole when a run adds or repairs an entry")
    p_gen.set_defaults(fn=cmd_gen)

    # each option defaults to absent, so cmd_verify sees only those given
    p_verify = sub.add_parser("verify", help="run a verification suite",
                              argument_default=argparse.SUPPRESS)
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--family", type=_family_arg,
                          help="terms/symmetry suites (default main); other "
                               "suites accept only the family they run")
    p_verify.add_argument("--to", "--n-max", dest="to", type=_int_arg,
                          help="term count or index bound, per suite")
    p_verify.add_argument("--trials", type=_int_arg, help="random m per n (theorem1)")
    p_verify.add_argument("--seed", type=_int_arg)
    p_verify.add_argument("--eq5-max", type=_int_arg)
    p_verify.add_argument("--m-min", type=_int_arg)
    p_verify.add_argument("--m-max", type=_int_arg)
    p_verify.add_argument("--lf-max", type=_int_arg)
    p_verify.add_argument("--bound", type=_int_arg, help="value bound (coverage)")
    p_verify.add_argument("--k-max", type=_int_arg)
    p_verify.set_defaults(fn=cmd_verify)

    p_cf = sub.add_parser("cf", help="evaluate a continued fraction")
    p_cf.add_argument("--scheme", choices=("t1", "t2"), required=True)
    p_cf.add_argument("--n", type=_int_arg, required=True)
    p_cf.add_argument("--m", type=_int_arg, required=True)
    p_cf.set_defaults(fn=cmd_cf)

    p_oeis = sub.add_parser("oeis-check", help="diff local terms against a b-file")
    p_oeis.add_argument("--bfile", required=True)
    p_oeis.add_argument("--family", type=_family_arg, required=True)
    p_oeis.add_argument("--offset", default="0",
                        help="integer, or 'auto' to fit by longest agreement")
    p_oeis.add_argument("--limit", type=_int_arg, default=0,
                        help="compare at most this many entries (0 = all)")
    p_oeis.set_defaults(fn=cmd_oeis_check)

    p_cmp = sub.add_parser("compare", help="prime yield vs the Rowland sequence")
    p_cmp.add_argument("--terms", type=_int_arg, default=25)
    p_cmp.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except GcdseqError as exc:
        print(f"gcdseq {args.command}: error: {exc}", file=sys.stderr)
        usage = (EmptyRange, UnsupportedFamily, IndexBelowDomain)
        return EXIT_USAGE if isinstance(exc, usage) else EXIT_VIOLATION
    except BrokenPipeError:
        # stdout was closed; devnull takes what is left, so exit flushes cleanly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
