import json
import os
import shlex
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import gcdseq
from gcdseq import contfrac, families
from gcdseq.cli import _exact_text, build_parser, main
from gcdseq.contfrac import Scheme
from gcdseq.recurrences import b, left_factorial

from expected_terms import LINEAR_PREFIX, MAIN_PREFIX, QUAD_PREFIX, ROWLAND_DIFF_PREFIX


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_csv_main(capsys):
    code, out, _ = run(capsys, "gen", "--family", "main", "--from", "3", "--to", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,x,d,a,class"
    assert [line.split(",")[3] for line in lines[1:]] == ["5", "11", "19", "29", "41"]


def test_gen_csv_rowland(capsys):
    code, out, _ = run(capsys, "gen", "--family", "rowland", "--from", "1", "--to", "5",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert [line.split(",")[3] for line in lines] == ["1", "1", "1", "5", "3"]


def test_gen_jsonl_fields(capsys):
    code, out, _ = run(capsys, "gen", "--family", "quad:3", "--from", "5", "--to", "5",
                       "--format", "jsonl")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec == {"family": "quad:3", "n": 5, "x": 27, "y_mod_x": 12,
                   "d": 3, "a": 9, "class": "composite"}


def test_gen_bfile_offset(capsys):
    code, out, _ = run(capsys, "gen", "--family", "main", "--from", "3", "--to", "5",
                       "--format", "bfile", "--offset", "-2")
    assert code == 0
    assert out == "1 5\n2 11\n3 19\n"


def test_gen_empty_range_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--family", "main", "--from", "9", "--to", "3")
    assert code == 1
    assert "empty range" in err


def test_gen_below_domain_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--family", "main", "--from", "1", "--to", "5")
    assert code == 1
    assert "starts at" in err


def test_gen_malformed_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "cubic:2", "--from", "3", "--to", "5"])
    assert exc.value.code == 1


def test_gen_out_file(tmp_path, capsys):
    target = tmp_path / "terms.csv"
    code, out, _ = run(capsys, "gen", "--family", "main", "--from", "3", "--to", "4",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1] == "3,5,1,5,prime"


@pytest.mark.parametrize("option, missing_dir", [
    pytest.param("--cache", False, id="--cache"),
    pytest.param("--out", False, id="--out"),
    pytest.param("--cache", True, id="--cache-in-missing-dir"),
])
def test_gen_unusable_path_is_a_clean_error(tmp_path, capsys, option, missing_dir):
    path = tmp_path / "nodir" / "c.jsonl" if missing_dir else tmp_path
    code, out, err = run(capsys, "gen", "--family", "main", "--from", "3", "--to", "5",
                         option, str(path))
    assert code == 2 and out == ""
    assert err.startswith("gcdseq gen: error: ") and err.count("\n") == 1
    if missing_dir:
        # the error names the given path, not the temporary file written beside it
        assert err == f"gcdseq gen: error: [Errno 2] No such file or directory: '{path}'\n"
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("family, n_from", [("main", 3), ("quad:2", 3), ("linear:3", 3),
                                             ("rowland", 1)],
                         ids=["main", "quad:2", "linear:3", "rowland"])
def test_gen_cache_roundtrip(tmp_path, capsys, family, n_from):
    cache = tmp_path / "cache.jsonl"
    args = ("gen", "--family", family, "--from", str(n_from), "--to", "8")
    _, plain, _ = run(capsys, *args)
    args += ("--cache", str(cache))
    code, first, _ = run(capsys, *args)
    assert code == 0 and first == plain
    cached_lines = cache.read_text().strip().splitlines()
    assert len(cached_lines) == 9 - n_from
    code, second, err = run(capsys, *args)
    assert code == 0 and err == ""
    assert first == second
    assert cache.read_text().strip().splitlines() == cached_lines  # append-only, no growth


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_gen_offset_applies_to_bfile_only(capsys, fmt):
    code, out, err = run(capsys, "gen", "--family", "main", "--from", "3", "--to", "5",
                         "--format", fmt, "--offset", "7")
    assert code == 1 and out == ""
    assert err == "gcdseq gen: error: --offset applies to --format bfile only\n"


MAIN_3 = {"family": "main", "n": 3, "x": 5, "y_mod_x": 1, "d": 1, "a": 5, "class": "prime"}


@pytest.mark.parametrize("content, family, warning, row", [
    pytest.param(json.dumps({"family": "main", "n": 3, "x": 5, "y_mod_x": 1, "d": 5, "a": 1,
                             "class": "one"}) + "\n",
                 "main", "invalid cache entry", "3,5,1,5,prime", id="gcd-mismatch"),
    pytest.param(json.dumps(MAIN_3)[:30], "main", "malformed cache line", "3,5,1,5,prime",
                 id="torn-last-line"),
    pytest.param("[3, 5, 1, 5]\n", "main", "malformed cache line", "3,5,1,5,prime",
                 id="not-an-object"),
    pytest.param(json.dumps({k: v for k, v in MAIN_3.items() if k != "d"}) + "\n",
                 "main", "malformed cache line", "3,5,1,5,prime", id="missing-key"),
    pytest.param(json.dumps({"family": "rowland", "n": 1, "x": 1, "y_mod_x": 0, "d": 1,
                             "a": 999, "class": "one"}) + "\n",
                 "rowland", "invalid cache entry", "1,1,1,1,one", id="rowland-wrong-term"),
    pytest.param(json.dumps({"family": "main", "n": 3, "x": 5, "y_mod_x": 0, "d": 5, "a": 1,
                             "class": "prime"}) + "\n",
                 "main", "invalid cache entry", "3,5,1,5,prime", id="class-mismatch"),
    pytest.param(json.dumps({**MAIN_3, "y_mod_x": MAIN_3["y_mod_x"] + MAIN_3["x"]}) + "\n",
                 "main", "invalid cache entry", "3,5,1,5,prime", id="unreduced-residue"),
    # gcd(5, 2) = gcd(5, 1) = 1: d, a and class all match, only the residue is wrong
    pytest.param(json.dumps({**MAIN_3, "y_mod_x": 2}) + "\n",
                 "main", "invalid cache entry", "3,5,1,5,prime", id="wrong-residue-same-gcd"),
])
def test_gen_cache_detects_corruption(tmp_path, capsys, content, family, warning, row):
    cache = tmp_path / "cache.jsonl"
    cache.write_text(content)
    n = "1" if family == "rowland" else "3"
    argv = ("gen", "--family", family, "--from", n, "--to", n)
    code, clean, err = run(capsys, *argv)
    assert code == 0
    _, term_line, _ = run(capsys, *argv, "--format", "jsonl")
    code, out, err = run(capsys, *argv, "--cache", str(cache))
    assert code == 0
    assert err.count("warning:") == 1 and warning in err
    assert out == clean
    assert out.strip().splitlines()[1] == row
    # the file is rewritten without the bad line, so the next run has nothing to warn of
    assert cache.read_text().splitlines() == [term_line.rstrip("\n")]
    code, again, err = run(capsys, *argv, "--cache", str(cache))
    assert code == 0 and again == clean and err == ""


def test_gen_takes_every_term_from_one_scan(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    argv = ("gen", "--family", "main", "--format", "jsonl", "--cache", str(cache))
    run(capsys, *argv, "--from", "10", "--to", "12")
    _, clean, _ = run(capsys, "gen", "--family", "main", "--from", "3", "--to", "20",
                      "--format", "jsonl")
    scans = []
    real_scan = families.scan

    def recording(family, n_from, n_to):
        scans.append((n_from, n_to))
        return real_scan(family, n_from, n_to)

    def refuse(*args):
        raise AssertionError("gen computed a term by itself")

    monkeypatch.setattr(families, "scan", recording)
    monkeypatch.setattr(families, "term", refuse)
    code, out, err = run(capsys, *argv, "--from", "3", "--to", "20")
    assert (code, out, err) == (0, clean, "")
    assert scans == [(3, 20)]
    # all cached: the cache is still checked against one scan of the range
    code, out, err = run(capsys, *argv, "--from", "3", "--to", "20")
    assert (code, out, err) == (0, clean, "")
    assert scans == [(3, 20), (3, 20)]


def test_gen_cache_rewrite_keeps_file_order_then_fresh_terms(tmp_path, capsys):
    def jsonl(family, n_from, n_to):
        _, out, _ = run(capsys, "gen", "--family", family, "--from", str(n_from),
                        "--to", str(n_to), "--format", "jsonl")
        return out.splitlines(keepends=True)

    quad = jsonl("quad:2", 3, 9)[::-1]  # file order, not n order
    cache = tmp_path / "cache.jsonl"
    cache.write_text("".join(quad + jsonl("main", 10, 12)) + json.dumps(MAIN_3)[:30])
    code, out, err = run(capsys, "gen", "--family", "main", "--from", "3", "--to", "20",
                         "--format", "jsonl", "--cache", str(cache))
    assert (code, out) == (0, "".join(jsonl("main", 3, 20)))
    assert err == "warning: malformed cache line 11; ignored\n"
    assert cache.read_text() == "".join(
        quad + jsonl("main", 10, 12) + jsonl("main", 3, 9) + jsonl("main", 13, 20))


def _counting_json(monkeypatch):
    """Route ``cli``'s json calls through counters; returns the counts."""
    from gcdseq import cli

    calls = {"dumps": 0, "loads": 0}
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(json))

    def counted(name):
        fn = getattr(json, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    proxy.dumps, proxy.loads = counted("dumps"), counted("loads")
    monkeypatch.setattr(cli, "json", proxy)
    return calls


def test_gen_jsonl_prints_the_text_it_wrote_to_the_cache(tmp_path, capsys, monkeypatch):
    # a fresh term is serialized once, for the cache file, and that text is
    # printed; a run served by the cache reads each line once and writes none
    cache = tmp_path / "cache.jsonl"
    argv = ("gen", "--family", "quad:4", "--from", "7", "--to", "46", "--format", "jsonl",
            "--cache", str(cache))
    calls = _counting_json(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert calls == {"dumps": 40, "loads": 0}
    assert out.splitlines() == cache.read_text().splitlines()
    assert len(out.splitlines()) == 40
    before = cache.stat()
    calls.update(dumps=0, loads=0)
    code, again, err = run(capsys, *argv)
    assert (code, again, err) == (0, out, "")
    assert calls == {"dumps": 40, "loads": 40}  # the dumps print the hits
    after = cache.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert cache.read_text() == out


def test_gen_cache_keeps_a_valid_entry_as_read(tmp_path, capsys):
    # an entry equal to the scanned record, re-spaced and with its keys in
    # another order, warns of nothing, is not rewritten and prints in its
    # own key order
    cache = tmp_path / "cache.jsonl"
    argv = ("gen", "--family", "main", "--from", "3", "--to", "9", "--format", "jsonl",
            "--cache", str(cache))
    run(capsys, *argv)
    lines = cache.read_text().splitlines()
    reordered = dict(reversed(json.loads(lines[2]).items()))
    lines[2] = json.dumps(reordered, separators=(" ,", ":   "))
    cache.write_text("\n".join(lines) + "\n")
    written, before = cache.read_bytes(), cache.stat()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert cache.read_bytes() == written
    assert cache.stat().st_mtime_ns == before.st_mtime_ns
    printed = out.splitlines()
    assert printed[2] == json.dumps(reordered)
    assert list(json.loads(printed[2])) == ["class", "a", "d", "y_mod_x", "x", "n", "family"]
    assert printed[:2] + printed[3:] == lines[:2] + lines[3:]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_terms_clean(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "terms", "--to", "50")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "terms" and report["clean"]
    assert report["ones"] == 3  # n = 37, 43, 48


def test_verify_terms_composites_exit_2(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "terms", "--family", "quad:3",
                       "--to", "5")
    assert code == 2
    report = json.loads(out)
    assert [5, 9] in report["composites"]


def test_verify_theorem1(capsys):
    contfrac._prefix.cache_clear()
    code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--n-max", "12",
                       "--trials", "5", "--eq5-max", "30", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["cf_mismatches"] == [] and report["eq5_failures"] == []
    assert report["eq1_row_failures"] == []
    assert report["checked"] == 50  # 10 n values x 5 trials
    # P_K is built once per n of each loop, not once per fraction evaluated
    assert contfrac._prefix.cache_info().misses == len(range(3, 13)) + len(range(3, 31))


def test_verify_theorem2(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem2", "--n-max", "6",
                       "--lf-max", "50", "--m-min", "-10", "--m-max", "10")
    assert code == 0
    report = json.loads(out)
    assert report["derived_failures"] == []
    assert report["printed_matches"] == 0
    assert report["printed_mismatches"] > 0
    assert report["derived_row_failures"] == []
    assert report["printed_row_matches"] == 0
    assert report["left_factorial_failures"] == []


@pytest.mark.parametrize("argv", [
    ("theorem1", "--n-max", "12", "--trials", "5", "--eq5-max", "2", "--seed", "7"),
    ("theorem2", "--n-max", "9", "--m-min", "-6", "--m-max", "6", "--lf-max", "-1"),
], ids=["theorem1", "theorem2"])
def test_identity_suites_evaluate_once_and_build_no_closed_form(monkeypatch, capsys, argv):
    calls = []
    evaluate = contfrac.eval_cf

    def spy(spec):
        calls.append((spec.n, spec.tail))
        return evaluate(spec)

    def forbidden(*args):
        raise AssertionError("a clean run builds no closed-form value")

    monkeypatch.setattr(contfrac, "eval_cf", spy)
    for name in ("theorem1_closed_form", "theorem2_closed_form", "theorem2_derived_form"):
        monkeypatch.setattr(contfrac, name, forbidden)
    monkeypatch.setattr(contfrac.ClosedForm, "value", forbidden)
    code, out, _ = run(capsys, "verify", "--suite", *argv)
    assert code == 0
    report = json.loads(out)
    if argv[0] == "theorem1":
        # m = 0 is drawn again before any call; no draw hits a zero here
        assert len(calls) == len(set(calls)) == report["checked"] == 50
        assert [n for n, _ in calls] == [n for n in range(3, 13) for _ in range(5)]
    else:
        assert calls == [(n, m) for n in range(3, 10) for m in range(-6, 7)]
        assert report["combos"] + report["skipped_zero_denominator"] == len(calls)


def test_a_wrong_row_is_reported_with_exact_values(monkeypatch, capsys):
    # a wrong b(-1) moves eq1's p0 at n = 3 only, a wrong !4 the derived p1
    # at n = 5 only; each mismatch prints the normalised fractions
    monkeypatch.setattr(contfrac, "b", lambda k: 1 if k == -1 else b(k))
    monkeypatch.setattr(contfrac, "left_factorial",
                        lambda k: left_factorial(k) + (k == 4))
    code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--n-max", "5",
                       "--trials", "3", "--eq5-max", "2", "--seed", "7")
    assert code == 2
    report = json.loads(out)
    assert report["clean"] is False and report["eq1_row_failures"] == [3]
    mismatches = report["cf_mismatches"]
    assert [entry["n"] for entry in mismatches] == [3, 3, 3]
    for entry in mismatches:
        m = entry["m"]
        assert entry == {"n": 3, "m": m,
                         "cf": str(contfrac.eval_cf(contfrac.cf_spec(Scheme.T1, 3, m))),
                         "eq1": str(Fraction(m - 3, 3 * (m - 1) - m))}

    code, out, _ = run(capsys, "verify", "--suite", "theorem2", "--n-max", "6",
                       "--m-min", "-3", "--m-max", "3", "--lf-max", "-1")
    assert code == 2
    report = json.loads(out)
    assert report["derived_row_failures"] == [5]
    assert report["derived_failures"] == [
        {"n": 5, "m": m, "cf": str(Fraction(m * 10 - 16, m - 4))}
        for m in (-3, -2, -1, 2, 3)]


def test_verify_eq4(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "eq4", "--n-max", "10")
    assert code == 0
    report = json.loads(out)
    assert all(not row["printed_holds"] for row in report["rows"])
    assert all(row["corrected_holds"] for row in report["rows"])


def test_verify_symmetry(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "symmetry", "--to", "120")
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_verify_pairs_small_clean(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "pairs", "--to", "60")
    assert code == 0


def test_verify_pairs_full_range_reports_gcd_counterexamples(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "pairs", "--to", "150")
    assert code == 2
    report = json.loads(out)
    assert report["gcd_violations"] == [[199, 62, 138, 3781]]
    assert report["additive_violations"] == []


def test_verify_triple(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "triple", "--to", "120")
    assert code == 0


def test_verify_coverage(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "coverage", "--to", "185",
                       "--bound", "131")
    assert code == 0
    assert json.loads(out)["missing"] == []


def test_verify_gcd_replacement(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gcd-replacement", "--to", "200")
    assert code == 0


def test_verify_fastpath(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fastpath", "--to", "80",
                       "--k-max", "2")
    assert code == 0
    report = json.loads(out)
    assert report["families"] == ["main", "quad:1", "quad:2", "linear:1", "linear:2"]
    assert (report["checked"], report["mismatches"]) == (5 * 78, [])


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "terms", "--to", "0"),
    ("verify", "--suite", "symmetry", "--to", "2"),
    ("verify", "--suite", "pairs", "--to", "2"),
    ("verify", "--suite", "triple", "--to", "0"),
    ("verify", "--suite", "coverage", "--to", "1"),
    ("verify", "--suite", "gcd-replacement", "--to", "2"),
    ("verify", "--suite", "fastpath", "--to", "2"),
    ("compare", "--terms", "0"),
    pytest.param(("verify", "--suite", "eq4", "--n-max", "2"), id="eq4-n-max"),
    pytest.param(("verify", "--suite", "theorem1", "--n-max", "2"), id="theorem1-n-max"),
    pytest.param(("verify", "--suite", "theorem1", "--trials", "0"), id="theorem1-trials"),
    pytest.param(("verify", "--suite", "theorem2", "--n-max", "2"), id="theorem2-n-max"),
    pytest.param(("verify", "--suite", "theorem2", "--m-min", "5", "--m-max", "-5"),
                 id="theorem2-m-range"),
    pytest.param(("verify", "--suite", "coverage", "--to", "100", "--bound", "5"),
                 id="coverage-bound"),
    pytest.param(("verify", "--suite", "theorem2", "--n-max", "3", "--m-min", "2",
                  "--m-max", "2"), id="theorem2-all-zero-denominators"),
], ids=lambda argv: argv[2] if argv[0] == "verify" else argv[0])
def test_empty_range_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"gcdseq {argv[0]}: error: ") and err.count("\n") == 1
    if argv[2:] in [(suite, "--n-max", "2") for suite in ("theorem1", "theorem2", "eq4")]:
        # the identity suites check their range in the CLI itself
        assert err == "gcdseq verify: error: empty range 3..2\n"


@pytest.mark.parametrize("argv", [
    ("pairs", "quad:3", "--to", "10"),
    ("triple", "quad:3", "--to", "10"),
    ("coverage", "quad:2", "--to", "10"),
    ("gcd-replacement", "linear:1", "--to", "10"),
    ("fastpath", "main", "--to", "10", "--k-max", "1"),
    ("eq4", "main", "--n-max", "4"),
], ids=lambda argv: argv[0])
def test_verify_rejects_a_family_the_suite_does_not_run(capsys, argv):
    suite, family, *extra = argv
    code, out, err = run(capsys, "verify", "--suite", suite, "--family", family, *extra)
    assert code == 1 and out == ""
    assert f"does not run --family {family}" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "symmetry", "--family", "linear:1"),
    ("verify", "--suite", "terms", "--family", "rowland"),
    ("cf", "--scheme", "t1", "--n", "2", "--m", "5"),
], ids=["symmetry-linear", "terms-rowland", "cf-below-domain"])
def test_input_error_is_a_usage_error(capsys, argv):
    # an unsupported family or an index below the domain is a usage error
    # (exit 1), not a violation (exit 2)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"gcdseq {argv[0]}: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, option", [
    (("terms", "--to", "5", "--trials", "3"), "--trials"),
    (("theorem1", "--to", "4", "--bound", "20"), "--bound"),
    (("theorem2", "--to", "4", "--seed", "1"), "--seed"),
    (("eq4", "--to", "4", "--k-max", "2"), "--k-max"),
    (("symmetry", "--to", "20", "--m-min", "1"), "--m-min"),
    (("pairs", "--to", "20", "--lf-max", "5"), "--lf-max"),
    (("triple", "--to", "20", "--eq5-max", "5"), "--eq5-max"),
    (("coverage", "--to", "20", "--k-max", "1"), "--k-max"),
    (("gcd-replacement", "--to", "20", "--bound", "20"), "--bound"),
    (("fastpath", "--to", "5", "--trials", "2"), "--trials"),
], ids=lambda value: value[0] if isinstance(value, tuple) else None)
def test_verify_rejects_an_option_the_suite_does_not_read(capsys, argv, option):
    suite, *extra = argv
    code, out, err = run(capsys, "verify", "--suite", suite, *extra)
    assert code == 1 and out == ""
    assert err == f"gcdseq verify: error: suite {suite} does not read {option}\n"


@pytest.mark.parametrize("suite, key, bound, extra", [
    ("terms", "terms", "20", ()),
    ("theorem1", "n_max", "5", ("--trials", "3")),
], ids=["terms", "theorem1"])
def test_verify_n_max_is_a_spelling_of_to(capsys, suite, key, bound, extra):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--to", bound, *extra)
    assert code == 0 and json.loads(out)[key] == int(bound)
    assert run(capsys, "verify", "--suite", suite, "--n-max", bound, *extra) == (0, out, "")


def test_verify_accepts_the_family_the_suite_runs(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "triple", "--family", "quad:2",
                       "--to", "120")
    assert code == 0
    assert json.loads(out)["triples_checked"] > 0


def test_verify_unknown_suite_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "everything"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ("compare", "--terms", "300"),
    ("verify", "--suite", "terms", "--to", "20"),
    ("gen", "--family", "main", "--from", "3", "--to", "20"),
], ids=lambda argv: argv[0])
def test_closed_stdout_exits_2_without_a_traceback(argv):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gcdseq.__file__))}
    with subprocess.Popen([sys.executable, "-m", "gcdseq.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()  # the reader is gone before the child writes anything
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert err == b""


# ---------------------------------------------------------------------------
# cf
# ---------------------------------------------------------------------------

def test_cf_t1(capsys):
    code, out, _ = run(capsys, "cf", "--scheme", "t1", "--n", "4", "--m", "7")
    assert code == 0
    assert out == "cf = 17/13\neq1 = 17/13 equal\n"


def test_cf_t2(capsys):
    code, out, _ = run(capsys, "cf", "--scheme", "t2", "--n", "3", "--m", "5")
    assert code == 0
    assert "cf = 8/3" in out
    assert "printed = 10/9 differs" in out
    assert "derived = 8/3 equal" in out


def test_cf_zero_denominator(capsys):
    code, _, err = run(capsys, "cf", "--scheme", "t1", "--n", "3", "--m", "0")
    assert code == 2
    assert "level 1" in err


def _read_exact(text):
    """A printed fraction read back, whatever its number of digits."""
    with _exact_text():
        return Fraction(text)


@pytest.mark.parametrize("scheme", ["t1", "t2"])
def test_cf_prints_values_past_the_digit_limit(capsys, scheme):
    # at n = 1700 the fraction has more digits than Python converts to text
    # by default; it prints in full, and input keeps the limit afterwards
    code, out, err = run(capsys, "cf", "--scheme", scheme, "--n", "1700", "--m", "7")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    text = lines[0].removeprefix("cf = ")
    numerator = text.partition("/")[0].removeprefix("-")
    assert len(numerator) > sys.get_int_max_str_digits()
    assert _read_exact(text) == contfrac.eval_cf(contfrac.cf_spec(Scheme(scheme), 1700, 7))
    assert lines[-1].endswith(" equal")  # eq1, or T2's derived form
    with pytest.raises(ValueError, match="limit"):
        int(numerator)


def test_verify_report_prints_values_past_the_digit_limit(monkeypatch, capsys):
    # a failure listed at n = 1700 prints its exact fractions
    equals = contfrac.ClosedForm.equals
    monkeypatch.setattr(contfrac.ClosedForm, "equals",
                        lambda form, value, m: form.n != 1700 and equals(form, value, m))
    code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--n-max", "1700",
                       "--trials", "1", "--eq5-max", "2")
    assert code == 2
    [entry] = json.loads(out)["cf_mismatches"]
    assert entry["n"] == 1700
    cf = _read_exact(entry["cf"])
    assert cf == contfrac.eval_cf(contfrac.cf_spec(Scheme.T1, 1700, entry["m"]))
    assert cf == _read_exact(entry["eq1"])


def test_input_keeps_the_digit_limit(tmp_path, capsys):
    # only output lifts the limit: a longer integer read is refused cleanly
    big = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(SystemExit) as exit_:
        main(["cf", "--scheme", "t1", "--n", big, "--m", "7"])
    assert exit_.value.code == 1 and "Exceeds the limit" in capsys.readouterr().err
    bfile = tmp_path / "b.txt"
    _write_bfile(bfile, [(3, big)])
    code, _, err = run(capsys, "oeis-check", "--bfile", str(bfile), "--family", "main")
    limit = sys.get_int_max_str_digits()
    assert code == 2 and err.startswith(
        f"gcdseq oeis-check: {bfile}: line 2: Exceeds the limit ({limit} digits) of an "
        f"integer read: value has {limit + 1} digits, in ")
    cache = tmp_path / "cache.jsonl"
    cache.write_text('{"family": "main", "n": 3, "x": %s, "y_mod_x": 1, "d": 1, '
                     '"a": 5, "class": "prime"}\n' % big)
    code, out, err = run(capsys, "gen", "--family", "main", "--from", "3", "--to", "4",
                         "--cache", str(cache))
    assert (code, out) == (0, "n,x,d,a,class\n3,5,1,5,prime\n4,11,1,11,prime\n")
    assert err == "warning: malformed cache line 1; ignored\n"


def test_cache_reads_back_terms_past_the_digit_limit(tmp_path, capsys):
    # x = 3(k+1) - k = 2k + 3 has 4301 digits at k = 5*10**4299 + 1: a cache
    # line may hold as many digits as the run's own largest term when that is
    # past Python's limit
    family = f"linear:{5 * 10**4299 + 1}"
    cache = tmp_path / "cache.jsonl"
    args = ("gen", "--family", family, "--from", "3", "--to", "3", "--format", "jsonl",
            "--cache", str(cache))
    code, first, err = run(capsys, *args)
    assert (code, err) == (0, "")
    written = cache.read_bytes()
    assert len(written.split(b'"x": ')[1].split(b",")[0]) == 4301
    code, second, err = run(capsys, *args)
    assert (code, second, err) == (0, first, "")
    assert cache.read_bytes() == written


def test_cache_reads_up_to_the_interpreter_digit_limit(tmp_path, capsys):
    # main's terms at n <= 5 are short, so the run reads integers up to
    # Python's own limit: an entry at the limit is read and found wrong, one
    # digit more is a malformed line
    limit = sys.get_int_max_str_digits()
    assert limit == 4300
    for digits, warning in ((limit, "invalid cache entry for main n=4; recomputed"),
                            (limit + 1, "malformed cache line 1; ignored")):
        cache = tmp_path / f"cache{digits}.jsonl"
        cache.write_text('{"family": "main", "n": 4, "x": %s, "y_mod_x": 1, "d": 1, '
                         '"a": 11, "class": "prime"}\n' % ("9" * digits))
        code, out, err = run(capsys, "gen", "--family", "main", "--from", "3",
                             "--to", "5", "--cache", str(cache))
        assert (code, out) == (0, "n,x,d,a,class\n3,5,1,5,prime\n4,11,1,11,prime\n"
                                  "5,19,1,19,prime\n")
        assert err == f"warning: {warning}\n"


def test_cache_keeps_other_terms_past_the_digit_limit(tmp_path, capsys):
    # a run reads integers up to the larger of Python's limit and the digits
    # of its own largest term; a line past that which names another family,
    # or an n outside the run's range, is kept byte for byte in file order,
    # with no warning, while one for the run's own range, or one that is not
    # JSON, warns and is dropped
    big = "9" * 4400
    line = ('{"family": "%s", "n": %d, "x": ' + big + ', "y_mod_x": 1, "d": 1, "a": '
            + big + ', "class": "prime"}\n')
    other_family, other_n = line % ("linear:7", 100000), line % ("main", 9)
    own_n, torn = line % ("main", 4), (line % ("quad:2", 3))[:4420]
    cache = tmp_path / "cache.jsonl"
    cache.write_text(other_family + own_n + other_n + torn + "\n")
    _, first, _ = run(capsys, "gen", "--family", "main", "--from", "3", "--to", "5",
                      "--format", "jsonl")
    code, out, err = run(capsys, "gen", "--family", "main", "--from", "3", "--to", "5",
                         "--format", "jsonl", "--cache", str(cache))
    assert (code, out) == (0, first)
    assert err == ("warning: malformed cache line 2; ignored\n"
                   "warning: malformed cache line 4; ignored\n")
    assert cache.read_text() == other_family + other_n + first
    # the next run reads the kept lines again and has nothing to add or drop
    written = cache.read_bytes()
    code, again, err = run(capsys, "gen", "--family", "main", "--from", "3", "--to", "5",
                           "--format", "jsonl", "--cache", str(cache))
    assert (code, again, err) == (0, first, "")
    assert cache.read_bytes() == written


# ---------------------------------------------------------------------------
# oeis-check
# ---------------------------------------------------------------------------

def _write_bfile(path, pairs, header=True):
    lines = ["# synthetic fixture"] if header else []
    lines += [f"{i} {v}" for i, v in pairs]
    path.write_text("\n".join(lines) + "\n")


def test_oeis_check_roundtrip(tmp_path, capsys):
    bpath = tmp_path / "b000001.txt"
    code, out, _ = run(capsys, "gen", "--family", "main", "--from", "3", "--to", "40",
                       "--format", "bfile", "--out", str(bpath))
    assert code == 0
    code, out, _ = run(capsys, "oeis-check", "--bfile", str(bpath),
                       "--family", "main")
    assert code == 0
    report = json.loads(out)
    assert report["compared"] == 38 and report["first_divergence"] is None


@pytest.mark.parametrize("family,lo,hi", [("main", 3, 40), ("quad:4", 3, 30),
                                           ("linear:2", 3, 30), ("rowland", 1, 30)])
def test_oeis_check_roundtrip_all_families(tmp_path, capsys, family, lo, hi):
    bpath = tmp_path / "b.txt"
    code, _, _ = run(capsys, "gen", "--family", family, "--from", str(lo),
                     "--to", str(hi), "--format", "bfile", "--offset", "5",
                     "--out", str(bpath))
    assert code == 0
    code, out, _ = run(capsys, "oeis-check", "--bfile", str(bpath),
                       "--family", family, "--offset", "5")
    assert code == 0
    report = json.loads(out)
    assert report["compared"] == hi - lo + 1
    assert report["first_divergence"] is None


def test_verify_output_deterministic(capsys):
    args = ("verify", "--suite", "theorem1", "--n-max", "8", "--trials", "4",
            "--eq5-max", "10")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("family, terms, shift", [
    pytest.param("main", MAIN_PREFIX[:30], -2, id="main-2"),  # indexed from 1
    pytest.param("main", MAIN_PREFIX[:30], 0, id="main+0"),
    pytest.param("main", MAIN_PREFIX[:30], 5, id="main+5"),
    pytest.param("quad:2", QUAD_PREFIX[2], 7, id="quad:2+7"),
    pytest.param("linear:3", LINEAR_PREFIX[3], 1, id="linear:3+1"),
    pytest.param("rowland", ROWLAND_DIFF_PREFIX, 4, id="rowland+4"),
])
def test_oeis_check_auto_offset(tmp_path, capsys, family, terms, shift):
    bpath = tmp_path / "shifted.txt"
    first = 1 if family == "rowland" else 3
    _write_bfile(bpath, [(n + shift, v) for n, v in enumerate(terms, start=first)])
    code, out, _ = run(capsys, "oeis-check", "--bfile", str(bpath),
                       "--family", family, "--offset", "auto")
    assert code == 0
    report = json.loads(out)
    assert report["offset"] == shift
    assert report["compared"] == len(terms)


def test_oeis_check_auto_offset_tie_goes_to_the_smallest(tmp_path, capsys):
    # 4 is no term of main, so every candidate offset -7..7 agrees on 0 entries
    bpath = tmp_path / "first-wrong.txt"
    _write_bfile(bpath, [(3, 4)] + [(i, v) for i, v in enumerate(MAIN_PREFIX[1:30], start=4)])
    code, out, _ = run(capsys, "oeis-check", "--bfile", str(bpath),
                       "--family", "main", "--offset", "auto")
    assert code == 2
    report = json.loads(out)
    assert report["offset"] == -7
    assert report["compared"] == 1 and report["first_divergence"]["file_index"] == 3


def test_oeis_check_auto_offset_fits_a_far_bfile(tmp_path, capsys):
    # a b-file of quad:3 from n = 100,000, indexed as gen writes it (index = n)
    bpath = tmp_path / "far.b"
    code, _, _ = run(capsys, "gen", "--family", "quad:3", "--from", "100000",
                     "--to", "100005", "--format", "bfile", "--out", str(bpath))
    assert code == 0
    code, out, _ = run(capsys, "oeis-check", "--bfile", str(bpath),
                       "--family", "quad:3", "--offset", "auto")
    assert code == 0
    report = json.loads(out)
    assert report["offset"] == 0
    assert report["compared"] == 6 and report["first_divergence"] is None


def test_oeis_check_skips_below_domain(tmp_path, capsys):
    bpath = tmp_path / "withhead.txt"
    entries = [(1, 999), (2, 999)] + [(i, v) for i, v in enumerate(MAIN_PREFIX[:10], start=3)]
    _write_bfile(bpath, entries)
    code, out, _ = run(capsys, "oeis-check", "--bfile", str(bpath),
                       "--family", "main", "--offset", "0")
    assert code == 0
    report = json.loads(out)
    assert report["skipped_below_domain"] == 2


def test_oeis_check_divergence(tmp_path, capsys):
    bpath = tmp_path / "bad.txt"
    _write_bfile(bpath, [(3, 5), (4, 11), (5, 42)])
    code, out, _ = run(capsys, "oeis-check", "--bfile", str(bpath), "--family", "main")
    assert code == 2
    report = json.loads(out)
    assert report["first_divergence"] == {
        "file_index": 5, "n": 5, "file_value": 42, "computed": 19,
    }


def test_oeis_check_parse_error(tmp_path, capsys):
    bpath = tmp_path / "trunc.txt"
    bpath.write_text("3 5\n12\n")
    code, _, err = run(capsys, "oeis-check", "--bfile", str(bpath), "--family", "main")
    assert code == 2
    assert "line 2" in err
    bpath.write_bytes(b"3 5\n4 11\n\xff\n")
    code, out, err = run(capsys, "oeis-check", "--bfile", str(bpath), "--family", "main")
    assert code == 2 and out == ""
    assert "line 3" in err and err.count("\n") == 1
    # a value past the input limit: the error names its digits and quotes
    # a bounded prefix of the line, not all 4,301 digits
    bpath.write_text("3 5\n4 " + "9" * 4301 + "\n")
    code, out, err = run(capsys, "oeis-check", "--bfile", str(bpath), "--family", "main")
    assert code == 2 and out == ""
    assert "line 2" in err and "4301 digits" in err and err.count("\n") == 1
    assert len(err) < 300


def test_oeis_check_empty_file(tmp_path, capsys):
    bpath = tmp_path / "empty.txt"
    bpath.write_text("")
    code, out, err = run(capsys, "oeis-check", "--bfile", str(bpath), "--family", "main")
    assert code == 0
    assert "empty b-file" in err
    assert json.loads(out)["compared"] == 0


@pytest.mark.parametrize("extra", [
    pytest.param(("--offset", "100"), id="offset-past-every-entry"),
    pytest.param(("--offset", "0", "--limit", "2"), id="limit-stops-below-domain"),
])
def test_oeis_check_warns_when_nothing_is_compared(tmp_path, capsys, extra):
    bpath = tmp_path / "main.txt"
    _write_bfile(bpath, [(1, 999), (2, 999), (3, 5), (4, 11)])
    code, out, err = run(capsys, "oeis-check", "--bfile", str(bpath), "--family", "main",
                         *extra)
    assert code == 0
    report = json.loads(out)
    assert report["entries"] == 4
    assert report["compared"] == 0 and report["first_divergence"] is None
    assert err.count("\n") == 1 and "nothing compared" in err


def test_oeis_check_negative_limit_usage_error(tmp_path, capsys):
    bpath = tmp_path / "bad-last.txt"
    _write_bfile(bpath, [(3, 5), (4, 11), (5, 42)])
    code, out, err = run(capsys, "oeis-check", "--bfile", str(bpath), "--family", "main",
                         "--limit", "-1")
    assert code == 1 and out == ""
    assert "bad limit -1" in err


def _with_bfile(tmp_path, argv):
    """``argv``, given a b-file of main indexed from 1 if it runs oeis-check."""
    if argv[0] != "oeis-check":
        return argv
    bpath = tmp_path / "b.txt"
    _write_bfile(bpath, [(n - 2, v) for n, v in enumerate(MAIN_PREFIX[:10], start=3)])
    return (*argv, "--bfile", str(bpath), "--family", "main")


@pytest.mark.parametrize("argv, message", [
    (("oeis-check", "--offset", "1_0"), "bad offset '1_0'"),
    (("oeis-check", "--offset", "\u0665"), "bad offset '\u0665'"),
    (("oeis-check", "--offset", "+2"), "bad offset '+2'"),
    (("gen", "--family", "quad:1_0", "--from", "3", "--to", "5"),
     "bad family parameter '1_0'"),
    (("gen", "--family", "linear:\u0663", "--from", "3", "--to", "5"),
     "bad family parameter '\u0663'"),
    (("gen", "--family", "main", "--from", "+3", "--to", "5"), "invalid int value: '+3'"),
    (("verify", "--suite", "terms", "--to", "1_0"), "invalid int value: '1_0'"),
    (("verify", "--suite", "theorem2", "--m-min", " -2"), "invalid int value: ' -2'"),
    (("cf", "--scheme", "t1", "--n", "4", "--m", "\u0667"), "invalid int value: '\u0667'"),
    (("oeis-check", "--limit", "+3"), "invalid int value: '+3'"),
    (("compare", "--terms", "2_5"), "invalid int value: '2_5'"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else None)
def test_integers_follow_the_bfile_field_rule(tmp_path, capsys, argv, message):
    # an integer from outside is an optional '-' and ASCII digits, as in a b-file
    argv = _with_bfile(tmp_path, argv)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("argv, expected", [
    (("verify", "--suite", "theorem2", "--n-max", "4", "--m-min", "-20", "--m-max", "-18",
      "--lf-max", "5"), '"m_range": [\n    -20,\n    -18\n  ]'),
    (("oeis-check", "--offset", "-2"), '"offset": -2'),
    (("cf", "--scheme", "t1", "--n", "4", "--m", "-7"), "eq1 = "),
], ids=["m-min", "offset", "cf-m"])
def test_negative_integers_are_accepted(tmp_path, capsys, argv, expected):
    argv = _with_bfile(tmp_path, argv)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert expected in out


def test_oeis_check_missing_file(capsys):
    code, _, err = run(capsys, "oeis-check", "--bfile", "/nonexistent/b.txt",
                       "--family", "main")
    assert code == 2


def test_oeis_check_bad_offset_is_checked_before_the_file(capsys):
    code, out, err = run(capsys, "oeis-check", "--bfile", "/nonexistent/b.txt",
                         "--family", "main", "--offset", "1_0")
    assert code == 1 and out == ""
    assert "bad offset '1_0'" in err


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_cli(capsys):
    code, out, _ = run(capsys, "compare", "--terms", "25")
    assert code == 0
    report = json.loads(out)
    assert report["main"]["distinct_primes"] == 21
    assert report["rowland"]["distinct_primes"] == 4


def test_compare_cli_prints_exact_ratios(capsys):
    # Fractions, printed as strings: no float reaches the report
    code, out, _ = run(capsys, "compare", "--terms", "25")
    assert code == 0
    report = json.loads(out)
    assert (report["distinct_prime_ratio"], report["main_ones_share"],
            report["rowland_ones_share"]) == ("21/4", "0", "3/4")
    # a report prints its fields in declaration order, nested ones too
    assert list(report) == ["terms", "main", "rowland", "distinct_prime_ratio",
                            "main_ones_share", "rowland_ones_share"]
    for side in ("main", "rowland"):
        assert list(report[side]) == [
            "family", "terms", "measured", "ones", "prime_terms", "composite_terms",
            "distinct_primes", "max_prime", "primes", "new_prime_rate", "window"]


# ---------------------------------------------------------------------------
# start-up: each command imports only what it runs
# ---------------------------------------------------------------------------

# the residue engine, primality and the conjecture and comparison suites
_ENGINE = {"gcdseq.families", "gcdseq.primality", "gcdseq.conjectures",
           "gcdseq.analytics", "gcdseq._backend"}

_RUN_IN_FRESH_PROCESS = """
import contextlib, io, json, sys
import gcdseq, gcdseq.cli
argv = sys.argv[1:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = gcdseq.cli.main(argv)
else:
    gcdseq.cli.build_parser()
    code = 0
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("gcdseq") or m == "dataclasses")]))
"""


def _fresh(code, *args):
    """What ``code``, run by a fresh interpreter, prints as JSON."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gcdseq.__file__))}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", [
    (),
    ("verify", "--suite", "theorem1", "--n-max", "6", "--trials", "2", "--eq5-max", "6"),
    ("verify", "--suite", "theorem2", "--n-max", "5", "--m-min", "-3", "--m-max", "3",
     "--lf-max", "6"),
    ("verify", "--suite", "eq4", "--n-max", "6"),
    ("cf", "--scheme", "t2", "--n", "5", "--m", "3"),
], ids=["parser", "theorem1", "theorem2", "eq4", "cf"])
def test_identity_commands_skip_the_residue_engine(argv):
    code, loaded = _fresh(_RUN_IN_FRESH_PROCESS, *argv)
    assert code == 0
    loads = {"gcdseq", "gcdseq.cli", "gcdseq.recurrences"}
    if argv:  # building the parser alone loads no fraction engine
        loads.add("gcdseq.contfrac")
    assert loads <= set(loaded)
    assert not _ENGINE & set(loaded)


# records are named tuples, so no command pays for importing ``dataclasses``;
# only the fraction commands load the fraction engine
_NO_FRACTIONS = {"dataclasses", "gcdseq.contfrac", "fractions"}


@pytest.mark.parametrize("argv, loads, skips", [
    ((), {"gcdseq.cli"}, _NO_FRACTIONS),
    (("verify", "--suite", "theorem1", "--n-max", "6", "--trials", "2", "--eq5-max", "6"),
     {"gcdseq.contfrac"}, {"dataclasses"}),
    (("verify", "--suite", "terms", "--to", "20"),
     {"gcdseq.families", "gcdseq.primality", "gcdseq.conjectures"},
     {"gcdseq.analytics", *_NO_FRACTIONS}),
    (("verify", "--suite", "symmetry", "--to", "20"), {"gcdseq.conjectures"},
     {"gcdseq.analytics", *_NO_FRACTIONS}),
    (("gen", "--family", "main", "--from", "3", "--to", "20"), {"gcdseq.families"},
     {"gcdseq.conjectures", *_NO_FRACTIONS}),
    (("compare", "--terms", "5"), {"gcdseq.analytics"}, {"dataclasses", "gcdseq.contfrac"}),
    (("verify", "--suite", "fastpath", "--to", "20", "--k-max", "1"), {"gcdseq.families"},
     {"gcdseq.conjectures", *_NO_FRACTIONS}),
], ids=["parser", "theorem1", "terms", "symmetry", "gen", "compare", "fastpath"])
def test_commands_load_what_they_run(argv, loads, skips):
    code, loaded = _fresh(_RUN_IN_FRESH_PROCESS, *argv)
    assert code == 0
    assert loads <= set(loaded) and not skips & set(loaded)


def test_package_names_resolve_to_their_home_objects():
    from gcdseq import _backend, primality, recurrences

    homes = {
        _backend: ["backend_name"],
        families: ["MAIN", "ROWLAND", "Classification", "FamilySpec", "Kind", "Strategy",
                   "TermRecord", "linear", "quadratic", "scan", "term"],
        primality: ["PrimalityVerdict", "Verdict", "is_prime"],
        recurrences: ["b", "b_via_left_factorial", "left_factorial", "rowland_diff",
                      "rowland_term"],
    }
    assert sorted(n for names in homes.values() for n in names) == sorted(
        set(gcdseq.__all__) - {"__version__"})
    star = {}
    exec("from gcdseq import *", star)
    for home, names in homes.items():
        for name in names:
            assert getattr(gcdseq, name) is getattr(home, name), name
            assert star[name] is getattr(home, name), name
    assert star["__version__"] == gcdseq.__version__


def test_import_gcdseq_loads_no_submodule_and_lists_its_names():
    loaded, listed, bound = _fresh(
        "import json, sys, gcdseq\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('gcdseq'))\n"
        "listed = dir(gcdseq)\n"
        "from gcdseq import *\n"
        "print(json.dumps([loaded, listed, [n for n in gcdseq.__all__ if n in globals()]]))")
    assert loaded == ["gcdseq"]
    assert set(gcdseq.__all__) <= set(listed)
    assert bound == gcdseq.__all__


def test_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'gcdseq' has no attribute 'no_such_name'"):
        getattr(gcdseq, "no_such_name")


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------

def test_readme_cli_block_parses():
    # a renamed or removed option fails here; parsing runs no command
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n")[1]
    argvs = [shlex.split(line.partition("#")[0]) for line in block.splitlines()]
    commands = [argv[1:] for argv in argvs if argv[:1] == ["gcdseq"]]
    assert len(commands) == 18
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]
