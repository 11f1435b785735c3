import json
import os
import subprocess
import sys

import pytest

import gcdseq
from gcdseq.cli import main

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


@pytest.mark.parametrize("option", ["--cache", "--out"])
def test_gen_unusable_path_is_a_clean_error(tmp_path, capsys, option):
    code, out, err = run(capsys, "gen", "--family", "main", "--from", "3", "--to", "5",
                         option, str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("gcdseq gen: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("family, n_from", [("main", 3), ("quad:2", 3), ("linear:3", 3),
                                             ("rowland", 1)],
                         ids=["main", "quad:2", "linear:3", "rowland"])
def test_gen_cache_roundtrip(tmp_path, capsys, family, n_from):
    cache = tmp_path / "cache.jsonl"
    args = ("gen", "--family", family, "--from", str(n_from), "--to", "8",
            "--cache", str(cache))
    code, first, _ = run(capsys, *args)
    assert code == 0
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
    code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--n-max", "12",
                       "--trials", "5", "--eq5-max", "30", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["cf_mismatches"] == [] and report["eq5_failures"] == []
    assert report["checked"] == 50  # 10 n values x 5 trials


def test_verify_theorem2(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem2", "--n-max", "6",
                       "--lf-max", "50", "--m-min", "-10", "--m-max", "10")
    assert code == 0
    report = json.loads(out)
    assert report["derived_failures"] == []
    assert report["printed_matches"] == 0
    assert report["printed_mismatches"] > 0
    assert report["left_factorial_failures"] == []


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
