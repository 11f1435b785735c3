"""The byte-identity manifest: each listed CLI invocation still gives the
output recorded in ``manifest.json``.

Per invocation the manifest holds the argv, the exit code and the sha256 of
stdout, of stderr and of every file the invocation leaves in its working
directory (the ``--cache`` files; ``{dir}`` in an argv stands for that
directory; ``{dir}`` also stands for it in stdout and stderr). The
invocations are the ten ``verify`` suites at their defaults, every argv of
the benchmark's workloads (``perfbench/run.py``, at its default seed),
``gen`` in each format, with and without ``--cache``, for five families,
far ``gen`` starts that take the single-term route per term, ``cf`` in
both schemes and ``oeis-check`` on b-files that ``gen`` wrote. They run in
this process, through ``cli.main``, sharing its caches, as the benchmark's
``session`` does.

An intended output change regenerates the manifest, and the change that
needs it says so:

    PYTHONPATH=src:tests python -c "import test_manifest; test_manifest.regenerate()"
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from gcdseq.cli import SUITES, main

MANIFEST = os.path.join(os.path.dirname(__file__), "manifest.json")

_GEN_FAMILIES = ("main", "quad:3", "linear:2", f"quad:{2**70 + 5}", "rowland")


def _verify(suite, *extra):
    return ["verify", "--suite", suite, *extra]


def invocations():
    """Every argv the manifest covers, in the order they run."""
    argvs = [_verify(suite) for suite in SUITES]
    argvs += [  # the benchmark's workloads: dense, sparse, identities, session
        _verify("symmetry", "--to", "600"),
        _verify("theorem1", "--n-max", "150", "--seed", "20230923"),
        _verify("theorem2", "--n-max", "120"),
        _verify("eq4", "--n-max", "400"),
    ]
    session = ["gen", "--family", "main", "--from", "3", "--to", "3000",
               "--cache", "{dir}/session.jsonl"]
    argvs += [session + ["--format", "jsonl"], session + ["--format", "bfile"],
              *(_verify(suite, "--to", "3000")
                for suite in ("terms", "pairs", "coverage", "gcd-replacement")),
              ["compare", "--terms", "3000"]]
    for i, family in enumerate(_GEN_FAMILIES):
        gen = ["gen", "--family", family, "--from", "3", "--to", "400"]
        for fmt in ("csv", "jsonl", "bfile"):
            argvs.append(gen + ["--format", fmt])
            # cold, then warm: the second run reads what the first wrote
            cached = gen + ["--format", fmt, "--cache", f"{{dir}}/gen{i}-{fmt}.jsonl"]
            argvs += [cached, cached]
    # far starts, one single term each: factors of x with Wilson's form
    # (main n = 357,603 and 357,605), run forward, and prime powers (quad:3
    # and linear:2); strides where x >= 2**64 (quad:2**70+5 at t >= 4096)
    for family, n_from, n_to in (("main", 357_602, 357_605), ("quad:3", 100_000, 100_005),
                                 ("linear:2", 100_000, 100_005),
                                 (f"quad:{2**70 + 5}", 4100, 4110)):
        argvs.append(["gen", "--family", family, "--from", str(n_from), "--to", str(n_to),
                      "--format", "jsonl"])
    # m = 0 ends at a zero denominator under a level, t2's m = 4 at level 0
    for scheme in ("t1", "t2"):
        argvs += [["cf", "--scheme", scheme, "--n", n, "--m", m]
                  for n, m in (("5", "3"), ("5", "0"), ("5", "4"), ("1700", "7"))]
    for name, family, n_from, n_to, offset in (("main.b", "main", "3", "400", "2"),
                                               ("quad3.b", "quad:3", "100000", "100005", "0")):
        path = f"{{dir}}/{name}"
        argvs.append(["gen", "--family", family, "--from", n_from, "--to", n_to,
                      "--format", "bfile", "--offset", offset, "--out", path])
        check = ["oeis-check", "--bfile", path, "--family", family, "--offset"]
        argvs += [check + [offset], check + ["auto"], check + ["1"]]  # the last diverges
    return argvs


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _run(argv, workdir):
    """The manifest entry of one invocation, run with ``{dir}`` as ``workdir``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([arg.replace("{dir}", workdir) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    out, err = (text.getvalue().replace(workdir, "{dir}") for text in (out, err))
    files = {}
    if any("{dir}" in arg for arg in argv):
        for name in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, name), "rb") as fh:
                files[name] = _sha(fh.read())
    return {"argv": argv, "exit": code, "stdout": _sha(out.encode()),
            "stderr": _sha(err.encode()), "files": files}


def record(workdir):
    """The manifest's entries, computed now, with every ``{dir}`` in ``workdir``."""
    return [_run(argv, workdir) for argv in invocations()]


def regenerate(path=MANIFEST):
    """Recompute every entry and write the manifest."""
    with tempfile.TemporaryDirectory() as workdir:
        entries = record(workdir)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


def test_outputs_match_the_manifest(tmp_path):
    with open(MANIFEST, encoding="ascii") as fh:
        expected = json.load(fh)
    assert [entry["argv"] for entry in expected] == invocations()
    changed = [(want["argv"], got) for want, got in zip(expected, record(str(tmp_path)))
               if got != want]
    assert changed == []
