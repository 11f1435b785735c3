"""The byte-identity manifest: each listed CLI invocation still gives the
output recorded in ``manifest.json``.

Per invocation the manifest holds the argv, the exit code and the sha256 of
stdout, of stderr and of every file the invocation leaves in its working
directory (the ``--cache`` files; ``{dir}`` in an argv stands for that
directory). The invocations are the ten ``verify`` suites at their
defaults, every argv of the benchmark's workloads (``perfbench/run.py``, at
its default seed) and ``gen`` in each format, with and without ``--cache``,
for five families. They run in this process, through ``cli.main``, sharing
its caches, as the benchmark's ``session`` does.

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
    files = {}
    if any("{dir}" in arg for arg in argv):
        for name in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, name), "rb") as fh:
                files[name] = _sha(fh.read())
    return {"argv": argv, "exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": files}


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
