"""Tests of the benchmark's tracer, gate and clock on tiny inputs.

The tracer runs in a child process, as in the benchmark, so the wrappers it
installs never reach the test process.
"""

import json
import os
import shutil
import subprocess
import sys

import checks
import clock
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def traced_metrics(tmp_path, *argvs):
    plan = [{"argv": list(argv), "stdout": f"{i}.out"} for i, argv in enumerate(argvs)]
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    spans = tmp_path / "spans.bin"
    subprocess.run([sys.executable, os.path.join(HERE, "client.py"), str(plan_path),
                    "--spans", str(spans)], env=env, check=True, timeout=120)
    codes = json.loads((tmp_path / "result.json").read_text())["codes"]
    metrics = tracer.layer_metrics([dict(tracer.load(spans), scale=1.0)])
    return codes, {name: value for name, (value, unit) in metrics.items()}


def test_scan_counts_are_exact_and_repeat(tmp_path):
    argv = ["verify", "--suite", "terms", "--to", "50"]
    codes, first = traced_metrics(tmp_path, argv)
    assert codes == [0]
    assert first["residue.b_chain.calls"] == 50
    assert first["residue.b_chain.steps"] == sum(range(50))  # t = n - 3 for n = 3..52
    assert first["families.scan_terms"] == 50
    assert first["gcd.calls"] == 50
    assert first["conjectures.scans"] == 1
    methods = sum(first[f"primality.{m}.calls"] for m in tracer.PER_METHOD)
    assert methods + first["primality.cache_hits"] == first["primality.calls"]
    assert first["residue.self_s"] > 0

    _, second = traced_metrics(tmp_path, argv)
    counted = [k for k, v in first.items() if isinstance(v, int)]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}


def test_point_lookups_cache_and_identities(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    gen = ["gen", "--family", "main", "--from", "3", "--to", "40", "--cache", cache]
    codes, m = traced_metrics(
        tmp_path, gen, gen + ["--format", "bfile"],
        ["verify", "--suite", "symmetry", "--to", "20"],
        ["verify", "--suite", "theorem2", "--n-max", "6", "--lf-max", "10"])
    assert codes == [0, 0, 0, 0]
    assert m["cli.cache.entries_written"] == 38
    assert m["cli.cache.entries_read"] == 38
    assert m["conjectures.point_lookups"] > 0
    assert m["contfrac.eval_cf.calls"] > 0
    assert m["bfile.format_s"] > 0
    assert m["cli.report_bytes"] > 0


def test_contfrac_alone_never_touches_the_residue_engine(tmp_path):
    codes, m = traced_metrics(tmp_path, ["verify", "--suite", "eq4", "--n-max", "8"],
                              ["verify", "--suite", "theorem1", "--n-max", "6", "--trials", "3"])
    assert codes == [0, 0]
    assert m["residue.b_chain.calls"] == 0
    assert m["primality.calls"] == 0
    assert m["contfrac.elimination_chain.self_s"] > 0


def test_self_time_subtracts_direct_children():
    spans = [[1, 0, "conjectures.verify_symmetry", 0, 100, 1, None],
             [2, 1, "families.term.lookup", 10, 40, 1, None],
             [3, 2, "residue.b_chain", 15, 35, 1, [7, 20]]]
    m = tracer.layer_metrics([{"spans": spans, "counts": {}, "high_water": 5, "scale": 1.0}])
    assert m["conjectures.self_s"][0] == 70e-9
    assert m["families.term.self_s"][0] == 10e-9
    assert m["residue.self_s"][0] == 20e-9
    assert m["residue.b_chain.steps"][0] == 7
    assert m["residue.max_modulus_bits"][0] == 20


def test_gate_rejects_wrong_exit_code_and_pinned_value():
    report = {"suite": "terms", "clean": True, "family": "main", "terms": 10000,
              "ones": 1649, "primes": 8351, "composites": [], "probable_primes": 0}
    assert checks.check_dense({"terms": (0, json.dumps(report))}, 1) == {"terms": []}
    assert checks.check_dense({"terms": (2, json.dumps(report))}, 1)["terms"]
    bad = dict(report, ones=1420, primes=8580)
    assert checks.check_dense({"terms": (0, json.dumps(bad))}, 1)["terms"]
    assert checks.check_dense({"terms": (0, "not json")}, 1)["terms"]


def test_clock_excludes_stopped_time_and_reports_the_exit_code(monkeypatch):
    monkeypatch.setattr(clock, "SAMPLE_EVERY_S", 0.1)
    affinity = os.sched_getaffinity(0)
    try:
        clk = clock.Clock()
        busy = ("import sys\nx = 0\n"
                "for i in range(3_000_000): x = (x * 7 + i) % 1000003\nsys.exit(3)")
        t = clk.run([sys.executable, "-c", busy], os.devnull, os.devnull, 60)
    finally:
        os.sched_setaffinity(0, affinity)
    assert t.code == 3
    assert t.cpu_s > 0.1
    assert abs(t.wall_s - t.cpu_s) < 0.25 * t.cpu_s + 0.05  # stopped intervals left out
    assert t.wall_ref_s == t.wall_s * t.scale > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
