#!/usr/bin/env python3
"""The gcdseq benchmark: closed-loop timing of real gcdseq invocations.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One client runs one workload process at a time and starts the next only when
the previous one has ended. Each process starts with fresh in-process caches
and a fresh ``--cache`` file, as a CLI user's does. Every invocation's exit
code and report are checked (``checks.py``). Times are scaled to a reference
machine speed measured alongside each process (``clock.py``).

``--trace 0`` repeats the workload until ``--seconds`` have passed and
reports the end-to-end metrics as medians over the repetitions. ``--trace 1``
runs the workload once untraced and once under the tracer (``tracer.py``)
and reports the per-layer metrics. The last line of standard output is the
result as JSON; the line before it stamps the result with the backend,
Python version, CPU count, commit and seed. A human-readable summary goes to
standard error. ``--out FILE`` also saves the stamped result, for
``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import clock as clocks
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CLIENT = os.path.join(ROOT, "perfbench", "client.py")
SCRATCH = os.path.join(ROOT, ".perfbench_run")
NPROC = len(os.sched_getaffinity(0))  # before the clock pins this process to one CPU
SETUP_REPEATS = 9
MIN_REPEATS = 3
PROCESS_LIMIT_S = 150
SETUP_CODE = "import gcdseq, gcdseq.cli as c; c.build_parser(); print(gcdseq.backend_name())"


def _verify(suite, *extra):
    return ["verify", "--suite", suite, *extra]


def workload_processes(workload, seed, workdir):
    """The workload as a list of processes, each a list of (name, argv).

    Why these workloads (sizes are pure-Python figures on the seed code):
    * dense: the 10,000-term 1-or-prime scan; ~93% of it is the residue
      engine's b-chain (49,995,000 steps), so it shows dense residue gains.
    * sparse: 531 mirror lookups at indices up to ~3.6e5 through term();
      residue work on a few long chains, which a dense-only gain misses.
      The CLI default (--to 2000) takes ~212 s, too long to repeat.
    * identities: continued fractions over Fraction and exact recurrences;
      it never calls the residue engine, so residue changes must not move it.
    * session: one process making eight CLI calls over n = 3..3000, as a
      library user or test run would; shared in-process caches, the --cache
      write and read paths, and the exact-bigint route (fastpath).
    """
    if workload == "dense":
        return [[("terms", _verify("terms"))]]
    if workload == "sparse":
        return [[("symmetry", _verify("symmetry", "--to", "600"))]]
    if workload == "identities":
        return [
            [("theorem1", _verify("theorem1", "--n-max", "150", "--seed", str(seed)))],
            [("theorem2", _verify("theorem2", "--n-max", "120"))],
            [("eq4", _verify("eq4", "--n-max", "400"))],
        ]
    cache = os.path.join(workdir, "p0", "cache.jsonl")
    gen = ["gen", "--family", "main", "--from", "3", "--to", "3000", "--cache", cache]
    return [[
        ("gen-jsonl", gen + ["--format", "jsonl"]),
        ("gen-bfile", gen + ["--format", "bfile"]),
        ("terms", _verify("terms", "--to", "3000")),
        ("pairs", _verify("pairs", "--to", "3000")),
        ("coverage", _verify("coverage", "--to", "3000")),
        ("gcd-replacement", _verify("gcd-replacement", "--to", "3000")),
        ("compare", ["compare", "--terms", "3000"]),
        ("fastpath", _verify("fastpath")),
    ]]


WORKLOADS = ("dense", "sparse", "identities", "session")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def measure_setup(workdir, clock):
    """Median scaled wall time of a fresh interpreter importing gcdseq.cli and
    building its parser, and the backend it reports. The first probe only
    fills the bytecode cache and is not timed."""
    out, err = os.path.join(workdir, "setup.out"), os.path.join(workdir, "setup.err")
    cmd = [sys.executable, "-c", SETUP_CODE]
    times, backends = [], set()
    for i in range(SETUP_REPEATS + 1):
        timing = clock.run(cmd, out, err, PROCESS_LIMIT_S, cwd=ROOT, env=_env())
        with open(out, encoding="ascii") as fh:
            backends.add(fh.read().strip())
        if timing.code != 0:
            with open(err, encoding="utf-8", errors="replace") as fh:
                raise SystemExit(f"perfbench: gcdseq.cli does not import:\n{fh.read()}")
        if i:
            times.append(timing.wall_ref_s)
    if len(backends) != 1:
        raise SystemExit(f"perfbench: backend changed between probes: {sorted(backends)}")
    return statistics.median(times), backends.pop()


def run_iteration(workload, seed, workdir, traced, clock):
    """Run the workload's processes once, in order; returns their summed
    timings, the checks and (when traced) the span files."""
    shutil.rmtree(workdir, ignore_errors=True)
    totals = dict.fromkeys(("wall", "cpu", "wall_ref", "cpu_ref", "anon"), 0.0)
    outputs, traces = {}, []
    for i, steps in enumerate(workload_processes(workload, seed, workdir)):
        pdir = os.path.join(workdir, f"p{i}")
        os.makedirs(pdir)
        plan = [{"argv": argv, "stdout": f"{name}.out"} for name, argv in steps]
        plan_path = os.path.join(pdir, "plan.json")
        with open(plan_path, "w", encoding="ascii") as fh:
            json.dump(plan, fh)
        cmd = [sys.executable, CLIENT, plan_path]
        spans_path = os.path.join(pdir, "spans.bin")
        if traced:
            cmd += ["--spans", spans_path]
        t = clock.run(cmd, os.path.join(pdir, "client.out"), os.path.join(pdir, "client.err"),
                      PROCESS_LIMIT_S, cwd=ROOT, env=_env())
        totals["wall"] += t.wall_s
        totals["cpu"] += t.cpu_s
        totals["wall_ref"] += t.wall_ref_s
        totals["cpu_ref"] += t.cpu_ref_s
        codes = [None] * len(steps)
        if t.code == 0:
            with open(os.path.join(pdir, "result.json"), encoding="ascii") as fh:
                result = json.load(fh)
            codes, mem = result["codes"], result["memory_kb"]
            anon_mb = (mem["VmHWM"] - mem["RssFile"] - mem["RssShmem"]) / 1024
            totals["anon"] = max(totals["anon"], anon_mb)
            if traced:
                traces.append(dict(tracer.load(spans_path), scale=t.scale))
        for (name, _), step_code in zip(steps, codes):
            path = os.path.join(pdir, f"{name}.out")
            text = ""
            if os.path.exists(path):
                with open(path, encoding="ascii", errors="replace") as fh:
                    text = fh.read()
            outputs[name] = (step_code, text)

    problems = check_outputs(workload, seed, workdir, outputs)
    return {**totals, "problems": problems, "traces": traces}


def check_outputs(workload, seed, workdir, outputs):
    try:
        if workload == "session":
            cache = os.path.join(workdir, "p0", "cache.jsonl")
            lines = 0
            if os.path.exists(cache):
                with open(cache, encoding="ascii") as fh:
                    lines = sum(1 for _ in fh)
            return checks.check_session(outputs, seed, lines)
        return getattr(checks, f"check_{workload}")(outputs, seed)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        return {name: [f"report malformed: {exc!r}"] for name in outputs}


def stamp(seed, backend):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = git.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gcdseq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "backend": backend,
        "python": platform.python_version(),
        "nproc": NPROC,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def high_percentile(samples):
    """(percentile, value) of the highest sample with at least ten above it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    rank = len(ordered) - 11
    return 100 * (rank + 1) / len(ordered), ordered[rank]


def measure(workload, seed, seconds, workdir, clock):
    """Repeat the workload until ``seconds`` have passed and at least
    MIN_REPEATS repetitions are done, so that a median is taken."""
    iterations = []
    start = time.perf_counter()
    while len(iterations) < MIN_REPEATS or time.perf_counter() - start < seconds:
        iterations.append(run_iteration(workload, seed, workdir, False, clock))
    return iterations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also save the stamped result here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gcdseq", "cli.py")):
        print(f"perfbench: no gcdseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # SIGTERM unwinds like an exception, so no child is left stopped or running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = os.path.join(SCRATCH, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        clock = clocks.Clock()
        setup_s, backend = measure_setup(workdir, clock)
        if args.trace:
            plain = run_iteration(args.workload, args.seed, workdir, False, clock)
            traced = run_iteration(args.workload, args.seed, workdir, True, clock)
            iterations = [plain, traced]
            metrics = tracer.layer_metrics(traced["traces"])
            traced["problems"]["trace"] = checks.check_trace(args.workload, metrics)
            metrics["trace.overhead_ratio"] = (traced["wall_ref"] / plain["wall_ref"] - 1, "ratio")
        else:
            iterations = measure(args.workload, args.seed, args.seconds, workdir, clock)
            metrics = {
                "wall_ref_s": (statistics.median(i["wall_ref"] for i in iterations), "s"),
                "cpu_ref_s": (statistics.median(i["cpu_ref"] for i in iterations), "s"),
                "setup_s": (setup_s, "s"),
                "peak_anon_mb": (statistics.median(i["anon"] for i in iterations), "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(SCRATCH) and not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)

    attempted = failed = 0
    for it in iterations:
        for name, found in it["problems"].items():
            attempted += 1
            failed += bool(found)
            for problem in found:
                print(f"FAILED {args.workload}/{name}: {problem}", file=sys.stderr)

    walls = [i["wall"] for i in iterations]
    print(f"{args.workload}: {len(iterations)} run(s), backend {backend}, seed {args.seed}",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}", file=sys.stderr)
    if not args.trace:
        print(f"  unscaled: wall_s {statistics.median(walls):.6g} s, "
              f"cpu_s {statistics.median(i['cpu'] for i in iterations):.6g} s", file=sys.stderr)
        hi = high_percentile(walls)
        if hi:
            print(f"  wall_s.hi p{hi[0]:.0f} of {len(walls)} samples: {hi[1]:.6g} s",
                  file=sys.stderr)
        else:
            print(f"  wall_s.hi: needs 11 samples, have {len(walls)}", file=sys.stderr)
    print(f"  failed_ratio {failed}/{attempted}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    stamped = {"stamp": stamp(args.seed, backend), "wall_s_samples": walls,
               "wall_ref_s_samples": [i["wall_ref"] for i in iterations]}
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump({**stamped, "workload": args.workload, "result": result}, fh, indent=1)
    print(json.dumps(stamped))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
