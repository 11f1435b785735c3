"""Run a list of gcdseq CLI invocations in one fresh process.

    python3 perfbench/client.py PLAN.json [--spans SPANS.json]

PLAN.json holds a list of ``{"argv": [...], "stdout": "<file>"}``. Each entry
is one ``gcdseq.cli.main(argv)`` call, as the ``gcdseq`` console script makes
it, with standard output written to the named file in the plan's directory.
The exit codes and the process's memory figures go to ``result.json``
there. In-process caches are shared by
the calls, as in library use. With ``--spans`` the tracer wraps the layer
boundaries first and writes its spans when the last call returns.
"""

import argparse
import contextlib
import json
import os

from gcdseq import cli


def memory_kb():
    """Peak RSS (VmHWM) and the file-backed and shared parts of the current RSS,
    from /proc/self/status; the difference is the peak anonymous memory."""
    fields = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key in ("VmHWM", "RssFile", "RssShmem"):
                fields[key] = int(rest.split()[0])
    return fields


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("--spans")
    args = parser.parse_args()
    workdir = os.path.dirname(os.path.abspath(args.plan))
    with open(args.plan, encoding="ascii") as fh:
        plan = json.load(fh)

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    codes = []
    for invocation, step in enumerate(plan, start=1):
        if tracer is not None:
            tracer.invocation = invocation
        with open(os.path.join(workdir, step["stdout"]), "w", encoding="ascii") as out, \
                contextlib.redirect_stdout(out):
            try:
                code = cli.main(step["argv"])
            except SystemExit as exc:
                code = exc.code
        codes.append(code)
    with open(os.path.join(workdir, "result.json"), "w", encoding="ascii") as fh:
        json.dump({"codes": codes, "memory_kb": memory_kb()}, fh)
    if tracer is not None:
        tracer.dump(args.spans, high_water=tracing.b_high_water())


if __name__ == "__main__":
    main()
