"""In-process tracer for gcdseq: spans at each module boundary, kept in memory.

The tracer replaces public functions with timing wrappers at the place where
their caller looks them up. ``from x import y`` binds a separate name in the
importing module, so ``families.is_prime`` and ``conjectures.is_prime`` are
wrapped separately, and ``math.gcd`` is wrapped only inside ``families`` (via
a stand-in ``math`` module). Nothing in ``src/`` changes.

A span is ``[id, parent, name, start_ns, end_ns, invocation, note]``; parent 0
is the root. Start and end are the process's CPU time, which does not advance
while the benchmark's clock has the process stopped. Spans nest strictly (one
thread), so a span's self time is its duration minus the durations of its
direct children. ``layer_metrics`` turns the spans of one workload run into
the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import marshal
import types
from time import process_time_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.invocation = 0
        self._stack = [0]

    def wrap(self, owner, attr, name, note=None, before=None, outermost=False):
        """Replace ``owner.attr`` with a wrapper recording one span per call.

        ``before()`` runs just ahead of the call; ``note(args, result, token)``
        gets its value and returns the span's note. With ``outermost`` a call
        made while a span of the same name is open (recursion) is not recorded.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if outermost and parent and spans[parent - 1][2] == name:
                return fn(*args, **kwargs)
            token = before() if before is not None else None
            span = [len(spans) + 1, parent, name, 0, 0, self.invocation, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = process_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = process_time_ns()
                stack.pop()
            if note is not None:
                span[6] = note(args, result, token)
            return result

        setattr(owner, attr, wrapper)

    def count_scan(self, owner, attr, counter):
        """Count calls of a term generator and the records it yields (no span)."""
        fn = getattr(owner, attr)
        counts = self.counts

        def scan(*args, **kwargs):
            counts[counter] = counts.get(counter, 0) + 1
            for rec in fn(*args, **kwargs):
                counts["families.scan_terms"] = counts.get("families.scan_terms", 0) + 1
                yield rec

        setattr(owner, attr, scan)

    def dump(self, path, **extra):
        """Write the spans with ``marshal``: 0.06 s for 1.5e5 spans, where JSON
        took 0.96 s inside the timed process. ``load`` reads them back."""
        with open(path, "wb") as fh:
            marshal.dump({"spans": self.spans, "counts": self.counts, **extra}, fh)


def load(path):
    """Read a span file that ``Tracer.dump`` wrote in this benchmark's own run."""
    with open(path, "rb") as fh:
        return marshal.load(fh)


def _module_proxy(module):
    """A copy of a stdlib module's namespace, so one caller's names can be wrapped."""
    proxy = types.ModuleType(module.__name__)
    proxy.__dict__.update({k: v for k, v in vars(module).items() if not k.startswith("__")})
    return proxy


def install(tracer):
    """Wrap every layer boundary of the gcdseq package, for the rest of the
    process's life."""
    import json as json_module
    import math

    from gcdseq import (_backend, analytics, cli, conjectures, contfrac,
                        families, primality)

    w = tracer.wrap
    bits = lambda args, result, token: [args[0], args[1].bit_length()]  # noqa: E731
    w(_backend, "b_mod_pair", "residue.b_chain", note=bits)
    w(_backend, "factorial_mod", "residue.factorial", note=bits)

    hits = lambda: primality.is_prime.cache_info().hits  # noqa: E731

    def verdict(args, result, token):
        return [int(hits() > token), result.method.value]

    for owner in (families, conjectures):
        w(owner, "is_prime", "primality.is_prime", before=hits, note=verdict)

    families.math = _module_proxy(math)
    w(families.math, "gcd", "gcd")
    w(families, "term", "families.term")
    w(families, "gcd_partner", "families.exact_partner")
    w(conjectures, "term", "families.term.lookup")
    tracer.count_scan(conjectures, "scan", "conjectures.scans")
    tracer.count_scan(analytics, "scan", "analytics.scans")

    for owner, names in ((families, ("b", "rowland_diff")),
                         (contfrac, ("b", "left_factorial")),
                         (cli, ("b", "b_via_left_factorial"))):
        for attr in names:
            w(owner, attr, f"recurrences.{attr}")

    w(contfrac, "eval_cf", "contfrac.eval_cf")
    for attr in ("theorem1_closed_form", "theorem2_closed_form", "theorem2_derived_form"):
        w(contfrac, attr, "contfrac.closed_form")
    w(contfrac, "elimination_chain", "contfrac.elimination_chain")

    for attr in ("verify_primes_or_one", "occurrence_index", "verify_symmetry",
                 "verify_pair_identities", "verify_triple_rule_a2", "prime_coverage"):
        w(conjectures, attr, f"conjectures.{attr}")
    for attr in ("efficiency", "compare"):
        w(analytics, attr, f"analytics.{attr}")

    cli.json = _module_proxy(json_module)
    w(cli.json, "dumps", "cli.dumps", note=lambda args, result, token: len(result))
    w(cli.json, "loads", "cli.loads")
    w(cli, "_jsonable", "cli.jsonable", outermost=True)
    w(cli, "_cached_records", "cli.cache")
    w(cli, "format_bfile", "bfile.format")


def b_high_water():
    """Highest index held in the exact b(n) cache of this process."""
    from gcdseq import recurrences

    return recurrences._b_cache.high_water


# --------------------------------------------------------------------------
# aggregation

PER_METHOD = ("trial_division", "deterministic_mr64", "strong_probable")


def layer_metrics(traces):
    """Per-layer metrics from the span files of one workload run.

    ``traces`` is a list of dicts as written by ``Tracer.dump`` (one per
    process), each with the process's ``high_water`` of the b(n) cache and
    the ``scale`` its run was timed at (see ``clock.py``); times are scaled
    by it, like the end-to-end times.
    """
    calls, self_ns = {}, {}
    counts = {"families.scan_terms": 0, "conjectures.scans": 0, "analytics.scans": 0}
    b_steps = f_steps = max_bits = hits = 0
    method_calls = dict.fromkeys(PER_METHOD, 0)
    method_ns = dict.fromkeys(PER_METHOD, 0)
    report_bytes = entries_written = entries_read = cache_io_ns = 0
    high_water = -1
    for trace in traces:
        spans = trace["spans"]
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        high_water = max(high_water, trace["high_water"])
        scale = trace["scale"]
        child_ns = [0] * (len(spans) + 1)
        for sid, parent, name, start, end, inv, note in spans:
            child_ns[parent] += (end - start) * scale
        for sid, parent, name, start, end, inv, note in spans:
            dur = (end - start) * scale
            own = dur - child_ns[sid]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own
            if name == "residue.b_chain":
                b_steps += note[0]
                max_bits = max(max_bits, note[1])
            elif name == "residue.factorial":
                f_steps += note[0]
                max_bits = max(max_bits, note[1])
            elif name == "primality.is_prime":
                if note[0]:
                    hits += 1
                else:
                    method_calls[note[1]] += 1
                    method_ns[note[1]] += own
            elif name in ("cli.dumps", "cli.loads"):
                under_cache = parent and spans[parent - 1][2] == "cli.cache"
                if under_cache:
                    cache_io_ns += dur
                    if name == "cli.dumps":
                        entries_written += 1
                if name == "cli.loads":
                    entries_read += 1
                elif not under_cache:
                    report_bytes += note
                    self_ns["cli.report.dumps"] = self_ns.get("cli.report.dumps", 0) + own

    def n(name):
        return calls.get(name, 0)

    def s(*names, prefix=None):
        picked = [k for k in self_ns if k in names or (prefix and k.startswith(prefix))]
        return sum(self_ns[k] for k in picked) / 1e9

    residue_ns = sum(self_ns.get(k, 0) for k in ("residue.b_chain", "residue.factorial"))
    prim_calls = n("primality.is_prime")
    metrics = {
        "residue.b_chain.calls": (n("residue.b_chain"), "count"),
        "residue.b_chain.steps": (b_steps, "count"),
        "residue.factorial.calls": (n("residue.factorial"), "count"),
        "residue.factorial.steps": (f_steps, "count"),
        "residue.self_s": (residue_ns / 1e9, "s"),
        "residue.ns_per_step": (residue_ns / max(b_steps + f_steps, 1), "ns"),
        "residue.max_modulus_bits": (max_bits, "bits"),
        "gcd.calls": (n("gcd"), "count"),
        "gcd.self_s": (s("gcd"), "s"),
        "families.scan_terms": (counts["families.scan_terms"], "count"),
        "families.term.self_s": (s("families.term", "families.term.lookup"), "s"),
        "families.exact_partner.calls": (n("families.exact_partner"), "count"),
        "families.exact_partner.self_s": (s("families.exact_partner"), "s"),
        "primality.calls": (prim_calls, "count"),
        "primality.cache_hits": (hits, "count"),
        "primality.hit_ratio": (hits / prim_calls if prim_calls else 0.0, "ratio"),
    }
    for method in PER_METHOD:
        metrics[f"primality.{method}.calls"] = (method_calls[method], "count")
        metrics[f"primality.{method}.self_s"] = (method_ns[method] / 1e9, "s")
    metrics.update({
        "recurrences.b.high_water": (high_water, "index"),
        "recurrences.self_s": (s(prefix="recurrences."), "s"),
        "contfrac.eval_cf.calls": (n("contfrac.eval_cf"), "count"),
        "contfrac.eval_cf.self_s": (s("contfrac.eval_cf"), "s"),
        "contfrac.closed_form.self_s": (s("contfrac.closed_form"), "s"),
        "contfrac.elimination_chain.self_s": (s("contfrac.elimination_chain"), "s"),
        "conjectures.scans": (counts["conjectures.scans"], "count"),
        "conjectures.point_lookups": (n("families.term.lookup"), "count"),
        "conjectures.self_s": (s(prefix="conjectures."), "s"),
        "analytics.scans": (counts["analytics.scans"], "count"),
        "analytics.self_s": (s(prefix="analytics."), "s"),
        "cli.report.jsonable_s": (s("cli.jsonable"), "s"),
        "cli.report.dumps_s": (s("cli.report.dumps"), "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "cli.cache.entries_read": (entries_read, "count"),
        "cli.cache.entries_written": (entries_written, "count"),
        "cli.cache.self_s": ((self_ns.get("cli.cache", 0) + cache_io_ns) / 1e9, "s"),
        "bfile.format_s": (s("bfile.format"), "s"),
    })
    return metrics
