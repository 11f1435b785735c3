"""Correctness gate: every invocation's exit code and report are checked.

Each ``check_<workload>(out, seed)`` gets ``out``, a dict from invocation
name to ``(exit_code, stdout_text)``, and returns a dict from invocation name
to the list of problems found (empty when the invocation is correct).

Three kinds of check:
* the exit code must be the expected one (``pairs`` exits 2 by design);
* report fields that do not depend on the seed are pinned to the values
  computed on the seed code (for ``dense``: 1,649 ones, 8,351 primes);
* each report's own invariants must hold at any seed, and terms printed by
  ``gen`` must equal an untimed ``Strategy.EXACT_BIGINT`` recomputation of a
  seed-sampled subset.
"""

from __future__ import annotations

import json
import random

# theorem1 draws its m values from --seed; at this seed every draw is usable.
DEFAULT_SEED = 20230923
SPOT_CHECKS = 32


class Problems:
    def __init__(self):
        self.found = {}

    def expect(self, name, ok, what):
        self.found.setdefault(name, [])
        if not ok:
            self.found[name].append(what)

    def report(self, out, name, code):
        """Check the exit code and parse the JSON report; None if unusable."""
        got_code, text = out[name]
        self.expect(name, got_code == code, f"exit code {got_code}, expected {code}")
        try:
            return json.loads(text)
        except ValueError:
            self.expect(name, False, "report is not JSON")
            return None

    def fields(self, name, report, **pinned):
        for key, want in pinned.items():
            got = report.get(key)
            self.expect(name, got == want, f"{key} = {got!r}, expected {want!r}")


def check_dense(out, seed):
    p = Problems()
    r = p.report(out, "terms", 0)
    if r is not None:
        p.fields("terms", r, suite="terms", clean=True, family="main", terms=10000,
                 ones=1649, primes=8351, composites=[], probable_primes=0)
        p.expect("terms", r["ones"] + r["primes"] + len(r["composites"]) == r["terms"],
                 "ones + primes + composites != terms")
    return p.found


def check_sparse(out, seed):
    p = Problems()
    r = p.report(out, "symmetry", 0)
    if r is not None:
        p.fields("symmetry", r, suite="symmetry", clean=True, family="main", n_max=600,
                 checked=531, violations=[], out_of_domain=[])
    return p.found


def check_identities(out, seed):
    p = Problems()
    r = p.report(out, "theorem1", 0)
    if r is not None:
        p.fields("theorem1", r, suite="theorem1", clean=True, n_max=150, trials_per_n=50,
                 seed=seed, cf_mismatches=[], eq5_n_max=200, eq5_failures=[])
        p.expect("theorem1", 0 < r["checked"] <= 148 * 50, "checked out of range")
        if seed == DEFAULT_SEED:
            p.fields("theorem1", r, checked=148 * 50)

    r = p.report(out, "theorem2", 0)
    if r is not None:
        p.fields("theorem2", r, suite="theorem2", clean=True, n_max=120, m_range=[-20, 20],
                 combos=4583, skipped_zero_denominator=255, derived_failures=[],
                 printed_matches=0, printed_mismatches=4583, left_factorial_failures=[])
        p.expect("theorem2", r["combos"] + r["skipped_zero_denominator"] == 118 * 41,
                 "combos + skipped != grid size")

    r = p.report(out, "eq4", 0)
    if r is not None:
        p.fields("eq4", r, suite="eq4", clean=True, n_max=400)
        rows = r.get("rows", [])
        p.expect("eq4", [row["n"] for row in rows] == list(range(3, 401)), "rows not n = 3..400")
        for row in rows:
            n, corrected = row["n"], row["n"] ** 2 - 2 * row["n"]
            ok = (row["alpha"] == n - 1 and row["beta"] == -corrected
                  and row["corrected_coefficient"] == corrected
                  and row["corrected_holds"] and not row["printed_holds"])
            p.expect("eq4", ok, f"row n={n} wrong")
    return p.found


def _gen_records(p, out, name):
    code, text = out[name]
    p.expect(name, code == 0, f"exit code {code}, expected 0")
    try:
        return [json.loads(line) for line in text.splitlines()]
    except ValueError:
        p.expect(name, False, "jsonl output does not parse")
        return []


def check_session(out, seed, cache_lines):
    """``cache_lines`` is the number of lines the --cache file ended with."""
    from gcdseq.families import MAIN, Strategy, term

    p = Problems()
    recs = _gen_records(p, out, "gen-jsonl")
    p.expect("gen-jsonl", [r["n"] for r in recs] == list(range(3, 3001)), "indices not 3..3000")
    p.expect("gen-jsonl", cache_lines == 2998, f"cache holds {cache_lines} entries, expected 2998")
    for r in recs:
        n = r["n"]
        ok = (r["x"] == n * n - n - 1 and r["a"] * r["d"] == r["x"]
              and (r["class"] == "one") == (r["a"] == 1))
        p.expect("gen-jsonl", ok, f"record n={n} inconsistent")
    if len(recs) == 2998:
        for n in random.Random(seed).sample(range(3, 3001), SPOT_CHECKS):
            exact = term(MAIN, n, Strategy.EXACT_BIGINT).as_dict()
            p.expect("gen-jsonl", recs[n - 3] == exact, f"n={n} differs from the exact route")

    code, text = out["gen-bfile"]
    p.expect("gen-bfile", code == 0, f"exit code {code}, expected 0")
    p.expect("gen-bfile", text == "".join(f"{r['n']} {r['a']}\n" for r in recs),
             "b-file differs from the jsonl terms")

    r = p.report(out, "terms", 0)
    if r is not None:
        p.fields("terms", r, clean=True, terms=3000, ones=425, primes=2575, composites=[],
                 probable_primes=0)
    r = p.report(out, "pairs", 2)
    if r is not None:
        p.fields("pairs", r, clean=False, n_max=3000, pairs_checked=282, additive_violations=[],
                 multiplicity_violations=[], missing_partner=[], open_singletons=2008)
        gcds = r["gcd_violations"]
        p.expect("pairs", len(gcds) == 8 and gcds[0] == [199, 62, 138, 3781],
                 "gcd-form counterexamples changed")
        p.expect("pairs", all(v[0] == v[1] + v[2] - 1 for v in gcds),
                 "a gcd counterexample breaks the additive law")
    r = p.report(out, "coverage", 0)
    if r is not None:
        p.fields("coverage", r, clean=True, bound=3001, candidates=208, present=208, missing=[])
    r = p.report(out, "gcd-replacement", 0)
    if r is not None:
        p.fields("gcd-replacement", r, clean=True, checked=2998, counterexamples=[])
    r = p.report(out, "compare", 0)
    if r is not None:
        main, rowland = r["main"], r["rowland"]
        p.expect("compare", (main["ones"], main["prime_terms"], main["distinct_primes"])
                 == (425, 2575, 2293), "main efficiency changed")
        p.expect("compare", (rowland["measured"], rowland["ones"], rowland["distinct_primes"])
                 == (2999, 2972, 12), "rowland efficiency changed")
        p.expect("compare", main["distinct_primes"] == len(main["primes"]),
                 "distinct_primes != len(primes)")
    r = p.report(out, "fastpath", 0)
    if r is not None:
        p.fields("fastpath", r, clean=True, n_to=1500, checked=16478, mismatches=[])
    return p.found


# Per-layer counts known exactly from the workload's definition.
TRACE_PINS = {
    "dense": {"residue.b_chain.calls": 10_000, "residue.b_chain.steps": 49_995_000,
              "families.scan_terms": 10_000, "conjectures.scans": 1},
    "sparse": {"families.scan_terms": 598, "conjectures.point_lookups": 531},
    "identities": {"residue.b_chain.calls": 0, "primality.calls": 0},
    "session": {"cli.cache.entries_written": 2998, "cli.cache.entries_read": 2998,
                "families.exact_partner.calls": 16478},
}


def check_trace(workload, metrics):
    """Problems with the traced run's per-layer counts, as a list."""
    value = {name: v for name, (v, unit) in metrics.items()}
    problems = [f"{name} = {value[name]}, expected {want}"
                for name, want in TRACE_PINS[workload].items() if value[name] != want]
    by_method = sum(value[f"primality.{m}.calls"]
                    for m in ("trial_division", "deterministic_mr64", "strong_probable"))
    if by_method + value["primality.cache_hits"] != value["primality.calls"]:
        problems.append("primality calls by method + cache hits != primality.calls")
    return problems
