"""The calls that the benchmark's tracer counts, made as the library makes them.

``perfbench/tracer.py`` wraps module-level names (``families.gcd_partner``,
``_backend.b_mod_pair``, ``math.gcd`` as ``families`` sees it) and
``perfbench/checks.py`` pins some of the counts (``TRACE_PINS``). A loop
that bound one of these names before the tracer wrapped it, or called it
more or less often, would move a pinned count without failing any output
test; these tests fail first.
"""

import math
import types
from unittest import mock

from gcdseq import _backend, cli, families
from gcdseq.families import (
    MAIN,
    ROWLAND,
    Strategy,
    linear,
    quadratic,
    scan,
    term,
    verify_strategy_equivalence,
)


def test_strategy_equivalence_calls_gcd_partner_once_per_term():
    specs = [MAIN, quadratic(2), linear(3)]
    with mock.patch.object(families, "gcd_partner", wraps=families.gcd_partner) as spy:
        report = verify_strategy_equivalence(specs, 80)
    assert report.clean and report.checked == 3 * 78
    assert [c.args for c in spy.call_args_list] == [(f, n) for f in specs for n in range(3, 81)]


def test_fastpath_suite_makes_the_pinned_exact_partner_calls():
    # session's families.exact_partner.calls: 11 families, n = 3..1500
    args = cli.argparse.Namespace(**cli._SUITE_RUNNERS["fastpath"][2])
    with mock.patch.object(families, "gcd_partner", wraps=families.gcd_partner) as spy:
        report = cli._suite_fastpath(args)
    assert report.clean and spy.call_count == report.checked == 16_478


def test_column_growth_calls_b_mod_pair_once_per_new_term(fresh_columns):
    with mock.patch.object(_backend, "b_mod_pair", wraps=_backend.b_mod_pair) as spy:
        list(scan(MAIN, 3, 100))
        list(scan(MAIN, 50, 160))  # grows from n = 101
        list(scan(quadratic(1), 3, 160))  # main's column: read, not grown
        list(scan(linear(2), 3, 70))
    # main's t = n - 3, linear's t = n - 2
    assert [c.args[0] for c in spy.call_args_list] == [*range(0, 158), *range(1, 69)]


def test_each_partner_record_makes_one_gcd():
    calls = []

    def gcd(*args):
        calls.append(args)
        return math.gcd(*args)

    proxy = types.ModuleType("math")
    proxy.__dict__.update(vars(math))
    proxy.gcd = gcd
    with mock.patch.object(families, "math", proxy):
        recs = list(scan(MAIN, 3, 200))
        assert len(calls) == len(recs)
        term(linear(2), 500)
        term(MAIN, 700, Strategy.EXACT_BIGINT)
        assert len(calls) == len(recs) + 2
        list(scan(ROWLAND, 1, 50))  # no partner, so no gcd
        assert len(calls) == len(recs) + 2
    assert calls[:3] == [(5, 1), (11, 7), (19, 4)]  # (x, y mod x) of n = 3, 4, 5
