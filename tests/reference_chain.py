"""An independent reference for the partner residue, shared by the tests.

The paper's second-order recurrence b(j) = (j+2)(b(j-1) - b(j-2)) run mod x
shares no code with the walk, the factorial table or the factor route, so
it can check each of them far beyond the indices where exact b is
affordable.
"""


def second_order_chain(t, x):
    """(b(t-1) mod x, b(t) mod x) from b(-1) = 0, b(0) = 1, for t >= 0, x >= 1."""
    prev, cur = 0, 1 % x
    for j in range(1, t + 1):
        prev, cur = cur, ((j + 2) * (cur - prev)) % x
    return prev, cur
