"""Pure-Python modular-chain kernels.

Drop-in equivalents of the compiled routines in ``_kernel``, with no size
limits on the modulus: plain Python integers throughout. The exact
recurrences in ``recurrences`` are the reference they are tested against.

Both kernels reduce once per four factors: multiplying by a small factor
costs less than a ``%``. A plain loop takes the last one to three factors.
"""


def b_mod_pair(t, x):
    """Return ``(b(t-1) mod x, b(t) mod x)`` for t >= 0, x >= 1.

    Uses the left-factorial identity b(n) = (n+2) * !(n+1) / 2, where
    !n = 0! + 1! + ... + (n-1)! (see ``recurrences.b_via_left_factorial``):
    b(t-1) = (t+1) * !t / 2 and b(t) = (t+2) * !(t+1) / 2 with
    !(t+1) = !t + t!.

    One first-order chain runs mod m = 2x: ``f`` holds k! mod m and ``s``
    adds up the f values and the partial products of each block. ``s`` is
    never reduced (it stays below m * t**4), so s = !t (mod m) and
    f = t! (mod m) at the end. Since (t+1) * !t = 2 * b(t-1) exactly,
    (t+1) * s mod 2x = 2 * (b(t-1) mod x), and halving it is exact; the
    same holds for (t+2) * (s + f). That covers every x >= 1, even x
    included, and t = 0 (s = 0, f = 1).
    """
    m = 2 * x
    f, s = 1, 0
    for j in range(1, t - 2, 4):
        g1 = f * j
        g2 = g1 * (j + 1)
        g3 = g2 * (j + 2)
        s += f + g1 + g2 + g3
        f = g3 * (j + 3) % m
    for j in range(t - t % 4 + 1, t + 1):
        s += f
        f = f * j % m
    return (t + 1) * s % m // 2, (t + 2) * (s + f) % m // 2


def factorial_mod(m, x):
    """Return ``m! mod x`` for m >= 0, x >= 1; short-circuits once 0.

    The zero check runs once per block of four factors, so a product that
    reaches 0 mid-block is caught at the block's end; the result is 0
    either way.
    """
    r = 1 % x
    for j in range(1, m - 2, 4):
        r = r * j * (j + 1) * (j + 2) * (j + 3) % x
        if r == 0:
            return 0
    for j in range(m - m % 4 + 1, m + 1):
        r = r * j % x
    return r
