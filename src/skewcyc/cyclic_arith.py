"""Exact modular and multiplicative number theory on small integers.

Everything here works on plain Python ints.  Residues of Z_n are
0-based: the multiplicative notation b^k for a fixed generator b is
identified with the additive residue k mod n throughout the package.
Factoring is plain trial division, which is all we need for moduli up
to a few times 10^4.
"""

from __future__ import annotations

from functools import cache
from math import gcd


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division."""
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@cache  # `verify` asks for it on every call; factor each n once
def euler_phi(n: int) -> int:
    """Number of units mod n, i.e. |{k : 1 <= k <= n, gcd(k, n) = 1}|."""
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    phi = n
    for p in factorize(n):
        phi -= phi // p
    return phi


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def units(m: int) -> list[int]:
    """Sorted units mod m: all s in [1, m) with gcd(s, m) = 1 (empty for m = 1)."""
    if m < 1:
        raise ValueError(f"expected m >= 1, got {m}")
    return [s for s in range(1, m) if gcd(s, m) == 1]


def mult_order(s: int, m: int) -> int:
    """Least t >= 1 with s^t = 1 (mod m); requires gcd(s, m) = 1."""
    if m < 1:
        raise ValueError(f"expected m >= 1, got {m}")
    if gcd(s, m) != 1:
        raise ValueError(f"{s} is not a unit mod {m}")
    one = 1 % m
    t, cur = 1, s % m
    while cur != one:
        cur = cur * s % m
        t += 1
    return t


def largest_prime_divisor(n: int) -> int | None:
    """Largest prime dividing n, or None for n = 1."""
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    if n == 1:
        return None
    return max(factorize(n))
