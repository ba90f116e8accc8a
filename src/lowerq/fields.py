"""Exact arithmetic in the prime field F_p.

Binomial coefficients are computed digit by digit in base p (Lucas'
theorem), so indices in the millions stay cheap: no binomial of a number
past p - 1 is formed. The combinatorial convention C(n, k) = 0 for
k > n (or k < 0) is used throughout; Adem-type sums rely on out-of-range
binomials vanishing.
"""

from __future__ import annotations

from functools import cache
from math import comb


@cache
def is_prime(n: int) -> bool:
    """Trial-division primality check, cached: every element checks its modulus."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"modulus must be a prime integer, got {p!r}")
    return p


class FpScalar:
    """An element of F_p, stored fully reduced (0 <= value < p).

    A value with no arithmetic: the engine computes on plain ints."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        check_prime(p)
        self.value = value % p
        self.p = p

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpScalar)
            and self.p == other.p
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"FpScalar({self.value}, p={self.p})"


def lucas_binom(n: int, k: int, p: int) -> int:
    """C(n, k) mod p as a plain int, via base-p digits."""
    if k < 0 or n < 0 or k > n:
        return 0
    r = 1
    while k:
        nd = n % p
        kd = k % p
        if kd > nd:
            return 0
        r = r * comb(nd, kd) % p
        n //= p
        k //= p
    return r


def binom_mod_p(n: int, k: int, p: int) -> FpScalar:
    """C(n, k) as an element of F_p; zero when k > n."""
    check_prime(p)  # before lucas_binom, which would not stop at p = 1
    out = object.__new__(FpScalar)
    out.value = lucas_binom(n, k, p)
    out.p = p
    return out
