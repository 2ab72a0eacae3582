"""Small exact number-theory helpers shared by the linear-algebra kernel,
polynomial degeneracy tests, and quotient enumeration."""

from __future__ import annotations

import math
from typing import Callable

# the first 13 primes: as Miller-Rabin bases they are decisive for every
# n < psi_13 = 3317044064679887385961981 ~ 3.3 * 10**24 (Sorenson-Webster,
# Strong pseudoprimes to twelve prime bases, Math. Comp. 2017); the first 12
# are not (psi_12 = 318665857834031151167461 is a strong pseudoprime to them)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _SMALL_PRIMES: exact below psi_13. From
    psi_13 on, a strong Lucas test is added, which makes it a BPSW test
    (Baillie-Wagstaff, Lucas pseudoprimes, Math. Comp. 1980): probable, with
    no known counterexample."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < PSI13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n with no prime factor
    <= 41, with Selfridge's parameters (method A): D the first of 5, -7, 9,
    -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False  # (D/n) = -1 has no solution
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    if j == 0:
        return n == abs(D)
    Q, half = (1 - D) // 4, (n + 1) // 2
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    U, V, Qk = 1, 1, Q % n  # U_k, V_k, Q^k mod n, from k = 1 up to k = (n + 1) >> s
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


# Pollard rho steps one partial_factorize call may spend (about 0.8 s of
# CPython 3.11 on a 2-vCPU x86 VM); enough to split
# psi_12 = 399165290221 * 798330580441 and
# psi_13 = 1287836182261 * 2575672364521
RHO_STEPS = 1 << 21


def _pollard_rho(n: int, steps: int) -> tuple[int | None, int]:
    """A proper divisor of the odd composite n by Brent's variant of rho
    (gcds batched over 128 steps), or None when `steps` iterations of the
    map find none; also returns the steps left."""
    c = 0
    while steps > 0:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1 and steps >= 2 * r:
            steps -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == 1:
            break
        if g == n:  # the batch overshot: redo its steps one gcd at a time
            while True:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
                if g > 1:
                    break
        if g != n:
            return g, steps
    return None, steps


def partial_factorize(n: int) -> tuple[dict[int, int], int]:
    """Prime factorization of |n| as ({prime: exponent}, cofactor): trial
    division to 10^5, then Pollard rho with a budget of RHO_STEPS in total.
    The cofactor is the product of the composite parts rho could not split
    (1 when the factorization is complete); partial_factorize(0/1) = ({}, 1)."""
    n = abs(n)
    out: dict[int, int] = {}
    rest = 1
    rho_steps = RHO_STEPS
    if n <= 1:
        return out, rest
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 100000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % 8
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, rho_steps = _pollard_rho(m, rho_steps)
        if d is None:
            rest *= m
        else:
            stack += [d, m // d]
    return out, rest


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; factorize(0/1) = {}.
    Raises ArithmeticError when a composite part resists the rho budget."""
    out, rest = partial_factorize(n)
    if rest != 1:
        raise ArithmeticError(f"{rest} is not split within {RHO_STEPS} rho steps")
    return out


def binary_power(base, e: int, mul: Callable, one):
    """base^e for e >= 0 under the associative product mul with identity
    one, by left-to-right binary powering."""
    out = one
    for bit in bin(e)[2:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, base)
    return out


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit by sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, b in enumerate(sieve) if b]
