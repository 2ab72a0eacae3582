"""Small exact number-theory helpers shared by the linear-algebra kernel,
polynomial degeneracy tests, and quotient enumeration."""

from __future__ import annotations

import math

# the first 13 primes: as Miller-Rabin bases they are decisive for every
# n < psi_13 = 3317044064679887385961981 ~ 3.3 * 10**24 (Sorenson-Webster,
# Strong pseudoprimes to twelve prime bases, Math. Comp. 2017); the first 12
# are not (psi_12 = 318665857834031151167461 is a strong pseudoprime to them)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _SMALL_PRIMES: exact below psi_13, a strong
    probable-prime test above it."""
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
    return True


# Pollard rho steps one partial_factorize call may spend (about 0.5 s of
# CPython 3.11 on a 2-vCPU x86 VM); enough to split
# psi_12 = 399165290221 * 798330580441
RHO_STEPS = 1 << 20


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
