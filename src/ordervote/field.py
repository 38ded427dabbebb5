"""Exact modular arithmetic over a prime field Z_p.

Field elements are kept in canonical form (0 <= x < p) in numpy uint64
arrays; the ``*_vec`` ops are the one arithmetic path, and on the wire the
elements travel inside ``transport.ProtocolMessage`` as 8-byte little-endian
words.  The prime is a runtime value: production runs use p = 2**31 - 1,
while tests use tiny primes (7, 13, 31) so that bit-level protocols can be
checked exhaustively.  Products of two canonical elements fit in 64 bits as
long as p < 2**32, which is enforced at construction.
"""

from __future__ import annotations

import numpy as np

MAX_PRIME = 1 << 32  # (p-1)^2 must fit in uint64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldError(Exception):
    pass


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


class PrimeField:
    """Arithmetic mod a prime p < 2**32."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        if p >= MAX_PRIME:
            raise FieldError(f"modulus {p} too large; need p < 2**32 for 64-bit products")
        self.p = p
        self.ell = p.bit_length()

    def sqrt(self, a: int) -> int:
        """Canonical square root of a quadratic residue: the smaller of the two roots.

        Raises FieldError if a is not a residue.  All parties derive the same
        root from the same public input, which is all the protocols need.
        """
        p = self.p
        if a == 0:
            return 0
        if p % 4 == 3:
            r = pow(a, (p + 1) // 4, p)
        else:
            r = self._tonelli_shanks(a)
        if r * r % p != a:
            raise FieldError(f"{a} is not a quadratic residue mod {p}")
        return min(r, p - r)

    def _tonelli_shanks(self, a: int) -> int:
        p = self.p
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, tt = 0, t
            while tt != 1:
                tt = tt * tt % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r

    # -- vector ops (numpy uint64) ----------------------------------------

    def add_vec(self, a, b) -> np.ndarray:
        return (np.asarray(a, dtype=np.uint64) + np.asarray(b, dtype=np.uint64)) % np.uint64(self.p)

    def sub_vec(self, a, b) -> np.ndarray:
        pv = np.uint64(self.p)
        return (np.asarray(a, dtype=np.uint64) + pv - np.asarray(b, dtype=np.uint64) % pv) % pv

    def mul_vec(self, a, b) -> np.ndarray:
        # a, b canonical so the product stays below 2**64
        return (np.asarray(a, dtype=np.uint64) * np.asarray(b, dtype=np.uint64)) % np.uint64(self.p)

    def sum_vec(self, a: np.ndarray, axis=None) -> np.ndarray:
        # canonical summands: safe in uint64 for up to 2**32 terms
        return np.sum(np.asarray(a, dtype=np.uint64), axis=axis, dtype=np.uint64) % np.uint64(self.p)

    def pow_vec(self, base: np.ndarray, exponent: int) -> np.ndarray:
        """Elementwise base**exponent mod p by a shared square-and-multiply ladder."""
        b = np.asarray(base, dtype=np.uint64) % np.uint64(self.p)
        if exponent == 0:
            return np.ones_like(b)
        acc = b.copy()
        for bit in bin(exponent)[3:]:
            acc = self.mul_vec(acc, acc)
            if bit == "1":
                acc = self.mul_vec(acc, b)
        return acc

    def rand_vec(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.integers(0, self.p, size=size, dtype=np.uint64)
