"""Exact modular arithmetic over a prime field Z_p, specialized for Mersenne primes.

Field elements are plain Python ints kept in canonical form (0 <= x < p), so
equality is integer equality; on the wire they travel inside
``transport.ProtocolMessage`` as 8-byte little-endian words.  The prime
is a runtime value: production runs use p = 2**31 - 1, while tests use tiny
primes (7, 31) so that bit-level protocols can be checked exhaustively.

Scalar operations work on Python ints; the ``*_vec`` variants operate on
numpy uint64 arrays and are what the multiparty engine uses on its hot paths.
Products of two canonical elements fit in 64 bits as long as p < 2**32, which
is enforced at construction.
"""

from __future__ import annotations

import numpy as np

MAX_PRIME = 1 << 32  # (p-1)^2 must fit in uint64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldError(Exception):
    pass


class ZeroInverse(FieldError):
    """Raised when inverting (or taking an inverse square root of) zero."""


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


def mersenne_exponent(p: int) -> int | None:
    """Return t if p == 2**t - 1, else None."""
    t = p.bit_length()
    return t if (1 << t) - 1 == p else None


class PrimeField:
    """Arithmetic mod a prime p < 2**32.

    ``reduce`` accepts any x <= (p-1)**2 and, for Mersenne primes, folds with
    shifts and adds instead of dividing; the result is bit-identical to x % p.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        if p >= MAX_PRIME:
            raise FieldError(f"modulus {p} too large; need p < 2**32 for 64-bit products")
        self.p = p
        self.ell = p.bit_length()
        t = mersenne_exponent(p)
        self.is_mersenne = t is not None
        self._t = t

    # -- scalar ops -------------------------------------------------------

    def reduce(self, x: int) -> int:
        if self._t is not None:
            t, p = self._t, self.p
            # Two folds bring any x <= (p-1)^2 below 2p.
            x = (x >> t) + (x & p)
            x = (x >> t) + (x & p)
            return x - p if x >= p else x
        return x % self.p

    def add(self, a: int, b: int) -> int:
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a: int, b: int) -> int:
        s = a - b
        return s + self.p if s < 0 else s

    def mul(self, a: int, b: int) -> int:
        return self.reduce(a * b)

    def pow(self, base: int, exponent: int) -> int:
        """Square-and-multiply; at most 2*ell multiplications for exponent < 2p."""
        if exponent == 0:
            return 1
        base %= self.p
        acc = base
        for bit in bin(exponent)[3:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, base)
        return acc

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return self.pow(x, self.p - 2)

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

    def reduce_vec(self, x: np.ndarray) -> np.ndarray:
        return x % np.uint64(self.p)

    def add_vec(self, a, b) -> np.ndarray:
        return (np.asarray(a, dtype=np.uint64) + np.asarray(b, dtype=np.uint64)) % np.uint64(self.p)

    def sub_vec(self, a, b) -> np.ndarray:
        pv = np.uint64(self.p)
        return (np.asarray(a, dtype=np.uint64) + pv - np.asarray(b, dtype=np.uint64) % pv) % pv

    def mul_vec(self, a, b) -> np.ndarray:
        # a, b canonical so the product stays below 2**64
        return (np.asarray(a, dtype=np.uint64) * np.asarray(b, dtype=np.uint64)) % np.uint64(self.p)

    def scale_vec(self, c: int, a) -> np.ndarray:
        return self.mul_vec(np.uint64(c % self.p), a)

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
