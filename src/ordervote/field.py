"""Exact modular arithmetic over a prime field Z_p.

Field elements are kept in canonical form (0 <= x < p) in numpy uint64
arrays; the ``*_vec`` ops are the one arithmetic path, and on the wire the
elements travel inside ``transport.ProtocolMessage`` as 8-byte little-endian
words.  The prime is a runtime value: a config takes p = 65,519 or
2**31 - 1 by the size of its election (``config.PRIME_LADDER``), while
tests also use tiny primes (7, 13, 31) so that bit-level protocols can be
checked exhaustively.  Products of two canonical elements fit in 64 bits as
long as p < 2**32, which is enforced at construction.

Every op takes canonical operands and returns canonical results, with one
reduction per value: a sum or difference of two canonical elements is
within p of the range, so ``add_vec`` and ``sub_vec`` pick min(s, s - p) or
min(d, d + p) on the wrapped uint64 word and never divide.  Every other
reduction is ``reduce``, x - (x // p) * p in place: numpy divides a uint64
array by a scalar through a precomputed multiplicative inverse, so the
three passes cost about 2.0 ms per million words against 3.4 ms for one
``%``.  The kernels on validation's path (``shamir.share_batch``,
``shamir.combine_rows``, the masked products of ``engine.PartyContext``)
also let a sum grow while it provably fits in 64 bits and reduce it once.

One draw gives uniform elements.  ``draw`` fills rows from full-range
64-bit words, each split into two 32-bit lanes masked to ell bits, and
redraws the lanes >= p; each value is the first lane below p of its own
sequence of uniform ell-bit lanes, so it is exactly uniform.  At
p = 2**31 - 1 it costs about 2.5 ms per million values against 10 ms for
``integers(0, p)``.  Every dealer draws with it: a tallier, or a voter
who votes alone, from a generator the operating system seeds, and voter i
of a config's seeded ballots from stream i of the config's Philox4x64-10
key (``stream_rng``: counter (0, 0, i, 0)).

``draw_batch`` is the batch form of ``draw`` for many such streams under
one key, the seeded voters' draw: Philox is counter based, so
``philox_words`` computes the first words of every stream at once in a few
array passes (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011), where building a generator costs over 10 us per voter.  A
row whose lanes include one >= p is recomputed through ``draw`` on its own
stream, so every row equals what its voter draws alone.
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
        self._p = np.uint64(p)
        self._p32 = np.uint32(p)
        self._lane_mask = np.uint32((1 << self.ell) - 1)

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
        """a + b mod p for canonical a and b: the sum s < 2p, and s - p wraps
        past s exactly when s < p, so min(s, s - p) is the canonical sum."""
        s = np.asarray(np.add(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)))
        return np.minimum(s, np.subtract(s, np.uint64(self.p)), out=s)

    def sub_vec(self, a, b) -> np.ndarray:
        """a - b mod p for canonical a and b: the wrapped difference d is
        a - b when a >= b, and d + p wraps back to a - b + p when a < b, so
        min(d, d + p) is the canonical difference."""
        d = np.asarray(np.subtract(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)))
        return np.minimum(d, np.add(d, np.uint64(self.p)), out=d)

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """x mod p in place, for a writable uint64 array x; returns x.  It
        computes x - (x // p) * p, exact for every uint64 word."""
        q = x // self._p
        q *= self._p
        x -= q
        return x

    def mul_vec(self, a, b) -> np.ndarray:
        # a, b canonical so the product stays below 2**64
        return self.reduce(np.asarray(np.multiply(np.asarray(a, dtype=np.uint64),
                                                  np.asarray(b, dtype=np.uint64))))

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

    def draw(self, rng: np.random.Generator, *rows: np.ndarray) -> None:
        """Fill each writable uint64 row of ``rows`` with uniform elements,
        one ``integers`` call for all the rows, in their order."""
        lanes = self._lanes(rng, sum(len(row) for row in rows))
        start = 0
        for row in rows:
            row[...] = lanes[start:start + len(row)]
            start += len(row)

    def _lanes(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform elements as uint32 lanes: each full-range word from
        ``rng`` gives two 32-bit lanes, masked to ell bits, and the lanes
        >= p are replaced by lanes of a fresh draw, until none is left."""
        lanes = rng.integers(0, 1 << 64, size=(n + 1) // 2, dtype=np.uint64).view(np.uint32)[:n]
        lanes &= self._lane_mask
        redraw = np.flatnonzero(lanes >= self._p32)
        if redraw.size:
            lanes[redraw] = self._lanes(rng, redraw.size)
        return lanes

    def draw_batch(self, key: int, ids, n: int) -> np.ndarray:
        """The batch form of ``draw``: a (len(ids), n) uint64 array whose
        row i is what ``draw(stream_rng(key, ids[i]), row)`` writes into a
        row of n.  Each row takes its stream's first ceil(n/2) words, two
        lanes each; a row with a lane >= p, which ``draw`` would replace,
        is recomputed through ``draw`` on its own stream."""
        ids = np.asarray(ids, dtype=np.uint64)
        lanes = philox_words(key, ids, (n + 1) // 2).view(np.uint32)[:, :n]
        lanes &= self._lane_mask
        out = lanes.astype(np.uint64)
        for i in np.flatnonzero((lanes >= self._p32).any(axis=1)).tolist():
            self.draw(stream_rng(key, int(ids[i])), out[i])
        return out


# -- Philox4x64-10 --------------------------------------------------------------
# numpy's Philox, after Random123: a block is ten rounds of two 64x64 -> 128
# bit products of the counter words by _MUL, the other two counter words and
# the key xored into the high halves, and the key bumped by _WEYL between
# rounds.  numpy increments the counter's first word before each block, so
# stream i's block j (from 0) is that of the counter (j + 1, 0, i, 0).

_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_WORD = (1 << 64) - 1
_LOW = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)


def stream_rng(key: int, i: int) -> np.random.Generator:
    """Stream i under the 128-bit ``key``: numpy's Philox4x64-10 from the
    counter (0, 0, i, 0)."""
    # an array: numpy reads a list that holds i >= 2**63 as float64
    counter = np.array([0, 0, i, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def philox_words(key: int, ids, w: int) -> np.ndarray:
    """A (len(ids), w) uint64 array whose row i is the first w raw words of
    ``stream_rng(key, ids[i])``, computed for every stream at once."""
    ids = np.asarray(ids, dtype=np.uint64).reshape(-1)
    blocks = -(-w // 4)
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), ids.size)
    c1 = np.zeros_like(c0)
    c2 = np.repeat(ids, blocks)
    c3 = np.zeros_like(c0)
    k0, k1 = key & _WORD, key >> 64 & _WORD
    for _ in range(10):
        hi0, lo0 = _mulhilo(_MUL[0], c0)
        hi1, lo1 = _mulhilo(_MUL[1], c2)
        hi1 ^= c1 ^ np.uint64(k0)
        hi0 ^= c3 ^ np.uint64(k1)
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
        k0, k1 = (k0 + _WEYL[0]) & _WORD, (k1 + _WEYL[1]) & _WORD
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(ids.size, 4 * blocks)[:, :w]


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products m * x, the high word
    from the four products of 32-bit halves, each below 2**64."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo = x & _LOW
    x_hi = x >> _HALF
    lh = x_hi * m_lo
    hl = x_lo * m_hi
    carry = x_lo * m_lo
    carry >>= _HALF
    carry += lh & _LOW
    carry += hl & _LOW
    carry >>= _HALF
    hi = x_hi * m_hi
    hi += lh >> _HALF
    hi += hl >> _HALF
    hi += carry
    return hi, x * np.uint64(m)
