"""Round-based MPC primitives jointly executed by the D talliers.

Every value here is a Shamir share; a ``Shares`` object holds one party's
shares of a whole batch of independent secrets, and all primitives are
batch-first: submitting a vector of instances executes them in the same
communication rounds (simultaneous multiplication gates).  The code is
written SPMD style -- all parties run the same function over their own
context, and public control flow (opened values, batch sizes) is identical
everywhere, which keeps the implicit round numbering aligned.

Primitives:

* multiplication with degree reduction: local share products give a
  (2D'-1)-threshold sharing of u*v; a double sharing of a random R masks it,
  party 1 reconstructs and republishes w+R, and subtracting the low-threshold
  shares of R lands back on a D'-out-of-D sharing of the product.
* shared LSB of a secret x: jointly sample a bitwise-shared uniform r < p,
  publish c = x + r, and combine LSB(c), LSB(r) and the wraparound bit
  1_{c < r} (a bitwise circuit of public c against the shared bits of r).
* comparison 1_{a<b} from three less-than-half bits via
  z = 1 - x - y + xy + w(x + y - 2xy).
* positivity of a signed value embedded in [-N, N]: the LSB of -2x.
* equality to zero via Fermat: 1 - x^(p-1), a square-and-multiply ladder of
  at most 2*ell multiplication gates.

Multiplying by public scalars, adding shares, and adding public constants are
local operations and never touch the network or the gate counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .field import PrimeField
from .shamir import (InsufficientShares, degree_at_most, reconstruct_batch,
                     share_batch)
from .transport import SessionChannel

RETRY_LIMIT = 32
POOL_BLOCK = 1024


class MpcError(Exception):
    pass


class DegreeOverflow(MpcError):
    pass


class RetryExhausted(MpcError):
    pass


class InconsistentOpen(MpcError):
    pass


@dataclass
class Shares:
    """One party's shares of a batch of secrets (elementwise semantics).

    Addition/subtraction between Shares, and any combination with public
    ints or arrays, are local; use ``PartyContext.mul`` for secret products.
    """

    field: PrimeField
    threshold: int
    values: np.ndarray

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, Shares):
            if other.threshold != self.threshold:
                raise MpcError("cannot mix sharings of different thresholds locally")
            return other.values
        if isinstance(other, (int, np.integer)):
            return np.uint64(int(other) % self.field.p)
        arr = np.asarray(other)
        if arr.dtype.kind == "i":  # signed ints embed as v mod p
            return np.mod(arr, self.field.p).astype(np.uint64)
        return arr.astype(np.uint64) % np.uint64(self.field.p)

    def __add__(self, other) -> "Shares":
        return Shares(self.field, self.threshold,
                      self.field.add_vec(self.values, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other) -> "Shares":
        return Shares(self.field, self.threshold,
                      self.field.sub_vec(self.values, self._coerce(other)))

    def __rsub__(self, other) -> "Shares":
        return Shares(self.field, self.threshold,
                      self.field.sub_vec(self._coerce(other), self.values))

    def __neg__(self) -> "Shares":
        return Shares(self.field, self.threshold,
                      self.field.sub_vec(np.uint64(0), self.values))

    def __mul__(self, other) -> "Shares":
        if isinstance(other, Shares):
            raise MpcError("secret*secret products need PartyContext.mul")
        return Shares(self.field, self.threshold,
                      self.field.mul_vec(self.values, self._coerce(other)))

    __rmul__ = __mul__

    def __getitem__(self, idx) -> "Shares":
        v = self.values[idx]
        return Shares(self.field, self.threshold, np.atleast_1d(v))

    def reshape(self, *shape) -> "Shares":
        return Shares(self.field, self.threshold, self.values.reshape(*shape))

    @property
    def size(self) -> int:
        return self.values.size

    @staticmethod
    def concat(parts: list["Shares"]) -> "Shares":
        base = parts[0]
        return Shares(base.field, base.threshold,
                      np.concatenate([p.values.ravel() for p in parts]))


@dataclass
class DoubleSharing:
    """Shares of one random R under thresholds D' (low) and 2D'-1 (high)."""

    low: Shares
    high: Shares


@dataclass
class Counters:
    """Per-party instrumentation; communication rounds live on the channel."""

    mul_gates: int = 0
    mul_gates_in_lsb: int = 0
    mul_rounds: int = 0
    opens: int = 0
    lsb_extractions: int = 0
    comparisons: int = 0
    rand_sharings: int = 0
    double_sharings: int = 0
    open_log: list = dataclass_field(default_factory=list)

    def open_purposes(self) -> set:
        return {tag for tag, _ in self.open_log}


class PartyContext:
    """One tallier's handle on a protocol session.

    Owns the party's randomness, its transport channel, instrumentation
    counters, and pools of pre-generated random/double sharings (the pools
    can be filled before any ballots arrive).
    """

    def __init__(self, party_id: int, parties: int, threshold: int,
                 field: PrimeField, channel: SessionChannel,
                 rng: np.random.Generator):
        if parties >= field.p:
            raise MpcError("field too small for the number of parties")
        self.party_id = party_id
        self.parties = parties
        self.threshold = threshold
        self.field = field
        self.channel = channel
        self.rng = rng
        self.counters = Counters()
        self.capture_store: dict | None = None
        # pooled sharings, one row per threshold: random (D',), double (D', 2D'-1)
        self._rand_t = (threshold,)
        self._double_t = (threshold, 2 * threshold - 1)
        self._pools = {t: np.zeros((len(t), 0), dtype=np.uint64)
                       for t in (self._rand_t, self._double_t)}
        self._lsb_depth = 0

    # -- bookkeeping -------------------------------------------------------

    def capture(self, label: str, shares: Shares) -> None:
        """Record this party's raw shares for offline reconstruction checks."""
        if self.capture_store is not None:
            self.capture_store[label] = (shares.threshold, shares.values.copy())

    def summary(self) -> dict:
        c = self.counters
        return {
            "mul_gates": c.mul_gates,
            "mul_rounds": c.mul_rounds,
            "comm_rounds": self.channel.stats.rounds,
            "messages": self.channel.stats.messages,
            "opens": c.opens,
            "lsb_extractions": c.lsb_extractions,
            "comparisons": c.comparisons,
            "rand_sharings": c.rand_sharings,
            "double_sharings": c.double_sharings,
        }

    def constant(self, values) -> Shares:
        """Public constant as a degree-0 sharing (every party holds the value)."""
        v = np.atleast_1d(np.asarray(values, dtype=np.uint64)) % np.uint64(self.field.p)
        return Shares(self.field, self.threshold, v)

    # -- shared randomness ---------------------------------------------------

    def _deal(self, n: int, thresholds: tuple[int, ...]) -> np.ndarray:
        """Each party deals n random values under every threshold; summing the
        dealt shares gives sharings of n unknown uniform values (the sums of
        everyone's contributions), one row per threshold."""
        if max(thresholds) > self.parties:
            raise DegreeOverflow(f"threshold {max(thresholds)} exceeds D = {self.parties}")
        contrib = self.field.rand_vec(self.rng, n)
        dealt = [share_batch(self.field, contrib, t, self.parties, self.rng) for t in thresholds]

        # Party d's payload: its shares under each threshold in turn.  Built per
        # party, not sliced from one stacked (D, n * len(thresholds)) array: on
        # the socket path that larger block left the process resident about
        # 30 MB higher after each election.
        def row(d: int) -> np.ndarray:
            return np.concatenate([m[d - 1] for m in dealt])

        peers = self.channel.transport.peers()
        acc = row(self.party_id)
        for vals in self.channel.scatter({d: row(d) for d in peers}).values():
            acc = self.field.add_vec(acc, vals)
        return acc.reshape(len(thresholds), n)

    def _refill(self, thresholds: tuple[int, ...], n: int) -> None:
        self._pools[thresholds] = np.concatenate(
            [self._pools[thresholds], self._deal(n, thresholds)], axis=1)

    def _take(self, thresholds: tuple[int, ...], k: int) -> np.ndarray:
        """k pooled sharings per threshold, refilled in blocks of at least
        POOL_BLOCK; returns (len(thresholds), k)."""
        while self._pools[thresholds].shape[1] < k:
            self._refill(thresholds, max(k - self._pools[thresholds].shape[1], POOL_BLOCK))
        pool = self._pools[thresholds]
        self._pools[thresholds] = pool[:, k:]
        return pool[:, :k]

    def rand_shares(self, k: int) -> Shares:
        """Shares of k uniform field values unknown to any minority coalition."""
        self.counters.rand_sharings += k
        return Shares(self.field, self.threshold, self._take(self._rand_t, k)[0])

    def double_shares(self, k: int) -> DoubleSharing:
        """k double sharings: the same random value under thresholds D' and 2D'-1."""
        self.counters.double_sharings += k
        low, high = self._take(self._double_t, k)
        return DoubleSharing(Shares(self.field, self._double_t[0], low),
                             Shares(self.field, self._double_t[1], high))

    def pregenerate(self, rand: int = 0, doubles: int = 0) -> None:
        """Fill the pools ahead of time (can run before the election starts)."""
        for thresholds, n in ((self._rand_t, rand), (self._double_t, doubles)):
            if n:
                self._refill(thresholds, n)

    # -- multiplication gate with degree reduction ---------------------------

    def mul(self, u: Shares, v: Shares) -> Shares:
        """Shares of u*v elementwise; one batch = one layer of simultaneous gates."""
        if u.values.shape != v.values.shape:
            raise MpcError("mul operands must have the same shape")
        high_t = 2 * self.threshold - 1
        if high_t > self.parties:
            raise DegreeOverflow(f"2D'-1 = {high_t} exceeds D = {self.parties}")
        k = u.size
        if k == 0:
            return Shares(self.field, self.threshold, u.values.copy())
        shape = u.values.shape
        self.counters.mul_gates += k
        self.counters.mul_rounds += 1
        if self._lsb_depth:
            self.counters.mul_gates_in_lsb += k
        dbl = self.double_shares(k)
        local = self.field.mul_vec(u.values.ravel(), v.values.ravel())
        masked = self.field.add_vec(local, dbl.high.values)
        got = self.channel.gather(1, masked)
        if self.party_id == 1:
            matrix = np.stack([got[d] for d in range(1, self.parties + 1)])
            if self.parties > high_t and not bool(
                    np.all(degree_at_most(self.field, matrix, high_t))):
                raise InconsistentOpen("masked product shares exceed degree 2D'-2")
            opened = reconstruct_batch(self.field, range(1, high_t + 1), matrix[:high_t])
        else:
            opened = None
        opened = self.channel.publish(1, opened)
        out = self.field.sub_vec(opened, dbl.low.values)
        return Shares(self.field, self.threshold, out.reshape(shape))

    # -- openings -------------------------------------------------------------

    def open(self, x: Shares, purpose: str) -> np.ndarray:
        """Reconstruct x at every party.  With more than ``threshold`` shares the
        extras must lie on the same low-degree polynomial (InconsistentOpen)."""
        if self.parties < x.threshold:
            raise InsufficientShares(
                f"{self.parties} parties cannot open a threshold-{x.threshold} sharing")
        self.counters.opens += x.size
        self.counters.open_log.append((purpose, x.size))
        if x.size == 0:
            return np.zeros(x.values.shape, dtype=np.uint64)
        got = self.channel.exchange_all(x.values.ravel())
        matrix = np.stack([got[d] for d in range(1, self.parties + 1)])
        if self.parties > x.threshold and not bool(
                np.all(degree_at_most(self.field, matrix, x.threshold))):
            raise InconsistentOpen("opened shares do not lie on a single "
                                   f"degree<={x.threshold - 1} polynomial")
        values = reconstruct_batch(self.field, range(1, x.threshold + 1),
                                   matrix[:x.threshold])
        return values.reshape(x.values.shape)

    def open_share_matrix(self, values: np.ndarray, purpose: str) -> np.ndarray:
        """Broadcast raw share values and return the full (D, k) matrix, ordered
        by party index.  Used by the share-degree legality check, which needs
        every evaluation point rather than a reconstruction."""
        self.counters.opens += values.size
        self.counters.open_log.append((purpose, values.size))
        got = self.channel.exchange_all(np.asarray(values, dtype=np.uint64).ravel())
        return np.stack([got[d] for d in range(1, self.parties + 1)])

    # -- shared bit machinery ---------------------------------------------------

    def _random_bits(self, shape: tuple[int, ...]) -> Shares:
        """Shares of uniform bits: square a shared random value, open the square,
        divide by the public canonical root; the sign that survives is a coin."""
        total = int(np.prod(shape))
        out = np.zeros(total, dtype=np.uint64)
        need = np.ones(total, dtype=bool)
        inv2 = np.uint64((self.field.p + 1) // 2)
        for _ in range(RETRY_LIMIT):
            if not need.any():
                break
            rho = self.rand_shares(int(need.sum()))
            sq = self.mul(rho, rho)
            a = self.open(sq, "lsb_mask")
            ok = a != 0
            if ok.any():
                roots = self._sqrt_vec(a[ok])
                vinv = self.field.pow_vec(roots, self.field.p - 2)
                signed = self.field.mul_vec(rho.values[ok], vinv)
                bits = self.field.mul_vec(self.field.add_vec(signed, np.uint64(1)), inv2)
                idx = np.flatnonzero(need)[ok]
                out[idx] = bits
                need[idx] = False
        if need.any():
            raise RetryExhausted("random bit generation kept sampling zero")
        return Shares(self.field, self.threshold, out.reshape(shape))

    def _sqrt_vec(self, a: np.ndarray) -> np.ndarray:
        p = self.field.p
        if p % 4 == 3:
            r = self.field.pow_vec(a, (p + 1) // 4)
        else:
            r = np.array([self.field.sqrt(int(v)) for v in a], dtype=np.uint64)
        return np.minimum(r, np.uint64(p) - r)

    def _suffix_products(self, e: Shares) -> Shares:
        """f[i] = product of e[i+1:] along axis 0 (f[-1] = 1), via a parallel
        scan of depth ceil(log2 ell) instead of a length-ell chain."""
        ell = e.values.shape[0]
        ones = np.ones((1,) + e.values.shape[1:], dtype=np.uint64)
        arr = Shares(self.field, self.threshold,
                     np.concatenate([e.values[1:], ones], axis=0))
        step = 1
        while step < ell:
            head = self.mul(arr[:ell - step], arr[step:])
            arr = Shares(self.field, self.threshold,
                         np.concatenate([head.values, arr.values[ell - step:]], axis=0))
            step *= 2
        return arr

    def _lt_public(self, c: np.ndarray, bits: Shares) -> Shares:
        """Shares of 1_{c < r} where c is public and r is given by shared bits
        (least significant first).  Scans for the highest bit where r has 1 and
        c has 0, guarded by a prefix of bit equalities."""
        ell, k = bits.values.shape
        c = np.asarray(c, dtype=np.uint64)
        cb = ((c[None, :] >> np.arange(ell, dtype=np.uint64)[:, None]) & np.uint64(1))
        eq = np.where(cb == 1, bits.values, self.field.sub_vec(np.uint64(1), bits.values))
        f = self._suffix_products(Shares(self.field, self.threshold, eq))
        differs = np.where(cb == 0, bits.values, np.zeros_like(bits.values))
        terms = self.mul(f, Shares(self.field, self.threshold, differs))
        return Shares(self.field, self.threshold,
                      self.field.sum_vec(terms.values, axis=0))

    def shared_lsb(self, x: Shares) -> Shares:
        """Shares of the least significant bit of the canonical representative."""
        k = x.size
        if k == 0:
            return Shares(self.field, self.threshold, x.values.copy())
        self.counters.lsb_extractions += k
        self._lsb_depth += 1
        try:
            ell = self.field.ell
            p = self.field.p
            bits = self._random_bits((ell, k))
            pm1 = np.full(k, p - 1, dtype=np.uint64)
            for attempt in range(RETRY_LIMIT + 1):
                too_big = self._lt_public(pm1, bits)  # 1_{r >= p}
                ok = self.open(1 - too_big, "lsb_mask") == 1
                if ok.all():
                    break
                if attempt == RETRY_LIMIT:
                    raise RetryExhausted("rejection sampling of r < p did not converge")
                fresh = self._random_bits((ell, int((~ok).sum())))
                bits.values[:, ~ok] = fresh.values
            weights = (np.uint64(1) << np.arange(ell, dtype=np.uint64))[:, None] % np.uint64(p)
            r = Shares(self.field, self.threshold,
                       self.field.sum_vec(self.field.mul_vec(weights, bits.values), axis=0))
            c = self.open(x.reshape(-1) + r, "lsb_mask")
            wrapped = self._lt_public(c, bits)  # 1_{c < r}, i.e. x + r overflowed p
            r0 = bits[0].reshape(-1)
            toggle = r0 + wrapped - 2 * self.mul(r0, wrapped)  # r0 XOR wrapped
            c0 = (c & np.uint64(1)).astype(np.uint64)
            out = np.where(c0 == 1,
                           self.field.sub_vec(np.uint64(1), toggle.values),
                           toggle.values)
            return Shares(self.field, self.threshold, out.reshape(x.values.shape))
        finally:
            self._lsb_depth -= 1

    # -- derived predicates ------------------------------------------------------

    def less_than_half(self, x: Shares) -> Shares:
        """1_{x < p/2}: the LSB of 2x is zero exactly in that case."""
        return 1 - self.shared_lsb(2 * x)

    def compare(self, a: Shares, b: Shares) -> Shares:
        """Shares of 1_{a < b} (canonical representatives).

        The three less-than-half bits are extracted concurrently in the same
        rounds; combining them costs exactly two more multiplication gates.
        """
        k = a.size
        self.counters.comparisons += k
        stacked = Shares.concat([2 * a, 2 * b, 2 * (a - b)])
        bits = 1 - self.shared_lsb(stacked)
        w, xx, y = bits[:k], bits[k:2 * k], bits[2 * k:]
        xy = self.mul(xx, y)
        z = 1 - xx - y + xy + self.mul(w, xx + y - 2 * xy)
        return Shares(self.field, self.threshold, z.values.reshape(a.values.shape))

    def is_positive(self, x: Shares) -> Shares:
        """1_{x > 0} for x encoding a signed value in [-N, N], p > 2N: a single
        LSB extraction on -2x."""
        return self.shared_lsb(-2 * x)

    def is_zero(self, x: Shares) -> Shares:
        """1_{x = 0} via Fermat: 1 - x^(p-1) with a shared square-and-multiply
        ladder, at most 2*ell sequential multiplication gates."""
        if x.size == 0:
            return Shares(self.field, self.threshold, x.values.copy())
        exponent = self.field.p - 1
        acc = x
        for bit in bin(exponent)[3:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, x)
        return 1 - acc

    def select(self, z: Shares, a: Shares, b: Shares) -> Shares:
        """Oblivious choice a + z*(b - a): b where the bit z is 1, else a."""
        return a + self.mul(z, b - a)
