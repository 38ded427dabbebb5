"""Round-based MPC primitives jointly executed by the D talliers.

Every value here is a Shamir share; a ``Shares`` object holds one party's
shares of a whole batch of independent secrets, and all primitives are
batch-first: submitting a vector of instances executes them in the same
communication rounds (simultaneous multiplication gates).  The code is
written SPMD style -- all parties run the same function over their own
context, and public control flow (opened values, batch sizes) is identical
everywhere, which keeps the implicit round numbering aligned.

Primitives:

* one layer of multiplication gates in one round (``_gate_layer``;
  Damgard-Nielsen, CRYPTO 2007).  Local share products are sharings under
  threshold 2D'-1, and each party's frame holds, in order: u*v + z for the
  gates that open (``open_products``), z a sharing of zero under 2D'-1;
  x*y + R for the gates that are degree-reduced (``mul``), R the high half
  of a double sharing; then the rider of an opening (below).  Every party
  checks that each gate's D shares have degree at most 2D'-2 and
  reconstructs the gate itself: u*v, whose polynomial is uniform among
  those with that constant, so the view is that of a multiplication
  followed by its opening; and W = xy + R, which less the low-threshold
  shares of R is a D'-out-of-D sharing of x*y.
* an opening that rides on a multiplication layer (``mul`` with ``then``):
  each product is the public W = uv + R less the shares of R, so an affine
  map L of the layer's products opens in the layer's own round.  Every
  party sends its shares of L(-R) behind its masked product shares, and
  L(uv) is their reconstruction, checked for degree like any opening, plus
  L(W) - L(0).  R is fresh, so W is uniform and independent of u and v,
  and the shares of L(-R) follow from the opened value and W: the view is
  that of the layer followed by its own opening, one round sooner.
* LSB masks: the bitwise-shared uniform r < p that an LSB extraction hides
  x behind, the products of its bits within each 4-bit window, r_0 times
  the products of the windows above the lowest, and r recomposed from its
  bits (``mask_layout``).  Nothing in a mask depends on the input, so masks
  come from a pool of their own, filled by one preparation routine (random bits,
  whose squares open on their own layer, two layers of window products,
  the r < p rejection check with the r_0-products on its levels, opened on
  its last, the recomposition; Damgard et al., TCC 2006).  It runs as a
  second stream of layers beside the foreground's (``prepare_masks``):
  each exchange carries the stream's next part behind its own values, so
  a batch started before validation rides validation's rounds, and what
  is left runs in rounds of its own before the first extraction
  (``finish_masks``).  A tally starts one batch of its exact extraction
  count, and a short pool is topped up the same way.  A batch draws a few
  spare masks (``spare_masks``), so the masks that fail their checks cost
  no round of their own, at any p.
* shared LSB of a secret x: take a mask r from the pool, publish c = x + r,
  and combine LSB(c), LSB(r) and the wraparound bit 1_{c < r}
  (``take_masks``, then ``finish_lsb``, so that c may ride on the layer
  before it).  The wrap bit is the carry-out of a generate/propagate tree
  over the 4-bit windows of public c and shared r (Catrina-de Hoogh, SCN
  2010): a window's generate and propagate bits are integer combinations
  of its pooled products (``LEAF_COEF``), so the leaves cost no gate and
  the tree takes ceil(log2 ceil(ell/4)) layers.  Each node also carries r_0 times its G,
  so LSB(r) XOR 1_{c < r} needs no gate of its own.  At p = 2^31 - 1 one
  extraction costs 4 rounds (the opening and 3 layers) and 18 gates
  online, and its mask 220 gates offline; at p = 65,519 (4 windows) 3
  rounds and 7 gates, and 109 offline.  ``tally.phase_rounds`` states the
  rounds of every phase of a tally.
* positivity of a signed value embedded in [-N, N]: the LSB of -2x.  The
  comparison 1_{a<b} for |a - b| < p/2 is the positivity of b - a, one LSB
  extraction and no further gates; every comparison of the tally has
  bounded inputs (the field bounds of ``config`` ensure it), so it is the
  engine's only comparison.

Pools: random sharings, double sharings, sharings of zero and LSB masks do
not depend on the input, so each party keeps pools of them.  A caller
declares (``expect``) the sharings a later layer will take, exactly; the
next exchange (``mul``, ``open``, ``open_share_matrix``) deals what the
pools lack, each peer's shares riding behind the values sent to it.
Every party deals 1/(D - t) of it, for t = D' - 1, and a public Vandermonde
matrix (``extractor``) turns every D deals into D - t sharings of values
that no t parties know anything of (Damgard-Nielsen, CRYPTO 2007); applied
to D deals of zero, it gives D - t sharings of zero whose polynomials are
uniform and independent of what any t parties dealt.  Declared one
exchange ahead, a layer never stops for a refill.  A mask batch declares all its layers at once, so
neither stream finds a pool short in the middle of a merge, and the
batch's deal rides only its first exchange.  A take that finds its pool
short declares itself and deals on the next exchange that carries nothing
else (``deal_rounds``): a phase's first layer, and a mask batch's first.
A party deals with ``shamir.share_batch``, as the voters do: it draws its
secrets and the shares at the points 1..t-1 with ``PrimeField.draw``
(full-range words split into lanes, the cheapest exact draw for the
hundreds of thousands of values a large validation deals) and
interpolates the shares at t..D through (0, secret), which is distributed
exactly as a deal with uniform coefficients (see ``share_batch``).

Every primitive that exchanges is written once, as a generator of layers
(``Layers``): it yields each layer's part and receives the D parties' rows
of it, views into the frames received, never stacked into a (D, k) copy.
``_run`` drives one in the foreground, an exchange per part, and
``_exchange`` drives the mask stream, a part per exchange.

Multiplying by public scalars, adding shares, and adding public constants are
local operations and never touch the network or the gate counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Callable, Generator, TypeVar

import numpy as np

from .field import PrimeField
from .shamir import (CHUNK, InsufficientShares, combine_rows, degree_at_most,
                     reconstruct_batch, share_batch)
from .transport import SessionChannel

RETRY_LIMIT = 32  # mask batches before a field is judged degenerate
MASK_SHORTFALL = 2.0 ** -40  # the chance that a batch of masks falls short
WINDOW = 4  # bits per carry-tree leaf: 8 digits and 3 levels at ell = 31

T = TypeVar("T")
# a primitive's layers: each yields its part of an exchange's frame and
# receives the parties' rows of it, one view per party in party order;
# returns the result
Layers = Generator[np.ndarray, list[np.ndarray], T]


def _leaf_table() -> np.ndarray:
    """Integer coefficients of the leaves over a window's bit products:
    [ind, d, s] is the coefficient of the product of the bits in subset s
    (a bitmask) in [x > d] (ind 0) and [x = d] (ind 1), the Moebius
    transform of the indicator over the subsets of the window's bits."""
    x = np.arange(1 << WINDOW)
    table = np.stack([x[None, :] > x[:, None], x[None, :] == x[:, None]]).astype(np.int64)
    for i in range(WINDOW):
        has = (x >> i) & 1 == 1
        table[:, :, has] -= table[:, :, x[has] ^ (1 << i)]
    return table


LEAF_COEF = _leaf_table()


@dataclass(frozen=True)
class MaskLayout:
    """Where the shares of an LSB mask live, one row each: the ell bits of r
    (least significant first), the products of two or more bits within a
    window (pairs first), r_0 times every non-empty subset product of the
    windows above the lowest, then r.  ``monomials[j, s]`` and
    ``multiples[j, s]`` name the row of window j's product over subset s
    and of r_0 times it, over the mask extended by a row of ones (``ones``)
    and one of zeros (``ones + 1``): the empty product is 1, r_0 times it
    is r_0, and a product over a bit past ell is 0.  The lowest window's
    r_0-multiples are its own products.  ``layers`` are the two offline
    product layers as (out, a, b) row arrays, pairs then triples and quads
    as products over s minus its top two bits and those two bits;
    ``r0_rows`` and ``r0_factors`` give each r_0-product's row and the row
    that r_0 multiplies."""

    windows: int
    rows: int
    ones: int
    monomials: np.ndarray
    multiples: np.ndarray
    layers: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    r0_rows: np.ndarray
    r0_factors: np.ndarray


@lru_cache(maxsize=None)
def mask_layout(ell: int) -> MaskLayout:
    """The mask rows at a prime of ``ell`` bits (``MaskLayout``); windows are
    bits [4j, 4j + 4) below ell, 8 of them at ell = 31 with 81 products and
    97 r_0-products, 210 rows in all."""
    widths = [min(WINDOW, ell - lo) for lo in range(0, ell, WINDOW)]
    subsets = [(j, s) for j, n in enumerate(widths) for s in range(1, 1 << n)]
    row = {(j, s): WINDOW * j + s.bit_length() - 1 for j, s in subsets if s & (s - 1) == 0}
    products = sorted(((bin(s).count("1") > 2, j, s) for j, s in subsets if (j, s) not in row))
    row.update({(j, s): ell + i for i, (_, j, s) in enumerate(products)})
    above = [(j, s) for j, s in subsets if j > 0]
    r0_rows = ell + len(products) + np.arange(len(above))
    rows = ell + len(products) + len(above) + 1
    ones, zeros = rows, rows + 1
    monomials = np.full((len(widths), 1 << WINDOW), zeros)
    monomials[:, 0] = ones
    multiples = np.full_like(monomials, zeros)
    multiples[:, 0] = 0  # r_0 itself
    for (j, s), i in row.items():
        monomials[j, s] = i
        if j == 0:
            multiples[0, s] = row[0, s | 1]  # r_0 * r_0 = r_0
    multiples[[j for j, _ in above], [s for _, s in above]] = r0_rows
    layers = []
    for wide in (False, True):
        out, a, b = [], [], []
        for _, j, s in (t for t in products if t[0] == wide):
            rest = s
            for _ in range(2 if wide else 1):
                rest &= ~(1 << (rest.bit_length() - 1))  # drop the top bit
            out.append(row[j, s])
            a.append(row[j, rest])
            b.append(row[j, s ^ rest])
        layers.append(tuple(np.array(v, dtype=np.intp) for v in (out, a, b)))
    return MaskLayout(len(widths), rows, ones, monomials, multiples, tuple(layers),
                      r0_rows, np.array([row[t] for t in above], dtype=np.intp))


def spare_masks(p: int, ell: int, n: int) -> int:
    """How many masks beyond n a batch draws: the least s for which more
    than s failures among n + s masks have probability below
    ``MASK_SHORTFALL``.  A mask fails when one of its ell random squares is
    zero (1/p each) or its r >= p ((2**ell - p) / 2**ell), with probability
    q; the union bound C(n+s, s+1) q**(s+1) over the sets of s+1 failures
    bounds the shortfall."""
    q = 1 - (1 - 1 / p) ** ell * p / 2 ** ell
    s = 0
    while (math.lgamma(n + s + 1) - math.lgamma(s + 2) - math.lgamma(n)
           + (s + 1) * math.log(q)) >= math.log(MASK_SHORTFALL):
        s += 1
    return s


@lru_cache(maxsize=None)
def extractor(p: int, parties: int, threshold: int) -> tuple[tuple[int, ...], ...]:
    """The public (D - t) x D matrix that extracts randomness from D deals,
    t = threshold - 1 the most parties a coalition may hold: row j holds
    d**j mod p for d = 1..D, so row 0 sums the deals.  Any D - t of its
    columns form a Vandermonde matrix on distinct points below p, which is
    invertible mod p, so the D - t outputs are uniform and independent of
    what any t parties dealt (Damgard-Nielsen, CRYPTO 2007)."""
    return tuple(tuple(pow(d, j, p) for d in range(1, parties + 1))
                 for j in range(parties - threshold + 1))


def extract(field: PrimeField, matrix: tuple[tuple[int, ...], ...], rows: list[np.ndarray],
            out: np.ndarray) -> np.ndarray:
    """out[j] = sum_d matrix[j][d] * rows[d] mod p for the D equally long
    rows of dealt shares, one ``combine_rows`` per output row and column
    chunk of about 1 MB.  The rows are never stacked into one (D, w) block
    (see ``share_batch``)."""
    for lo in range(0, out.shape[1], CHUNK):
        chunk = [row[lo:lo + CHUNK] for row in rows]
        for coeffs, dst in zip(matrix, out[:, lo:lo + CHUNK]):
            combine_rows(field, coeffs, chunk, out=dst)
    return out


def _level_gates(nodes: int, fields: int) -> int:
    """Gates per column of a carry-tree level over ``nodes`` nodes of
    ``fields`` fields: P_h times every field of the low node of each pair,
    but P_l of the lowest pair."""
    pairs = nodes // 2
    return fields * pairs - 1 if pairs else 0


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
    mul_rounds: int = 0
    offline_rounds: int = 0  # comm rounds that carry a mask batch's layer
    deal_rounds: int = 0  # comm rounds that only deal pool sharings
    opens: int = 0
    lsb_extractions: int = 0
    comparisons: int = 0
    rand_sharings: int = 0
    double_sharings: int = 0
    zero_sharings: int = 0
    open_log: list = dataclass_field(default_factory=list)
    phase_cpu: dict = dataclass_field(default_factory=dict)  # seconds, by session._phase
    phase_wait: dict = dataclass_field(default_factory=dict)  # seconds, by session._phase


# the counters of the work a mask batch does, which ``mask_counters`` keeps
MASK_WORK = ("mul_gates", "mul_rounds", "opens", "rand_sharings", "double_sharings")


class PartyContext:
    """One tallier's handle on a protocol session.

    Owns the party's randomness, its transport channel, instrumentation
    counters, and pools of pre-generated random sharings, double sharings,
    sharings of zero and LSB masks (the pools can be filled before any
    ballots arrive).
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
        self.mask_counters = Counters()  # the mask batches' work (``mask_work``)
        self.capture_store: dict | None = None
        # pooled sharings, one row per threshold: random (D'), double (D' and
        # 2D'-1) and zero (2D'-1)
        self._pools = {pool: np.zeros((rows, 0), dtype=np.uint64)
                       for pool, rows in (("rand", 1), ("double", 2), ("zero", 1))}
        # per pool, the sharings declared (``expect``) for layers still to come
        self._owed = dict.fromkeys(self._pools, 0)
        self._extractor = extractor(field.p, parties, threshold)
        # checked LSB masks, one per column, rows as ``mask_layout`` places them
        self._layout = mask_layout(field.ell)
        self._masks = np.zeros((self._layout.rows, 0), dtype=np.uint64)
        # the mask stream (``prepare_masks``) and the part it sends next
        self._stream: Layers[None] | None = None
        self._part: np.ndarray | None = None

    # -- bookkeeping -------------------------------------------------------

    def capture(self, label: str, shares: Shares) -> None:
        """Record this party's raw shares for offline reconstruction checks."""
        if self.capture_store is not None:
            self.capture_store[label] = (shares.threshold, shares.values.copy())

    def summary(self) -> dict:
        """Every counter of this party: its rounds, messages and bytes, and
        the work of both streams (``mask_work``)."""
        c = self.counters
        out = {
            "mul_gates": c.mul_gates,
            "mul_rounds": c.mul_rounds,
            "comm_rounds": self.channel.stats.rounds,
            "offline_rounds": c.offline_rounds,
            "deal_rounds": c.deal_rounds,
            "messages": self.channel.stats.messages,
            "bytes_sent": self.channel.transport.bytes_sent,
            "opens": c.opens,
            "lsb_extractions": c.lsb_extractions,
            "comparisons": c.comparisons,
            "rand_sharings": c.rand_sharings,
            "double_sharings": c.double_sharings,
            "zero_sharings": c.zero_sharings,
        }
        for key, value in self.mask_work().items():
            out[key] += value
        return out

    def mask_work(self) -> dict:
        """The work of the mask batches (``_mask_layers``), counted apart in
        ``mask_counters``: their gates, layers, openings and the sharings
        they take, as ``summary`` keys."""
        return {key: getattr(self.mask_counters, key) for key in MASK_WORK}

    def constant(self, values) -> Shares:
        """Public constant as a degree-0 sharing (every party holds the value)."""
        v = np.atleast_1d(np.asarray(values, dtype=np.uint64)) % np.uint64(self.field.p)
        return Shares(self.field, self.threshold, v)

    # -- shared randomness ---------------------------------------------------

    def expect(self, rand: int = 0, doubles: int = 0, zeros: int = 0) -> None:
        """Declare the random, double and zero sharings that later layers
        will take.  The next exchange deals what the pools lack of them on
        its way, so those layers never stop for a refill round.  A negative
        amount withdraws part of an earlier declaration."""
        self._owed["rand"] += rand
        self._owed["double"] += doubles
        self._owed["zero"] += zeros

    def _due(self, pool: str) -> int:
        """Sharings the declared layers still lack in ``pool``."""
        return max(self._owed[pool] - self._pools[pool].shape[1], 0)

    def _exchange(self, values: np.ndarray, ragged: bool = False) -> list[np.ndarray]:
        """One communication round: every party sends ``values`` to each peer,
        then the mask stream's next part when one is pending
        (``prepare_masks``), then that peer's shares of its deal.  The deal is
        what the declared layers lack (``_due``) in each pool: each party
        deals 1/(D - t) of it, rounded up, and ``_pool_extracted`` turns the
        D deals into D - t times as many sharings, of values (or, for the
        zero pool, of polynomials) that no t parties know; a surplus of
        fewer than D - t per pool stays for later layers.  The stream then
        gets its rows and runs to its next part.
        Returns the parties' values as D rows, ordered by party index: views
        into the frames received, which nothing writes to.  Every party runs
        the same program, so the part and the deal that end a frame have one
        width at every party, and a frame of another length is a misbehaving
        peer (InconsistentOpen); ``ragged`` values may have a length of each
        party's own, which is what precedes that width."""
        values = np.asarray(values, dtype=np.uint64).ravel()
        part = self._part
        head = [values] if part is None else [values, part]
        outputs = len(self._extractor)
        rand, doubles, zeros = (-(-self._due(pool) // outputs) for pool in self._pools)
        dealt = rand + 2 * doubles + zeros
        k, parties = values.size, range(1, self.parties + 1)
        stream = 0 if part is None else part.size
        tail = stream + dealt  # one width at every party
        if dealt:
            payloads = self._payloads(head, rand, doubles, zeros)
            got = self.channel.scatter({d: payloads[d - 1] for d in parties})
            got[self.party_id] = payloads[self.party_id - 1]
        else:
            got = self.channel.exchange_all(values if part is None else np.concatenate(head))
        for d, payload in got.items():
            if payload.size < tail or not ragged and payload.size != k + tail:
                raise InconsistentOpen(
                    f"T{d} sent {payload.size} values in round "
                    f"{self.channel.stats.rounds - 1}; T{self.party_id} expected "
                    f"{'at least ' if ragged else ''}{(0 if ragged else k) + tail}")
        ends = {d: got[d].size - tail for d in parties}  # where each party's values end
        if dealt:
            self.counters.deal_rounds += not k + stream
            self._pool_extracted([got[d][ends[d] + stream:] for d in parties], rand, doubles, zeros)
        if part is not None:
            self._advance([got[d][ends[d]:ends[d] + stream] for d in parties])
        return [got[d][:ends[d]] for d in parties]

    def _advance(self, rows: list[np.ndarray]) -> None:
        """Hand the mask stream its rows of the last exchange; it runs to
        its next part, or ends.  A stream that raises is dropped."""
        stream, self._stream, self._part = self._stream, None, None
        try:
            self._part = stream.send(rows)
        except StopIteration:
            return
        self._stream = stream

    def _run(self, layers: Layers[T]) -> T:
        """Run a primitive's layers in the foreground, one exchange per part;
        returns what they return."""
        try:
            part = next(layers)
            while True:
                part = layers.send(self._exchange(part))
        except StopIteration as done:
            return done.value

    def _pool_extracted(self, deals: list[np.ndarray], rand: int, doubles: int,
                        zeros: int) -> None:
        """Extract the D received deals, each ``rand`` random sharings,
        ``doubles`` double sharings (their low halves, then their high ones)
        and ``zeros`` sharings of zero, and append the outputs to the pools.
        The same extractor row applied to the low and the high halves gives
        one value under both thresholds, a double sharing, and applied to
        sharings of zero a sharing of zero.  The output rows are split as
        views, so the block is copied only into the pools."""
        out = np.empty((len(self._extractor), rand + 2 * doubles + zeros), dtype=np.uint64)
        extract(self.field, self._extractor, deals, out)
        paired = rand + 2 * doubles
        for pool, new in (("rand", [row[None, :rand] for row in out]),
                          ("double", [row[rand:paired].reshape(2, doubles) for row in out]),
                          ("zero", [row[None, paired:] for row in out])):
            self._pools[pool] = np.concatenate([self._pools[pool], *new], axis=1)

    def _payloads(self, head: list[np.ndarray], rand: int, doubles: int,
                  zeros: int) -> list[np.ndarray]:
        """Party d's payload, for d = 1..D: the arrays of ``head`` (the values,
        then the stream's part), then d's shares of this party's
        contributions: ``rand`` uniform values under threshold D',
        ``doubles`` more under D' and again under 2D'-1, and ``zeros``
        zeros under 2D'-1.  Everything is written straight into each
        party's buffer, not into one (D, n) block, by ``share_batch``; the
        secrets come from ``PrimeField.draw``."""
        low, high = self.threshold, 2 * self.threshold - 1
        if doubles + zeros and high > self.parties:
            raise DegreeOverflow(f"threshold {high} exceeds D = {self.parties}")
        k = sum(h.size for h in head)
        paired = k + rand + 2 * doubles
        buffers = [np.empty(paired + zeros, dtype=np.uint64) for _ in range(self.parties)]
        for buf in buffers:
            np.concatenate(head, out=buf[:k])
        secrets = np.empty(rand + doubles, dtype=np.uint64)
        self.field.draw(self.rng, secrets)
        share_batch(self.field, secrets, low, self.parties, self.rng,
                    out=[buf[k:k + rand + doubles] for buf in buffers])
        share_batch(self.field, secrets[rand:], high, self.parties, self.rng,
                    out=[buf[k + rand + doubles:paired] for buf in buffers])
        if zeros:
            share_batch(self.field, np.zeros(zeros, dtype=np.uint64), high, self.parties,
                        self.rng, out=[buf[paired:] for buf in buffers])
        return buffers

    def _deal(self) -> None:
        """A round that carries no values of the foreground: what the declared
        layers lack, behind the stream's next part if one is pending."""
        self._exchange(np.zeros(0, dtype=np.uint64))

    def _stocked(self, need: dict[str, int]) -> Layers[None]:
        """The layers that leave ``need[pool]`` sharings in each pool: none
        when the pools hold them, else one deal-only part, after each short
        pool has raised its declaration to what it needs.  A layer declared
        one exchange ahead finds them pooled."""
        short = [pool for pool, k in need.items() if self._pools[pool].shape[1] < k]
        for pool in short:
            self._owed[pool] = max(self._owed[pool], need[pool])
        if short:
            yield np.zeros(0, dtype=np.uint64)

    def _take(self, pool: str, k: int) -> np.ndarray:
        """k sharings from ``pool``, one row per threshold: (1, k), or (2, k)
        for double sharings.  A pool too short deals first (``_stocked``)."""
        self._run(self._stocked({pool: k}))
        taken = self._pools[pool]
        self._pools[pool] = taken[:, k:]
        self._owed[pool] = max(self._owed[pool] - k, 0)
        return taken[:, :k]

    def rand_shares(self, k: int) -> Shares:
        """Shares of k uniform field values unknown to any minority coalition."""
        self.counters.rand_sharings += k
        return Shares(self.field, self.threshold, self._take("rand", k)[0])

    def double_shares(self, k: int) -> DoubleSharing:
        """k double sharings: the same random value under thresholds D' and 2D'-1."""
        self.counters.double_sharings += k
        low, high = self._take("double", k)
        return DoubleSharing(Shares(self.field, self.threshold, low),
                             Shares(self.field, 2 * self.threshold - 1, high))

    def zero_shares(self, k: int) -> Shares:
        """k sharings of zero under threshold 2D'-1, each uniform among them
        and unknown beyond their shares to any minority coalition."""
        self.counters.zero_sharings += k
        return Shares(self.field, 2 * self.threshold - 1, self._take("zero", k)[0])

    # -- multiplication gates ------------------------------------------------

    def mul(self, u: Shares, v: Shares, then: Callable[[Shares], Shares] | None = None,
            purpose: str = "") -> Shares | tuple[Shares, np.ndarray]:
        """Shares of u*v elementwise; one batch = one layer of simultaneous gates.

        With ``then``, an affine map of the products that takes nothing from a
        pool, the same round opens then(u*v) for ``purpose``.  Each product is
        the public W = uv + R less the shares of R, so every party sends its
        shares of then(-R) behind its masked product shares, and the opened
        value is their reconstruction plus then(W) - then(0).  Returns the
        products and, with ``then``, the opened value."""
        return self._run(self._mul_layer(u, v, then, purpose))

    def _mul_layer(self, u: Shares, v: Shares, then: Callable[[Shares], Shares] | None = None,
                   purpose: str = "") -> Layers[Shares | tuple[Shares, np.ndarray]]:
        """The layer of ``mul``."""
        return (yield from self._gate_layer(None, (u, v), then, purpose))

    def open_products(self, u: Shares, v: Shares, purpose: str,
                      reduce: tuple[Shares, Shares] | None = None
                      ) -> np.ndarray | tuple[np.ndarray, Shares]:
        """Open u*v elementwise for ``purpose`` in one layer, with no double
        sharing and no opening round.  Every party broadcasts its share
        product masked by its share of a sharing of zero under threshold
        2D'-1, and reconstructs u*v at that threshold.  With ``reduce``, a
        pair (x, y), the same frame also multiplies x*y as ``mul`` does.
        Returns the opened products and, with ``reduce``, the shares of x*y."""
        return self._run(self._gate_layer((u, v), reduce, purpose=purpose))

    def _gate_layer(self, opened: tuple[Shares, Shares] | None,
                    reduced: tuple[Shares, Shares] | None,
                    then: Callable[[Shares], Shares] | None = None, purpose: str = ""
                    ) -> Layers:
        """One layer of gates: the pair ``opened`` multiplied and opened, the
        pair ``reduced`` multiplied with degree reduction, and with ``then``
        an affine map of the reduced products opened for ``purpose``.  The
        frame holds the k masked products u*v + z, the j masked products
        x*y + R and the shares of then(-R); with pools short of the zero or
        double sharings, a deal-only part comes first, and with no gate at
        all, then(x*y) opens in a round of its own.  Returns what was asked
        for in that order, one alone bare: the opened u*v, the shares of
        x*y and the opened then(x*y)."""
        f, t, high_t = self.field, self.threshold, 2 * self.threshold - 1
        none = Shares(f, t, np.zeros(0, dtype=np.uint64))
        (u, v), (x, y) = opened or (none, none), reduced or (none, none)
        if u.values.shape != v.values.shape or x.values.shape != y.values.shape:
            raise MpcError("mul operands must have the same shape")
        if high_t > self.parties:
            raise DegreeOverflow(f"2D'-1 = {high_t} exceeds D = {self.parties}")
        k, j, shape = u.size, x.size, x.values.shape

        def asked(*results):
            results = [r for r, want in zip(results, (opened, reduced, then)) if want is not None]
            return results[0] if len(results) == 1 else tuple(results)

        if k + j == 0:
            out = Shares(f, t, x.values.copy())
            shown = None if then is None else (yield from self._open_layer(then(out), purpose))
            return asked(u.values.copy(), out, shown)
        yield from self._stocked({"zero": k, "double": j})
        zeros, dbl = self.zero_shares(k), self.double_shares(j)
        masked = np.empty(k + j, dtype=np.uint64)
        np.multiply(u.values.ravel(), v.values.ravel(), out=masked[:k])
        np.multiply(x.values.ravel(), y.values.ravel(), out=masked[k:])
        masked[:k] += zeros.values  # u*v + z <= (p - 1) * p < 2**64: one reduction
        masked[k:] += dbl.high.values
        f.reduce(masked)
        rider = None if then is None else then(-dbl.low.reshape(shape))
        got = yield masked if rider is None else np.concatenate([masked, rider.values.ravel()])
        self.counters.mul_gates += k + j
        self.counters.mul_rounds += 1
        w = self._reconstruct([row[:k + j] for row in got], high_t, "product shares")
        if opened is not None:
            self._log_open(k, purpose)
        out, shown = Shares(f, t, f.sub_vec(w[k:], dbl.low.values).reshape(shape)), None
        if rider is not None:
            self._log_open(rider.size, purpose)

            def public(z: np.ndarray) -> np.ndarray:
                return then(Shares(f, t, z.reshape(shape))).values.ravel()

            shown = f.add_vec(self._reconstruct([row[k + j:] for row in got], rider.threshold,
                                                "opened shares"),
                              f.sub_vec(public(w[k:]), public(np.zeros(j, dtype=np.uint64)))
                              ).reshape(rider.values.shape)
        return asked(w[:k].reshape(u.values.shape), out, shown)

    # -- openings -------------------------------------------------------------

    def open(self, x: Shares, purpose: str) -> np.ndarray:
        """Reconstruct x at every party.  With more than ``threshold`` shares the
        extras must lie on the same low-degree polynomial (InconsistentOpen)."""
        return self._run(self._open_layer(x, purpose))

    def _open_layer(self, x: Shares, purpose: str) -> Layers[np.ndarray]:
        """The layer of ``open``; none for an empty x."""
        if self.parties < x.threshold:
            raise InsufficientShares(
                f"{self.parties} parties cannot open a threshold-{x.threshold} sharing")
        values = np.zeros(0, dtype=np.uint64) if x.size == 0 else \
            self._reconstruct((yield x.values), x.threshold, "opened shares")
        self._log_open(x.size, purpose)
        return values.reshape(x.values.shape)

    def _log_open(self, k: int, purpose: str) -> None:
        self.counters.opens += k
        self.counters.open_log.append((purpose, k))

    def _reconstruct(self, rows: list[np.ndarray], threshold: int, what: str) -> np.ndarray:
        """The values behind the D rows of every party's shares of a
        threshold-``threshold`` sharing.  With more than ``threshold`` parties
        the extra shares must lie on the same polynomial (InconsistentOpen)."""
        if self.parties > threshold and not bool(
                np.all(degree_at_most(self.field, rows, threshold))):
            raise InconsistentOpen(f"{what} do not lie on a single "
                                   f"degree<={threshold - 1} polynomial")
        return reconstruct_batch(self.field, range(1, threshold + 1), rows[:threshold])

    def broadcast(self, values: np.ndarray) -> list[np.ndarray]:
        """Send ``values``, of a length of this party's own, to every peer and
        return every party's, ordered by party index.  The round carries the
        mask stream's part and a deal as any exchange does (``_exchange``)."""
        return self._exchange(values, ragged=True)

    def open_share_matrix(self, values: np.ndarray, purpose: str) -> list[np.ndarray]:
        """Broadcast raw share values and return every party's row of them,
        ordered by party index.  Used by the share-degree legality check,
        which needs every evaluation point rather than a reconstruction."""
        self._log_open(values.size, purpose)
        return self._exchange(values)

    # -- shared bit machinery ---------------------------------------------------

    def _random_bits(self, shape: tuple[int, ...]) -> Layers[tuple[Shares, np.ndarray]]:
        """Shares of uniform bits: square a shared random value, open the square
        in the squares' own round, divide by the public canonical root; the
        sign that survives is a coin.  A zero square (1/p of them) gives no
        bit, so the returned array says which entries hold one.  The caller
        declares the random values and the squares' layer; pools that lack
        them deal on a deal-only part first."""
        f = self.field
        k = int(np.prod(shape))
        yield from self._stocked({"rand": k, "double": k})
        rho = self.rand_shares(k)
        _, a = yield from self._mul_layer(rho, rho, then=lambda sq: sq, purpose="lsb_mask")
        ok = a != 0
        signed = f.mul_vec(rho.values, f.pow_vec(self._sqrt_vec(a), f.p - 2))
        bits = f.mul_vec(f.add_vec(signed, np.uint64(1)), np.uint64((f.p + 1) // 2))
        return Shares(f, self.threshold, bits.reshape(shape)), ok.reshape(shape)

    def _sqrt_vec(self, a: np.ndarray) -> np.ndarray:
        p = self.field.p
        if p % 4 == 3:
            r = self.field.pow_vec(a, (p + 1) // 4)
        else:
            r = np.array([self.field.sqrt(int(v)) for v in a], dtype=np.uint64)
        return np.minimum(r, np.uint64(p) - r)

    def _window_leaves(self, c: np.ndarray, mask: np.ndarray, fields: int) -> np.ndarray:
        """The carry-tree leaves of public c against the r of ``mask``, one per
        window j: G = [r_j > d_j] and P = [r_j = d_j] for the window's digit
        d_j of c and, with ``fields`` 3, r_0*G.  Each is a sum of ``LEAF_COEF``
        multiples of the window's pooled products, so no gate is spent.
        Returns a (fields, windows, k) array."""
        lay = self._layout
        k = c.size
        digits = (np.asarray(c, dtype=np.int64)[None, :]
                  >> (WINDOW * np.arange(lay.windows))[:, None]) & ((1 << WINDOW) - 1)
        ext = np.concatenate([mask.astype(np.int64), np.ones((1, k), dtype=np.int64),
                              np.zeros((1, k), dtype=np.int64)])
        coef = LEAF_COEF[:, digits]  # (2, windows, k, 2**WINDOW), entries in {-1, 0, 1}
        leaves = [*np.einsum("fwks,wsk->fwk", coef, ext[lay.monomials])]
        if fields == 3:
            leaves.append(np.einsum("wks,wsk->wk", coef[0], ext[lay.multiples]))
        return (np.stack(leaves) % self.field.p).astype(np.uint64)

    def _carry_tree(self, state: np.ndarray, riders: list[tuple[np.ndarray, np.ndarray]] = (),
                    then: Callable[[Shares], Shares] | None = None, declared: bool = False,
                    ) -> Layers[tuple[np.ndarray, list, np.ndarray | None]]:
        """The root of a generate/propagate tree over the (fields, nodes, k)
        leaves ``state``, lowest node first (Catrina-de Hoogh, SCN 2010).
        Fields are G and P, and optionally r_0*G.  A high node over a low one
        combines to G = G_h + P_h*G_l, P = P_h*P_l and r_0*G = r_0*G_h +
        P_h*r_0*G_l, ceil(log2 nodes) levels of one layer each.  The node
        that holds the lowest digit is never a high node, so it takes no P.

        Returns the root's fields as a (fields, k) array, the products of
        ``riders``, pairs of (rows, k) share arrays multiplied in the layers
        of the first levels, one pair per level, and what ``then``, an affine
        map of the root's (fields, k) sharing, opened for "lsb_mask": on the
        last level's round, or in a round of its own when the tree has no
        level.  The caller declares the first level (``_level_gates`` and the
        first rider) one exchange ahead; each level declares the next, unless
        the caller has ``declared`` the whole tree."""
        f, t = self.field, self.threshold
        fields, _, k = state.shape
        riders, ridden, opened = list(riders), [], None
        summed = np.arange(fields) != 1  # the fields that add the high node's
        while state.shape[1] > 1:
            nodes = state.shape[1]
            pairs = nodes // 2
            high, low = state[:, 1:2 * pairs:2], state[:, 0:2 * pairs:2]
            need = np.ones((fields, pairs), dtype=bool)
            need[1, 0] = False
            lhs, rhs = np.broadcast_to(high[1], low.shape)[need], low[need]
            gates = lhs.shape[0]
            rider = riders.pop(0) if riders else None
            if rider is not None:
                lhs, rhs = np.concatenate([lhs, rider[0]]), np.concatenate([rhs, rider[1]])
            if not declared:
                self.expect(doubles=_level_gates(nodes - pairs, fields) * k
                            + (riders[0][0].size if riders else 0))  # the next level

            def combined(out: np.ndarray) -> np.ndarray:  # the next level's nodes
                products = np.zeros(low.shape, dtype=np.uint64)
                products[need] = out[:gates]
                products[summed] = f.add_vec(products[summed], high[summed])
                return np.concatenate([products, state[:, 2 * pairs:]], axis=1)

            u, v = Shares(f, t, lhs), Shares(f, t, rhs)
            if then is not None and nodes - pairs == 1:  # the last level
                out, opened = yield from self._mul_layer(
                    u, v, lambda x: then(Shares(f, t, combined(x.values)[:, 0])), "lsb_mask")
            else:
                out = yield from self._mul_layer(u, v)
            if rider is not None:
                ridden.append(out.values[gates:])
            state = combined(out.values)
        if then is not None and opened is None:
            opened = yield from self._open_layer(then(Shares(f, t, state[:, 0])), "lsb_mask")
        return state[:, 0], ridden, opened

    def _prepare_masks(self, n: int) -> Layers[None]:
        """The layers that append n checked LSB masks to the mask pool
        (``mask_layout``): shared bits of a uniform r < p, their products
        within each window, r_0 times the products of the windows above the
        lowest, and shares of r.  One batch draws n + ``spare_masks`` masks: a
        deal-only part when the pools lack its random bits, a random-bit
        layer, the pairs in one product layer and the triples and quads in a
        second, then the r < p check, a carry tree over the windows against
        public p-1 that carries the r_0-products on its levels, split evenly.
        The first n masks whose bits all came out and whose r < p join the
        pool, the rest are dropped; only a shortfall, below 2**-40, draws
        again for what it lacks.  A batch declares all its sharings at once,
        so they are dealt on its first exchange and none of its later layers
        adds a deal to the exchange it rides: a frame without a deal of its
        own goes to every peer as one array, not as D copies of it."""
        lay, ell, p = self._layout, self.field.ell, self.field.p
        levels = (lay.windows - 1).bit_length()
        chunks = np.array_split(np.arange(lay.r0_rows.size), levels) if levels else []
        (pair_layer, wide_layer), f, t = lay.layers, self.field, self.threshold
        gates = ell + pair_layer[0].size + wide_layer[0].size + lay.r0_rows.size
        nodes = lay.windows
        while nodes > 1:  # the r < p check's levels
            gates += _level_gates(nodes, 2)
            nodes -= nodes // 2
        for _ in range(RETRY_LIMIT):
            k = n + spare_masks(p, ell, n)
            self.expect(rand=ell * k, doubles=gates * k)
            drawn = np.empty((lay.rows, k), dtype=np.uint64)
            bits, came_out = yield from self._random_bits((ell, k))
            drawn[:ell] = bits.values
            for out, a, b in (pair_layer, wide_layer):
                u, v = Shares(f, t, drawn[a]), Shares(f, t, drawn[b])
                drawn[out] = (yield from self._mul_layer(u, v)).values
            riders = [(np.broadcast_to(drawn[:1], (c.size, k)), drawn[lay.r0_factors[c]])
                      for c in chunks]
            leaves = self._window_leaves(np.full(k, p - 1), drawn, fields=2)
            _, ridden, too_big = yield from self._carry_tree(  # G at the root is 1_{r > p-1}
                leaves, riders, then=lambda root: root[0], declared=True)
            if ridden:
                drawn[lay.r0_rows] = np.concatenate(ridden)
            good = came_out.all(axis=0) & (too_big == 0)
            kept = drawn[:, np.flatnonzero(good)[:n]]
            kept[-1] = combine_rows(f, [pow(2, i, p) for i in range(ell)], kept[:ell])
            self._masks = np.concatenate([self._masks, kept], axis=1)
            n -= kept.shape[1]
            if not n:
                return
        raise RetryExhausted(f"LSB masks kept failing their checks at p = {p}")

    def _mask_layers(self, n: int) -> Layers[None]:
        """``_prepare_masks``, its work counted in ``mask_counters`` and each
        round that carries one of its parts in ``offline_rounds``."""
        layers, rows = self._prepare_masks(n), None
        while True:
            fore, self.counters = self.counters, self.mask_counters
            try:
                part = layers.send(rows)
            except StopIteration:
                return
            finally:
                self.counters = fore
            rows = yield part
            self.counters.offline_rounds += 1

    def prepare_masks(self, n: int) -> None:
        """Start preparing n LSB masks (``_prepare_masks``) as a stream of
        layers beside the foreground's.  It takes no round of its own: each
        exchange that follows carries its next part behind the foreground's
        values, so it rides whatever rounds the program makes, and its masks
        join the pool when it ends.  A stream still pending is run out
        first."""
        self.finish_masks()
        if n:
            self._stream = self._mask_layers(n)
            self._part = next(self._stream)

    def finish_masks(self) -> None:
        """Run what the mask stream has left in rounds of its own."""
        while self._stream is not None:
            self._deal()

    def take_masks(self, k: int) -> np.ndarray:
        """The first step of k LSB extractions: count them, run the mask
        stream out (``finish_masks``), take k masks from the pool (preparing
        what it lacks) and declare the first carry level, so the exchange
        that opens c = x + r deals it.  Returns the masks as
        (``mask_layout``.rows, k); r is the last row."""
        self.counters.lsb_extractions += k
        self.finish_masks()
        if self._masks.shape[1] < k:
            self._run(self._mask_layers(k - self._masks.shape[1]))
        mask, self._masks = self._masks[:, :k], self._masks[:, k:]
        self.expect(doubles=_level_gates(self._layout.windows, 3) * k)  # the first level
        return mask

    def finish_lsb(self, c: np.ndarray, mask: np.ndarray,
                   then: Callable[[Shares], Shares] | None = None
                   ) -> Shares | tuple[Shares, np.ndarray]:
        """The second step: shares of LSB(x) for the opened c = x + r of each
        column of ``mask``, LSB(c) XOR r_0 XOR 1_{c < r}.  The wrap bit 1_{c < r}
        says that x + r passed p; the carry tree over the windows gives
        r_0 XOR 1_{c < r} = r_0 + G - 2*r_0*G without a gate of its own.  The
        bits are affine in the tree's root for public c, so with ``then``, an
        affine map of the bits, the tree's last level opens then(bits) for
        "lsb_mask" (``_carry_tree``); returns the bits and, with ``then``,
        the opened value."""
        f, t = self.field, self.threshold

        def bits(root: Shares) -> Shares:
            g, _, rg = root.values
            toggle = f.sub_vec(f.add_vec(mask[0], g), f.add_vec(rg, rg))  # r_0 XOR 1_{c<r}
            return Shares(f, t, np.where((c & np.uint64(1)) == 1,
                                         f.sub_vec(np.uint64(1), toggle), toggle))

        root, _, opened = self._run(self._carry_tree(
            self._window_leaves(c, mask, fields=3),
            then=None if then is None else lambda root: then(bits(root))))
        out = bits(Shares(f, t, root))
        return out if then is None else (out, opened)

    def shared_lsb(self, x: Shares, then: Callable[[Shares], Shares] | None = None
                   ) -> Shares | tuple[Shares, np.ndarray]:
        """Shares of the least significant bit of the canonical representative
        of x: take masks, open c = x + r in a round of its own, finish; with
        ``then``, an affine map of the bits, the last round opens it too
        (``finish_lsb``)."""
        k, shape = x.size, x.values.shape
        if k == 0 and then is None:
            return Shares(self.field, self.threshold, x.values.copy())
        mask = self.take_masks(k)
        c = self.open(x.reshape(-1) + Shares(self.field, self.threshold, mask[-1]), "lsb_mask")
        if then is None:
            return self.finish_lsb(c, mask).reshape(shape)
        out, opened = self.finish_lsb(c, mask, lambda bits: then(bits.reshape(shape)))
        return out.reshape(shape), opened

    # -- derived predicates ------------------------------------------------------

    def is_positive(self, x: Shares, then: Callable[[Shares], Shares] | None = None
                    ) -> Shares | tuple[Shares, np.ndarray]:
        """1_{x > 0} for x encoding a signed value in [-N, N], p > 2N: a single
        LSB extraction on -2x (``shared_lsb``, ``then`` included).  So
        1_{a < b} for |a - b| < p/2 is the positivity of b - a."""
        return self.shared_lsb(-2 * x, then)
