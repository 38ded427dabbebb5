import numpy as np
import pytest
from scipy import stats

from conftest import deal, dealt_shares, run_parties
from ordervote.engine import (DegreeOverflow, InconsistentOpen, MpcError,
                              PartyContext, RetryExhausted, Shares)
from ordervote.field import PrimeField
from ordervote.oracle import plain_primitive
from ordervote.shamir import degree_at_most, reconstruct_batch
from ordervote.transport import InMemoryHub, SessionChannel

M31 = (1 << 31) - 1


def open_all(field, results, threshold):
    """Collect per-party share vectors from run_parties output and reconstruct."""
    matrix = np.stack([results[d] for d in sorted(results)])
    assert degree_at_most(field, matrix, threshold).all()
    return reconstruct_batch(field, range(1, threshold + 1), matrix[:threshold])


# -- shared randomness ----------------------------------------------------------

def test_random_sharing_degree_and_uniformity(f31):
    def prog(ctx):
        return ctx.rand_shares(400).values

    res = run_parties(3, 2, f31, prog)
    matrix = np.stack([res[d] for d in (1, 2, 3)])
    assert degree_at_most(f31, matrix, 2).all()  # degree <= D'-1
    values = reconstruct_batch(f31, [1, 2], matrix[:2]).astype(int)
    counts = np.bincount(values, minlength=31)
    assert stats.chisquare(counts).pvalue > 1e-4  # uniform over Z_31
    assert len(set(values.tolist())) > 1  # invocations are not constant


def test_double_sharing_consistency(f31):
    def prog(ctx):
        dbl = ctx.double_shares(50)
        assert dbl.low.threshold == 2 and dbl.high.threshold == 3  # D = 3 case
        return dbl.low.values, dbl.high.values

    res = run_parties(3, 2, f31, prog)
    low = np.stack([res[d][0] for d in (1, 2, 3)])
    high = np.stack([res[d][1] for d in (1, 2, 3)])
    assert degree_at_most(f31, low, 2).all()
    assert degree_at_most(f31, high, 3).all()  # degree <= 2D'-2
    assert np.array_equal(reconstruct_batch(f31, [1, 2], low[:2]),
                          reconstruct_batch(f31, [1, 2, 3], high))


# -- multiplication ---------------------------------------------------------------

def test_mul_examples(f31):
    u = np.array([0, 3, 1, 30, 7], dtype=np.uint64)
    v = np.array([9, 4, 23, 30, 0], dtype=np.uint64)
    mu, mv = deal(f31, u, 2, 3, seed=1), deal(f31, v, 2, 3, seed=2)

    def prog(ctx):
        w = ctx.mul(dealt_shares(f31, mu, 2, ctx.party_id),
                    dealt_shares(f31, mv, 2, ctx.party_id))
        assert ctx.counters.mul_gates == 5 and ctx.counters.mul_rounds == 1
        return w.values

    res = run_parties(3, 2, f31, prog)
    got = open_all(f31, res, 2)  # also asserts output degree <= D'-1
    assert np.array_equal(got, u * v % 31)


@pytest.mark.parametrize("parties", [3, 5, 7, 9])
def test_degree_reduction_many_random_gates(f31, parties):
    threshold = (parties + 1) // 2
    rng = np.random.default_rng(parties)
    u = rng.integers(0, 31, size=500, dtype=np.uint64)
    v = rng.integers(0, 31, size=500, dtype=np.uint64)
    mu = deal(f31, u, threshold, parties, seed=3)
    mv = deal(f31, v, threshold, parties, seed=4)

    def prog(ctx):
        return ctx.mul(dealt_shares(f31, mu, threshold, ctx.party_id),
                       dealt_shares(f31, mv, threshold, ctx.party_id)).values

    res = run_parties(parties, threshold, f31, prog)
    got = open_all(f31, res, threshold)
    assert np.array_equal(got, u * v % 31)


def test_mul_rejects_overlarge_threshold(f31):
    # D = 3 with D' = 3 would need degree-4 reconstruction from 3 points
    def prog(ctx):
        x = ctx.constant(np.arange(4))
        return ctx.mul(x, x)

    with pytest.raises(DegreeOverflow):
        run_parties(3, 3, f31, prog)


def test_local_ops_never_touch_counters(f31):
    def prog(ctx):
        x = dealt_shares(f31, deal(f31, np.arange(6, dtype=np.uint64), 2, 3), 2,
                         ctx.party_id)
        y = 5 * x + 3 - x + (-2) * x
        assert ctx.counters.mul_gates == 0
        assert ctx.channel.stats.rounds == 0
        return y.values

    res = run_parties(3, 2, f31, prog)
    got = open_all(f31, res, 2)
    assert np.array_equal(got, (2 * np.arange(6) + 3) % 31)


def test_secret_times_secret_requires_gate(f31):
    def prog(ctx):
        x = ctx.constant([2])
        return x * x

    with pytest.raises(MpcError):
        run_parties(1, 1, f31, prog)


# -- openings -------------------------------------------------------------------

def test_open_round_trip_and_lincomb(f31):
    xs = np.array([0, 7, 30], dtype=np.uint64)
    mx = deal(f31, xs, 2, 3, seed=5)

    def prog(ctx):
        x = dealt_shares(f31, mx, 2, ctx.party_id)
        assert np.array_equal(ctx.open(x, "final_output"), xs)
        combo = 3 * x + 4
        return ctx.open(combo, "final_output")

    res = run_parties(3, 2, f31, prog)
    assert np.array_equal(res[1], (3 * xs + 4) % 31)
    assert np.array_equal(res[1], res[3])  # every party learns the same value


def test_open_detects_tampered_share(f31):
    mx = deal(f31, np.array([5], dtype=np.uint64), 2, 3, seed=6)

    def prog(ctx):
        vals = mx[ctx.party_id - 1].copy()
        if ctx.party_id == 3:
            vals[0] = (vals[0] + 1) % 31  # third point off the line
        return ctx.open(Shares(f31, 2, vals), "final_output")

    with pytest.raises(InconsistentOpen):
        run_parties(3, 2, f31, prog)


# -- bit-level primitives: exhaustive oracle equivalence at p = 31 ----------------

def test_shared_lsb_exhaustive(f31):
    xs = np.arange(31, dtype=np.uint64)
    mx = deal(f31, xs, 2, 3, seed=7)

    def prog(ctx):
        x = dealt_shares(f31, mx, 2, ctx.party_id)
        before = ctx.counters.lsb_extractions
        bit = ctx.shared_lsb(x)
        assert ctx.counters.lsb_extractions - before == 31
        return ctx.open(bit, "final_output")

    res = run_parties(3, 2, f31, prog)
    expect = np.array([plain_primitive("lsb", [int(x)], 31) for x in xs])
    assert np.array_equal(res[1], expect)


def test_lsb_and_compare_exhaustive_at_p_1_mod_4():
    """At p = 13 = 1 mod 4 the random bits take their square roots by
    Tonelli-Shanks; every LSB and every comparison matches the oracle."""
    f13 = PrimeField(13)
    xs = np.arange(13, dtype=np.uint64)
    av, bv = np.repeat(xs, 13), np.tile(xs, 13)
    mx, ma, mb = (deal(f13, v, 2, 3, seed=s) for s, v in ((13, xs), (14, av), (15, bv)))

    def prog(ctx):
        x, a, b = (dealt_shares(f13, m, 2, ctx.party_id) for m in (mx, ma, mb))
        return (ctx.open(ctx.shared_lsb(x), "final_output"),
                ctx.open(ctx.compare(a, b), "final_output"))

    lsb, less = run_parties(3, 2, f13, prog)[1]
    assert lsb.tolist() == [plain_primitive("lsb", [int(x)], 13) for x in xs]
    assert less.tolist() == [plain_primitive("compare", [int(a), int(b)], 13)
                             for a, b in zip(av, bv)]


def test_less_than_half_exhaustive(f31):
    xs = np.arange(31, dtype=np.uint64)
    mx = deal(f31, xs, 2, 3, seed=8)

    def prog(ctx):
        x = dealt_shares(f31, mx, 2, ctx.party_id)
        return ctx.open(ctx.less_than_half(x), "final_output")

    res = run_parties(3, 2, f31, prog)
    expect = np.array([plain_primitive("less_than_half", [int(x)], 31) for x in xs])
    assert np.array_equal(res[1], expect)
    assert res[1][0] == 1  # 0 < p/2
    assert res[1][16] == 0  # (p+1)/2 is the first value above half


def test_is_positive_exhaustive_signed_range(f31):
    signed = list(range(-10, 11))
    xs = np.array([v % 31 for v in signed], dtype=np.uint64)
    mx = deal(f31, xs, 2, 3, seed=9)

    def prog(ctx):
        x = dealt_shares(f31, mx, 2, ctx.party_id)
        before_lsb = ctx.counters.lsb_extractions
        before_out = ctx.counters.mul_gates - ctx.counters.mul_gates_in_lsb
        bit = ctx.is_positive(x)
        assert ctx.counters.lsb_extractions - before_lsb == len(signed)  # 1 per value
        after_out = ctx.counters.mul_gates - ctx.counters.mul_gates_in_lsb
        assert after_out == before_out  # no gates beyond the LSB extraction
        return ctx.open(bit, "final_output")

    res = run_parties(3, 2, f31, prog)
    expect = np.array([1 if v > 0 else 0 for v in signed])
    assert np.array_equal(res[1], expect)
    assert res[1][signed.index(-1)] == 0  # -2x mod p = 2 is even
    assert res[1][signed.index(0)] == 0


def test_is_zero_exhaustive_and_gate_bound(f31):
    xs = np.arange(31, dtype=np.uint64)
    mx = deal(f31, xs, 2, 3, seed=10)

    def prog(ctx):
        x = dealt_shares(f31, mx, 2, ctx.party_id)
        before = ctx.counters.mul_gates
        bit = ctx.is_zero(x)
        gates_per_instance = (ctx.counters.mul_gates - before) / 31
        assert gates_per_instance <= 2 * f31.ell  # Fermat ladder bound
        return ctx.open(bit, "final_output")

    res = run_parties(3, 2, f31, prog)
    assert np.array_equal(res[1], (xs == 0).astype(np.uint64))


def test_compare_exhaustive_all_pairs(f31):
    pairs = [(a, b) for a in range(31) for b in range(31)]
    av = np.array([a for a, _ in pairs], dtype=np.uint64)
    bv = np.array([b for _, b in pairs], dtype=np.uint64)
    ma, mb = deal(f31, av, 2, 3, seed=11), deal(f31, bv, 2, 3, seed=12)

    def prog(ctx):
        a = dealt_shares(f31, ma, 2, ctx.party_id)
        b = dealt_shares(f31, mb, 2, ctx.party_id)
        bit = ctx.compare(a, b)
        assert ctx.counters.comparisons == len(pairs)
        assert ctx.counters.lsb_extractions == 3 * len(pairs)
        outside = ctx.counters.mul_gates - ctx.counters.mul_gates_in_lsb
        assert outside == 2 * len(pairs)  # exactly two gates beyond the LSBs
        return ctx.open(bit, "final_output")

    res = run_parties(3, 2, f31, prog)
    assert np.array_equal(res[1], (av < bv).astype(np.uint64))


def test_compare_table_row_and_irreflexivity(f31):
    # w=1, x=0 forces z=1 regardless of y: a < p/2 <= b
    a = np.array([3], dtype=np.uint64)
    b = np.array([20], dtype=np.uint64)
    ma, mb = deal(f31, a, 2, 3, seed=13), deal(f31, b, 2, 3, seed=14)

    def prog(ctx):
        sa = dealt_shares(f31, ma, 2, ctx.party_id)
        sb = dealt_shares(f31, mb, 2, ctx.party_id)
        z1 = ctx.open(ctx.compare(sa, sb), "final_output")
        z2 = ctx.open(ctx.compare(sa, sa), "final_output")
        return z1, z2

    res = run_parties(3, 2, f31, prog)
    assert res[1][0][0] == 1
    assert res[1][1][0] == 0  # irreflexive


def test_secret_bits_only_zero_or_one(f31):
    rng = np.random.default_rng(15)
    xs = rng.integers(0, 31, size=100, dtype=np.uint64)
    mx = deal(f31, xs, 2, 3, seed=16)

    def prog(ctx):
        x = dealt_shares(f31, mx, 2, ctx.party_id)
        bits = Shares.concat([ctx.shared_lsb(x), ctx.less_than_half(x), ctx.is_zero(x)])
        return ctx.open(bits, "final_output")

    res = run_parties(3, 2, f31, prog)
    assert set(np.unique(res[1]).tolist()) <= {0, 1}


# -- randomized equivalence at the production prime --------------------------------

def test_primitives_randomized_at_mersenne31(f_mersenne31):
    f = f_mersenne31
    rng = np.random.default_rng(17)
    n = 12
    xs = rng.integers(0, M31, size=n, dtype=np.uint64)
    ys = rng.integers(0, M31, size=n, dtype=np.uint64)
    signed = rng.integers(-1000, 1001, size=n)
    sx = np.array([v % M31 for v in signed], dtype=np.uint64)
    mx = deal(f, xs, 2, 3, seed=18)
    my = deal(f, ys, 2, 3, seed=19)
    ms = deal(f, sx, 2, 3, seed=20)

    def prog(ctx):
        x = dealt_shares(f, mx, 2, ctx.party_id)
        y = dealt_shares(f, my, 2, ctx.party_id)
        s = dealt_shares(f, ms, 2, ctx.party_id)
        return (ctx.open(ctx.shared_lsb(x), "final_output"),
                ctx.open(ctx.compare(x, y), "final_output"),
                ctx.open(ctx.is_positive(s), "final_output"),
                ctx.open(ctx.is_zero(s), "final_output"))

    res = run_parties(3, 2, f, prog)
    lsb, cmp_, pos, zero = res[1]
    assert np.array_equal(lsb, xs % 2)
    assert np.array_equal(cmp_, (xs < ys).astype(np.uint64))
    assert np.array_equal(pos, (signed > 0).astype(np.uint64))
    assert np.array_equal(zero, (signed == 0).astype(np.uint64))


# -- failure paths -----------------------------------------------------------------

def test_retry_exhausted_when_randomness_is_degenerate(f31):
    class ZeroRng:
        """Generator stub whose uniform draws are all zero, so every shared
        random value is zero and bit generation can never succeed."""

        def integers(self, low, high=None, size=None, dtype=np.uint64):
            return np.zeros(size, dtype=dtype)

    hub = InMemoryHub(3, timeout=10.0)
    errors = {}

    def runner(d):
        try:
            ctx = PartyContext(d, 3, 2, f31, SessionChannel(hub.transport(d), 1),
                               ZeroRng())
            ctx.shared_lsb(ctx.constant([5]))
        except BaseException as err:
            errors[d] = err

    import threading
    threads = [threading.Thread(target=runner, args=(d,)) for d in (1, 2, 3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(isinstance(e, RetryExhausted) for e in errors.values())
    assert len(errors) == 3


# -- privacy smoke test -------------------------------------------------------------

def _masked_opening_histogram(f31, secret_pair, runs, seed):
    """Values T1 receives while multiplying shares of u and v (product fixed)."""
    u, v = secret_pair
    received = []
    for r in range(runs):
        mu = deal(f31, np.array([u], dtype=np.uint64), 2, 3, seed=seed + 7 * r)
        mv = deal(f31, np.array([v], dtype=np.uint64), 2, 3, seed=seed + 7 * r + 3)

        def prog(ctx):
            return ctx.mul(dealt_shares(f31, mu, 2, ctx.party_id),
                           dealt_shares(f31, mv, 2, ctx.party_id)).values

        out, records = run_parties(3, 2, f31, prog, seed=seed + 7 * r,
                                   record_for=(1,))
        for (_, _, _, _, _, payload) in records[1]:
            received.extend(np.frombuffer(payload, dtype="<u8").tolist())
    return np.bincount(np.array(received, dtype=int) % 31, minlength=31)


def test_coalition_transcripts_indistinguishable(f31):
    # Same public outcome u*v = 6 from different secrets; what T1 sees while
    # the gate runs must be distributed identically.
    h1 = _masked_opening_histogram(f31, (2, 3), 400, seed=100)
    h2 = _masked_opening_histogram(f31, (1, 6), 400, seed=9000)
    table = np.stack([h1, h2])
    assert stats.chi2_contingency(table).pvalue > 1e-4
