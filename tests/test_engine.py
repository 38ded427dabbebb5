import dataclasses
import itertools

import numpy as np
import pytest
from scipy import stats

from conftest import deal, dealt_shares, run_parties
from ordervote.engine import (LEAF_COEF, WINDOW, DegreeOverflow, DoubleSharing,
                              InconsistentOpen, MpcError, PartyContext, RetryExhausted,
                              Shares, extract, extractor, mask_layout, spare_masks)
from ordervote.field import PrimeField
from ordervote.oracle import plain_primitive
from ordervote.shamir import degree_at_most, reconstruct_batch
from ordervote.transport import (HEADER, LEN_PREFIX, InMemoryHub, RoundTimeout,
                                 SessionChannel)

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


@pytest.mark.parametrize("parties", [3, 4, 5, 7, 9])
def test_extracted_zero_sharings_open_to_zero_at_degree_at_most_2t(parties):
    """At p = 2^31 - 1, 300 sharings of zero dealt and extracted by D
    talliers: each party holds them under threshold 2D' - 1, the D shares
    of each lie on one polynomial of degree at most 2D' - 2 whose constant
    is 0, and no polynomial is the zero one."""
    f = PrimeField(M31)
    threshold = (parties + 1) // 2
    high = 2 * threshold - 1

    def prog(ctx):
        zeros = ctx.zero_shares(300)
        assert zeros.threshold == high and ctx.counters.zero_sharings == 300
        return zeros.values

    res = run_parties(parties, threshold, f, prog)
    matrix = np.stack([res[d] for d in range(1, parties + 1)])
    assert degree_at_most(f, matrix, high).all()
    assert not reconstruct_batch(f, range(1, high + 1), matrix[:high]).any()
    assert matrix.any(axis=0).all()


@pytest.mark.parametrize("p", [31, 65_519, M31, 4_294_967_291])
def test_dealt_double_and_zero_sharings_open_to_one_value_and_to_zero(p):
    """Three talliers deal in evaluation form and extract: the low and high
    halves of each double sharing lie on polynomials of degree at most
    D' - 1 and 2D' - 2 and open to one value, each sharing of zero opens to
    0 at threshold 2D' - 1, and the random sharings open to more than one
    value."""
    f = PrimeField(p)

    def prog(ctx):
        dbl, zeros = ctx.double_shares(300), ctx.zero_shares(300)
        return dbl.low.values, dbl.high.values, zeros.values, ctx.rand_shares(300).values

    res = run_parties(3, 2, f, prog)
    low, high, zeros, rand = (np.stack([res[d][i] for d in (1, 2, 3)]) for i in range(4))
    assert degree_at_most(f, low, 2).all() and degree_at_most(f, rand, 2).all()
    assert degree_at_most(f, high, 3).all() and degree_at_most(f, zeros, 3).all()
    assert np.array_equal(reconstruct_batch(f, [1, 2], low[:2]),
                          reconstruct_batch(f, [1, 2, 3], high))
    assert not reconstruct_batch(f, [1, 2, 3], zeros).any()
    assert len(set(reconstruct_batch(f, [2, 3], rand[1:]).tolist())) > 1


def _rank_mod(rows, p):
    """The rank of an integer matrix over Z_p, by elimination."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col] * inv
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [31, 65_519, M31])
@pytest.mark.parametrize("parties", [3, 4, 5, 7, 9])
def test_every_honest_square_of_the_extractor_is_invertible(p, parties):
    """The D - t columns of any D - t parties, t = D' - 1, form an invertible
    square: the outputs are uniform whatever the other t parties dealt."""
    threshold = (parties + 1) // 2
    matrix = np.array(extractor(p, parties, threshold), dtype=object)
    outputs = parties - threshold + 1
    assert matrix.shape == (outputs, parties)
    assert matrix[0].tolist() == [1] * parties  # row 0 is the sum
    for honest in itertools.combinations(range(parties), outputs):
        assert _rank_mod(matrix[:, honest].tolist(), p) == outputs, honest


def test_extraction_is_a_bijection_on_the_honest_deals(f31):
    """D = 3, p = 31: whatever word one tallier deals, the words of the
    other two, over all 31**2 pairs, extract to every pair of outputs
    exactly once."""
    matrix = extractor(31, 3, 2)
    pairs = np.array(list(itertools.product(range(31), repeat=2)), dtype=np.uint64).T
    for corrupt in range(3):
        rows = [*pairs]
        rows.insert(corrupt, np.full(31 ** 2, 17, dtype=np.uint64))
        out = extract(f31, matrix, rows, np.empty((2, 31 ** 2), dtype=np.uint64))
        assert len(set(zip(*out.tolist()))) == 31 ** 2, corrupt


# -- multiplication ---------------------------------------------------------------

def test_mul_examples(f31):
    u = np.array([0, 3, 1, 30, 7], dtype=np.uint64)
    v = np.array([9, 4, 23, 30, 0], dtype=np.uint64)
    mu, mv = deal(f31, u, 2, 3, seed=1), deal(f31, v, 2, 3, seed=2)

    def prog(ctx):
        ctx.expect(doubles=5)
        ctx._deal()
        stats = ctx.channel.stats
        rounds, messages = stats.rounds, stats.messages
        w = ctx.mul(dealt_shares(f31, mu, 2, ctx.party_id),
                    dealt_shares(f31, mv, 2, ctx.party_id))
        assert ctx.counters.mul_gates == 5 and ctx.counters.mul_rounds == 1
        # one communication round in which every party sends to each peer
        assert (stats.rounds - rounds, stats.messages - messages) == (1, 2)
        return w.values

    res = run_parties(3, 2, f31, prog)
    got = open_all(f31, res, 2)  # also asserts output degree <= D'-1
    assert np.array_equal(got, u * v % 31)


@pytest.mark.parametrize("parties", range(3, 10))
def test_opened_product_layer_returns_the_products(parties):
    """At p = 2^31 - 1, 50 random products opened in one layer: every party
    gets u*v and counts 50 gates, one layer, 50 openings and 50 sharings of
    zero, and no double sharing.  Nothing was declared ahead, so the layer
    deals its sharings of zero on a deal-only round first."""
    f = PrimeField(M31)
    threshold = (parties + 1) // 2
    u, v = np.empty((2, 50), dtype=np.uint64)
    f.draw(np.random.default_rng(parties), u, v)
    mu, mv = deal(f, u, threshold, parties, seed=1), deal(f, v, threshold, parties, seed=2)
    keys = ("mul_gates", "mul_rounds", "opens", "zero_sharings", "double_sharings",
            "comm_rounds", "deal_rounds")

    def prog(ctx):
        opened = ctx.open_products(dealt_shares(f, mu, threshold, ctx.party_id),
                                   dealt_shares(f, mv, threshold, ctx.party_id), "final_output")
        summary = ctx.summary()
        return opened, [summary[key] for key in keys], ctx.counters.open_log

    res = run_parties(parties, threshold, f, prog)
    want = [a * b % M31 for a, b in zip(u.tolist(), v.tolist())]
    for d in range(1, parties + 1):
        opened, counts, log = res[d]
        assert opened.tolist() == want
        assert dict(zip(keys, counts)) == {"mul_gates": 50, "mul_rounds": 1, "opens": 50,
                                           "zero_sharings": 50, "double_sharings": 0,
                                           "comm_rounds": 2, "deal_rounds": 1}
        assert log == [("final_output", 50)]


@pytest.mark.parametrize("parties", [3, 4, 5])
def test_a_frame_opens_some_products_and_degree_reduces_others(parties):
    """At p = 13, the products of all 169 pairs (u, v) open as a 13 x 13
    matrix in the same frame that multiplies u by v + 1 with degree
    reduction, with their sharings declared and dealt ahead: one round, 338
    gates in one layer, 169 openings, 169 sharings of zero and 169 double
    sharings.  The opened matrix is u*v, and the reduced shares lie at
    degree D' - 1 and open to u*(v + 1)."""
    f13 = PrimeField(13)
    threshold = (parties + 1) // 2
    u, v = (np.array(x, dtype=np.uint64) for x in zip(*itertools.product(range(13), repeat=2)))
    mu, mv = deal(f13, u, threshold, parties, seed=1), deal(f13, v, threshold, parties, seed=2)

    def prog(ctx):
        x, y = (dealt_shares(f13, m, threshold, ctx.party_id) for m in (mu, mv))
        ctx.expect(zeros=169, doubles=169)
        ctx._deal()
        before = ctx.summary()
        opened, product = ctx.open_products(x.reshape(13, 13), y.reshape(13, 13), "final_output",
                                            (x, y + 1))
        after = ctx.summary()
        return opened, product.values, {key: after[key] - before[key] for key in after}

    res = run_parties(parties, threshold, f13, prog)
    for d in range(1, parties + 1):
        opened, _, moved = res[d]
        assert np.array_equal(opened, (u * v % 13).reshape(13, 13))
        assert {key: moved[key] for key in ("comm_rounds", "deal_rounds", "mul_gates",
                                            "mul_rounds", "opens", "zero_sharings",
                                            "double_sharings")} == {
            "comm_rounds": 1, "deal_rounds": 0, "mul_gates": 338, "mul_rounds": 1,
            "opens": 169, "zero_sharings": 169, "double_sharings": 169}
    products = open_all(f13, {d: res[d][1] for d in res}, threshold)
    assert np.array_equal(products, u * (v + 1) % 13)


def test_tampered_zero_share_is_caught_by_every_party(f31):
    """At D = 4 (D' = 2) the four masked shares of an opened product
    over-determine their degree-2 polynomial: a tallier that shifts its
    share of zero is caught in the same round by every honest tallier."""
    mu = deal(f31, np.array([2, 5, 11], dtype=np.uint64), 2, 4, seed=1)

    def prog(ctx):
        if ctx.party_id == 3:
            honest = ctx.zero_shares
            ctx.zero_shares = lambda k: honest(k) + 1
        x = dealt_shares(f31, mu, 2, ctx.party_id)
        try:
            ctx.open_products(x, x, "final_output")
        except InconsistentOpen as err:
            return str(err)
        except RoundTimeout:
            return "timed out"
        return "accepted"

    res = run_parties(4, 2, f31, prog, timeout=3.0)
    caught = "product shares do not lie on a single degree<=2 polynomial"
    assert [res[d] for d in (1, 2, 4)] == [caught] * 3


def test_tampered_masked_product_share_is_caught_by_every_party(f31):
    """At D = 4 (D' = 2) the four masked product shares over-determine their
    degree-2 polynomial.  A tallier that shifts its share is caught in the
    same round by every honest tallier, none of which waits for a peer."""
    u = np.array([2, 5, 11], dtype=np.uint64)
    mu = deal(f31, u, 2, 4, seed=1)

    def prog(ctx):
        if ctx.party_id == 3:
            honest = ctx.double_shares

            def shifted(k):
                dbl = honest(k)
                return DoubleSharing(dbl.low, dbl.high + 1)

            ctx.double_shares = shifted
        x = dealt_shares(f31, mu, 2, ctx.party_id)
        try:
            ctx.mul(x, x)
        except InconsistentOpen:
            return "caught"
        except RoundTimeout:
            return "timed out"
        return "accepted"

    res = run_parties(4, 2, f31, prog, timeout=3.0)
    assert [res[d] for d in (1, 2, 4)] == ["caught"] * 3


@pytest.mark.parametrize("rider", [0, 3])
def test_payload_of_the_wrong_length_names_its_sender_and_round(f31, rider):
    """T3 sends one value short in an open of 4 shares, alone or carrying the
    deal for 3 declared double sharings, 2 of them at D - t = 2 extractor
    outputs: each peer names T3 and the round."""
    x = deal(f31, np.arange(4, dtype=np.uint64), 2, 3, seed=5)

    def prog(ctx):
        if ctx.party_id == 3:
            send = ctx.channel.transport.send
            ctx.channel.transport.send = lambda to, msg: send(
                to, dataclasses.replace(msg, payload=msg.payload[:-1]))
        if rider:
            ctx.expect(doubles=rider)
        try:
            ctx.open(dealt_shares(f31, x, 2, ctx.party_id), "final_output")
        except InconsistentOpen as err:
            return str(err)
        return "opened"

    res = run_parties(3, 2, f31, prog, timeout=3.0)
    width = 4 + 2 * -(-rider // 2)
    for d in (1, 2):
        assert res[d] == f"T3 sent {width - 1} values in round 0; T{d} expected {width}"


def test_declared_layers_take_dealt_sharings_without_a_round_of_their_own(f31):
    """A deal-only exchange deals both pools in one round.  Sharings declared
    with ``expect`` ride on the next exchange, behind its values, and the
    layers that take them cost no round of their own; an exchange with
    nothing declared carries no rider.  At D - t = 2 each party deals half of
    what the pools lack, rounded up: the double sharing dealt first leaves one
    over, so the 6 declared lack 5 and each party deals 3, which leaves one
    over again.  Nothing is declared of the pool of zeros, which stays
    empty."""
    x = deal(f31, np.arange(6, dtype=np.uint64), 2, 3, seed=6)

    def prog(ctx):
        stats, transport = ctx.channel.stats, ctx.channel.transport
        ctx.expect(rand=4, doubles=1)
        ctx._deal()
        assert (stats.rounds, ctx.counters.deal_rounds) == (1, 1)
        xs = dealt_shares(f31, x, 2, ctx.party_id)
        sent = []
        for declared in (0, 6):
            ctx.expect(doubles=declared)
            before = transport.bytes_sent
            ctx.open(xs, "final_output")
            sent.append(transport.bytes_sent - before)
        rounds = stats.rounds
        ctx.mul(xs, xs)
        ctx.mul(xs[:1], xs[:1])
        ctx.rand_shares(4)
        assert (stats.rounds - rounds, ctx.counters.deal_rounds) == (2, 1)
        return sent, [pool.shape[1] for pool in ctx._pools.values()]

    sent, left = run_parties(3, 2, f31, prog)[1]
    frame = LEN_PREFIX.size + HEADER.size
    assert sent == [2 * (frame + 8 * 6), 2 * (frame + 8 * (6 + 2 * 3))]
    assert left == [0, 1, 0]


REORDER = np.random.default_rng(3).permutation(169)


def _fused_thens(offset):
    """Three affine maps of a batch of 169 products: the identity, a public
    multiple plus a shared offset, and a reordering concatenated with an
    affine image of a slice."""
    return {"identity": lambda x: x,
            "offset": lambda x: 3 * x + offset,
            "reorder": lambda x: Shares.concat([x[REORDER], 2 * x[:10] + 1])}


@pytest.mark.parametrize("parties", [3, 5])
@pytest.mark.parametrize("kind", ["identity", "offset", "reorder"])
def test_mul_opens_an_affine_map_of_its_products_in_its_own_round(parties, kind):
    """At p = 13, all 169 pairs (u, v) in one batch: ``mul`` with ``then``
    gives the same product shares and opened values as ``mul`` followed by
    ``open``, with the same counters, in one round fewer."""
    f13 = PrimeField(13)
    threshold = (parties + 1) // 2
    u, v = (np.array(x, dtype=np.uint64) for x in zip(*itertools.product(range(13), repeat=2)))
    mu, mv = deal(f13, u, threshold, parties, seed=1), deal(f13, v, threshold, parties, seed=2)
    mo = deal(f13, np.arange(169, dtype=np.uint64) % 13, threshold, parties, seed=3)

    def run(fused):
        def prog(ctx):
            x, y, o = (dealt_shares(f13, m, threshold, ctx.party_id) for m in (mu, mv, mo))
            then = _fused_thens(o)[kind]
            if fused:
                product, opened = ctx.mul(x, y, then, "final_output")
            else:
                product = ctx.mul(x, y)
                opened = ctx.open(then(product), "final_output")
            summary = ctx.summary()
            return product.values, opened, summary.pop("comm_rounds"), \
                {key: summary[key] for key in ("mul_gates", "opens", "double_sharings")}
        return run_parties(parties, threshold, f13, prog)

    fused, plain = run(True), run(False)
    for d in range(1, parties + 1):
        assert np.array_equal(fused[d][0], plain[d][0])  # the same product shares
        assert np.array_equal(fused[d][1], plain[d][1])
        assert fused[d][2] == plain[d][2] - 1
        assert fused[d][3] == plain[d][3]
    products = open_all(f13, {d: fused[d][0] for d in fused}, threshold)
    assert np.array_equal(products, u * v % 13)
    offset = reconstruct_batch(f13, range(1, threshold + 1), mo[:threshold])
    expect = {"identity": products, "offset": (3 * products + offset) % 13,
              "reorder": np.concatenate([products[REORDER], (2 * products[:10] + 1) % 13])}[kind]
    assert np.array_equal(fused[1][1], expect)


def test_fused_opening_shares_a_peer_receives_are_uniform(f31):
    """u = 2 and v = 3 fixed in 1,860 gates: the shares of then(-R) that T1
    receives from each peer, behind the masked products, are uniform over
    Z_31, for R is fresh."""
    k = 31 * 60
    mu = deal(f31, np.full(k, 2, dtype=np.uint64), 2, 3, seed=4)
    mv = deal(f31, np.full(k, 3, dtype=np.uint64), 2, 3, seed=5)

    def prog(ctx):
        ctx.expect(doubles=k)
        ctx._deal()
        rounds = ctx.channel.stats.rounds
        ctx.mul(dealt_shares(f31, mu, 2, ctx.party_id), dealt_shares(f31, mv, 2, ctx.party_id),
                lambda x: x, "final_output")
        return rounds

    out, records = run_parties(3, 2, f31, prog, record_for=(1,))
    rides = [np.frombuffer(payload, dtype="<u8")[k:] for _, rnd, _, _, _, payload in records[1]
             if rnd == out[1]]
    assert len(rides) == 2 and all(ride.size == k for ride in rides)
    for ride in rides:
        assert stats.chisquare(np.bincount(ride.astype(int), minlength=31)).pvalue > 1e-4


@pytest.mark.parametrize("parties", [3, 5])
def test_tampered_fused_opening_share_is_caught(f31, parties):
    """T2 adds 1 to the first share of then(-R) it sends, and every peer
    catches it in the same round: the D shares over-determine their
    degree-(D'-1) polynomial at D = 3 and at D = 5."""
    threshold = (parties + 1) // 2
    k = 4
    mu = deal(f31, np.arange(k, dtype=np.uint64), threshold, parties, seed=6)

    def prog(ctx):
        ctx.expect(doubles=k)
        ctx._deal()
        if ctx.party_id == 2:
            send = ctx.channel.transport.send

            def shifted(to, msg):
                payload = msg.payload.copy()
                payload[k] = (payload[k] + 1) % 31
                send(to, dataclasses.replace(msg, payload=payload))

            ctx.channel.transport.send = shifted
        x = dealt_shares(f31, mu, threshold, ctx.party_id)
        try:
            ctx.mul(x, x, lambda y: y, "final_output")
        except InconsistentOpen as err:
            return str(err)
        return "accepted"

    res = run_parties(parties, threshold, f31, prog, timeout=5.0)
    caught = f"opened shares do not lie on a single degree<={threshold - 1} polynomial"
    assert res == {d: "accepted" if d == 2 else caught for d in range(1, parties + 1)}


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


def test_shared_lsb_exhaustive_at_p_1_mod_4():
    """At p = 13 = 1 mod 4 the random bits take their square roots by
    Tonelli-Shanks; every LSB matches the oracle.  The comparison at p = 13
    is ``test_bounded_comparison_exhaustive``'s."""
    f13 = PrimeField(13)
    xs = np.arange(13, dtype=np.uint64)
    mx = deal(f13, xs, 2, 3, seed=13)

    def prog(ctx):
        return ctx.open(ctx.shared_lsb(dealt_shares(f13, mx, 2, ctx.party_id)), "final_output")

    lsb = run_parties(3, 2, f13, prog)[1]
    assert lsb.tolist() == [plain_primitive("lsb", [int(x)], 13) for x in xs]


@pytest.mark.parametrize("p", [13, 31])
def test_bounded_comparison_exhaustive(p):
    """Every pair of canonical a, b with |a - b| < p/2, the domain on which the
    tally compares, as the positivity of b - a: one LSB extraction per pair,
    the gates of a bare extraction of as many values, and the same bit as
    the oracle's comparison."""
    f = PrimeField(p)
    pairs = [(a, b) for a in range(p) for b in range(p) if 2 * abs(a - b) < p]
    av = np.array([a for a, _ in pairs], dtype=np.uint64)
    bv = np.array([b for _, b in pairs], dtype=np.uint64)
    ma, mb = deal(f, av, 2, 3, seed=p), deal(f, bv, 2, 3, seed=p + 1)

    def prog(ctx):
        a, b = (dealt_shares(f, m, 2, ctx.party_id) for m in (ma, mb))
        bit = ctx.is_positive(b - a)
        assert ctx.counters.lsb_extractions == len(pairs)
        gates = ctx.counters.mul_gates
        ctx.shared_lsb(a)
        assert ctx.counters.mul_gates == 2 * gates
        return ctx.open(bit, "final_output")

    got = run_parties(3, 2, f, prog)[1]
    assert got.tolist() == [plain_primitive("compare", [a, b], p) for a, b in pairs]


def test_leaf_table_gives_the_window_comparisons_exhaustively():
    """For every digit d and every 4-bit x, the leaf coefficients summed over
    the products of x's bits give [x > d] and [x = d]; they are small
    integers, so a leaf sums in int64 and reduces once."""
    x = np.arange(1 << WINDOW)
    products = (x[:, None] & x[None, :]) == x[None, :]  # [x, s]: the bits of s are set in x
    leaves = np.einsum("ids,xs->idx", LEAF_COEF, products.astype(np.int64))
    assert leaves[0].tolist() == (x[None, :] > x[:, None]).astype(int).tolist()
    assert leaves[1].tolist() == (x[None, :] == x[:, None]).astype(int).tolist()
    assert set(np.unique(LEAF_COEF).tolist()) == {-1, 0, 1}


def test_mask_layout_at_31_bits():
    """At ell = 31: 8 windows, the top one of 3 bits; 45 pairs and 36 triples
    and quads within windows, 97 r_0-products and r, every row named once."""
    lay = mask_layout(31)
    assert lay.windows == 8
    assert [layer[0].size for layer in lay.layers] == [45, 36]
    assert lay.r0_rows.size == 97 and lay.rows == 31 + 81 + 97 + 1
    named = np.concatenate([lay.monomials.ravel(), lay.multiples.ravel()])
    assert sorted(set(named.tolist())) == [*range(lay.rows - 1), lay.ones, lay.ones + 1]


def test_bounded_comparison_cost_with_its_pools_prefilled(f_mersenne31):
    """One bounded comparison at ell = 31, its pools pre-filled.  Offline: 31
    squares of random bits, the 45 pairs and 36 triples and quads within the
    windows, and the r < p check, a carry tree of G and P over 8 windows
    (7+3+1 gates) whose levels also take the 97 products of r_0 with the
    higher windows: 1 + 2 + 3 rounds, for the squares' layer opens the
    squares and the check's last level opens its carry.  Online: open
    x + r, then the tree with r_0*G (11+5+2 gates) in 3 rounds, with no XOR
    gate.  The pre-filled pools take the one deal round.  The offline batch
    draws one spare mask (``spare_masks``), so its gates count twice."""
    def prog(ctx):
        a, b = ctx.constant(3), ctx.constant(5)
        ctx.expect(rand=2048, doubles=2048)
        ctx._deal()
        ctx.prepare_masks(1)
        ctx.finish_masks()
        rounds = ctx.channel.stats.rounds
        gates = ctx.counters.mul_gates
        bit = ctx.is_positive(b - a)
        cost = dict(ctx.summary(), online_rounds=ctx.channel.stats.rounds - rounds,
                    online_gates=ctx.counters.mul_gates - gates)
        return cost, int(ctx.open(bit, "final_output")[0])

    cost, bit = run_parties(3, 2, f_mersenne31, prog)[1]
    assert bit == 1
    assert spare_masks(f_mersenne31.p, 31, 1) == 1
    assert cost["mul_gates"] == 2 * (31 + 45 + 36 + 97 + 11) + 18 == 458
    assert cost["online_gates"] == 18
    assert cost["online_rounds"] == 4
    assert cost["offline_rounds"] == 6
    assert cost["deal_rounds"] == 1


def test_offline_frames_stay_within_236_words_per_mask(f_mersenne31):
    """Preparing masks from empty pools at ell = 31, no frame carries more than
    236 words per mask drawn, spares included: the batch declares all its
    sharings at once, so its first exchange deals 31 random and 220 double
    sharings a mask, of which each party deals half at D - t = 2, and 2
    words for each double sharing; the later frames carry no deal."""
    masks = 10

    def prog(ctx):
        sent = []
        send = ctx.channel.transport.send

        def recorded(to, msg):
            sent.append(len(msg.payload))
            send(to, msg)

        ctx.channel.transport.send = recorded
        ctx.prepare_masks(masks)
        ctx.finish_masks()
        return sent

    drawn = masks + spare_masks(f_mersenne31.p, 31, masks)
    sent = run_parties(3, 2, f_mersenne31, prog)[1]
    assert max(sent) == sent[0] == -(-31 * drawn // 2) + 2 * -(-220 * drawn // 2) == 2591
    assert max(sent) <= 236 * drawn
    assert max(sent[2:]) == 2 * 31 * drawn  # the squares and their opening, no deal


def test_masks_are_bits_of_a_uniform_r_below_p(f31):
    """Prepared masks hold shared bits, their products within each window,
    r_0 times the products of the windows above the lowest, and the bits'
    recomposition r < p.  At p = 31 one r in 32 is rejected, so 300 masks
    exercise the redraw; the preparation rounds count as offline, and
    extractions from a full pool prepare nothing more."""
    def prog(ctx):
        ctx.prepare_masks(300)
        ctx.finish_masks()
        offline = ctx.counters.offline_rounds
        masks = ctx.open(Shares(f31, 2, ctx._masks), "final_output")
        ctx.shared_lsb(ctx.constant(np.arange(300)))
        return masks, offline, ctx.counters.offline_rounds, ctx._masks.shape[1]

    masks, offline, after, left = run_parties(3, 2, f31, prog)[1]
    lay, ell = mask_layout(f31.ell), f31.ell
    assert masks.shape == (lay.rows, 300) == (5 + 11 + 1 + 1, 300)
    bits, r = masks[:ell].astype(int), masks[-1].astype(int)
    assert set(np.unique(bits).tolist()) == {0, 1}
    ext = np.vstack([masks.astype(int), np.ones((1, 300), dtype=int),
                     np.zeros((1, 300), dtype=int)])
    padded = np.vstack([bits, np.zeros((WINDOW * lay.windows - ell, 300), dtype=int)])
    for j in range(lay.windows):
        for s in range(1 << WINDOW):
            product = np.prod(padded[[WINDOW * j + i for i in range(WINDOW) if s >> i & 1]],
                              axis=0)
            assert ext[lay.monomials[j, s]].tolist() == product.tolist(), (j, s)
            assert ext[lay.multiples[j, s]].tolist() == (bits[0] * product).tolist(), (j, s)
    assert r.tolist() == (bits * (1 << np.arange(ell))[:, None]).sum(axis=0).tolist()
    assert r.max() < 31 and len(set(r.tolist())) > 20
    assert offline > 0 and after == offline and left == 0


def test_mask_stream_rides_the_exchanges_and_drains_before_an_extraction(f_mersenne31):
    """A mask batch started with ``prepare_masks`` takes no round of its own
    while the foreground exchanges: its S = 4 + t = 7 layers at ell = 31 ride
    behind the values of the next exchanges, and a frame then holds both
    streams.  ``take_masks`` runs what is left in rounds of its own, so an
    extraction after two foreground openings pays the 5 remaining layers,
    then its own opening and 3 levels, and each bit is right."""
    xs = np.arange(6, dtype=np.uint64)
    mx = deal(f_mersenne31, xs, 2, 3, seed=23)

    def prog(ctx):
        x = dealt_shares(f_mersenne31, mx, 2, ctx.party_id)
        rounds = ctx.channel.stats.rounds
        ctx.prepare_masks(6)
        assert ctx.channel.stats.rounds == rounds
        opened = [ctx.open(x, "final_output") for _ in range(2)]
        merged = (ctx.channel.stats.rounds - rounds, ctx.counters.offline_rounds)
        bits = ctx.open(ctx.shared_lsb(x), "final_output")
        return (opened, merged, ctx.channel.stats.rounds - rounds,
                ctx.counters.offline_rounds, ctx.counters.deal_rounds, bits)

    opened, merged, rounds, offline, deals, bits = run_parties(3, 2, f_mersenne31, prog)[1]
    assert [v.tolist() for v in opened] == [xs.tolist()] * 2
    assert merged == (2, 2)
    assert (rounds, offline, deals) == (2 + 5 + 1 + 3 + 1, 7, 0)
    assert bits.tolist() == (xs % 2).tolist()


def test_a_merged_frame_without_the_mask_part_names_its_sender(f31):
    """T3 drops the mask stream's part from the frame of round 1, the one
    that carries the random bits' squares behind an opening: T1 and T2 name
    T3 (InconsistentOpen), for the width check covers the whole frame."""
    def prog(ctx):
        x = ctx.constant(np.arange(4))
        ctx.prepare_masks(3)
        ctx.open(x, "final_output")  # round 0: the batch's deal rides it
        if ctx.party_id == 3:
            ctx._part = ctx._part[:0]
        try:
            ctx.open(x, "final_output")
        except InconsistentOpen as err:
            return str(err)
        return "opened"

    res = run_parties(3, 2, f31, prog, timeout=3.0)
    for d in (1, 2):
        assert res[d].startswith("T3 sent ") and f"in round 1; T{d} expected" in res[d]


def test_is_positive_exhaustive_signed_range(f31):
    signed = list(range(-10, 11))
    xs = np.array([v % 31 for v in signed], dtype=np.uint64)
    mx = deal(f31, xs, 2, 3, seed=9)

    def prog(ctx):
        x = dealt_shares(f31, mx, 2, ctx.party_id)
        bit = ctx.is_positive(x)
        assert ctx.counters.lsb_extractions == len(signed)  # 1 per value
        gates = ctx.counters.mul_gates
        ctx.shared_lsb(x)
        assert ctx.counters.mul_gates == 2 * gates  # no gates beyond the LSB extraction
        return ctx.open(bit, "final_output")

    res = run_parties(3, 2, f31, prog)
    expect = np.array([1 if v > 0 else 0 for v in signed])
    assert np.array_equal(res[1], expect)
    assert res[1][signed.index(-1)] == 0  # -2x mod p = 2 is even
    assert res[1][signed.index(0)] == 0


def test_secret_bits_only_zero_or_one(f31):
    rng = np.random.default_rng(15)
    xs = rng.integers(0, 31, size=100, dtype=np.uint64)
    mx = deal(f31, xs, 2, 3, seed=16)

    def prog(ctx):
        x = dealt_shares(f31, mx, 2, ctx.party_id)
        bits = Shares.concat([ctx.shared_lsb(x), ctx.is_positive(x)])
        return ctx.open(bits, "final_output")

    res = run_parties(3, 2, f31, prog)
    assert set(np.unique(res[1]).tolist()) <= {0, 1}


# -- randomized equivalence at the production prime --------------------------------

def test_primitives_randomized_at_mersenne31(f_mersenne31):
    f = f_mersenne31
    rng = np.random.default_rng(17)
    n = 12
    xs = rng.integers(0, M31, size=n, dtype=np.uint64)
    ys, zs = rng.integers(0, M31 // 2, size=(2, n), dtype=np.uint64)  # |y - z| < p/2
    signed = rng.integers(-1000, 1001, size=n)
    sx = np.array([v % M31 for v in signed], dtype=np.uint64)
    mx, my, mz, ms = (deal(f, v, 2, 3, seed=s) for s, v in ((18, xs), (19, ys), (21, zs),
                                                           (20, sx)))

    def prog(ctx):
        x, y, z, s = (dealt_shares(f, m, 2, ctx.party_id) for m in (mx, my, mz, ms))
        return (ctx.open(ctx.shared_lsb(x), "final_output"),
                ctx.open(ctx.is_positive(z - y), "final_output"),
                ctx.open(ctx.is_positive(s), "final_output"))

    res = run_parties(3, 2, f, prog)
    lsb, cmp_, pos = res[1]
    assert np.array_equal(lsb, xs % 2)
    assert np.array_equal(cmp_, (ys < zs).astype(np.uint64))
    assert np.array_equal(pos, (signed > 0).astype(np.uint64))


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
