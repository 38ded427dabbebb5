import pytest

from ordervote.config import (PRIME_LADDER, VOTER_HEADROOM, BadThreshold, ConfigError,
                              ElectionConfig, FieldTooSmall, InvalidRule,
                              check_field_bounds, derived_threshold, rank_vectors,
                              ranking_winners, select_winners)

M31 = (1 << 31) - 1


def _cfg(**kw):
    base = dict(rule="copeland", candidates=("A", "B", "C"), num_winners=1,
                talliers=3, prime=M31, expected_voters=100)
    base.update(kw)
    return ElectionConfig(**base)


def test_threshold_derivation():
    assert derived_threshold(3) == 2
    assert derived_threshold(5) == 3
    assert derived_threshold(9) == 5
    assert _cfg().threshold == 2


def test_large_election_accepted():
    cfg = _cfg(expected_voters=1_000_000)
    assert cfg.validate() is cfg  # 2N = 2e6 < p


def test_field_too_small_at_boundary():
    with pytest.raises(FieldTooSmall) as err:
        _cfg(prime=31, expected_voters=20, talliers=3).validate()
    assert "2N" in str(err.value)  # 40 > 31: the voter bound is the violated one
    # N small enough passes at p = 31
    _cfg(prime=31, expected_voters=10).validate()


def test_invalid_rule_and_thresholds():
    with pytest.raises(InvalidRule):
        _cfg(rule="borda").validate()
    with pytest.raises(BadThreshold):
        _cfg(talliers=0).validate()
    with pytest.raises(ConfigError):
        _cfg(num_winners=5).validate()
    with pytest.raises(ConfigError):
        _cfg(alpha=(3, 2)).validate()  # alpha > 1
    with pytest.raises(ConfigError):
        _cfg(prime=32).validate()
    with pytest.raises(ConfigError):
        _cfg(candidates=("A", "A", "B")).validate()


def test_score_bound_names_alpha_term():
    with pytest.raises(FieldTooSmall) as err:
        _cfg(prime=7, expected_voters=1, alpha=(1, 7),
             candidates=tuple("ABCD")).validate()
    assert "max(s,t)" in str(err.value) or "2N" in str(err.value)


def test_round_trip_is_identity():
    cfg = _cfg(backend="socket",
               endpoints=(("127.0.0.1", 9001), ("127.0.0.1", 9002),
                          ("127.0.0.1", 9003)),
               seed=77, alpha=(0, 1)).validate()
    again = ElectionConfig.loads(cfg.dumps())
    assert again == cfg
    assert ElectionConfig.loads(again.dumps()) == again


def test_declared_threshold_must_match():
    data = _cfg().to_dict()
    data["threshold"] = 3
    with pytest.raises(BadThreshold):
        ElectionConfig.from_dict(data)


def test_party_rngs_are_deterministic_and_distinct():
    cfg = _cfg(seed=5)
    a = cfg.party_rng(1).integers(0, 1 << 30, 8)
    b = cfg.party_rng(1).integers(0, 1 << 30, 8)
    c = cfg.party_rng(2).integers(0, 1 << 30, 8)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    assert cfg.voter_rng(1).integers(0, 100) == cfg.voter_rng(1).integers(0, 100)


def test_tie_policy_helpers():
    assert select_winners([4, 2, 0], 1) == [1]
    assert select_winners([1, 1], 2) == [1, 2]  # lowest index first
    assert select_winners([0, 5, 5], 2) == [2, 3]
    assert list(rank_vectors(2)) == [(1, 2), (2, 1)]
    assert ranking_winners((3, 1, 2), 2) == [2, 3]


def test_endpoint_env_overrides(monkeypatch):
    cfg = _cfg(backend="socket",
               endpoints=(("127.0.0.1", 9001), ("127.0.0.1", 9002),
                          ("127.0.0.1", 9003)))
    monkeypatch.setenv("ORDERVOTE_T2_HOST", "10.0.0.5")
    monkeypatch.setenv("ORDERVOTE_T2_PORT", "7777")
    resolved = cfg.resolved_endpoints()
    assert resolved[0] == ("127.0.0.1", 9001)
    assert resolved[1] == ("10.0.0.5", 7777)
    assert resolved[2] == ("127.0.0.1", 9003)
    assert cfg.endpoints[1] == ("127.0.0.1", 9002)  # config itself untouched


def test_kemeny_score_bound():
    """The bounded comparison needs ranking scores to differ by less than p/2,
    so p must exceed N*M(M-1), twice the largest score.  Twenty ballots over
    M = 4 need p > 240; at p = 101 Kemeny refuses the field while Copeland,
    whose bounds it meets, does not.  Eight ballots need p > 96."""
    kemeny = dict(rule="kemeny", candidates=tuple("ABCD"), prime=101)
    with pytest.raises(FieldTooSmall) as err:
        _cfg(expected_voters=20, **kemeny).validate()
    assert "ranking score" in str(err.value)
    _cfg(expected_voters=8, **kemeny).validate()  # 8 * 12 = 96 < 101
    _cfg(expected_voters=20, prime=101, candidates=tuple("ABCD")).validate()


def test_copeland_score_difference_bound():
    """Copeland M = 9 with t = 2 gives scores in [0, 16]; scores 16 and 0 differ
    by more than 31/2 and would wrap under the bounded comparison, so p = 31
    is refused although it exceeds 2N = 30 and the largest score.  M = 8
    (scores in [0, 14]) passes."""
    copeland = dict(prime=31, expected_voters=15)
    with pytest.raises(FieldTooSmall) as err:
        _cfg(candidates=tuple("ABCDEFGHI"), **copeland).validate()
    assert "max(s,t)" in str(err.value)
    _cfg(candidates=tuple("ABCDEFGH"), **copeland).validate()


# rule, M, the most expected voters 65,519 holds with the headroom: 2 * 2N
# (copeland, maximin) or 2N * M(M-1) (kemeny) must stay below it
LADDER_EDGES = [("copeland", 5, 16_379), ("maximin", 5, 16_379), ("kemeny", 4, 2_729),
                ("kemeny", 5, 1_637), ("kemeny", 6, 1_091)]


@pytest.mark.parametrize("rule, m, last", LADDER_EDGES)
def test_ladder_edge(rule, m, last):
    """A config without a prime takes 65,519 up to the edge and 2^31 - 1 one
    voter past it; either validates, and the prime holds twice the voters."""
    assert (PRIME_LADDER, VOTER_HEADROOM) == ((65_519, M31), 2)
    for voters, prime in ((last, 65_519), (last + 1, M31)):
        cfg = _cfg(rule=rule, candidates=tuple(f"C{i}" for i in range(m)), prime=None,
                   expected_voters=voters)
        assert cfg.validate().prime == prime, (voters, prime)
        check_field_bounds(prime, rule, m, 2 * voters, cfg.alpha)
    with pytest.raises(FieldTooSmall):
        check_field_bounds(65_519, rule, m, 2 * (last + 1), (1, 2))


def test_past_the_ladder_the_largest_prime_is_refused():
    cfg = _cfg(rule="kemeny", candidates=tuple("ABCDEF"), prime=None,
               expected_voters=80_000_000)  # 30N > 2^31
    assert cfg.prime == M31
    with pytest.raises(FieldTooSmall) as err:
        cfg.validate()
    assert "'prime'" in str(err.value) and "'expected_voters'" in str(err.value)


def test_a_prime_survives_the_round_trip():
    """An explicit prime is kept through to_dict / from_dict, even one the
    ladder would not take; a resolved one is written out and read back."""
    for prime in (M31, 65_521, 101):
        cfg = _cfg(prime=prime, expected_voters=10)
        assert ElectionConfig.from_dict(cfg.to_dict()).prime == prime
    data = _cfg(prime=None, expected_voters=10).to_dict()
    assert data["prime"] == 65_519
    assert ElectionConfig.from_dict(dict(data, expected_voters=10**6)).prime == 65_519
    data.pop("prime")
    assert ElectionConfig.from_dict(dict(data, expected_voters=10**6)).prime == M31
