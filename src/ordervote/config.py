"""Election session configuration: parameters, bounds, seeds, tie policy.

The prime modulus must exceed every quantity the protocol secret-shares or
feeds to the sign-sensitive predicates.  The tally compares scores with the
bounded comparison, which needs every compared difference below p/2, so a
score range R needs p > 2R:

* the number of talliers D (share evaluation points are 1..D),
* twice the expected number of voters: aggregated entries live in [-N, N]
  and maximin scores in [0, N],
* 2 * max(s, t) * (M - 1), twice the largest rescaled copeland score,
* twice the largest column-sum difference, 2 * (M - 1),
* for kemeny, N * M(M - 1), twice the largest ranking score N * M(M - 1) / 2.

The rounds and gates of the tally grow with the prime's bit length, so a
config that names no prime takes the smallest of ``PRIME_LADDER`` whose
bounds hold ``VOTER_HEADROOM`` times its expected voters (``ladder_prime``);
the prime is then part of the config, and ``to_dict`` writes it out.

Tie policy is defined once here and consumed by both the plaintext oracle and
the MPC tally, so the two paths cannot drift: score ties go to the lowest
candidate index, and kemeny ranking ties go to the first ranking in the
lexicographic enumeration order of rank vectors.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from typing import Iterator, Sequence

import numpy as np

from .ballots import RULES
from .field import MAX_PRIME, PrimeField, is_prime, stream_rng

SCHEMA_VERSION = 1
# ell = 16, then the Mersenne prime 2**31 - 1; both are 3 mod 4, so a square
# root in the field is one power
PRIME_LADDER = (65_519, (1 << 31) - 1)
VOTER_HEADROOM = 2  # a ladder prime holds twice the expected voters
KEMENY_MAX_CANDIDATES = 6  # kemeny scores all M! rankings


class ConfigError(Exception):
    pass


class InvalidRule(ConfigError):
    pass


class FieldTooSmall(ConfigError):
    pass


class BadThreshold(ConfigError):
    pass


class TooManyCandidates(ConfigError):
    pass


def fresh_rng() -> np.random.Generator:
    """A generator seeded from the operating system.  The config's seeded
    generators (``party_rng``, and ``voter_rng``, voter i's stream of the
    config's ``voter_key``) replay from the config alone, so a run that
    must keep its ballots secret draws from this instead."""
    return np.random.default_rng(np.random.SeedSequence())


def derived_threshold(talliers: int) -> int:
    """D' = floor((D+1)/2): an honest majority is needed to reconstruct."""
    return (talliers + 1) // 2


@lru_cache(maxsize=8)
def get_field(p: int) -> PrimeField:
    return PrimeField(p)


def select_winners(scores: Sequence[int], k: int) -> list[int]:
    """Candidate indices (1-based) of the K best scores; ties favour the
    lowest index.  This is the single tie policy both tally paths follow."""
    order = sorted(range(1, len(scores) + 1), key=lambda m: (-int(scores[m - 1]), m))
    return order[:k]


def rank_vectors(m: int) -> Iterator[tuple[int, ...]]:
    """All M! tie-free rank vectors in the canonical enumeration order; entry
    m-1 is the rank of candidate m.  Kemeny ties break toward the first."""
    return itertools.permutations(range(1, m + 1))


def _require_above(prime: int, bounds: dict[str, int], remedy: str = "") -> None:
    for what, bound in bounds.items():
        if prime <= bound:
            raise FieldTooSmall(f"p = {prime} must exceed {what} = {bound}{remedy}")


def check_field_bounds(prime: int, rule: str, m: int, voters: int,
                       alpha: tuple[int, int] | None) -> None:
    """The compared scores of N ballots must differ by less than p/2:
    aggregated entries lie in [-N, N] and maximin scores in [0, N] (p > 2N),
    copeland scores in [0, max(s,t)(M-1)] (checked when ``alpha`` is given)
    and kemeny scores in [0, N*M(M-1)/2] (every voter agrees with the best
    ranking on all M(M-1)/2 pairs).  The config checks its expected
    voter count, ``vote`` the ballots spooled with the one cast, and the
    tally its accepted count."""
    bounds = {"2N (range of aggregated entries)": 2 * voters}
    if alpha is not None:
        bounds["2max(s,t)*(M-1) (twice the rescaled score range)"] = \
            2 * max(alpha) * (m - 1)
    if rule == "kemeny":
        bounds["N*M(M-1) (twice the largest ranking score)"] = voters * m * (m - 1)
    _require_above(prime, bounds, f" for N = {voters}; a session keeps the prime of "
                   "its setup, so set up one whose config names a larger 'prime', or "
                   "raises 'expected_voters' so that the prime it takes holds them")


def check_kemeny_size(m: int) -> None:
    """Kemeny enumerates the M! rankings, so M may not pass the guard."""
    if m > KEMENY_MAX_CANDIDATES:
        raise TooManyCandidates(
            f"kemeny enumerates M! rankings; M = {m} exceeds the guard "
            f"({KEMENY_MAX_CANDIDATES})")


def ladder_prime(rule: str, m: int, voters: int, alpha: tuple[int, int]) -> int:
    """The smallest prime of ``PRIME_LADDER`` that meets the field bounds of
    ``VOTER_HEADROOM`` times ``voters``, else the largest."""
    for prime in PRIME_LADDER[:-1]:
        try:
            check_field_bounds(prime, rule, m, VOTER_HEADROOM * voters, alpha)
            return prime
        except FieldTooSmall:
            pass
    return PRIME_LADDER[-1]


def ranking_winners(ranks: Sequence[int], k: int) -> list[int]:
    """The K leading candidates of a tie-free rank vector."""
    by_rank = sorted(range(1, len(ranks) + 1), key=lambda m: ranks[m - 1])
    return by_rank[:k]


def _as(kind: type, value):
    """``value`` if it has the JSON type ``kind`` (true is no int), else TypeError."""
    if type(value) is not kind:
        raise TypeError(f"{json.dumps(value)} is not a JSON {kind.__name__}")
    return value


_str, _int, _bool, _list = (partial(_as, kind) for kind in (str, int, bool, list))

# how each field of a JSON config is read; the dataclass defaults fill the rest
_FROM_JSON = {
    "rule": _str, "candidates": lambda cs: tuple(map(_str, _list(cs))),
    "num_winners": _int, "talliers": _int, "prime": _int, "expected_voters": _int,
    "alpha": lambda a: (_int(a["s"]), _int(a["t"])), "seed": _int, "backend": _str,
    "endpoints": lambda es: tuple((_str(h), _int(port)) for h, port in _list(es)),
    "open_scores": _bool, "reconstruct_rejected": _bool, "threshold": _int,
}


@dataclass(frozen=True)
class ElectionConfig:
    """Immutable parameters of one election session.  A config built without
    a prime takes ``ladder_prime`` of its rule, M, expected voters and alpha."""

    rule: str
    candidates: tuple[str, ...]
    num_winners: int
    talliers: int
    prime: int | None = None
    alpha: tuple[int, int] = (1, 2)  # copeland tie credit s/t
    expected_voters: int = 1000
    seed: int = 1
    backend: str = "memory"
    endpoints: tuple[tuple[str, int], ...] = ()
    open_scores: bool = False
    reconstruct_rejected: bool = False

    def __post_init__(self) -> None:
        if self.prime is None:
            object.__setattr__(self, "prime", ladder_prime(
                self.rule, self.m, self.expected_voters, self.alpha))

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def threshold(self) -> int:
        return derived_threshold(self.talliers)

    @property
    def field(self) -> PrimeField:
        return get_field(self.prime)

    def name_to_index(self) -> dict[str, int]:
        return {name: i + 1 for i, name in enumerate(self.candidates)}

    def resolved_endpoints(self) -> tuple[tuple[str, int], ...]:
        """Configured tallier endpoints with ORDERVOTE_T<d>_HOST/PORT overrides."""
        out = []
        for d, (host, port) in enumerate(self.endpoints, start=1):
            host = os.environ.get(f"ORDERVOTE_T{d}_HOST", host)
            port = int(os.environ.get(f"ORDERVOTE_T{d}_PORT", port))
            out.append((host, port))
        return tuple(out)

    def validate(self) -> "ElectionConfig":
        if self.rule not in RULES:
            raise InvalidRule(f"rule must be one of {RULES}, got {self.rule!r}")
        if self.m < 1:
            raise ConfigError("need at least one candidate")
        if len(set(self.candidates)) != self.m:
            raise ConfigError("candidate names must be unique")
        if not 1 <= self.num_winners <= self.m:
            raise ConfigError(f"K={self.num_winners} must be in 1..{self.m}")
        if self.rule == "kemeny":
            check_kemeny_size(self.m)
        if self.talliers < 1:
            raise BadThreshold("need at least one tallier")
        dp = self.threshold
        if 2 * dp - 1 > self.talliers:
            raise BadThreshold(f"2D'-1 = {2 * dp - 1} exceeds D = {self.talliers}")
        s, t = self.alpha
        if t < 1 or s < 0 or s > t:
            raise ConfigError(f"alpha = {s}/{t} must be a rational in [0, 1]")
        if not is_prime(self.prime):
            raise ConfigError(f"p = {self.prime} is not prime")
        if self.prime >= MAX_PRIME:
            raise ConfigError(f"p = {self.prime} exceeds the 2**32 implementation bound")
        _require_above(self.prime, {
            "D (number of talliers)": self.talliers,
            "2(M-1) (column-sum differences)": 2 * (self.m - 1),
        })
        check_field_bounds(self.prime, self.rule, self.m, self.expected_voters,
                           self.alpha)
        if self.backend not in ("memory", "socket"):
            raise ConfigError(f"unknown transport backend {self.backend!r}")
        if self.backend == "socket" and len(self.endpoints) != self.talliers:
            raise ConfigError("socket backend needs one endpoint per tallier")
        return self

    # -- seeded randomness: replayed from the config alone, so no secret

    def party_rng(self, party_id: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, 1, party_id]))

    @cached_property
    def voter_key(self) -> int:
        """The 128-bit Philox key of the seeded voters' streams."""
        low, high = np.random.SeedSequence([self.seed, 2]).generate_state(2, np.uint64)
        return int(high) << 64 | int(low)

    def voter_rng(self, voter_id: int) -> np.random.Generator:
        """Voter ``voter_id``'s stream of ``voter_key``: what
        ``PrimeField.draw_batch`` computes for a batch of voters at once."""
        return stream_rng(self.voter_key, voter_id)

    # -- JSON round trip -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "rule": self.rule,
            "candidates": list(self.candidates),
            "num_winners": self.num_winners,
            "talliers": self.talliers,
            "threshold": self.threshold,
            "prime": self.prime,
            "alpha": {"s": self.alpha[0], "t": self.alpha[1]},
            "expected_voters": self.expected_voters,
            "seed": self.seed,
            "backend": self.backend,
            "endpoints": [list(e) for e in self.endpoints],
            "open_scores": self.open_scores,
            "reconstruct_rejected": self.reconstruct_rejected,
        }

    @staticmethod
    def from_dict(data: dict) -> "ElectionConfig":
        """The config of a ``to_dict`` object.  A field absent or null takes its
        default; a required one missing, or one not of its JSON type (a list
        of strings, true or false, an integer), raises ConfigError naming it."""
        if not isinstance(data, dict):
            raise ConfigError("a config is a JSON object")
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {version}")
        fields = {"num_winners": 1}
        for name, convert in _FROM_JSON.items():
            if data.get(name) is None:
                if name in ("rule", "candidates", "talliers"):
                    raise ConfigError(f"config field {name!r} is missing")
                continue
            try:
                fields[name] = convert(data[name])
            except (KeyError, TypeError, ValueError) as err:
                raise ConfigError(f"config field {name!r} is invalid "
                                  f"({type(err).__name__}: {err})") from None
        declared = fields.pop("threshold", None)
        cfg = ElectionConfig(**fields)
        if declared is not None and declared != cfg.threshold:
            raise BadThreshold(
                f"threshold {declared} does not match floor((D+1)/2) = {cfg.threshold}")
        return cfg

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def loads(text: str, **overrides) -> "ElectionConfig":
        """The config of JSON ``text`` with ``overrides`` for its fields, set
        before a prime the text does not name is chosen."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not JSON ({err})") from None
        if isinstance(data, dict):
            data = {**data, **overrides}
        return ElectionConfig.from_dict(data)

    def with_overrides(self, **kwargs) -> "ElectionConfig":
        return replace(self, **kwargs)
