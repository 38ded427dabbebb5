"""Election session configuration: parameters, bounds, seeds, tie policy.

The prime modulus must exceed every quantity the protocol secret-shares or
feeds to the sign-sensitive predicates:

* the number of talliers D (share evaluation points are 1..D),
* twice the expected number of voters (aggregated entries live in [-N, N]),
* max(s, t) * (M - 1), the largest rescaled copeland score,
* twice the largest column-sum difference, 2 * (M - 1),
* for kemeny, the largest ranking score N * M(M - 1) / 2, so that the
  comparisons that pick the best ranking see unwrapped scores.

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
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .ballots import RULES
from .field import MAX_PRIME, PrimeField, is_prime

SCHEMA_VERSION = 1
DEFAULT_PRIME = (1 << 31) - 1


class ConfigError(Exception):
    pass


class InvalidRule(ConfigError):
    pass


class FieldTooSmall(ConfigError):
    pass


class BadThreshold(ConfigError):
    pass


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


def kemeny_score_bound(voters: int, m: int) -> int:
    """Largest Kemeny ranking score: every voter agrees on all M(M-1)/2 pairs."""
    return voters * m * (m - 1) // 2


def ranking_winners(ranks: Sequence[int], k: int) -> list[int]:
    """The K leading candidates of a tie-free rank vector."""
    by_rank = sorted(range(1, len(ranks) + 1), key=lambda m: ranks[m - 1])
    return by_rank[:k]


@dataclass(frozen=True)
class ElectionConfig:
    """Immutable parameters of one election session."""

    rule: str
    candidates: tuple[str, ...]
    num_winners: int
    talliers: int
    prime: int = DEFAULT_PRIME
    alpha: tuple[int, int] = (1, 2)  # copeland tie credit s/t
    expected_voters: int = 1000
    seed: int = 1
    backend: str = "memory"
    endpoints: tuple[tuple[str, int], ...] = ()
    open_scores: bool = False
    reconstruct_rejected: bool = False

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
        bounds = {
            "D (number of talliers)": self.talliers,
            "2N (range of aggregated entries)": 2 * self.expected_voters,
            "max(s,t)*(M-1) (rescaled score range)": max(s, t) * (self.m - 1),
            "2(M-1) (column-sum differences)": 2 * (self.m - 1),
        }
        if self.rule == "kemeny":
            bounds["N*M(M-1)/2 (largest ranking score)"] = kemeny_score_bound(
                self.expected_voters, self.m)
        for what, bound in bounds.items():
            if self.prime <= bound:
                raise FieldTooSmall(
                    f"p = {self.prime} must exceed {what} = {bound}")
        if self.backend not in ("memory", "socket"):
            raise ConfigError(f"unknown transport backend {self.backend!r}")
        if self.backend == "socket" and len(self.endpoints) != self.talliers:
            raise ConfigError("socket backend needs one endpoint per tallier")
        return self

    # -- deterministic randomness --------------------------------------------

    def party_rng(self, party_id: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, 1, party_id]))

    def voter_rng(self, voter_id: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, 2, voter_id]))

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
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {version}")
        alpha = data.get("alpha", {"s": 1, "t": 2})
        cfg = ElectionConfig(
            rule=data["rule"],
            candidates=tuple(data["candidates"]),
            num_winners=int(data.get("num_winners", 1)),
            talliers=int(data["talliers"]),
            prime=int(data.get("prime", DEFAULT_PRIME)),
            alpha=(int(alpha["s"]), int(alpha["t"])),
            expected_voters=int(data.get("expected_voters", 1000)),
            seed=int(data.get("seed", 1)),
            backend=data.get("backend", "memory"),
            endpoints=tuple((str(h), int(p)) for h, p in data.get("endpoints", [])),
            open_scores=bool(data.get("open_scores", False)),
            reconstruct_rejected=bool(data.get("reconstruct_rejected", False)),
        )
        declared = data.get("threshold")
        if declared is not None and int(declared) != cfg.threshold:
            raise BadThreshold(
                f"threshold {declared} does not match floor((D+1)/2) = {cfg.threshold}")
        return cfg

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def loads(text: str) -> "ElectionConfig":
        return ElectionConfig.from_dict(json.loads(text))

    def with_overrides(self, **kwargs) -> "ElectionConfig":
        return replace(self, **kwargs)
