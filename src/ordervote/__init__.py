"""Secret-sharing based secure tallying for order-based voting rules.

Voters split their ballot matrices into Shamir shares across D tallier
parties; the talliers validate and tally the election through multiparty
computation and publish only the K winners.  No minority coalition of
talliers learns anything else about the ballots.
"""

from .ballots import BallotMatrix, SharedBallot, ranking_to_matrix, share_ballot
from .config import ElectionConfig, FieldTooSmall, derived_threshold
from .engine import PartyContext, Shares
from .field import PrimeField
from .oracle import PlainElection, plain_copeland, plain_kemeny, plain_maximin
from .session import ElectionOutcome, make_shared_ballots, run_local_election
from .tally import TallyResult

__version__ = "0.1.0"

__all__ = [
    "BallotMatrix", "ElectionConfig", "ElectionOutcome", "FieldTooSmall",
    "PartyContext", "PlainElection", "PrimeField", "SharedBallot",
    "Shares", "TallyResult", "derived_threshold", "make_shared_ballots",
    "plain_copeland", "plain_kemeny", "plain_maximin", "ranking_to_matrix",
    "run_local_election", "share_ballot",
]
