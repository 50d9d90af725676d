"""Pure-Nash-equilibrium verification for the DA-SC game.

``DASC_Game`` claims its best-response loop terminates at (or near) a Nash
equilibrium.  These helpers make the claim checkable: given a strategy
profile, list every player's best-response improvement gap; a profile is a
pure Nash equilibrium iff all gaps are (numerically) zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.algorithms.utility import GameState

#: Improvements below this are numerical noise, not deviations.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class BestResponseGap:
    """How much one player could gain by deviating.

    Attributes:
        worker_id: the player.
        current_task: its committed strategy (None = idle).
        current_utility: utility under the committed strategy.
        best_task: the utility-maximising strategy against the others.
        best_utility: the utility it would earn there.
    """

    worker_id: int
    current_task: Optional[int]
    current_utility: float
    best_task: Optional[int]
    best_utility: float

    @property
    def gap(self) -> float:
        """The incentive to deviate (0 at equilibrium)."""
        return max(0.0, self.best_utility - self.current_utility)


def best_response_gaps(
    state: GameState, strategies: Dict[int, Sequence[int]]
) -> List[BestResponseGap]:
    """Compute every player's deviation incentive under ``state``.

    Each player's best response is :meth:`GameState.best_response` with
    :data:`TOLERANCE` as the improvement margin: read-only, so the profile
    never moves.

    Args:
        state: a committed strategy profile.
        strategies: each player's strategy space ``S_w``.

    Returns:
        One :class:`BestResponseGap` per player, in player-id order.
    """
    gaps: List[BestResponseGap] = []
    for worker_id in sorted(strategies):
        current = state.choice[worker_id]
        current_utility = (
            state.candidate_utility(worker_id, current) if current is not None else 0.0
        )
        best_task, best_utility = state.best_response(
            worker_id, strategies[worker_id], TOLERANCE
        )
        gaps.append(
            BestResponseGap(
                worker_id=worker_id,
                current_task=current,
                current_utility=current_utility,
                best_task=best_task,
                best_utility=best_utility,
            )
        )
    return gaps


def is_nash_equilibrium(
    state: GameState, strategies: Dict[int, Sequence[int]], tolerance: float = TOLERANCE
) -> bool:
    """Whether no player can unilaterally improve by more than ``tolerance``."""
    return all(g.gap <= tolerance for g in best_response_gaps(state, strategies))
