"""Weighted directed result graphs for round-robin competitions.

Match outcomes become edges that point from the losing team to the
winning team, so successful teams accumulate heavy columns. A win puts
``win_weight`` points (default 3) in the loser's row under the winner's
column; a draw puts ``draw_weight`` (default 1) in both directions.
Repeated fixtures accumulate additively, which keeps every column sum
equal to the points the column's team earned from the encoded matches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import numpy.typing as npt


class Outcome(enum.Enum):
    """Result of a single match from the perspective of ``team_a``."""

    A_WINS = "A_WINS"
    B_WINS = "B_WINS"
    DRAW = "DRAW"


@dataclass(frozen=True)
class MatchRecord:
    """One fixture outcome between two named teams.

    Team names are stripped of surrounding whitespace on construction.
    Name matching everywhere else is exact after that trim, never fuzzy,
    because silently merging near-identical names corrupts rankings.
    """

    team_a: str
    team_b: str
    outcome: Outcome

    def __post_init__(self) -> None:
        object.__setattr__(self, "team_a", str(self.team_a).strip())
        object.__setattr__(self, "team_b", str(self.team_b).strip())
        if not self.team_a or not self.team_b:
            raise ValueError("team names must be non-empty after trimming")
        if self.team_a == self.team_b:
            raise ValueError(f"a team cannot play itself: {self.team_a!r}")
        if not isinstance(self.outcome, Outcome):
            raise TypeError(f"outcome must be an Outcome, got {type(self.outcome).__name__}")


@dataclass(frozen=True)
class TeamIndex:
    """Bijection between team names and dense matrix indices 0..n-1.

    Names must be unique and non-blank.
    """

    names: tuple[str, ...]
    _pos: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple(str(name) for name in self.names)
        object.__setattr__(self, "names", names)
        pos: dict[str, int] = {}
        for i, name in enumerate(names):
            if not name.strip():
                raise ValueError("team names must be non-empty after trimming")
            if name in pos:
                raise ValueError(f"duplicate team name: {name!r}")
            pos[name] = i
        object.__setattr__(self, "_pos", pos)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._pos

    def index_of(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise KeyError(f"unknown team: {name!r}") from None

    def name_at(self, i: int) -> str:
        return self.names[i]


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Square nonnegative weight matrix over a TeamIndex.

    Entry (i, j) holds the points team i has conceded toward team j.
    The diagonal is identically zero since a team never plays itself.
    The underlying array is read-only after construction.
    """

    index: TeamIndex
    w: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        try:
            w = np.array(self.w, dtype=np.float64)  # defensive copy
        except (TypeError, ValueError) as exc:
            raise ValueError(f"matrix values must be numeric: {exc}") from None
        n = len(self.index)
        if n == 0 and w.size == 0:
            # an empty list of rows has ambiguous shape; normalize it
            w = w.reshape((0, 0))
        if w.shape != (n, n):
            raise ValueError(f"matrix shape {w.shape} does not match {n} teams")
        if not np.all(np.isfinite(w)):
            raise ValueError("matrix entries must be finite")
        if w.size and float(np.min(w)) < 0.0:
            raise ValueError("matrix entries must be nonnegative")
        if w.size and np.any(np.diagonal(w) != 0.0):
            raise ValueError("diagonal entries must be zero")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return len(self.index)


def _encode(
    matches: Iterable[MatchRecord],
) -> tuple[TeamIndex, npt.NDArray[np.intp], npt.NDArray[np.intp], npt.NDArray[np.bool_]]:
    """Teams in first-appearance order, plus winner, loser and drawn per record.

    A draw lists ``team_a`` as its winner. This is the one reader of a
    record's names and outcome.

    Raises:
        TypeError: if an element of ``matches`` is not a MatchRecord.
    """
    pos: dict[str, int] = {}
    winner: list[int] = []
    loser: list[int] = []
    drawn: list[bool] = []
    for rec in matches:
        if not isinstance(rec, MatchRecord):
            raise TypeError(f"expected MatchRecord, got {type(rec).__name__}")
        a = pos.setdefault(rec.team_a, len(pos))
        b = pos.setdefault(rec.team_b, len(pos))
        if rec.outcome is Outcome.B_WINS:
            a, b = b, a
        winner.append(a)
        loser.append(b)
        drawn.append(rec.outcome is Outcome.DRAW)
    return (
        TeamIndex(tuple(pos)),
        np.array(winner, dtype=np.intp),
        np.array(loser, dtype=np.intp),
        np.array(drawn, dtype=bool),
    )


def build_adjacency(
    matches: Iterable[MatchRecord],
    win_weight: float = 3.0,
    draw_weight: float = 1.0,
) -> AdjacencyMatrix:
    """Accumulate match outcomes into a loser-to-winner weight matrix.

    Teams are indexed in order of first appearance (``team_a`` before
    ``team_b`` within a record). Each win adds ``win_weight`` at
    (loser row, winner column); each draw adds ``draw_weight`` in both
    directions. Repeated fixtures accumulate, so a side beaten twice by
    the same opponent concedes ``2 * win_weight`` in that cell.

    Args:
        matches: match records; an empty iterable yields a 0x0 matrix.
        win_weight: points granted to the winner, must be nonnegative.
        draw_weight: points granted to both sides of a draw, must be
            nonnegative.

    Raises:
        ValueError: if a weight is negative or not finite.
        TypeError: if an element of ``matches`` is not a MatchRecord.
    """
    win_weight = float(win_weight)
    draw_weight = float(draw_weight)
    if not (np.isfinite(win_weight) and win_weight >= 0.0):
        raise ValueError(f"win_weight must be nonnegative and finite, got {win_weight}")
    if not (np.isfinite(draw_weight) and draw_weight >= 0.0):
        raise ValueError(f"draw_weight must be nonnegative and finite, got {draw_weight}")

    index, winner, loser, drawn = _encode(matches)
    n = len(index)
    # two events per record in file order: the points into the winner's
    # column, then a draw's points back (0 for a win), so each cell sums
    # its terms in the same order as accumulating record by record
    cells = np.column_stack((loser * n + winner, winner * n + loser)).ravel()
    weights = np.column_stack(
        (np.where(drawn, draw_weight, win_weight), np.where(drawn, draw_weight, 0.0))
    ).ravel()
    w = np.bincount(cells, weights=weights, minlength=n * n).reshape(n, n)
    return AdjacencyMatrix(index, w)


def transpose(m: AdjacencyMatrix) -> AdjacencyMatrix:
    """Reverse every edge, keeping the same team index."""
    return AdjacencyMatrix(m.index, m.w.T)


def from_named_matrix(names: Sequence[str], values: npt.ArrayLike) -> AdjacencyMatrix:
    """Wrap pre-aggregated weights verbatim under the given team names.

    Use this for weight matrices whose aggregation rule is external to
    this library; nothing is derived or rescaled.

    Raises:
        ValueError: on duplicate or empty names, a dimension mismatch,
            a negative entry, or a nonzero diagonal entry.
    """
    return AdjacencyMatrix(TeamIndex(tuple(str(name).strip() for name in names)), values)


def sort_teams(m: AdjacencyMatrix) -> AdjacencyMatrix:
    """Reorder rows and columns so team names are alphabetical.

    Useful for byte-stable output when the input match order varies.
    """
    order = sorted(range(len(m.index)), key=lambda i: m.index.names[i])
    names = tuple(m.index.names[i] for i in order)
    if not order:
        return AdjacencyMatrix(TeamIndex(names), m.w)
    return AdjacencyMatrix(TeamIndex(names), m.w[np.ix_(order, order)])
