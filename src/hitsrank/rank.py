"""Ranking tables from weight vectors and match lists, plus comparisons.

Authority weights rank descending (more authority, better team). Hub
weights measure how much a team has fed its opponents, so the best team
has the smallest hub weight and the default hub presentation ranks
ascending. The conventional points table (3 for a win, 1 for a draw) is
provided for cross-checking: its scores equal the column sums of the
default adjacency matrix built from the same matches.

Nothing here loads numpy: ``rank_authority`` and ``rank_hub`` read the
floats a weight vector holds, and ``hitsrank rank`` ranks through them too.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from collections import Counter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from hitsrank.graph import _CODE, MatchRecord, TeamIndex, _bad_name, _checked, _Columns, _encode, _Record, _record_rows

if TYPE_CHECKING:
    from hitsrank.hits import VectorKind, WeightVector


class TableKind(enum.Enum):
    AUTHORITY = "AUTHORITY"
    HUB = "HUB"
    POINTS = "POINTS"


class Ordering(enum.Enum):
    DESC_SCORE = "DESC_SCORE"
    ASC_SCORE = "ASC_SCORE"


class HubOrder(enum.Enum):
    BEST_TEAM_FIRST = "BEST_TEAM_FIRST"
    RAW_DESC = "RAW_DESC"


class RankRow(NamedTuple):
    rank: int
    team: str
    score: float


class RankTable(_Record):
    """Ordered ranking rows plus metadata.

    Tables built by this module are sorted per ``ordering`` with exact
    score ties broken lexicographically by team name, and carry
    competition ranks: tied scores share the smaller rank and the next
    rank skips (1, 2, 2, 4). Tables parsed from external files keep
    their ranks and row order as given, because foreign tie-break rules
    (goal difference and the like) cannot be reconstructed from scores
    alone; ``kind`` is None for such tables. Nothing is coerced: a rank
    that is no integer, a team that is no str or a score that is no real
    number raises TypeError (numpy scalars pass, bools do not).
    """

    def __init__(self, rows: Iterable[tuple[int, str, float]], ordering: Ordering, kind: TableKind | None) -> None:
        checked = []
        for rank, team, score in rows:
            if not isinstance(team, str):
                raise TypeError(f"team must be a str, got {type(team).__name__}")
            checked.append(RankRow(_checked("rank", rank, integer=True), team, _checked("score", score)))
        rows = tuple(checked)
        if not isinstance(ordering, Ordering):
            raise TypeError(f"ordering must be an Ordering, got {type(ordering).__name__}")
        if kind is not None and not isinstance(kind, TableKind):
            raise TypeError(f"kind must be a TableKind or None, got {type(kind).__name__}")
        if bad := _bad_row(rows):
            raise ValueError(bad[2])
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "kind", kind)
        # the lookup of rank_of is no field, so it stays out of __eq__ and __repr__
        object.__setattr__(self, "_rank_by_team", {row.team: row.rank for row in rows})

    def __len__(self) -> int:
        return len(self.rows)

    def rank_of(self, team: str) -> int:
        try:
            return self._rank_by_team[team]
        except KeyError:
            raise KeyError(f"unknown team: {team!r}") from None


def _bad_row(rows: Sequence[RankRow]) -> tuple[int, str, str] | None:
    """First row that breaks a table rule, as (row index, field, message)."""
    seen: set[str] = set()
    for i, (rank, team, score) in enumerate(rows):
        if rank < 1:
            return i, "rank", f"ranks are 1-based, got {rank}"
        try:
            _checked("rank", rank, integer=True)
        except ValueError as exc:
            return i, "rank", str(exc)
        if problem := _bad_name(team):
            return i, "team", problem
        if not math.isfinite(score):
            return i, "score", f"score must be finite, got {score}"
        if team in seen:
            return i, "team", f"duplicate team in table: {team!r}"
        seen.add(team)
    return None


def _ranked(names: Sequence[str], scores: Sequence[float], ordering: Ordering, kind: TableKind) -> RankTable:
    """The table of ``scores``: sorted per ``ordering``, exact-score ties lexicographic by name, competition ranks."""
    descending = ordering is Ordering.DESC_SCORE
    order = sorted(
        range(len(names)),
        key=lambda i: ((-scores[i] if descending else scores[i]), names[i]),
    )
    rows: list[RankRow] = []
    rank = 0
    prev_score: float | None = None
    for position, i in enumerate(order, start=1):
        score = float(scores[i])
        if prev_score is None or score != prev_score:
            rank = position
            prev_score = score
        rows.append(RankRow(rank, names[i], score))
    return RankTable(rows, ordering, kind)


def _check_weight(w: WeightVector, idx: TeamIndex, expected: VectorKind) -> None:
    if w.kind is not expected:
        raise ValueError(f"expected a {expected.value} weight vector, got {w.kind.value}")
    if len(w) != len(idx):
        raise ValueError(f"weight vector has {len(w)} entries for {len(idx)} teams")


def rank_authority(w: WeightVector, idx: TeamIndex) -> RankTable:
    """Rank teams by authority weight, best (largest) first."""
    from hitsrank.hits import VectorKind

    _check_weight(w, idx, VectorKind.AUTHORITY)
    return _ranked(idx.names, w._weights, Ordering.DESC_SCORE, TableKind.AUTHORITY)


def rank_hub(
    w: WeightVector, idx: TeamIndex, order: HubOrder = HubOrder.BEST_TEAM_FIRST
) -> RankTable:
    """Rank teams by hub weight.

    A small hub weight is a good sign (the team has fed few points to
    opponents), so BEST_TEAM_FIRST sorts ascending. RAW_DESC gives the
    plain descending view of the weights themselves.
    """
    from hitsrank.hits import VectorKind

    if not isinstance(order, HubOrder):
        raise TypeError(f"order must be a HubOrder, got {type(order).__name__}")
    _check_weight(w, idx, VectorKind.HUB)
    ordering = Ordering.ASC_SCORE if order is HubOrder.BEST_TEAM_FIRST else Ordering.DESC_SCORE
    return _ranked(idx.names, w._weights, ordering, TableKind.HUB)


def points_table(
    matches: Iterable[MatchRecord],
    win_points: float = 3.0,
    draw_points: float = 1.0,
) -> RankTable:
    """Conventional standings: win_points per win plus draw_points per draw.

    Losses score nothing and points may be negative; sorted descending with competition ranks.

    Raises:
        TypeError: if a points value is not a real number (``numbers.Real``,
            not a bool), or an element of ``matches`` is not a MatchRecord.
        ValueError: if a points value is not finite as a float, or a
            team's total overflows the float range.
    """
    win_points = _checked("win_points", win_points)
    draw_points = _checked("draw_points", draw_points)
    return _points(_encode(_record_rows(matches)), win_points, draw_points)


def _points(columns: _Columns, win_points: float, draw_points: float) -> RankTable:
    """The points table of match columns, for points values already checked."""
    n = len(columns.index)
    wins, draws = [0] * n, [0] * n
    away_win, draw = _CODE["A"], _CODE["D"]
    for i, j, k in zip(*columns[1:]):
        if k == draw:
            draws[i] += 1
            draws[j] += 1
        else:
            wins[j if k == away_win else i] += 1
    # a total past the float range reads inf or nan, which RankTable refuses
    scores = [win_points * w + draw_points * d for w, d in zip(wins, draws)]
    return _ranked(columns.index.names, scores, Ordering.DESC_SCORE, TableKind.POINTS)


class ComparisonRow(NamedTuple):
    team: str
    rank_a: int
    rank_b: int
    displacement: int


class ComparisonReport(_Record):
    """Per-team displacement plus Kendall tau-b over two rankings.

    ``displacement`` is rank_b minus rank_a: positive means the team
    sits further down (nearer the bottom) in the second table than in
    the first. Rows are sorted by rank in the first table, ties by team
    name. ``kendall_tau`` is the tie-adjusted tau-b of the two rank
    vectors; it is NaN when fewer than two teams are compared or one
    table is entirely tied.
    """

    def __init__(self, rows: tuple[ComparisonRow, ...], kendall_tau: float) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "kendall_tau", kendall_tau)


def compare_rankings(a: RankTable, b: RankTable) -> ComparisonReport:
    """Compare two rankings over the same team set.

    Raises:
        ValueError: if the tables do not cover the same teams.
    """
    ranks_a, ranks_b = a._rank_by_team, b._rank_by_team
    if set(ranks_a) != set(ranks_b):
        only_a = sorted(set(ranks_a) - set(ranks_b))[:5]
        only_b = sorted(set(ranks_b) - set(ranks_a))[:5]
        raise ValueError(
            f"team sets differ: only in first table {only_a}, only in second table {only_b}"
        )
    rows = tuple(
        sorted(
            (
                ComparisonRow(team, ranks_a[team], ranks_b[team], ranks_b[team] - ranks_a[team])
                for team in ranks_a
            ),
            key=lambda r: (r.rank_a, r.team),
        )
    )
    tau = _tau_b([(r.rank_a, r.rank_b) for r in rows])
    return ComparisonReport(rows=rows, kendall_tau=tau)


def _tau_b(pairs: Sequence[tuple[int, int]]) -> float:
    """Kendall tau-b of rank pairs (x, y), in O(n log n) comparisons; NaN if n < 2 or a side is all tied.

    S, the tied pairs and n0 are exact integers, and the final division
    runs in the same order as scipy.stats.kendalltau, so the result
    matches it to the last bit.
    """
    n = len(pairs)
    n0 = n * (n - 1) // 2
    ties_x, ties_y = _tied_pairs(x for x, _ in pairs), _tied_pairs(y for _, y in pairs)
    if ties_x == n0 or ties_y == n0:
        return math.nan
    # sorted by x, then y, a pair is discordant where y falls: each y is
    # discordant with the earlier ys above it, which bisect counts
    ys: list[int] = []
    discordant = 0
    for _, y in sorted(pairs):
        at = bisect_right(ys, y)
        discordant += len(ys) - at
        ys.insert(at, y)
    # the concordant pairs are the rest, less the pairs tied in x or y
    s = n0 - ties_x - ties_y + _tied_pairs(pairs) - 2 * discordant
    tau = s / math.sqrt(n0 - ties_x) / math.sqrt(n0 - ties_y)
    return min(1.0, max(-1.0, tau))


def _tied_pairs(values: Iterable[object]) -> int:
    """The number of pairs among ``values`` that are equal."""
    return sum(k * (k - 1) // 2 for k in Counter(values).values())
