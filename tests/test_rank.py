"""Ranking tables, points standings and rank comparison."""

import math
import warnings

import numpy as np
import pytest
from conftest import mini_matches, random_matches, tau_b_reference

from hitsrank import (
    HubOrder,
    MatchRecord,
    Ordering,
    Outcome,
    RankRow,
    RankTable,
    TableKind,
    TeamIndex,
    VectorKind,
    WeightVector,
    build_adjacency,
    compare_rankings,
    hits,
    points_table,
    rank_authority,
    rank_hub,
)


def table_from_scores(scores: dict[str, float], ordering: Ordering) -> RankTable:
    """Build a competition-ranked table from a score dict (test helper)."""
    sign = -1.0 if ordering is Ordering.DESC_SCORE else 1.0
    items = sorted(scores.items(), key=lambda kv: (sign * kv[1], kv[0]))
    rows = []
    for pos, (team, score) in enumerate(items, start=1):
        if rows and score == rows[-1].score:
            rank = rows[-1].rank
        else:
            rank = pos
        rows.append(RankRow(rank, team, score))
    return RankTable(tuple(rows), ordering, TableKind.POINTS)


def mini_result():
    return hits(build_adjacency(mini_matches()))


class TestRankTable:
    def test_competition_ranks_and_lookup(self):
        t = table_from_scores({"A": 6.0, "B": 3.0, "C": 3.0, "D": 6.0}, Ordering.DESC_SCORE)
        assert [(r.rank, r.team) for r in t.rows] == [(1, "A"), (1, "D"), (3, "B"), (3, "C")]
        assert t.rank_of("C") == 3
        assert len(t) == 4

    def test_duplicate_team_rejected(self):
        rows = (RankRow(1, "A", 2.0), RankRow(2, "A", 1.0))
        with pytest.raises(ValueError):
            RankTable(rows, Ordering.DESC_SCORE, TableKind.POINTS)

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            RankTable((RankRow(0, "A", 2.0),), Ordering.DESC_SCORE, TableKind.POINTS)

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError):
            RankTable((RankRow(1, "A", math.inf),), Ordering.DESC_SCORE, TableKind.POINTS)

    @pytest.mark.parametrize(
        "ordering, kind, message",
        [
            ("desc_score", TableKind.POINTS, "ordering must be an Ordering, got str"),
            (Ordering.DESC_SCORE, "points", "kind must be a TableKind or None, got str"),
        ],
    )
    def test_ordering_and_kind_types_checked(self, ordering, kind, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            RankTable((RankRow(1, "A", 2.0),), ordering, kind)

    @pytest.mark.parametrize("team", ["", "  ", "\t"])
    def test_blank_team_rejected(self, team):
        # the same rule, and message, as TeamIndex
        with pytest.raises(ValueError, match="team names must be non-empty after trimming"):
            RankTable((RankRow(1, team, 1.0),), Ordering.DESC_SCORE, None)
        with pytest.raises(ValueError, match="team names must be non-empty after trimming"):
            TeamIndex((team,))

    @pytest.mark.parametrize("team", ["A\nB", "A\rB", "A\r\nB"])
    def test_team_with_line_break_rejected(self, team):
        # a line break would split the team's record in every emitted file
        message = "team names must not hold a line break"
        with pytest.raises(ValueError, match=message):
            RankTable((RankRow(1, team, 1.0),), Ordering.DESC_SCORE, None)
        with pytest.raises(ValueError, match=message):
            TeamIndex((team,))
        with pytest.raises(ValueError, match=message):
            MatchRecord(team, "C", Outcome.DRAW)
        with pytest.raises(ValueError, match=message):
            MatchRecord("C", team, Outcome.DRAW)

    @pytest.mark.parametrize("team", [" A", "A ", "\tA", "A\u2028"])
    def test_untrimmed_team_rejected(self, team):
        # the readers trim every field, so such a name would not read back as written
        message = "team names must not start or end with whitespace"
        with pytest.raises(ValueError, match=message):
            RankTable((RankRow(1, team, 1.0),), Ordering.DESC_SCORE, None)
        with pytest.raises(ValueError, match=message):
            TeamIndex((team, "B"))
        # a MatchRecord trims first, as documented
        assert MatchRecord(team, "B", Outcome.DRAW).team_a == team.strip()

    @pytest.mark.parametrize(
        "row, message",
        [
            ((1.7, "A", 1.0), "rank must be an integer, got float"),
            ((True, "A", 1.0), "rank must be an integer, got bool"),
            (("1", "A", 1.0), "rank must be an integer, got str"),
            ((1, None, 1.0), "team must be a str, got NoneType"),
            ((1, b"A", 1.0), "team must be a str, got bytes"),
            ((1, "A", "3"), "score must be a real number, got str"),
            ((1, "A", True), "score must be a real number, got bool"),
            ((1, "A", 1j), "score must be a real number, got complex"),
        ],
    )
    def test_row_types_checked(self, row, message):
        # nothing is coerced: 1.7 is no rank 1, None no team "None"
        with pytest.raises(TypeError, match=f"^{message}$"):
            RankTable((RankRow(1, "Z", 2.0), row), Ordering.DESC_SCORE, None)

    def test_numpy_scalars_accepted(self):
        rows = ((np.int64(1), "A", np.float64(2.5)), (np.int32(2), "B", np.float32(1.5)))
        t = RankTable(rows, Ordering.DESC_SCORE, None)
        assert t.rows == (RankRow(1, "A", 2.5), RankRow(2, "B", 1.5))
        assert [type(field) for row in t.rows for field in row] == [int, str, float] * 2

    def test_unknown_team_lookup(self):
        t = table_from_scores({"A": 1.0}, Ordering.DESC_SCORE)
        with pytest.raises(KeyError, match="unknown team: 'Z'"):
            t.rank_of("Z")

    def test_lookup_cache_is_not_part_of_value(self):
        rows = (RankRow(1, "A", 2.0), RankRow(2, "B", 1.0))
        t = RankTable(rows, Ordering.DESC_SCORE, TableKind.POINTS)
        assert t == RankTable(rows, Ordering.DESC_SCORE, TableKind.POINTS)
        assert repr(t) == (
            "RankTable(rows=(RankRow(rank=1, team='A', score=2.0), "
            "RankRow(rank=2, team='B', score=1.0)), "
            "ordering=<Ordering.DESC_SCORE: 'DESC_SCORE'>, kind=<TableKind.POINTS: 'POINTS'>)"
        )
        assert [t.rank_of(team) for team in ("B", "A")] == [2, 1]


class TestRankAuthority:
    def test_mini_league_order(self):
        res = mini_result()
        t = rank_authority(res.authority, build_adjacency(mini_matches()).index)
        assert [r.team for r in t.rows] == ["A", "D", "B", "C"]
        assert [r.rank for r in t.rows] == [1, 2, 3, 4]
        assert t.kind is TableKind.AUTHORITY
        assert t.ordering is Ordering.DESC_SCORE

    def test_all_equal_weights_share_rank_one(self):
        idx = build_adjacency(
            [MatchRecord("C", "A", Outcome.DRAW), MatchRecord("B", "A", Outcome.DRAW),
             MatchRecord("B", "C", Outcome.DRAW)]
        ).index
        w = WeightVector(np.full(3, 1.0 / math.sqrt(3.0)), VectorKind.AUTHORITY)
        t = rank_authority(w, idx)
        assert [r.rank for r in t.rows] == [1, 1, 1]
        # exact ties listed alphabetically
        assert [r.team for r in t.rows] == ["A", "B", "C"]

    def test_length_mismatch_rejected(self):
        res = mini_result()
        from hitsrank import TeamIndex

        with pytest.raises(ValueError):
            rank_authority(res.authority, TeamIndex(("A", "B")))

    def test_wrong_kind_rejected(self):
        res = mini_result()
        with pytest.raises(ValueError):
            rank_authority(res.hub, build_adjacency(mini_matches()).index)


class TestRankHub:
    def test_mini_league_best_first(self):
        res = mini_result()
        t = rank_hub(res.hub, build_adjacency(mini_matches()).index)
        assert [r.team for r in t.rows] == ["D", "A", "C", "B"]
        assert t.ordering is Ordering.ASC_SCORE
        assert t.kind is TableKind.HUB

    def test_raw_descending_reverses_distinct_scores(self):
        res = mini_result()
        idx = build_adjacency(mini_matches()).index
        best = rank_hub(res.hub, idx, HubOrder.BEST_TEAM_FIRST)
        raw = rank_hub(res.hub, idx, HubOrder.RAW_DESC)
        assert [r.team for r in raw.rows] == [r.team for r in reversed(best.rows)]
        assert raw.ordering is Ordering.DESC_SCORE

    def test_order_must_be_a_hub_order(self):
        # the member's name is no member: read as RAW_DESC it would put the worst team first
        res = mini_result()
        idx = build_adjacency(mini_matches()).index
        with pytest.raises(TypeError, match="^order must be a HubOrder, got str$"):
            rank_hub(res.hub, idx, "BEST_TEAM_FIRST")

    def test_single_team(self):
        w = WeightVector(np.array([1.0]), VectorKind.HUB)
        from hitsrank import TeamIndex

        t = rank_hub(w, TeamIndex(("Solo",)))
        assert t.rows == (RankRow(1, "Solo", 1.0),)


def random_scores(rng: np.random.Generator, n: int, levels: int) -> dict[str, float]:
    """Scores of teams T0..T{n-1}, drawn from ``levels`` integers; one level ties every team."""
    return {f"T{i}": float(rng.integers(0, levels)) for i in range(n)}


def large_score_pairs(rng: np.random.Generator, n: int) -> list[tuple[dict[str, float], dict[str, float]]]:
    """Pairs of score dicts over n teams: nearly distinct, heavily tied, one side all tied, reversed; then one team."""
    pairs = [(random_scores(rng, n, a), random_scores(rng, n, b)) for a, b in ((n, n), (7, 3), (2, n), (1, n))]
    distinct = random_scores(rng, n, n * n)
    pairs.append((distinct, {team: -score for team, score in distinct.items()}))
    pairs.append(({"T0": 1.0}, {"T0": 2.0}))
    return pairs


def tau_and_ranks(sa: dict[str, float], sb: dict[str, float]) -> tuple[float, list[int], list[int]]:
    """compare_rankings' tau-b of the two score tables, then each table's ranks in team-name order."""
    a = table_from_scores(sa, Ordering.DESC_SCORE)
    b = table_from_scores(sb, Ordering.DESC_SCORE)
    order = sorted(sa)
    return compare_rankings(a, b).kendall_tau, [a.rank_of(t) for t in order], [b.rank_of(t) for t in order]


def record_loop_points(
    records: list[MatchRecord], win_points: float, draw_points: float
) -> dict[str, float]:
    """Points per team, counted one record at a time (reference oracle)."""
    wins: dict[str, int] = {}
    draws: dict[str, int] = {}
    for rec in records:
        for name in (rec.team_a, rec.team_b):
            wins.setdefault(name, 0)
            draws.setdefault(name, 0)
        if rec.outcome is Outcome.A_WINS:
            wins[rec.team_a] += 1
        elif rec.outcome is Outcome.B_WINS:
            wins[rec.team_b] += 1
        else:
            draws[rec.team_a] += 1
            draws[rec.team_b] += 1
    return {name: win_points * wins[name] + draw_points * draws[name] for name in wins}


class TestPointsTable:
    def test_mini_league(self):
        t = points_table(mini_matches())
        assert [(r.rank, r.team, r.score) for r in t.rows] == [
            (1, "A", 6.0),
            (1, "D", 6.0),
            (3, "B", 3.0),
            (3, "C", 3.0),
        ]
        assert t.kind is TableKind.POINTS

    def test_empty(self):
        t = points_table([])
        assert t.rows == ()

    def test_single_draw(self):
        t = points_table([MatchRecord("B", "A", Outcome.DRAW)])
        assert [(r.rank, r.team, r.score) for r in t.rows] == [(1, "A", 1.0), (1, "B", 1.0)]

    def test_custom_points(self):
        records = [
            MatchRecord("A", "B", Outcome.A_WINS),
            MatchRecord("A", "C", Outcome.DRAW),
        ]
        t = points_table(records, win_points=2.0, draw_points=0.5)
        assert t.rank_of("A") == 1
        scores = {r.team: r.score for r in t.rows}
        assert scores == {"A": 2.5, "B": 0.0, "C": 0.5}

    def test_invalid_points_rejected(self):
        with pytest.raises(ValueError):
            points_table([], win_points=float("nan"))

    def test_bit_identical_to_record_loop(self):
        rng = np.random.default_rng(73)
        for _ in range(1000):
            # five teams give 20 ordered pairs, so longer lists repeat fixtures
            records = random_matches(rng, max_teams=5, max_matches=40)
            for win_points, draw_points in [(3.0, 1.0), (0.1, 0.7), (1 / 3, 0.2)]:
                t = points_table(records, win_points=win_points, draw_points=draw_points)
                scores = record_loop_points(records, win_points, draw_points)
                assert t.rows == table_from_scores(scores, Ordering.DESC_SCORE).rows

    def test_order_invariant_under_point_rescale(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            records = random_matches(rng)
            a = points_table(records, win_points=3.0, draw_points=1.0)
            b = points_table(records, win_points=6.0, draw_points=2.0)
            assert [r.team for r in a.rows] == [r.team for r in b.rows]
            assert [r.rank for r in a.rows] == [r.rank for r in b.rows]

    def test_scores_match_adjacency_column_sums(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            records = random_matches(rng)
            t = points_table(records)
            m = build_adjacency(records)
            sums = m.w.sum(axis=0)
            for row in t.rows:
                assert row.score == sums[m.index.index_of(row.team)]


class TestCompareRankings:
    def test_identical_tables(self):
        t = points_table(mini_matches())
        report = compare_rankings(t, t)
        assert all(row.displacement == 0 for row in report.rows)
        assert report.kendall_tau == pytest.approx(1.0)

    def test_full_reversal(self):
        scores = {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0}
        a = table_from_scores(scores, Ordering.DESC_SCORE)
        b = table_from_scores(scores, Ordering.ASC_SCORE)
        report = compare_rankings(a, b)
        assert report.kendall_tau == pytest.approx(-1.0)
        by_team = {row.team: row for row in report.rows}
        assert by_team["A"].displacement == 3
        assert by_team["D"].displacement == -3

    def test_displacement_sign(self):
        # first in a, third in b: moved down two places, displacement +2
        a = table_from_scores({"X": 3.0, "Y": 2.0, "Z": 1.0}, Ordering.DESC_SCORE)
        b = table_from_scores({"X": 1.0, "Y": 3.0, "Z": 2.0}, Ordering.DESC_SCORE)
        report = compare_rankings(a, b)
        by_team = {row.team: row for row in report.rows}
        assert by_team["X"].rank_a == 1
        assert by_team["X"].rank_b == 3
        assert by_team["X"].displacement == 2

    def test_rows_sorted_by_first_table_rank(self):
        a = table_from_scores({"P": 1.0, "Q": 2.0, "R": 3.0}, Ordering.DESC_SCORE)
        b = table_from_scores({"P": 9.0, "Q": 1.0, "R": 5.0}, Ordering.DESC_SCORE)
        report = compare_rankings(a, b)
        assert [row.team for row in report.rows] == ["R", "Q", "P"]

    def test_team_set_mismatch_rejected(self):
        a = table_from_scores({"A": 1.0, "B": 2.0}, Ordering.DESC_SCORE)
        b = table_from_scores({"A": 1.0, "C": 2.0}, Ordering.DESC_SCORE)
        with pytest.raises(ValueError):
            compare_rankings(a, b)

    def test_single_team_tau_is_nan(self):
        a = table_from_scores({"A": 1.0}, Ordering.DESC_SCORE)
        report = compare_rankings(a, a)
        assert math.isnan(report.kendall_tau)

    def test_tau_matches_pair_count_reference(self):
        rng = np.random.default_rng(57)
        # small integer scores so ties are common
        cases = []
        for _ in range(60):
            n = int(rng.integers(2, 9))
            cases.append((random_scores(rng, n, 4), random_scores(rng, n, 4)))
        # hundreds of teams: nearly all distinct, heavily tied, one side all tied, reversed; then one team
        cases += large_score_pairs(rng, 300)
        for sa, sb in cases:
            tau, ranks_a, ranks_b = tau_and_ranks(sa, sb)
            expected = tau_b_reference(ranks_a, ranks_b)
            if math.isnan(expected):
                assert math.isnan(tau)
            else:
                assert tau == pytest.approx(expected, abs=1e-12)

    def test_tau_is_bit_identical_to_scipy(self):
        # compare prints repr(tau) in csv and json, so the last bit matters
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(91)
        cases = []
        for _ in range(300):
            n = int(rng.integers(2, 40))
            levels = int(rng.integers(1, n + 1))
            cases.append((random_scores(rng, n, levels), random_scores(rng, n, n)))
        # far past the sizes the pair count above can check
        cases += large_score_pairs(rng, 5000)
        for sa, sb in cases:
            tau, ranks_a, ranks_b = tau_and_ranks(sa, sb)
            with warnings.catch_warnings():
                # scipy warns that one team is too small a sample, and returns NaN
                warnings.simplefilter("ignore")
                expected = float(stats.kendalltau(ranks_a, ranks_b).statistic)
            if math.isnan(expected):
                assert math.isnan(tau)
            else:
                assert repr(tau) == repr(expected)
