"""Adjacency construction, transposition and named-matrix ingestion."""

import copy
import math
import pickle
import random

from typing import Callable

import numpy as np
import pytest
from conftest import FOUR_TEAM, MINI_MATRIX, mini_matches, random_matches

from hitsrank import (
    AdjacencyMatrix,
    ComparisonReport,
    ComparisonRow,
    HitsResult,
    MatchRecord,
    Ordering,
    Outcome,
    RankRow,
    RankTable,
    SolverConfig,
    TableFormat,
    TableKind,
    TeamIndex,
    VectorKind,
    WeightVector,
    build_adjacency,
    emit_table,
    from_named_matrix,
    hits,
    parse_matrix,
    points_table,
    sort_teams,
    transpose,
)
from hitsrank.graph import _encode
from hitsrank.hits import DegenerateGraphError, _solve


class TestMatchRecord:
    def test_names_are_trimmed(self):
        rec = MatchRecord("  Leeds ", "\tYork", Outcome.DRAW)
        assert rec.team_a == "Leeds"
        assert rec.team_b == "York"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MatchRecord("", "York", Outcome.DRAW)
        with pytest.raises(ValueError):
            MatchRecord("Leeds", "   ", Outcome.DRAW)

    def test_team_cannot_play_itself(self):
        with pytest.raises(ValueError):
            MatchRecord("Leeds", "Leeds", Outcome.A_WINS)
        # names that trim to the same string are still self play
        with pytest.raises(ValueError):
            MatchRecord("Leeds", " Leeds ", Outcome.A_WINS)

    def test_outcome_must_be_enum(self):
        with pytest.raises(TypeError):
            MatchRecord("Leeds", "York", "H")

    def test_line_break_in_name_rejected(self):
        with pytest.raises(ValueError, match="line break"):
            MatchRecord("A\rB", "C", Outcome.DRAW)
        # surrounding line breaks are trimmed like any other whitespace
        assert MatchRecord("A\n", "\rC", Outcome.DRAW).team_a == "A"


class TestTeamIndex:
    def test_round_trip(self):
        idx = TeamIndex(("A", "B", "C"))
        assert len(idx) == 3
        for i, name in enumerate(("A", "B", "C")):
            assert idx.index_of(name) == i
            assert idx.name_at(i) == name
        assert "B" in idx
        assert "Z" not in idx

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TeamIndex(("A", "B", "A"))

    def test_line_break_in_name_rejected(self):
        # no emitter can write such a name as one record
        with pytest.raises(ValueError, match="line break"):
            TeamIndex(("A\nB",))
        with pytest.raises(ValueError, match="line break"):
            from_named_matrix(["A\nB", "C"], [[0, 1], [2, 0]])

    def test_nul_in_name_rejected(self):
        # Python 3.10's csv cannot read such a name back
        with pytest.raises(ValueError, match=r"^team names must not hold a NUL character, got 'A\\x00'$"):
            TeamIndex(("A\0",))
        with pytest.raises(ValueError, match="NUL"):
            from_named_matrix(["A\0", "C"], [[0, 1], [2, 0]])
        with pytest.raises(ValueError, match="NUL"):
            MatchRecord("A\0", "C", Outcome.DRAW)
        with pytest.raises(ValueError, match="NUL"):
            MatchRecord("C", "A\0", Outcome.DRAW)

    def test_unknown_name(self):
        idx = TeamIndex(("A", "B"))
        with pytest.raises(KeyError):
            idx.index_of("Z")


class TestAdjacencyMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix(TeamIndex(("A", "B")), np.zeros((2, 3)))

    def test_rejects_size_mismatch_with_index(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix(TeamIndex(("A", "B", "C")), np.zeros((2, 2)))

    def test_rejects_negative_entries(self):
        w = np.array([[0.0, -1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            AdjacencyMatrix(TeamIndex(("A", "B")), w)

    def test_rejects_nonzero_diagonal(self):
        w = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            AdjacencyMatrix(TeamIndex(("A", "B")), w)

    def test_rejects_non_finite(self):
        w = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError):
            AdjacencyMatrix(TeamIndex(("A", "B")), w)

    def test_weights_are_read_only(self):
        m = AdjacencyMatrix(TeamIndex(("A", "B")), np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            m.w[0, 1] = 5.0

    def test_empty_matrix_is_valid(self):
        m = AdjacencyMatrix(TeamIndex(()), np.zeros((0, 0)))
        assert m.n == 0

    def test_constructor_copies_and_leaves_the_callers_array_alone(self):
        w = np.array([[0.0, 1.0], [0.0, 0.0]])
        m = AdjacencyMatrix(TeamIndex(("A", "B")), w)
        assert w.flags.writeable and not np.shares_memory(m.w, w)
        w[0, 1] = 5.0
        assert m.w[0, 1] == 1.0

    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_int_too_large_for_a_float_reads_as_inf(self, big):
        # as the number rule reads it, so the finite rule refuses it
        sign = "-" if big < 0 else ""
        with pytest.raises(ValueError, match=f"^matrix entries must be finite, got {sign}inf$"):
            AdjacencyMatrix(TeamIndex(("A", "B")), [[0, big], [0, 0]])
        with pytest.raises(ValueError, match=f"^matrix entries must be finite, got {sign}inf$"):
            from_named_matrix(["A", "B"], [(0, 0), ("0", big)])
        with pytest.raises(ValueError, match="^matrix values must be numeric: "):  # numpy reads an object array
            from_named_matrix(["A", "B"], np.array([[0, big], [0, 0]], dtype=object))

    @pytest.mark.parametrize(
        "build, arrays",
        [
            (lambda: from_named_matrix(["A", "B"], [[0, 3], [-0.0, 0]]), lambda m: [m.w]),
            (lambda: WeightVector([0.6, 0.8], VectorKind.HUB), lambda v: [v.values]),
            (lambda: hits(from_named_matrix(["A", "B"], [[0, 3], [1, 0]])), lambda r: [r.authority.values, r.hub.values]),
        ],
        ids=["AdjacencyMatrix", "WeightVector", "HitsResult"],
    )
    def test_w_is_one_read_only_array_that_copies_rebuild(self, build, arrays):
        value = build()
        for a, again in zip(arrays(value), arrays(value)):
            assert a is again and not a.flags.writeable and a.dtype == np.float64
        for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert other is not value and other != value and repr(other) == repr(value)
            for a, b in zip(arrays(other), arrays(value)):
                assert a.tobytes() == b.tobytes() and not a.flags.writeable

    def test_built_matrices_are_read_only(self):
        m = build_adjacency(mini_matches())
        for built in (m, sort_teams(m), parse_matrix("A,B\nA,0,1\nB,2,0\n")):
            with pytest.raises(ValueError):
                built.w[0, 1] = 5.0


# the entries the pool draws, -0.0 and both ends of the float range among them
POOL_VALUES = [0.0, -0.0, 1.0, 3.0, 0.1, 1 / 3, 5e-324, 1e-300, 2.0**53 + 2, 1.797e308]
# the values each float64 reading of an entry kind keeps exactly: whole numbers for
# the integer kinds, float16 values for the float16 and float32 kinds
SMALL_VALUES = [0.0, -0.0, 1.0, 3.0, 0.5, 0.25]
WHOLE_VALUES = [0, 1, 3, 6, 2**53 + 2]
# entry kinds: a function of (value, rnd) giving the entry a list row holds
ENTRY_KINDS = {
    "float": (POOL_VALUES, lambda v, rnd: v),
    "int": (WHOLE_VALUES, lambda v, rnd: v),
    "bool": ([0, 1], lambda v, rnd: bool(v)),
    "numpy scalar": (SMALL_VALUES, lambda v, rnd: rnd.choice([np.float64, np.float32, np.float16])(v)),
    "numpy integer": (WHOLE_VALUES, lambda v, rnd: rnd.choice([np.int64, np.uint64])(v)),
    "numeric string": (
        SMALL_VALUES + [10.0],
        lambda v, rnd: "1_0" if v == 10.0 else rnd.choice([repr, lambda x: f" {x} ", lambda x: f"{x:e}"])(v),
    ),
}
ARRAY_DTYPES = {np.float64: POOL_VALUES, np.float32: SMALL_VALUES, np.float16: SMALL_VALUES,
                np.int64: WHOLE_VALUES, np.uint64: WHOLE_VALUES, np.bool_: [0, 1]}
BREAKS = ["negative", "diagonal", "nan", "inf", "short", "narrow", "long", "ragged", "text", "none", "nested"]


def pool_case(rnd: random.Random) -> tuple[int, object]:
    """(n, w) of one pool case: n teams, 0 to 64, and a matrix of one input kind, 3 in 5 of the lists broken."""
    n = rnd.randint(0, 64) if rnd.random() < 0.8 else rnd.randint(0, 3)
    kind = rnd.choice([*ENTRY_KINDS, *ARRAY_DTYPES])
    values, entry = ENTRY_KINDS.get(kind, (ARRAY_DTYPES.get(kind), lambda v, rnd: v))
    density = rnd.random()
    rows = [
        [rnd.choice([0, -0.0]) if i == j else rnd.choice(values) if rnd.random() < density else 0 for j in range(n)]
        for i in range(n)
    ]
    if kind in ARRAY_DTYPES:
        w = np.array(rows, dtype=kind).reshape(n, n)
        return n, [list(row) for row in w] if rnd.random() < 0.1 else w  # rows of numpy scalars, or the array
    rows = [[entry(v, rnd) for v in row] for row in rows]
    if n and rnd.random() < 0.6:
        i, j = rnd.randrange(n), rnd.randrange(n)
        problem = rnd.choice(BREAKS)
        if problem == "short":
            rows.pop()
        elif problem == "narrow":
            rows = [row[:-1] for row in rows]
        elif problem == "long":
            rows.append([0.0] * n)
        elif problem == "ragged":
            rows[i].pop()
        else:
            bad = {"negative": -1.0, "diagonal": 1.0, "nan": math.nan, "inf": math.inf, "text": "x", "none": None}
            rows[i][i if problem == "diagonal" else j] = bad.get(problem, [1.0])
    if rnd.random() < 0.5:
        return n, tuple(map(tuple, rows))
    return n, rows if n or rnd.random() < 0.5 else [[]]


def numpy_reading(w: object, n: int) -> np.ndarray | None:
    """The constructor's matrix as ``np.array(w, dtype=np.float64)`` reads it, or None if the matrix rules refuse it."""
    try:
        a = np.array(w, dtype=np.float64)
    except (TypeError, ValueError):
        return None
    if n == 0 and a.size == 0:
        a = a.reshape(0, 0)
    if a.shape != (n, n) or not np.isfinite(a).all() or (a < 0).any() or np.diagonal(a).any():
        return None
    return a


def solved(solve: Callable[[], object]) -> object:
    """The bits of a solve's weights, or the class of the exception it raised."""
    try:
        s = solve()
    except DegenerateGraphError as exc:
        return type(exc)
    weights = [[x.hex() for x in v.values.tolist()] for v in (s.authority, s.hub)]
    return weights, s.iterations, s.converged, s.stalled


def test_constructor_reads_matrices_as_numpy_does():
    # lists of numbers are read without numpy: each accepted matrix keeps
    # np.array's bits and solves as the command solves its own rows, and
    # each refused one is a ValueError
    rnd = random.Random(2601)
    cfg = SolverConfig(max_iterations=52)  # past the sweep that may hand over to the dense eigensolve
    seen = {"accepted": 0, "refused": 0}
    for case in range(1000):
        n, w = pool_case(rnd)
        index = TeamIndex(tuple(f"t{i}" for i in range(n)))
        expected = numpy_reading(w, n)
        if expected is None:
            with pytest.raises(ValueError):
                AdjacencyMatrix(index, w)
            seen["refused"] += 1
            continue
        m = AdjacencyMatrix(index, w)
        assert m.w.tobytes() == expected.tobytes(), case
        assert solved(lambda: hits(m, cfg)) == solved(lambda: _solve(expected.tolist(), cfg)), case
        seen["accepted"] += 1
    assert min(seen.values()) > 250


def record_loop_adjacency(
    records: list[MatchRecord], win_weight: float, draw_weight: float
) -> tuple[tuple[str, ...], np.ndarray]:
    """Team names and weights, accumulated one record at a time (reference oracle)."""
    pos: dict[str, int] = {}
    for rec in records:
        for name in (rec.team_a, rec.team_b):
            pos.setdefault(name, len(pos))
    w = np.zeros((len(pos), len(pos)))
    for rec in records:
        ia, ib = pos[rec.team_a], pos[rec.team_b]
        if rec.outcome is Outcome.A_WINS:
            w[ib, ia] += win_weight
        elif rec.outcome is Outcome.B_WINS:
            w[ia, ib] += win_weight
        else:
            w[ia, ib] += draw_weight
            w[ib, ia] += draw_weight
    return tuple(pos), w


class TestBuildAdjacency:
    def test_mini_league_matrix(self):
        m = build_adjacency(mini_matches())
        assert m.index.names == ("A", "B", "C", "D")
        assert np.array_equal(m.w, MINI_MATRIX)

    def test_teams_indexed_in_first_appearance_order(self):
        records = [
            MatchRecord("Zebra", "Quail", Outcome.DRAW),
            MatchRecord("Ant", "Zebra", Outcome.A_WINS),
        ]
        m = build_adjacency(records)
        assert m.index.names == ("Zebra", "Quail", "Ant")

    def test_empty_match_list(self):
        m = build_adjacency([])
        assert m.n == 0
        assert m.index.names == ()
        assert m.w.shape == (0, 0)
        assert m.w.dtype == np.float64

    def test_single_draw(self):
        m = build_adjacency([MatchRecord("A", "B", Outcome.DRAW)])
        assert np.array_equal(m.w, [[0.0, 1.0], [1.0, 0.0]])

    def test_win_points_flow_from_loser_to_winner(self):
        m = build_adjacency([MatchRecord("A", "B", Outcome.B_WINS)])
        # row A (loser) to column B (winner)
        assert m.w[0, 1] == 3.0
        assert m.w[1, 0] == 0.0

    def test_repeated_fixture_accumulates(self):
        records = [
            MatchRecord("X", "Y", Outcome.A_WINS),
            MatchRecord("Y", "X", Outcome.B_WINS),
        ]
        m = build_adjacency(records)
        # X won both times, so Y's row sends 6 to X's column
        assert m.w[m.index.index_of("Y"), m.index.index_of("X")] == 6.0

    def test_bit_identical_to_record_loop(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            # five teams give 20 ordered pairs, so longer lists repeat fixtures
            records = random_matches(rng, max_teams=5, max_matches=40)
            for win_weight, draw_weight in [(3.0, 1.0), (0.1, 0.7), (1 / 3, 0.2)]:
                m = build_adjacency(records, win_weight=win_weight, draw_weight=draw_weight)
                names, w = record_loop_adjacency(records, win_weight, draw_weight)
                assert m.index.names == names
                assert m.w.tobytes() == w.tobytes()

    def test_custom_weights(self):
        records = [
            MatchRecord("A", "B", Outcome.A_WINS),
            MatchRecord("A", "C", Outcome.DRAW),
        ]
        m = build_adjacency(records, win_weight=2.0, draw_weight=0.5)
        assert m.w[1, 0] == 2.0
        assert m.w[0, 2] == 0.5
        assert m.w[2, 0] == 0.5

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            build_adjacency([], win_weight=-3.0)
        with pytest.raises(ValueError):
            build_adjacency([], draw_weight=-1.0)

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError):
            build_adjacency([], win_weight=float("inf"))

    def test_sum_past_the_float_range_rejected(self):
        twice = [MatchRecord("A", "B", Outcome.B_WINS)] * 2
        with pytest.raises(ValueError, match="^matrix entries must be finite, got inf$"):
            build_adjacency(twice, win_weight=1e308)
        assert build_adjacency(twice[:1], win_weight=1e308).w[0, 1] == 1e308
        # cells that are finite but whose row sums past the float range build: B lost to A and to C
        losses = [MatchRecord("A", "B", Outcome.A_WINS), MatchRecord("C", "B", Outcome.A_WINS)]
        assert build_adjacency(losses, win_weight=1e308).w[1].tolist() == [1e308, 0.0, 1e308]

    def test_non_record_rejected(self):
        for total in (build_adjacency, points_table):
            with pytest.raises(TypeError, match="^expected MatchRecord, got tuple$"):
                total([MatchRecord("A", "B", Outcome.DRAW), ("A", "B", "H")])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([("A", "B", "H"), ("A", "B")], "match 2: expected 3 fields, got 2"),
            ([("A", "B", " h ")], "match 1: unknown outcome 'h', expected H, A or D"),
            ([("A", "B", "D"), (" ", "B", "A")], "match 2: team names must be non-empty after trimming"),
            ([(" A", "A ", "D")], "match 1: a team cannot play itself: 'A'"),
        ],
    )
    def test_encoder_refuses_a_broken_row_by_its_number(self, rows, message):
        # records never reach these refusals; match-list text maps them to a line
        with pytest.raises(ValueError, match=f"^{message}$"):
            _encode(rows)

    def test_all_draws_gives_symmetric_matrix(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            records = [
                MatchRecord(a, b, Outcome.DRAW)
                for a, b in zip(rng.permutation(list("ABCDEF")), rng.permutation(list("UVWXYZ")))
            ]
            m = build_adjacency(records)
            assert np.array_equal(m.w, m.w.T)

    def test_column_sums_equal_points(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            records = random_matches(rng)
            m = build_adjacency(records)
            wins = {name: 0 for name in m.index.names}
            draws = {name: 0 for name in m.index.names}
            for rec in records:
                if rec.outcome is Outcome.A_WINS:
                    wins[rec.team_a] += 1
                elif rec.outcome is Outcome.B_WINS:
                    wins[rec.team_b] += 1
                else:
                    draws[rec.team_a] += 1
                    draws[rec.team_b] += 1
            sums = m.w.sum(axis=0)
            for j, name in enumerate(m.index.names):
                assert sums[j] == 3.0 * wins[name] + 1.0 * draws[name]

    def test_match_order_does_not_change_cells(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            records = random_matches(rng)
            if not records:
                continue
            shuffled = [records[i] for i in rng.permutation(len(records))]
            m1 = build_adjacency(records)
            m2 = build_adjacency(shuffled)
            for a in m1.index.names:
                for b in m1.index.names:
                    cell1 = m1.w[m1.index.index_of(a), m1.index.index_of(b)]
                    cell2 = m2.w[m2.index.index_of(a), m2.index.index_of(b)]
                    assert cell1 == cell2


class TestTranspose:
    def test_four_node_example(self):
        m = AdjacencyMatrix(TeamIndex(("n1", "n2", "n3", "n4")), FOUR_TEAM.copy())
        t = transpose(m)
        assert np.array_equal(t.w, FOUR_TEAM.T)
        assert t.index is m.index

    def test_involution(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            records = random_matches(rng)
            m = build_adjacency(records)
            assert np.array_equal(transpose(transpose(m)).w, m.w)

    def test_symmetric_matrix_unchanged(self):
        m = build_adjacency([MatchRecord("A", "B", Outcome.DRAW)])
        assert np.array_equal(transpose(m).w, m.w)

    def test_empty(self):
        m = build_adjacency([])
        assert transpose(m).n == 0


class TestFromNamedMatrix:
    def test_single_team(self):
        m = from_named_matrix(["Solo"], [[0.0]])
        assert m.n == 1
        assert m.index.names == ("Solo",)

    def test_values_used_verbatim(self):
        values = [[0.0, 2.5], [7.0, 0.0]]
        m = from_named_matrix(["A", "B"], values)
        assert np.array_equal(m.w, values)

    def test_names_trimmed(self):
        m = from_named_matrix([" A ", "B"], [[0, 1], [1, 0]])
        assert m.index.names == ("A", "B")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            from_named_matrix(["A", "B"], [[0.0, 1.0]])
        with pytest.raises(ValueError):
            from_named_matrix(["A", "B"], [[0.0], [0.0]])

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            from_named_matrix(["A", "A"], [[0, 0], [0, 0]])

    def test_empty_name(self):
        with pytest.raises(ValueError):
            from_named_matrix(["A", "  "], [[0, 0], [0, 0]])

    def test_non_numeric_values(self):
        with pytest.raises(ValueError):
            from_named_matrix(["A", "B"], [[0, "x"], [0, 0]])

    def test_negative_entry(self):
        with pytest.raises(ValueError):
            from_named_matrix(["A", "B"], [[0, -1], [0, 0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            from_named_matrix(["A", "B"], [[1, 0], [0, 0]])


class TestSortTeams:
    def test_alphabetical_reorder_preserves_cells(self):
        records = [
            MatchRecord("Delta", "Bravo", Outcome.A_WINS),
            MatchRecord("Alpha", "Delta", Outcome.DRAW),
            MatchRecord("Charlie", "Alpha", Outcome.B_WINS),
        ]
        m = build_adjacency(records)
        s = sort_teams(m)
        assert s.index.names == ("Alpha", "Bravo", "Charlie", "Delta")
        for a in m.index.names:
            for b in m.index.names:
                orig = m.w[m.index.index_of(a), m.index.index_of(b)]
                new = s.w[s.index.index_of(a), s.index.index_of(b)]
                assert orig == new

    def test_already_sorted_is_identity(self):
        m = build_adjacency(mini_matches())
        assert np.array_equal(sort_teams(m).w, m.w)

    def test_empty(self):
        assert sort_teams(build_adjacency([])).n == 0

    def test_single_team(self):
        s = sort_teams(AdjacencyMatrix(TeamIndex(("A",)), [[0.0]]))
        assert s.index.names == ("A",) and s.w.tolist() == [[0.0]]

    def test_same_as_fancy_indexing(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = build_adjacency(random_matches(rng), win_weight=0.1, draw_weight=1 / 3)
            order = np.argsort(m.index.names)
            s = sort_teams(m)
            assert s.index.names == tuple(sorted(m.index.names))
            assert s.w.tobytes() == m.w[np.ix_(order, order)].tobytes()


WIN = MatchRecord("A", "B", Outcome.A_WINS)
DRAW = MatchRecord("A", "B", Outcome.DRAW)
ONE_ROW = RankTable((RankRow(1, "A", 1.0),), Ordering.DESC_SCORE, None)


def score_of(table: RankTable, team: str) -> float:
    return {row.team: row.score for row in table.rows}[team]


def decimals_shown(decimals: object) -> int:
    """Digits after the point of ONE_ROW's score in CSV."""
    return len(emit_table(ONE_ROW, TableFormat.CSV, decimals=decimals).split(",")[-1].strip().partition(".")[2])


# the number rule (graph._checked) as each scalar parameter applies it:
# the value each call reads back, or the exception class it raises
NUMBERS = {
    "0": 0, "-0.0": -0.0, "1e-300": 1e-300, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "True": True, "2.5": 2.5, "-1": -1, "10**400": 10**400, "int64": np.int64(5),
    "float32": np.float32(1e-6), "str": "3",
}
OK, V, T = "ok", ValueError, TypeError
NUMBER_RULE = {
    "tolerance": (
        lambda v: SolverConfig(tolerance=v).tolerance,
        [V, V, OK, V, V, V, T, OK, V, V, OK, OK, T],
    ),
    "max_iterations": (
        lambda v: SolverConfig(max_iterations=v).max_iterations,
        [V, T, T, T, T, T, T, T, V, V, OK, T, T],
    ),
    "win_weight": (
        lambda v: build_adjacency([WIN], win_weight=v).w[1, 0],
        [OK, OK, OK, V, V, V, T, OK, V, V, OK, OK, T],
    ),
    "draw_weight": (
        lambda v: build_adjacency([DRAW], draw_weight=v).w[0, 1],
        [OK, OK, OK, V, V, V, T, OK, V, V, OK, OK, T],
    ),
    "win_points": (
        lambda v: score_of(points_table([WIN], win_points=v), "A"),
        [OK, OK, OK, V, V, V, T, OK, OK, V, OK, OK, T],
    ),
    "draw_points": (
        lambda v: score_of(points_table([DRAW], draw_points=v), "A"),
        [OK, OK, OK, V, V, V, T, OK, OK, V, OK, OK, T],
    ),
    # emitters raise ValueError for every bad value
    "decimals": (decimals_shown, [OK, V, V, V, V, V, V, V, V, V, OK, V, V]),
}
NUMBER_CASES = [
    pytest.param(call, value, outcome, id=f"{name}={label}")
    for name, (call, outcomes) in NUMBER_RULE.items()
    for (label, value), outcome in zip(NUMBERS.items(), outcomes, strict=True)
]


class TestNumberRule:
    @pytest.mark.parametrize("call, value, outcome", NUMBER_CASES)
    def test_case_table(self, call, value, outcome):
        if outcome is OK:
            assert call(value) == float(value)
        else:
            with pytest.raises(outcome):
                call(value)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        cfg = SolverConfig(tolerance=np.float32(1e-6), max_iterations=np.int64(5))
        assert type(cfg.tolerance) is float and cfg.tolerance == float(np.float32(1e-6))
        assert type(cfg.max_iterations) is int and cfg.max_iterations == 5

    @pytest.mark.parametrize("big", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"])
    def test_int_too_large_for_a_float_is_a_value_error(self, big):
        with pytest.raises(ValueError, match="tolerance must be finite and > 0, got -?inf"):
            SolverConfig(tolerance=big)
        with pytest.raises(ValueError, match="max_iterations must be finite and >= 1, got -?inf"):
            SolverConfig(max_iterations=big)


def hits_result(**stalled: bool) -> HitsResult:
    authority, hub = WeightVector([0.6, 0.8], VectorKind.AUTHORITY), WeightVector([1.0, 0.0], VectorKind.HUB)
    eigenvalues = {"authority_eigenvalue": 4.0, "hub_eigenvalue": 4.0}
    return HitsResult(authority=authority, hub=hub, **eigenvalues, iterations=3, converged=True, **stalled)


# The public value classes, once frozen dataclasses: a build by keyword with the
# dataclass's field names (or its defaults), the repr the dataclass printed, the
# field names, a second build of the same value, and a build of another value,
# None for the array holders, which equal only themselves.
VALUE_CLASSES = [
    pytest.param(
        lambda: MatchRecord(team_a="Arsenal", team_b="Chelsea", outcome=Outcome.A_WINS),
        "MatchRecord(team_a='Arsenal', team_b='Chelsea', outcome=<Outcome.A_WINS: 'A_WINS'>)",
        "team_a team_b outcome",
        lambda: MatchRecord(" Arsenal", "Chelsea ", Outcome.A_WINS),
        lambda: MatchRecord("Arsenal", "Chelsea", Outcome.DRAW),
        id="MatchRecord",
    ),
    pytest.param(
        lambda: TeamIndex(names=("Arsenal", "Chelsea")),
        "TeamIndex(names=('Arsenal', 'Chelsea'))",
        "names",
        lambda: TeamIndex(["Arsenal", "Chelsea"]),
        lambda: TeamIndex(("Chelsea", "Arsenal")),
        id="TeamIndex",
    ),
    pytest.param(
        lambda: AdjacencyMatrix(index=TeamIndex(("A", "B")), w=[[0, 3], [1, 0]]),
        "AdjacencyMatrix(index=TeamIndex(names=('A', 'B')), w=array([[0., 3.],\n       [1., 0.]]))",
        "index w",
        lambda: AdjacencyMatrix(TeamIndex(("A", "B")), [[0, 3], [1, 0]]),
        None,
        id="AdjacencyMatrix",
    ),
    pytest.param(
        lambda: RankTable(rows=(RankRow(1, "A", 3.0),), ordering=Ordering.DESC_SCORE, kind=None),
        "RankTable(rows=(RankRow(rank=1, team='A', score=3.0),), "
        "ordering=<Ordering.DESC_SCORE: 'DESC_SCORE'>, kind=None)",
        "rows ordering kind",
        lambda: RankTable([(np.int64(1), "A", 3)], Ordering.DESC_SCORE, None),
        lambda: RankTable((RankRow(1, "A", 3.0),), Ordering.DESC_SCORE, TableKind.POINTS),
        id="RankTable",
    ),
    pytest.param(
        lambda: ComparisonReport(rows=(ComparisonRow("A", 1, 2, 1),), kendall_tau=-1.0),
        "ComparisonReport(rows=(ComparisonRow(team='A', rank_a=1, rank_b=2, displacement=1),), kendall_tau=-1.0)",
        "rows kendall_tau",
        lambda: ComparisonReport((ComparisonRow("A", 1, 2, 1),), -1.0),
        lambda: ComparisonReport((ComparisonRow("A", 1, 2, 1),), 1.0),
        id="ComparisonReport",
    ),
    pytest.param(
        SolverConfig,
        "SolverConfig(tolerance=1e-12, max_iterations=10000)",
        "tolerance max_iterations",
        lambda: SolverConfig(tolerance=1e-12, max_iterations=10000),
        lambda: SolverConfig(max_iterations=5),
        id="SolverConfig",
    ),
    pytest.param(
        lambda: WeightVector(values=[0.6, 0.8], kind=VectorKind.HUB),
        "WeightVector(values=array([0.6, 0.8]), kind=<VectorKind.HUB: 'HUB'>)",
        "values kind",
        lambda: WeightVector([0.6, 0.8], VectorKind.HUB),
        None,
        id="WeightVector",
    ),
    pytest.param(
        hits_result,
        "HitsResult(authority=WeightVector(values=array([0.6, 0.8]), kind=<VectorKind.AUTHORITY: 'AUTHORITY'>), "
        "hub=WeightVector(values=array([1., 0.]), kind=<VectorKind.HUB: 'HUB'>), "
        "authority_eigenvalue=4.0, hub_eigenvalue=4.0, iterations=3, converged=True, stalled=False)",
        "authority hub authority_eigenvalue hub_eigenvalue iterations converged stalled",
        lambda: hits_result(stalled=False),
        None,
        id="HitsResult",
    ),
]


@pytest.mark.parametrize("build, text, fields, same, other", VALUE_CLASSES)
def test_value_classes_keep_the_dataclass_contract(build, text, fields, same, other):
    value = build()
    assert repr(value) == text
    assert value == value and value.__eq__(object()) is NotImplemented
    if other is None:  # an array holder compares and hashes by identity
        assert value != same() and hash(value) == object.__hash__(value)
    else:  # by its fields alone: TeamIndex's lookup and RankTable's are no field
        assert value == same() and hash(value) == hash(same())
        assert value != other() and value != tuple(getattr(value, name) for name in fields.split())
    for name in [*fields.split(), "extra"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
    for name in fields.split():
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert repr(value) == text
