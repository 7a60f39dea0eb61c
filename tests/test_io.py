"""Parsers and emitters: match lists, adjacency matrices, rank tables."""

import csv
import json
import math
import random
import re
from typing import Callable, Iterator

import numpy as np
import pytest
from conftest import DATA_DIR, awkward_names, match_list_text, mini_matches, mutate, random_matches

from hitsrank import (
    AdjacencyMatrix,
    MatchRecord,
    Ordering,
    Outcome,
    ParseError,
    RankRow,
    RankTable,
    TableFormat,
    TableKind,
    build_adjacency,
    compare_rankings,
    emit_comparison,
    emit_matrix,
    emit_table,
    parse_matches,
    parse_matrix,
    parse_table,
    points_table,
    TeamIndex,
    table_object,
)
from hitsrank.cli import EXIT_PARSE, main
from hitsrank.graph import _OUTCOMES, _bad_entry
from hitsrank.io import _BATCH, _BATCH_CHARS, _batches, _lines, _match_columns, _table

# characters str.splitlines breaks at that are neither LF nor CR, so a
# CSV field may hold them
NON_NEWLINE_BREAKS = ["\x0c", "\x1c", "\x85", "\u2028"]

MINI_CSV = (
    "home,away,outcome\n"
    "A,B,H\n"
    "A,C,H\n"
    "A,D,A\n"
    "B,C,H\n"
    "B,D,A\n"
    "C,D,H\n"
)


class TestParseMatches:
    def test_single_home_win(self):
        recs = parse_matches("home,away,outcome\nLeeds,York,H\n")
        assert recs == [MatchRecord("Leeds", "York", Outcome.A_WINS)]

    def test_away_win_and_draw(self):
        recs = parse_matches("home,away,outcome\nA,B,A\nA,C,D\n")
        assert recs[0].outcome is Outcome.B_WINS
        assert recs[1].outcome is Outcome.DRAW

    def test_mini_league_file_matches_literals(self):
        text = (DATA_DIR / "mini_league_matches.csv").read_text()
        assert parse_matches(text) == mini_matches()
        assert np.array_equal(
            build_adjacency(parse_matches(text)).w,
            build_adjacency(mini_matches()).w,
        )

    def test_header_required(self):
        with pytest.raises(ParseError) as exc:
            parse_matches("Leeds,York,H\n")
        assert exc.value.line == 1

    def test_empty_text(self):
        with pytest.raises(ParseError):
            parse_matches("")

    def test_header_only_gives_no_matches(self):
        assert parse_matches("home,away,outcome\n") == []

    def test_missing_trailing_newline_ok(self):
        assert len(parse_matches("home,away,outcome\nA,B,H")) == 1

    def test_crlf_and_bom(self):
        text = "﻿home,away,outcome\r\nA,B,H\r\n"
        assert parse_matches(text) == [MatchRecord("A", "B", Outcome.A_WINS)]

    def test_outcome_code_invalid(self):
        with pytest.raises(ParseError) as exc:
            parse_matches("home,away,outcome\nA,B,W\n")
        assert exc.value.line == 2

    def test_lowercase_outcome_rejected(self):
        with pytest.raises(ParseError):
            parse_matches("home,away,outcome\nA,B,h\n")

    def test_field_count(self):
        with pytest.raises(ParseError) as exc:
            parse_matches("home,away,outcome\nA,B\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError):
            parse_matches("home,away,outcome\nA,B,H,extra\n")

    def test_self_play_rejected_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_matches("home,away,outcome\nA,B,H\nX,X,D\n")
        assert exc.value.line == 3
        assert "itself" in str(exc.value)

    def test_blank_interior_line_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_matches("home,away,outcome\n\nA,B,H\n")
        assert exc.value.line == 2

    def test_names_are_trimmed(self):
        recs = parse_matches("home,away,outcome\n Leeds , York ,H\n")
        assert recs[0].team_a == "Leeds"

    def test_quoted_name_with_comma(self):
        recs = parse_matches('home,away,outcome\n"Alpha, FC",Beta,H\n')
        assert recs[0].team_a == "Alpha, FC"

    def test_empty_name_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_matches("home,away,outcome\n,B,H\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("ch", NON_NEWLINE_BREAKS)
    def test_name_with_non_newline_break_is_one_row(self, ch):
        name = f"A{ch}X"
        recs = parse_matches(f"home,away,outcome\n{name},B,H\nB,C,D\n")
        assert [(r.team_a, r.team_b) for r in recs] == [(name, "B"), ("B", "C")]
        with pytest.raises(ParseError) as exc:
            parse_matches(f"home,away,outcome\n{name},B,H\nB,C,W\n")
        assert exc.value.line == 3

    # An unclosed quote ends with its line: each line is one record, as
    # csv reads a lone line, even where csv would join the lines after it.
    def test_unclosed_quote_on_a_last_field_is_one_row(self):
        recs = parse_matches('home,away,outcome\nA,B,"H\nC,D,A\n')
        assert recs == [MatchRecord("A", "B", Outcome.A_WINS), MatchRecord("C", "D", Outcome.B_WINS)]

    def test_unclosed_quote_mid_row_is_a_short_row(self):
        with pytest.raises(ParseError) as exc:
            parse_matches('home,away,outcome\nA,"B,H\nC,D,A\n')
        assert str(exc.value) == "line 2: expected 3 fields, got 2"

    def test_unclosed_quote_before_more_than_the_field_limit(self):
        rows = "".join(f"T{i},U{i},H\n" for i in range(20_000))
        assert len(rows) > csv.field_size_limit()
        with pytest.raises(ParseError) as exc:
            parse_matches('home,away,outcome\nX,Y,D\nA,"B,H\n' + rows)
        assert str(exc.value) == "line 3: expected 3 fields, got 2"

    def test_field_past_the_csv_limit(self):
        long_name = "x" * (csv.field_size_limit() + 1)
        with pytest.raises(ParseError) as exc:
            parse_matches(f"home,away,outcome\nA,B,H\n{long_name},B,H\n")
        assert str(exc.value) == f"line 3: field larger than field limit ({csv.field_size_limit()})"
        with pytest.raises(ParseError) as exc:
            parse_matches(long_name)
        assert exc.value.line == 1


def per_line_fields(line: str, line_no: int) -> list[str]:
    """The trimmed fields of one line read by itself; a field past the csv limit is an error of its line."""
    try:
        return [f.strip() for row in csv.reader([line]) for f in row]
    except csv.Error as exc:
        raise ParseError(str(exc), line=line_no) from None


def per_line_header(lines: list[str], header: list[str]) -> None:
    spec = ",".join(header)
    if not lines:
        raise ParseError(f"missing header {spec}", line=1)
    if per_line_fields(lines[0], 1) != header:
        raise ParseError(f"expected header {spec}, got {lines[0]!r}", line=1)


def per_line_matches(text: str) -> list[tuple[str, str, Outcome]]:
    """(home, away, outcome) per row, reading one line at a time (reference oracle).

    The rules and messages of the parser: a header, then per row the
    field count, the outcome code, the names and self-play, in that
    order; a field past the csv limit is an error of its line.
    """
    lines = _lines(text)
    per_line_header(lines, ["home", "away", "outcome"])
    outcomes = {"H": Outcome.A_WINS, "A": Outcome.B_WINS, "D": Outcome.DRAW}
    matches = []
    for line_no, line in enumerate(lines[1:], start=2):
        row = per_line_fields(line, line_no)
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line=line_no)
        home, away, code = row
        if code not in outcomes:
            raise ParseError(f"unknown outcome {code!r}, expected H, A or D", line=line_no)
        try:
            MatchRecord(home, away, outcomes[code])
        except ValueError as exc:
            raise ParseError(str(exc), line=line_no) from None
        matches.append((home, away, outcomes[code]))
    return matches


def mutation_pool(seed: int, bases: list[Callable[[random.Random], bytes]], cases: int = 1000) -> Iterator[tuple[int, str]]:
    """(case, text): seeded ``mutate`` of each base in turn, decoded as a parser is given it."""
    rnd = random.Random(seed)
    for case in range(cases):
        base = bases[case % len(bases)](rnd)
        yield case, mutate(rnd, base).decode("utf-8", errors="surrogateescape")


class TestMatchColumns:
    def test_agrees_with_the_per_line_reader_on_mutated_files(self):
        mini = (DATA_DIR / "mini_league_matches.csv").read_bytes()
        outcomes = {"ok": 0, "error": 0}
        bases = [lambda rnd: match_list_text(rnd).encode(), lambda rnd: mini]
        for case, text in mutation_pool(20131019, bases):
            try:
                expected = per_line_matches(text)
            except ParseError as exc:
                expected = str(exc)
            try:
                index, home, away, code = _match_columns(text)
                names = index.names
                got = [(names[i], names[j], _OUTCOMES[k]) for i, j, k in zip(home, away, code)]
                # teams in first-appearance order
                assert names == tuple(dict.fromkeys(n for match in got for n in match[:2])), text
            except ParseError as exc:
                got = str(exc)
            assert got == expected, f"case {case}: {text!r}"
            outcomes["error" if isinstance(got, str) else "ok"] += 1
        # the draw reaches both outcomes often
        assert min(outcomes.values()) > 100, outcomes

    def test_bulk_league_with_unclosed_quotes(self):
        rnd = random.Random(7)
        teams = [f"T{i}" for i in range(40)]
        lines = ["home,away,outcome"]
        for i in range(5000):
            home, away = rnd.sample(teams, 2)
            lines.append(f'{home},{away},"H' if i % 100 == 50 else f"{home},{away},{rnd.choice('HAD')}")
        text = "\n".join(lines) + "\n"
        index, home, away, code = _match_columns(text)
        names = index.names
        got = [(names[i], names[j], _OUTCOMES[k]) for i, j, k in zip(home, away, code)]
        assert got == per_line_matches(text)


class TestParseMatrix:
    def test_small_round_trip(self):
        m = build_adjacency(mini_matches())
        parsed = parse_matrix(emit_matrix(m))
        assert parsed.index.names == m.index.names
        assert np.array_equal(parsed.w, m.w)

    def test_league_fixture_shape_and_cells(self, data_dir):
        m = parse_matrix((data_dir / "epl_2010_11_adjacency.csv").read_text())
        assert m.n == 20
        names = m.index.names
        assert names[0] == "Arsenal"
        # the clubs beat each other once: three points flow each way
        i, j = m.index.index_of("Arsenal"), m.index.index_of("Aston Vila")
        assert m.w[i, j] == 3.0
        assert m.w[j, i] == 3.0
        # Manchester United's column sums to its points-flow total
        col = m.w[:, m.index.index_of("Manchester United")]
        assert col.sum() == 25.0

    def test_single_team(self):
        m = parse_matrix("Solo\nSolo,0\n")
        assert m.n == 1
        assert m.w[0, 0] == 0.0

    def test_empty_text_gives_empty_matrix(self):
        assert parse_matrix("").n == 0

    def test_row_label_must_follow_header_order(self):
        text = "A,B\nB,0,1\nA,1,0\n"
        with pytest.raises(ParseError) as exc:
            parse_matrix(text)
        assert exc.value.line == 2

    def test_duplicate_header_name(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("A,A\nA,0,0\nA,0,0\n")
        assert exc.value.line == 1

    def test_empty_header_name(self):
        with pytest.raises(ParseError):
            parse_matrix("A,\nA,0,0\n,0,0\n")

    def test_too_few_rows(self):
        with pytest.raises(ParseError):
            parse_matrix("A,B\nA,0,1\n")

    def test_too_many_rows(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("A,B\nA,0,1\nB,1,0\nC,0,0\n")
        assert exc.value.line == 4

    def test_wrong_entry_count(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("A,B\nA,0\nB,1,0\n")
        assert exc.value.line == 2

    def test_non_numeric_entry_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("A,B\nA,0,x\nB,1,0\n")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_negative_entry(self):
        with pytest.raises(ParseError):
            parse_matrix("A,B\nA,0,-1\nB,1,0\n")

    def test_nonzero_diagonal(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("A,B\nA,2,1\nB,1,0\n")
        assert exc.value.line == 2
        assert exc.value.column == 2

    @pytest.mark.parametrize("ch", NON_NEWLINE_BREAKS)
    def test_name_with_non_newline_break_is_one_row(self, ch):
        name = f"A{ch}X"
        m = parse_matrix(f"{name},B\n{name},0,1\nB,2,0\n")
        assert m.index.names == (name, "B")
        assert np.array_equal(m.w, [[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ParseError) as exc:
            parse_matrix(f"{name},B\n{name},0,1\nB,x,0\n")
        assert (exc.value.line, exc.value.column) == (3, 2)

    def test_round_trip_random_builds(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            records = random_matches(rng)
            m = build_adjacency(records, win_weight=2.5, draw_weight=1.0)
            parsed = parse_matrix(emit_matrix(m))
            assert parsed.index.names == m.index.names
            assert np.array_equal(parsed.w, m.w)


def matrix_text(names: list[str], cells: list[list[str]]) -> str:
    return ",".join(names) + "\n" + "".join(f"{name},{','.join(row)}\n" for name, row in zip(names, cells))


def broken_cell(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


class TestMatrixEntryRule:
    def test_first_broken_cell_in_row_major_order(self):
        # 1,000 seeded matrices with one or two broken cells: text that is no
        # number is found first, in row-major order; otherwise the first cell
        # breaking a rule is reported with AdjacencyMatrix's own message
        rng = np.random.default_rng(83)
        breaks = ["nan", "inf", "-inf", "-1.5", "-2", "x", "diagonal"]
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            names = [f"T{i}" for i in range(n)]
            values = rng.integers(0, 5, size=(n, n)) / 2.0
            np.fill_diagonal(values, 0.0)
            cells = [[f"{v:g}" for v in row] for row in values]
            for _ in range(int(rng.integers(1, 3))):
                r, c = (int(i) for i in rng.integers(0, n, size=2))
                kind = breaks[int(rng.integers(len(breaks)))]
                if kind == "diagonal":
                    cells[r][r] = "2.5"
                else:
                    cells[r][c] = kind
            with pytest.raises(ParseError) as exc:
                parse_matrix(matrix_text(names, cells))
            order = [(r, c) for r in range(n) for c in range(n)]
            texts = [(r, c) for r, c in order if broken_cell(cells[r][c])]
            if texts:
                r, c = texts[0]
                assert exc.value.message == f"not a number: {cells[r][c]!r}"
            else:
                w = np.array([[float(cell) for cell in row] for row in cells])
                r, c = next(
                    (r, c) for r, c in order
                    if not (math.isfinite(w[r, c]) and w[r, c] >= 0.0 and (r != c or w[r, c] == 0.0))
                )
                with pytest.raises(ValueError) as ref:
                    AdjacencyMatrix(TeamIndex(tuple(names)), w)
                assert exc.value.message == str(ref.value)
            assert (exc.value.line, exc.value.column) == (r + 2, c + 2)

    @pytest.mark.parametrize("ch", [" ", "\t", "\x0c", "\x1c", "\x1f", "\x85", "\u3000"])
    def test_entries_are_trimmed_of_every_whitespace(self, ch):
        # float keeps \x1c-\x1f, which strip removes
        m = parse_matrix(f"A,B\nA,{ch}0{ch},{ch}1.5\nB,2{ch},0\n")
        assert m.w.tolist() == [[0.0, 1.5], [2.0, 0.0]]
        with pytest.raises(ParseError) as exc:
            parse_matrix(f"A,B\nA,0,1\nB,{ch}2{ch},{ch}x{ch}\n")
        assert (exc.value.line, exc.value.column, exc.value.message) == (3, 3, "not a number: 'x'")

    def test_format_error_on_a_later_row_comes_first(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("A,B\nA,0,-1\nB,x,0\n")
        assert (exc.value.line, exc.value.column, exc.value.message) == (3, 2, "not a number: 'x'")


class TestEmitMatrix:
    def test_mini_league_bytes(self):
        out = emit_matrix(build_adjacency(mini_matches()))
        assert out == (
            "A,B,C,D\n"
            "A,0,0,0,3\n"
            "B,3,0,0,3\n"
            "C,3,3,0,0\n"
            "D,0,0,3,0\n"
        )

    def test_integral_weights_have_no_decimal_point(self):
        m = build_adjacency([MatchRecord("A", "B", Outcome.A_WINS)])
        assert "3" in emit_matrix(m)
        assert "3.0" not in emit_matrix(m)

    def test_fractional_weights_survive_round_trip_exactly(self):
        m = build_adjacency(
            [MatchRecord("A", "B", Outcome.DRAW)], draw_weight=0.1
        )
        parsed = parse_matrix(emit_matrix(m))
        assert parsed.w[0, 1] == 0.1

    def test_empty_matrix(self):
        assert emit_matrix(build_adjacency([])) == "\n"

    def test_names_read_back_as_written(self):
        # quoting, inner whitespace and a form feed inside a name all survive
        names = ("Alpha, FC", 'The "Reds"', "x\fy", "A  B")
        m = AdjacencyMatrix(TeamIndex(names), 1.0 - np.eye(4))
        parsed = parse_matrix(emit_matrix(m))
        assert parsed.index.names == names
        assert np.array_equal(parsed.w, m.w)
        rows = tuple(RankRow(i + 1, name, 4.0 - i) for i, name in enumerate(names))
        t = RankTable(rows, Ordering.DESC_SCORE, None)
        for fmt in (TableFormat.CSV, TableFormat.JSON):
            assert parse_table(emit_table(t, fmt)).rows == t.rows
        # the readers trim, so a name with whitespace at an end is refused before it is written
        with pytest.raises(ValueError, match="team names must not start or end with whitespace, got ' A'"):
            AdjacencyMatrix(TeamIndex((" A", "B")), np.zeros((2, 2)))


class TestEmitTable:
    def test_csv_mini_points(self):
        out = emit_table(points_table(mini_matches()), TableFormat.CSV)
        assert out == "rank,team,score\n1,A,6\n1,D,6\n3,B,3\n3,C,3\n"

    def test_csv_empty_table(self):
        t = RankTable((), Ordering.DESC_SCORE, TableKind.POINTS)
        assert emit_table(t, TableFormat.CSV) == "rank,team,score\n"

    def test_text_layout(self):
        out = emit_table(points_table(mini_matches()), TableFormat.TEXT)
        lines = out.splitlines()
        assert lines[0].split() == ["rank", "team", "score"]
        assert lines[1].split() == ["1", "A", "6"]
        assert lines[-1] == "# ties share the smaller rank (competition ranking)"
        assert out.endswith("\n")

    def test_text_decimals(self):
        t = RankTable(
            (RankRow(1, "A", 0.342812), RankRow(2, "B", 0.1)),
            Ordering.DESC_SCORE,
            TableKind.AUTHORITY,
        )
        out = emit_table(t, TableFormat.TEXT, decimals=5)
        assert "0.34281" in out
        assert "0.10000" in out

    def test_json_round_trips_full_precision(self):
        t = RankTable(
            (RankRow(1, "A", 0.7369762290994177),),
            Ordering.DESC_SCORE,
            TableKind.AUTHORITY,
        )
        doc = json.loads(emit_table(t, TableFormat.JSON, decimals=2))
        assert doc["kind"] == "authority"
        assert doc["ordering"] == "desc_score"
        assert doc["rows"] == [{"rank": 1, "team": "A", "score": 0.7369762290994177}]

    def test_json_points_are_integers(self):
        doc = json.loads(emit_table(points_table(mini_matches()), TableFormat.JSON))
        assert doc["rows"][0]["score"] == 6
        assert isinstance(doc["rows"][0]["score"], int)

    def test_table_object_matches_json(self):
        t = points_table(mini_matches())
        assert json.loads(emit_table(t, TableFormat.JSON)) == table_object(t)

    def test_invalid_decimals(self):
        t = points_table(mini_matches())
        with pytest.raises(ValueError):
            emit_table(t, TableFormat.TEXT, decimals=-1)
        with pytest.raises(ValueError):
            emit_table(t, TableFormat.TEXT, decimals=True)
        # 1074 places show every float exactly; past 2**31 the format itself fails
        for decimals in (1075, 2**31):
            with pytest.raises(ValueError, match="decimals must be finite and >= 0 and <= 1074"):
                emit_comparison(compare_rankings(t, t), TableFormat.TEXT, decimals=decimals)

    def test_format_must_be_a_table_format(self):
        with pytest.raises(TypeError, match="^format must be a TableFormat, got str$"):
            emit_table(points_table(mini_matches()), "json")


class TestEmitComparison:
    def make_report(self):
        a = points_table(mini_matches())
        b = points_table(list(reversed(mini_matches())))
        return compare_rankings(a, b)

    def test_text_contains_tau_line(self):
        out = emit_comparison(self.make_report(), TableFormat.TEXT)
        assert out.splitlines()[-1].startswith("kendall tau-b: ")

    def test_text_displacement_signs(self):
        a = points_table(mini_matches())
        swapped = [
            MatchRecord("A", "B", Outcome.B_WINS),
            MatchRecord("A", "C", Outcome.A_WINS),
            MatchRecord("A", "D", Outcome.B_WINS),
            MatchRecord("B", "C", Outcome.A_WINS),
            MatchRecord("B", "D", Outcome.A_WINS),
            MatchRecord("C", "D", Outcome.A_WINS),
        ]
        report = compare_rankings(a, points_table(swapped))
        out = emit_comparison(report, TableFormat.TEXT)
        assert "+" in out  # someone moved down
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("kendall")]
        # zero displacement is printed unsigned
        assert any(ln.split()[-1] == "0" for ln in lines[1:]) or all(
            ln.split()[-1] != "-0" for ln in lines[1:]
        )

    def test_csv_shape(self):
        out = emit_comparison(self.make_report(), TableFormat.CSV)
        lines = out.splitlines()
        assert lines[0] == "team,rank_a,rank_b,displacement"
        assert lines[-1].startswith("# kendall_tau_b,")

    def test_json_shape(self):
        doc = json.loads(emit_comparison(self.make_report(), TableFormat.JSON))
        assert set(doc) == {"rows", "kendall_tau_b"}
        row = doc["rows"][0]
        assert set(row) == {"team", "rank_a", "rank_b", "displacement"}

    def test_format_must_be_a_table_format(self):
        with pytest.raises(TypeError, match="^format must be a TableFormat, got str$"):
            emit_comparison(self.make_report(), "csv")

    def test_json_nan_tau_is_null(self):
        solo = points_table([])
        t = RankTable((RankRow(1, "A", 1.0),), Ordering.DESC_SCORE, TableKind.POINTS)
        report = compare_rankings(t, t)
        doc = json.loads(emit_comparison(report, TableFormat.JSON))
        assert doc["kendall_tau_b"] is None
        assert solo.rows == ()


class TestParseTable:
    def test_csv_round_trip_preserves_rows(self):
        t = points_table(mini_matches())
        parsed = parse_table(emit_table(t, TableFormat.CSV))
        assert parsed.rows == t.rows
        assert parsed.ordering is Ordering.DESC_SCORE
        assert parsed.kind is None

    def test_json_round_trip_preserves_everything(self):
        t = RankTable(
            (RankRow(1, "A", 0.7369762290994177), RankRow(2, "B", 0.1)),
            Ordering.DESC_SCORE,
            TableKind.AUTHORITY,
        )
        parsed = parse_table(emit_table(t, TableFormat.JSON))
        assert parsed.rows == t.rows
        assert parsed.kind is TableKind.AUTHORITY
        assert parsed.ordering is Ordering.DESC_SCORE

    def test_ascending_ordering_inferred(self):
        parsed = parse_table("rank,team,score\n1,A,0.1\n2,B,0.5\n")
        assert parsed.ordering is Ordering.ASC_SCORE

    def test_official_table_fixture_parses_as_given(self, data_dir):
        t = parse_table((data_dir / "epl_2010_11_official_points.csv").read_text())
        assert len(t) == 20
        assert t.rows[0] == RankRow(1, "Manchester United", 80.0)
        assert t.rank_of("Stoke City") == 13
        assert t.rank_of("Bolton Wanderers") == 14
        assert t.kind is None

    def test_non_monotone_scores_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_table("rank,team,score\n1,A,1\n2,B,5\n3,C,2\n")
        assert "monotone" in str(exc.value)

    def test_csv_errors_have_line_numbers(self):
        with pytest.raises(ParseError) as exc:
            parse_table("rank,team,score\nx,A,1\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError) as exc:
            parse_table("rank,team,score\n0,A,1\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError) as exc:
            parse_table("rank,team,score\n1,A,none\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("ch", NON_NEWLINE_BREAKS)
    def test_csv_name_with_non_newline_break_is_one_row(self, ch):
        name = f"A{ch}X"
        t = parse_table(f"rank,team,score\n1,{name},2\n2,B,1\n")
        assert t.rows == (RankRow(1, name, 2.0), RankRow(2, "B", 1.0))
        with pytest.raises(ParseError) as exc:
            parse_table(f"rank,team,score\n1,{name},2\n2,B,1\nx,C,0\n")
        assert exc.value.line == 4

    def test_leading_bom_in_csv_and_json(self):
        t = points_table(mini_matches())
        for fmt in (TableFormat.CSV, TableFormat.JSON):
            text = emit_table(t, fmt)
            assert parse_table("\ufeff" + text) == parse_table(text)

    def test_csv_duplicate_team(self):
        with pytest.raises(ParseError):
            parse_table("rank,team,score\n1,A,2\n2,A,1\n")

    def test_csv_bad_header(self):
        with pytest.raises(ParseError) as exc:
            parse_table("team,rank,score\n")
        assert exc.value.line == 1

    def test_json_syntax_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_table('{"rows": [}')
        assert exc.value.line is not None

    def test_json_requires_rows(self):
        with pytest.raises(ParseError) as exc:
            parse_table('{"kind": "points"}')
        assert "rows" in str(exc.value)

    def test_json_two_table_document_explains_itself(self):
        doc = json.dumps(
            {
                "authority": table_object(points_table(mini_matches())),
                "hub": table_object(points_table(mini_matches())),
            }
        )
        with pytest.raises(ParseError) as exc:
            parse_table(doc)
        assert "multiple tables" in str(exc.value)

    def test_json_declared_ordering_must_match_scores(self):
        doc = json.dumps(
            {
                "ordering": "asc_score",
                "rows": [
                    {"rank": 1, "team": "A", "score": 5},
                    {"rank": 2, "team": "B", "score": 1},
                ],
            }
        )
        with pytest.raises(ParseError):
            parse_table(doc)

    def test_json_row_type_errors(self):
        bad_rank = {"rows": [{"rank": True, "team": "A", "score": 1}]}
        with pytest.raises(ParseError):
            parse_table(json.dumps(bad_rank))
        bad_score = {"rows": [{"rank": 1, "team": "A", "score": "high"}]}
        with pytest.raises(ParseError):
            parse_table(json.dumps(bad_score))
        bad_team = {"rows": [{"rank": 1, "team": 7, "score": 1}]}
        with pytest.raises(ParseError):
            parse_table(json.dumps(bad_team))
        with pytest.raises(ParseError, match="^'rows' must be an array$"):
            parse_table('{"rows": {"rank": 1}}')
        with pytest.raises(ParseError, match="^row 2: expected an object$"):
            parse_table('{"rows": [{"rank": 1, "team": "A", "score": 1}, [2, "B", 0]]}')

    def test_json_unknown_kind(self):
        doc = {"kind": "mystery", "rows": [{"rank": 1, "team": "A", "score": 1}]}
        with pytest.raises(ParseError):
            parse_table(json.dumps(doc))

    def test_parse_error_formats_position(self):
        err = ParseError("bad value", line=3, column=2)
        assert str(err) == "line 3, column 2: bad value"
        assert str(ParseError("oops", line=4)) == "line 4: oops"
        assert str(ParseError("oops")) == "oops"

    def test_json_integer_score_too_large_for_a_float(self):
        doc = '{"rows": [{"rank": 1, "team": "A", "score": 1' + "0" * 400 + "}]}"
        with pytest.raises(ParseError) as exc:
            parse_table(doc)
        assert str(exc.value).startswith("row 1: ")

    def test_json_number_too_long_or_nesting_too_deep(self):
        digits = '{"rows": [{"rank": 1, "team": "A", "score": 1' + "0" * 5000 + "}]}"
        deep = '{"rows": ' + "[" * 100_000 + "]" * 100_000 + "}"
        for doc in (digits, deep):
            with pytest.raises(ParseError):
                parse_table(doc)


# characters a team name may hold that need quoting or escaping somewhere
NAME_CHARS = "ab, \"'\x0c"


def random_table(rng: np.random.Generator) -> tuple[RankTable, int]:
    """A valid table with tied scores and awkward names, plus its score decimals."""
    n = int(rng.integers(0, 9))
    names: set[str] = set()
    while len(names) < n:
        body = "".join(rng.choice(list(NAME_CHARS), size=int(rng.integers(0, 5))))
        names.add(f"T{body}{len(names)}")
    decimals = int(rng.integers(0, 7))
    pool = rng.integers(-10**7, 10**7, size=3)  # few values, so scores tie
    scores = sorted(float(k) / 10**decimals for k in rng.choice(pool, size=n))
    ordering = Ordering.ASC_SCORE if rng.integers(0, 2) else Ordering.DESC_SCORE
    if ordering is Ordering.DESC_SCORE:
        scores.reverse()
    kind = [None, *TableKind][int(rng.integers(0, 4))]
    ranks = sorted(int(r) for r in rng.integers(1, n + 2, size=n))
    rows = tuple(RankRow(r, name, s) for r, name, s in zip(ranks, sorted(names), scores))
    return RankTable(rows, ordering, kind), decimals


class TestTableRules:
    def test_round_trip_preserves_rows(self):
        rng = np.random.default_rng(20240611)
        for _ in range(1000):
            t, decimals = random_table(rng)
            for fmt in (TableFormat.CSV, TableFormat.JSON):
                parsed = parse_table(emit_table(t, fmt, decimals))
                assert parsed.rows == t.rows
                if len({row.score for row in t.rows}) > 1 or fmt is TableFormat.JSON:
                    assert parsed.ordering is t.ordering
            assert parse_table(emit_table(t, TableFormat.JSON)).kind is t.kind

    # rows written into both formats; the broken row (0-based), its field, the message
    BROKEN = [
        ([(0, "A", 1.0)], 0, "rank", "ranks are 1-based, got 0"),
        ([(1, "A", 2.0), (-3, "B", 1.0)], 1, "rank", "ranks are 1-based, got -3"),
        ([(1, "A", 2.0), (10**309, "B", 1.0)], 1, "rank", "rank must be finite, got inf"),
        ([(10**400, "A", 1.0)], 0, "rank", "rank must be finite, got inf"),
        ([(1, "A", 2.0), (2, "", 1.0)], 1, "team", "team names must be non-empty after trimming"),
        ([(1, "  ", 2.0)], 0, "team", "team names must be non-empty after trimming"),
        ([(1, "A", math.inf)], 0, "score", "score must be finite, got inf"),
        ([(1, "A", 2.0), (2, "B", math.nan)], 1, "score", "score must be finite, got nan"),
        ([(1, "A", 2.0), (2, "B", 1.0), (3, "A", 0.5)], 2, "team", "duplicate team in table: 'A'"),
        ([(1, "A", 1.0), (2, "B", 5.0), (3, "C", 2.0)], 2, None, "scores are not monotone; not a rank table"),
        ([(1, "A", 5.0), (2, "B", 5.0), (3, "C", 2.0), (4, "D", 3.0)], 3, None, "scores are not monotone; not a rank table"),
    ]

    @pytest.mark.parametrize("rows, at, field, message", BROKEN)
    def test_csv_broken_rule_at_line_and_column(self, rows, at, field, message):
        text = "rank,team,score\n" + "".join(f"{r},{t},{s!r}\n" for r, t, s in rows)
        with pytest.raises(ParseError) as exc:
            parse_table(text)
        assert exc.value.message == message
        assert exc.value.line == at + 2
        assert exc.value.column == (None if field is None else ["rank", "team", "score"].index(field) + 1)

    @pytest.mark.parametrize("rows, at, field, message", BROKEN)
    def test_json_broken_rule_at_row(self, rows, at, field, message):
        doc = json.dumps({"rows": [{"rank": r, "team": t, "score": s} for r, t, s in rows]})
        with pytest.raises(ParseError) as exc:
            parse_table(doc)
        assert str(exc.value) == f"row {at + 1}: {message}"
        assert exc.value.line is None

    @pytest.mark.parametrize(
        "ordering, scores, at",
        [("asc_score", [5, 1], 1), ("desc_score", [1, 1, 2], 2), ("desc_score", [3, 2, 2, 2.5], 3)],
    )
    def test_json_declared_ordering_broken_at_row(self, ordering, scores, at):
        rows = [{"rank": i + 1, "team": f"T{i}", "score": s} for i, s in enumerate(scores)]
        with pytest.raises(ParseError) as exc:
            parse_table(json.dumps({"ordering": ordering, "rows": rows}))
        assert str(exc.value) == f"row {at + 1}: scores violate declared ordering"


# matrix entries at the edges of what a float and the writer's two notations hold
MATRIX_VALUES = [0.0, -0.0, 1.0, 3.0, 0.1, 1 / 3, 5e-324, 1e-300, 1e15, 1e15 + 1, 2.0**53 + 2, 1e300, 1.7976931348623157e308]


class TestSeededRoundTrips:
    def test_matrix_reads_back_with_the_same_index_and_bits(self):
        rnd = random.Random(2501)
        for case in range(300):
            n = rnd.randint(1, 6)
            names = awkward_names(rnd, n)
            if case % 3 == 0:  # the text starts with a BOM that is part of the first name
                names[0] = "\ufeff" + names[0]
            w = np.array([[0.0 if i == j else rnd.choice(MATRIX_VALUES) for j in range(n)] for i in range(n)])
            m = AdjacencyMatrix(TeamIndex(tuple(names)), w)
            back = parse_matrix(emit_matrix(m))
            assert back.index.names == m.index.names
            assert back.w.tobytes() == m.w.tobytes()

    def test_tables_read_back_with_the_same_ranks_and_teams(self):
        rnd = random.Random(2502)
        for _ in range(300):
            names = awkward_names(rnd, rnd.randint(0, 6))
            ranks = sorted(rnd.choice([1, 2, 3, 10**15, 10**308, 2**1023]) for _ in names)
            scores = sorted((rnd.choice([-1e300, 0.0, 5e-324, 1.5, 7.0, 1e308]) for _ in names), reverse=True)
            t = RankTable(tuple(map(RankRow, ranks, names, scores)), Ordering.DESC_SCORE, None)
            for fmt in (TableFormat.CSV, TableFormat.JSON):
                back = parse_table(emit_table(t, fmt))
                assert [row[:2] for row in back.rows] == [row[:2] for row in t.rows]

    def test_text_that_starts_with_two_boms_keeps_the_second(self):
        assert _lines("\ufeff\ufeffA,B\n") == ["\ufeffA,B"]
        m = parse_matrix("\ufeff\ufeffA,B\n\ufeffA,0,1\nB,2,0\n")
        assert m.index.names == ("\ufeffA", "B")


def per_line_matrix(text: str) -> AdjacencyMatrix:
    """``parse_matrix`` reading one line at a time (reference oracle), with its rules and messages."""
    lines = _lines(text) or [""]
    names = tuple(per_line_fields(lines[0], 1))
    try:
        index = TeamIndex(names)
    except ValueError as exc:
        raise ParseError(str(exc), line=1) from None
    n, found = len(index), len(lines) - 1
    if found != n:
        raise ParseError(f"expected {n} matrix rows, found {found}", line=min(found, n) + 2)
    w = np.zeros((n, n))
    for r, line in enumerate(lines[1:]):
        row = per_line_fields(line, r + 2)
        if len(row) != n + 1:
            raise ParseError(f"expected {n + 1} fields (team name plus {n} entries), got {len(row)}", line=r + 2)
        if row[0] != index.names[r]:
            message = f"row {r + 1} is {row[0]!r}, expected {index.names[r]!r} (rows must follow header order)"
            raise ParseError(message, line=r + 2, column=1)
        for c, field in enumerate(row[1:]):
            try:
                w[r, c] = float(field)
            except ValueError:
                raise ParseError(f"not a number: {field!r}", line=r + 2, column=c + 2) from None
    if bad := _bad_entry(w):
        raise ParseError(bad[2], line=bad[0] + 2, column=bad[1] + 2)
    return AdjacencyMatrix(index, w)


def per_line_table(text: str) -> RankTable:
    """CSV ``parse_table`` reading one line at a time (reference oracle); JSON is left to ``parse_table``."""
    lines = _lines(text)
    if "\n".join(lines).lstrip().startswith("{"):
        return parse_table(text)
    per_line_header(lines, ["rank", "team", "score"])
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = per_line_fields(line, line_no)
        if len(fields) != 3:
            raise ParseError(f"expected 3 fields, got {len(fields)}", line=line_no)
        rank_field, team, score_field = fields
        try:
            rank = int(rank_field)
        except ValueError:
            raise ParseError(f"rank must be an integer, got {rank_field!r}", line=line_no, column=1) from None
        try:
            score = float(score_field)
        except ValueError:
            raise ParseError(f"score must be a number, got {score_field!r}", line=line_no, column=3) from None
        rows.append(RankRow(rank, team, score))
    return _table(rows, None, None, csv_rows=True)


def parsed(parse: Callable[[str], object], text: str) -> object:
    """What a parser makes of the text: a comparable result, or the ParseError text."""
    try:
        result = parse(text)
    except ParseError as exc:
        return str(exc)
    if isinstance(result, AdjacencyMatrix):
        return result.index.names, result.w.tolist()
    return result


def matrix_base(rnd: random.Random) -> bytes:
    """A small matrix CSV drawn with stdlib ``random``: padded, quoted and non-ASCII names."""
    names = rnd.sample(["A", "B", " C ", '"D, FC"', '"E ""e"""', "Fé"], rnd.randint(1, 6))
    cells = [[("0" if i == j else rnd.choice(["0", "0", "1", "2.5"])) for j in range(len(names))] for i in range(len(names))]
    return matrix_text(names, cells).encode()


def table_base(rnd: random.Random) -> bytes:
    t, decimals = random_table(np.random.default_rng(rnd.randrange(2**32)))
    return emit_table(t, TableFormat.CSV, decimals).encode()


def league_lines(kind: str, n: int) -> list[str]:
    """The lines of a valid file of each kind, with n data rows."""
    if kind == "matches":
        return ["home,away,outcome"] + [f"T{i},U{i},{'HAD'[i % 3]}" for i in range(n)]
    if kind == "matrix":
        names = [f"T{i}" for i in range(n)]
        cells = [",".join("0" if i == j else str((i + j) % 3) for j in range(n)) for i in range(n)]
        return [",".join(names)] + [f"{name},{row}" for name, row in zip(names, cells)]
    return ["rank,team,score"] + [f"{i + 1},T{i},{n - i}.5" for i in range(n)]


def open_quote(line: str, at_last_field: bool) -> str:
    """The line with a quote opened before its last field, or before its second."""
    head, _, rest = line.rpartition(",") if at_last_field else line.partition(",")
    return f'{head},"{rest}'


LONG_FIELD = "x" * (csv.field_size_limit() + 1)
PARSERS = {
    "matches": (lambda text: [(m.team_a, m.team_b, m.outcome) for m in parse_matches(text)], per_line_matches),
    "matrix": (parse_matrix, per_line_matrix),
    "table": (parse_table, per_line_table),
}


class TestOneReader:
    """Every CSV parser reads through ``io._rows`` and agrees with a per-line read."""

    @pytest.mark.parametrize("kind, seed, base, bases", [
        ("matrix", 2010, DATA_DIR / "epl_2010_11_adjacency.csv", matrix_base),
        ("table", 2011, DATA_DIR / "epl_2010_11_official_points.csv", table_base),
    ])
    def test_agrees_with_the_per_line_reader_on_mutated_files(self, kind, seed, base, bases):
        data = base.read_bytes()
        parse, reference = PARSERS[kind]
        outcomes = {"ok": 0, "error": 0}
        for case, text in mutation_pool(seed, [bases, lambda rnd: data]):
            got = parsed(parse, text)
            assert got == parsed(reference, text), f"case {case}: {text!r}"
            outcomes["error" if isinstance(got, str) else "ok"] += 1
        # most mutations break a matrix or a table, yet each outcome is drawn
        assert min(outcomes.values()) > 25, outcomes

    # lines -> lines, and what a per-line read gives: None parses, else the error's start
    CASES = [
        pytest.param(lambda ls: [open_quote(ls[0], True)] + ls[1:], None, id="quote on the last header field"),
        pytest.param(lambda ls: ['"' + ls[0]] + ls[1:], "line ", id="quote opening the header"),
        pytest.param(lambda ls: ls[:2] + [open_quote(ls[2], False)] + ls[3:], "line 3: expected ", id="quote mid-row"),
        pytest.param(lambda ls: ls[:2] + [open_quote(ls[2], True)] + ls[3:], None, id="quote on a last field"),
        pytest.param(lambda ls: [LONG_FIELD + ls[0]] + ls[1:], "line 1: field larger than field limit", id="long field on line 1"),
        pytest.param(lambda ls: ls[:2] + [LONG_FIELD + ls[2]] + ls[3:], "line 3: field larger than field limit", id="long field on a data line"),
    ]

    @pytest.mark.parametrize("kind", PARSERS)
    @pytest.mark.parametrize("edit, expected", CASES)
    def test_open_quotes_and_long_fields(self, kind, edit, expected):
        parse, reference = PARSERS[kind]
        text = "\n".join(edit(league_lines(kind, 4))) + "\n"
        got = parsed(parse, text)
        assert got == parsed(reference, text)
        if expected is None:
            assert not isinstance(got, str), got
        else:
            assert isinstance(got, str) and got.startswith(expected), got

    @pytest.mark.parametrize("kind, n", [("matches", 12_000), ("matrix", 300), ("table", 12_000)])
    @pytest.mark.parametrize("at_last_field", [True, False])
    def test_open_quote_before_more_than_the_field_limit(self, kind, n, at_last_field):
        # csv joins every line after the quote into one field, which
        # overflows the limit; the line still reads by itself
        lines = league_lines(kind, n)
        lines[2] = open_quote(lines[2], at_last_field)
        text = "\n".join(lines) + "\n"
        assert len("\n".join(lines[3:])) > csv.field_size_limit()
        parse, reference = PARSERS[kind]
        got = parsed(parse, text)
        assert got == parsed(reference, text)
        assert isinstance(got, str) != at_last_field, got

    # lines, data row -> the lines with that row broken
    DEFECTS = {
        "quote on a last field": lambda ls, at: ls[:at] + [open_quote(ls[at], True)] + ls[at + 1 :],
        "quote mid-row": lambda ls, at: ls[:at] + [open_quote(ls[at], False)] + ls[at + 1 :],
        "long field": lambda ls, at: ls[:at] + [LONG_FIELD + ls[at]] + ls[at + 1 :],
        "missing field": lambda ls, at: ls[:at] + [ls[at].rpartition(",")[0]] + ls[at + 1 :],
    }

    @pytest.mark.parametrize("kind, n", [("matches", 600), ("matrix", 520), ("table", 600)])
    @pytest.mark.parametrize("defect", DEFECTS)
    def test_defects_at_batch_boundaries(self, kind, n, defect):
        lines = league_lines(kind, n)
        size = len(next(_batches(lines)))
        # a batch takes _BATCH short lines, and fewer wide matrix rows
        assert size == _BATCH if kind != "matrix" else 1 < size < 64, size
        parse, reference = PARSERS[kind]
        # the data rows around the first two boundaries of _BATCH rows, and of this file's batches
        for at in sorted({255, 256, 257, 512, size - 1, size, size + 1, 2 * size}):
            text = "\n".join(self.DEFECTS[defect](lines, at)) + "\n"
            got = parsed(parse, text)
            assert got == parsed(reference, text), at
            assert isinstance(got, str) == (defect != "quote on a last field"), got

    @pytest.mark.parametrize("kind, n", [("matches", 600), ("matrix", 100), ("table", 600)])
    @pytest.mark.parametrize("unreadable", ["long field", "quote mid-row"])
    def test_a_refused_row_comes_before_a_later_unreadable_line_of_its_batch(self, kind, n, unreadable):
        lines = league_lines(kind, n)
        size = len(next(_batches(lines)))
        at = size + 2
        # the refused row: an unknown outcome, a matrix entry or a score that is not a number
        lines[at] = lines[at].rpartition(",")[0] + ",x"
        lines = self.DEFECTS[unreadable](lines, at + 2)
        text = "\n".join(lines) + "\n"
        parse, reference = PARSERS[kind]
        got = parsed(parse, text)
        assert got == parsed(reference, text)
        assert got.startswith((f"line {at + 1}: ", f"line {at + 1}, ")), got

    @pytest.mark.parametrize("cell", [str, lambda k: repr(k + 1 / 3)], ids=["integer", "float"])
    def test_wide_rows_come_a_few_at_a_time(self, cell):
        names = [f"T{i}" for i in range(500)]
        lines = [",".join(names)] + [
            ",".join([name] + ["0" if i == j else cell((i + j) % 3) for j in range(500)])
            for i, name in enumerate(names)
        ]
        start, widest = 0, 0
        for batch in _batches(lines):
            widest = max(widest, sum(map(len, lines[start : start + len(batch)])))
            start += len(batch)
        assert start == len(lines)
        assert widest <= _BATCH_CHARS + max(map(len, lines)), widest



CSV_READER = csv.reader


class NulRefusingReader:
    """``csv.reader`` as Python 3.10 has it: a line holding NUL is a csv.Error, which 3.11 reads as a character."""

    def __init__(self, lines, *args, **kwargs):
        self._reader = CSV_READER(self._refusing(lines), *args, **kwargs)

    @staticmethod
    def _refusing(lines):
        for line in lines:
            if "\0" in line:
                raise csv.Error("line contains NUL")
            yield line

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._reader)

    @property
    def line_num(self):
        return self._reader.line_num


class TestNulOnPython310:
    """A NUL that ``csv`` refuses is a ParseError of its line and exit 3, on any Python."""

    @pytest.fixture(autouse=True)
    def nul_refusing_csv(self, monkeypatch):
        monkeypatch.setattr(csv, "reader", NulRefusingReader)

    @pytest.mark.parametrize("kind", PARSERS)
    @pytest.mark.parametrize("at", [2, 601], ids=["second data row", "past the first batch"])
    def test_each_parser_names_the_line(self, kind, at):
        lines = league_lines(kind, 601)
        lines[at] += "\0"
        with pytest.raises(ParseError) as caught:
            PARSERS[kind][0]("\n".join(lines) + "\n")
        assert str(caught.value) == f"line {at + 1}: line contains NUL"

    @pytest.mark.parametrize("text, argv", [
        ("home,away,outcome\nA,B,H\nB,A,D\0\n", ["rank", "--input-kind", "matches", "--input"]),
        ("A,B\nA,0,1\nB,3\0,0\n", ["rank", "--input-kind", "matrix", "--input"]),
        ("home,away,outcome\nA,B,H\nB,A,D\0\n", ["points", "--input"]),
        ("rank,team,score\n1,A,3\n2,B\0,1\n", ["compare", str(DATA_DIR / "epl_2010_11_official_points.csv")]),
    ], ids=["rank", "rank-matrix", "points", "compare"])
    def test_cli_exits_3(self, capsys, tmp_path, text, argv):
        path = tmp_path / "nul.csv"
        path.write_text(text)
        assert main([*argv, str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {path}: line 3: line contains NUL\n")


class TestNulInNames:
    """A team name holding NUL is refused by the name rule, so the exit code does not depend on ``csv``."""

    MATCHES = "home,away,outcome\nA,B,H\nA\0,B,H\n"
    JSON_TABLE = json.dumps({"rows": [{"rank": 1, "team": "A", "score": 3}, {"rank": 2, "team": "B\0", "score": 1}]})

    @pytest.mark.parametrize("text, argv, at", [
        (MATCHES, ["points", "--input"], "line 3"),
        (MATCHES, ["matrix", "--input"], "line 3"),
        (MATCHES, ["rank", "--input-kind", "matches", "--input"], "line 3"),
        ("A,B\0\nA,0,1\nB\0,3,0\n", ["rank", "--input-kind", "matrix", "--input"], "line 1"),
        ("rank,team,score\n1,A,3\n2,B\0,1\n", ["compare", str(DATA_DIR / "epl_2010_11_official_points.csv")], "line 3"),
        (JSON_TABLE, ["compare", str(DATA_DIR / "epl_2010_11_official_points.csv")], "row 2"),
    ], ids=["points", "matrix", "rank", "rank-matrix", "compare", "compare-json"])
    def test_cli_exits_3_at_the_line(self, capsys, tmp_path, text, argv, at):
        # the position, not the text: Python 3.10's csv refuses the line before the name rule sees it
        path = tmp_path / "nul.csv"
        path.write_text(text)
        assert main([*argv, str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.match(rf"error: {re.escape(str(path))}: {at}[,:] ", captured.err)
