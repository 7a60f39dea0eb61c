"""Parsing of match, matrix and rank table files, serialization of tables and reports.

README "File formats" gives the schemas and rules. Files are UTF-8 with
an optional leading BOM; LF, CRLF or CR end a line and nothing else
does; each record is one line, with trimmed fields. One CSV reader,
``_rows``, reads every line of all three formats, header included, so
an open quote ends with its line and the field limit holds in each. It
hands rows over in batches, and checks once per batch that each row
took one line. The rows of a match list go to ``graph._encode``, the
one encoder of matches, which MatchRecords reach too. Every parse
failure raises ParseError carrying a 1-based line (and column where it
is known); parsers never raise anything else on malformed text. One
matrix reader, ``_matrix_rows``, gives a team index and checked rows:
``hitsrank rank`` solves those rows, and ``parse_matrix`` wraps them in
an AdjacencyMatrix. Nothing here loads numpy.
"""

from __future__ import annotations

import csv
import enum
import math
import sys
from io import StringIO
from itertools import chain, islice
from typing import Any, Iterable, Iterator, Sequence

from hitsrank.graph import (
    _OUTCOMES,
    AdjacencyMatrix,
    MatchRecord,
    TeamIndex,
    _bad_entry,
    _checked,
    _Columns,
    _encode,
    _float,
)
from hitsrank.rank import ComparisonReport, ComparisonRow, Ordering, RankRow, RankTable, TableKind, _bad_row

_MATCH_HEADER = ["home", "away", "outcome"]
_TABLE_HEADER = list(RankRow._fields)
_TIE_NOTE = "# ties share the smaller rank (competition ranking)"
# every float is exact to 1074 places after the point (the smallest is 2**-1074)
_MAX_DECIMALS = 1074
# a batch of _rows: at most _BATCH rows, well under the 700 new
# containers that start a young-generation garbage collection, so one
# finds few live rows to move on; and about _BATCH_CHARS characters,
# judged by the first data line, so a batch of a wide matrix's rows holds
# the fields of a few rows, not of 256
_BATCH = 256
_BATCH_CHARS = 1 << 14


class TableFormat(enum.Enum):
    TEXT = "TEXT"
    CSV = "CSV"
    JSON = "JSON"


class ParseError(ValueError):
    """Malformed input, positioned by 1-based line (and column if known)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


def _lines(text: str) -> list[str]:
    # only LF, CRLF and CR end a line: a form feed, \x1c-\x1e, \x85 or
    # U+2028/U+2029 is part of a field
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _rows(lines: list[str]) -> Iterator[list[str]]:
    """The CSV fields of every line, header included, one row per line; a caller trims them.

    The one CSV reader, for match lists, matrices and rank tables alike.
    One ``csv.reader`` runs over all the lines, a batch of rows at a
    time, while each row of a batch takes one line. An unclosed quote
    makes it join the lines that follow into one row, or overflow the
    field limit; from the start of that batch on, each line is read by
    itself, as a line holds one record, and a field past the csv
    module's limit is a ParseError of its line. This keeps the cost
    linear: no line is read more than twice.
    """
    return chain.from_iterable(_batches(lines))


def _batches(lines: list[str]) -> Iterator[list[list[str]]]:
    """The rows of ``_rows`` in lists; only a line read by itself comes as a list of one."""
    size = min(_BATCH, 1 + _BATCH_CHARS // (1 + len(lines[1]))) if len(lines) > 1 else _BATCH
    reader = csv.reader(lines)
    rows = 0
    try:
        while batch := list(islice(reader, size)):
            if reader.line_num != rows + len(batch):
                break
            rows += len(batch)
            yield batch
    except csv.Error:
        pass
    for i in range(rows, len(lines)):
        try:
            row = next(csv.reader([lines[i]]))
        except csv.Error as exc:
            raise ParseError(str(exc), line=i + 1) from None
        yield [row]


def _header(lines: list[str], header: list[str]) -> Iterator[list[str]]:
    """The rows after the first, once the first is checked to be ``header``."""
    rows = _rows(lines)
    spec = ",".join(header)
    first = next(rows, None)
    if first is None:
        raise ParseError(f"missing header {spec}", line=1)
    if [f.strip() for f in first] != header:
        raise ParseError(f"expected header {spec}, got {lines[0]!r}", line=1)
    return rows


def _match_columns(text: str) -> _Columns:
    """The columns of a matches CSV: ``graph._encode`` of the rows after its header.

    A row that ``_encode`` refuses is a ParseError of its line.
    """
    rows = _header(_lines(text), _MATCH_HEADER)
    return _encode(rows, lambda message, row: ParseError(message, line=row + 1))


def parse_matches(text: str) -> list[MatchRecord]:
    """Parse a matches CSV into records, in file order.

    The home side maps to ``team_a``, so H means team_a wins and A means
    team_b wins.
    """
    index, *columns = _match_columns(text)
    names = index.names
    return [MatchRecord(names[i], names[j], _OUTCOMES[k]) for i, j, k in zip(*columns)]


def _matrix_rows(text: str) -> tuple[TeamIndex, list[list[float]]]:
    """The team index and rows of a matrix CSV whose row order matches its header order.

    The one matrix reader. Each row is read in file order, and only once
    every row has been read is ``graph._bad_entry`` asked for a broken entry.
    """
    lines = _lines(text) or [""]
    rows = _rows(lines)
    names = tuple(f.strip() for f in next(rows))
    try:
        index = TeamIndex(names)
    except ValueError as exc:
        raise ParseError(str(exc), line=1) from None
    n, found = len(index), len(lines) - 1
    if found != n:
        raise ParseError(f"expected {n} matrix rows, found {found}", line=min(found, n) + 2)
    w = []
    for r, row in enumerate(rows):
        if len(row) != n + 1:
            message = f"expected {n + 1} fields (team name plus {n} entries), got {len(row)}"
            raise ParseError(message, line=r + 2)
        if (name := row[0].strip()) != index.names[r]:
            message = f"row {r + 1} is {name!r}, expected {index.names[r]!r}"
            raise ParseError(message + " (rows must follow header order)", line=r + 2, column=1)
        # float ignores the whitespace around a number, as strip does,
        # except \x1c-\x1f: a row that fails is read again, trimmed field by field
        try:
            values = list(map(float, row[1:]))
        except ValueError:
            values = []
            for c, field in enumerate(row[1:]):
                try:
                    values.append(float(field.strip()))
                except ValueError:
                    raise ParseError(f"not a number: {field.strip()!r}", line=r + 2, column=c + 2) from None
        w.append(values)
    if bad := _bad_entry(w):
        r, c, message = bad
        raise ParseError(message, line=r + 2, column=c + 2)
    return index, w


def parse_matrix(text: str) -> AdjacencyMatrix:
    """Parse a matrix CSV whose row order matches its header order."""
    return AdjacencyMatrix(*_matrix_rows(text))


def _check_args(format: TableFormat, decimals: int) -> int:
    """The emitters' ``decimals``, checked after ``format``."""
    if not isinstance(format, TableFormat):
        raise TypeError(f"format must be a TableFormat, got {type(format).__name__}")
    try:
        return _checked("decimals", decimals, 0, integer=True, maximum=_MAX_DECIMALS)
    except TypeError as exc:  # emitters raise ValueError for every bad decimals, bool included
        raise ValueError(str(exc)) from None


def _format_score(score: float, kind: TableKind | None, decimals: int) -> str:
    # weights use fixed decimals
    value = _json_score(score, kind)
    return str(value) if isinstance(value, int) else f"{value:.{decimals}f}"


def _json_score(score: float, kind: TableKind | None) -> int | float:
    # points stay exact integers
    if kind is TableKind.POINTS and float(score).is_integer():
        return int(score)
    return float(score)


def table_object(t: RankTable) -> dict[str, Any]:
    """JSON-ready representation of a table, scores at full precision."""
    return {
        "kind": t.kind.value.lower() if t.kind is not None else None,
        "ordering": t.ordering.value.lower(),
        "rows": [{**row._asdict(), "score": _json_score(row.score, t.kind)} for row in t.rows],
    }


def _csv_join(rows: Iterable[Sequence[str]]) -> str:
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    text = buffer.getvalue()
    # a reader strips one leading BOM, so text that starts with one gets another
    return "\ufeff" + text if text.startswith("\ufeff") else text


def _aligned(header: list[str], cells: list[list[str]], left: set[int]) -> list[str]:
    widths = [len(h) for h in header]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = []
    for row in [header] + cells:
        parts = [
            cell.ljust(widths[i]) if i in left else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ]
        out.append("  ".join(parts).rstrip())
    return out


def emit_table(t: RankTable, format: TableFormat, decimals: int = 3) -> str:
    """Serialize a rank table.

    TEXT gives aligned columns plus a trailing note on the tie rule, CSV
    the plain ``rank,team,score`` rows, and JSON an object with kind,
    ordering and rows. ``decimals`` controls TEXT and CSV score display;
    JSON always carries full precision (exact integers for points).
    """
    decimals = _check_args(format, decimals)
    if format is TableFormat.JSON:
        import json

        return json.dumps(table_object(t), indent=2) + "\n"
    formatted = [
        [str(row.rank), row.team, _format_score(row.score, t.kind, decimals)] for row in t.rows
    ]
    if format is TableFormat.CSV:
        return _csv_join([_TABLE_HEADER] + formatted)
    lines = _aligned(_TABLE_HEADER, formatted, left={1})
    lines.append(_TIE_NOTE)
    return "\n".join(lines) + "\n"


def _matrix_number(value: float) -> str:
    if value.is_integer() and value <= 1e15 and math.copysign(1.0, value) > 0.0:  # -0.0 as its repr
        return str(int(value))
    return repr(value)


def _matrix_csv(names: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    """The matrix CSV of rows under their names, one row's text at a time, converting each distinct value once."""

    def cells(name: str, row: Sequence[float]) -> list[str]:
        text = {value: _matrix_number(value) for value in set(row)}
        return [name, *map(text.__getitem__, row)]

    return _csv_join(chain([names], map(cells, names, rows)))


def emit_matrix(m: AdjacencyMatrix) -> str:
    """Serialize an adjacency matrix at full precision.

    ``parse_matrix`` of the result reproduces the matrix exactly.
    """
    names, rows = m.index.names, m._rows
    # the memo of _matrix_csv keys -0.0 as 0.0: find one by the byte of each entry that holds its sign bit
    if b"".join(rows)[7 if sys.byteorder == "little" else 0 :: 8].isascii():
        return _matrix_csv(names, rows)
    return _csv_join(chain([names], ([name, *map(_matrix_number, row)] for name, row in zip(names, rows))))


def emit_comparison(report: ComparisonReport, format: TableFormat, decimals: int = 3) -> str:
    """Serialize a ranking comparison (displacements plus Kendall tau-b)."""
    decimals = _check_args(format, decimals)
    tau = report.kendall_tau
    if format is TableFormat.JSON:
        import json

        obj = {
            "rows": [r._asdict() for r in report.rows],
            "kendall_tau_b": None if math.isnan(tau) else float(tau),
        }
        return json.dumps(obj, indent=2) + "\n"
    header = list(ComparisonRow._fields)
    if format is TableFormat.CSV:
        rows = [map(str, r) for r in report.rows]
        return _csv_join([header, *rows]) + f"# kendall_tau_b,{repr(tau)}\n"
    cells = [
        [*map(str, r[:-1]), str(r.displacement) if r.displacement == 0 else f"{r.displacement:+d}"]
        for r in report.rows
    ]
    lines = _aligned(header, cells, left={0})
    lines.append(f"kendall tau-b: {tau:.{decimals}f}")
    return "\n".join(lines) + "\n"


def _table(rows: list[RankRow], declared: Ordering | None, kind: TableKind | None, csv_rows: bool) -> RankTable:
    """Build a parsed table, positioning a broken rule at its CSV line and column or JSON row."""

    def error(i: int, field: str | None, message: str) -> ParseError:
        if not csv_rows:
            return ParseError(f"row {i + 1}: {message}")
        column = _TABLE_HEADER.index(field) + 1 if field else None
        return ParseError(message, line=i + 2, column=column)

    if bad := _bad_row(rows):
        raise error(*bad)
    # the declared ordering, else the one the first score change sets
    ordering = declared
    for i in range(1, len(rows)):
        previous, score = rows[i - 1].score, rows[i].score
        if ordering is None and score != previous:
            ordering = Ordering.ASC_SCORE if score > previous else Ordering.DESC_SCORE
        if score < previous if ordering is Ordering.ASC_SCORE else score > previous:
            if declared is not None:
                raise error(i, None, "scores violate declared ordering")
            raise error(i, None, "scores are not monotone; not a rank table")
    return RankTable(tuple(rows), ordering or Ordering.DESC_SCORE, kind)


def _parse_table_csv(lines: list[str]) -> RankTable:
    rows: list[RankRow] = []
    for line_no, fields in enumerate(_header(lines, _TABLE_HEADER), start=2):
        if len(fields) != 3:
            raise ParseError(f"expected 3 fields, got {len(fields)}", line=line_no)
        rank_field, team, score_field = (f.strip() for f in fields)
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


def _member(obj: dict[str, Any], key: str, enum_type: type[enum.Enum]) -> Any:
    # an optional enum-valued key, named case-insensitively
    if obj.get(key) is None:
        return None
    try:
        return enum_type[str(obj[key]).upper()]
    except KeyError:
        raise ParseError(f"unknown {key} {obj[key]!r}") from None


def _parse_table_json(text: str) -> RankTable:
    # parse_table passes only text that starts with "{", which decodes to an object or not at all
    import json

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except (ValueError, RecursionError) as exc:
        # an integer of more digits than Python converts, or nesting too deep
        raise ParseError(str(exc)) from None
    if "rows" not in obj:
        if "authority" in obj or "hub" in obj:
            raise ParseError("file holds multiple tables; emit a single table to compare")
        raise ParseError("missing key 'rows'")
    raw_rows = obj["rows"]
    if not isinstance(raw_rows, list):
        raise ParseError("'rows' must be an array")
    kind = _member(obj, "kind", TableKind)
    declared = _member(obj, "ordering", Ordering)
    rows: list[RankRow] = []
    for i, raw in enumerate(raw_rows, start=1):
        if not isinstance(raw, dict):
            raise ParseError(f"row {i}: expected an object")
        try:
            rank, team, score = raw["rank"], raw["team"], raw["score"]
        except KeyError as exc:
            raise ParseError(f"row {i}: missing key {exc.args[0]!r}") from None
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise ParseError(f"row {i}: rank must be an integer, got {rank!r}")
        if not isinstance(team, str):
            raise ParseError(f"row {i}: team must be a string, got {team!r}")
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise ParseError(f"row {i}: score must be a number, got {score!r}")
        rows.append(RankRow(rank, team.strip(), _float(score)))  # an int beyond the float range is inf, as in CSV
    return _table(rows, declared, kind, csv_rows=False)


def parse_table(text: str) -> RankTable:
    """Parse a rank table from CSV or JSON (detected from the content).

    Ranks and row order are kept exactly as given; external tables may
    follow tie-break rules of their own. CSV tables get their ordering
    inferred from score monotonicity, JSON tables may declare it.
    """
    lines = _lines(text)
    joined = "\n".join(lines)
    if joined.lstrip().startswith("{"):
        return _parse_table_json(joined)
    return _parse_table_csv(lines)
