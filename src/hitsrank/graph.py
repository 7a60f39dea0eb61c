"""Weighted directed result graphs for round-robin competitions.

Match outcomes become edges that point from the losing team to the
winning team, so successful teams accumulate heavy columns. A win puts
``win_weight`` points (default 3) in the loser's row under the winner's
column; a draw puts ``draw_weight`` (default 1) in both directions.
Repeated fixtures accumulate additively, which keeps every column sum
equal to the points the column's team earned from the encoded matches.
One encoder, ``_encode``, turns matches into team indices and outcome
codes, whether they come as MatchRecords or as rows of match-list text,
and one accumulator, ``_adjacency``, sums them into plain row lists.
Those rows are what ``hitsrank matrix`` prints, what ``hitsrank rank``
solves and what an AdjacencyMatrix holds; its constructor alone converts
and checks a matrix. Nothing here loads numpy but a first read of ``w``.
"""

from __future__ import annotations

import enum
import math
import numbers
from array import array
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np


def _float(value: object) -> float:
    """``float(value)``, except that an int beyond the float range reads as inf (or -inf)."""
    try:
        return float(value)
    except OverflowError:  # math.copysign would overflow too
        return math.inf if value > 0 else -math.inf


def _floats(values: Sequence[object], name: str) -> array:
    """``values`` as 8-byte floats, read by ``_float``: the number reader of matrix rows and weight vectors.

    Raises:
        ValueError: ``<name> must be numeric: ...`` if ``float`` refuses an entry.
    """
    try:
        return array("d", values)
    except (TypeError, ValueError, OverflowError):  # a numeric string, say, or an int beyond the float range
        try:
            return array("d", map(_float, values))
        except (TypeError, ValueError) as exc:  # None among them, as float refuses it
            raise ValueError(f"{name} must be numeric: {exc}") from None


def _checked(
    name: str,
    value: object,
    minimum: float | None = None,
    strict: bool = False,
    integer: bool = False,
    maximum: float | None = None,
) -> float | int:
    """The number rule of every scalar parameter: ``value`` as a float (an int if ``integer``).

    TypeError unless ``value`` is a ``numbers.Real`` (``numbers.Integral`` if ``integer``) and no bool;
    ValueError unless it is finite as a float, at least ``minimum`` (above it if ``strict``) and at
    most ``maximum``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        kind = "an integer" if integer else "a real number"
        raise TypeError(f"{name} must be {kind}, got {type(value).__name__}")
    number = _float(value)
    value = number if math.isinf(number) else value  # an int beyond the float range prints as inf
    low = minimum is not None and (number <= minimum if strict else number < minimum)
    bound = "" if minimum is None else f" and {'>' if strict else '>='} {minimum}"
    bound += "" if maximum is None else f" and <= {maximum}"
    if not math.isfinite(number) or low or (maximum is not None and number > maximum):
        raise ValueError(f"{name} must be finite{bound}, got {value}")
    return int(value) if integer else number


def _bad_name(name: str) -> str | None:
    """Why a team name is refused, or None: each file must read it back as one trimmed field."""
    if not name.strip():
        return "team names must be non-empty after trimming"
    if name != name.strip():
        return f"team names must not start or end with whitespace, got {name!r}"
    if "\n" in name or "\r" in name:
        return f"team names must not hold a line break, got {name!r}"
    if "\0" in name:  # Python 3.10's csv refuses a line holding NUL
        return f"team names must not hold a NUL character, got {name!r}"
    return None


def _self_play(name: str) -> str:
    return f"a team cannot play itself: {name!r}"


def _bad_entry(rows: Sequence[Sequence[float]]) -> tuple[int, int, str] | None:
    """First entry in row-major order that breaks a matrix rule, as (row, column, message).

    The one owner of the entry rule: each entry finite and nonnegative, and
    zero on the diagonal. ``rows`` is square, of floats.
    """
    for r, row in enumerate(rows):
        # a finite sum rules out inf and nan, and without nan min is exact;
        # a sum past the float range only sends its row to the scan below
        if math.isfinite(sum(row)) and min(row) >= 0.0 and row[r] == 0.0:
            continue
        for c, value in enumerate(row):
            if not math.isfinite(value):
                rule = "finite"
            elif value < 0.0:
                rule = "nonnegative"
            elif c == r and value != 0.0:
                rule = "zero on the diagonal"
            else:
                continue
            return r, c, f"matrix entries must be {rule}, got {value}"
    return None


class _Record:
    """The base of the public value classes, which behave like frozen dataclasses.

    A class's fields are its ``__init__``'s parameters, in order, and its
    ``__init__`` sets each once with ``object.__setattr__``. An instance
    refuses assignment and deletion, prints as ``Name(field=value, ...)``
    and compares and hashes by its fields, or by identity if its class
    is declared with ``eq=False``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _values(self) -> tuple[object, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __getstate__(self) -> dict[str, object]:
        # a cached property is rebuilt on first read, as a copied array would load writable
        return {k: v for k, v in self.__dict__.items() if not isinstance(getattr(type(self), k, None), cached_property)}


class Outcome(enum.Enum):
    """Result of a single match from the perspective of ``team_a``."""

    A_WINS = "A_WINS"
    B_WINS = "B_WINS"
    DRAW = "DRAW"


class MatchRecord(_Record):
    """One fixture outcome between two named teams.

    Team names are stripped of surrounding whitespace on construction.
    Name matching everywhere else is exact after that trim, never fuzzy,
    because silently merging near-identical names corrupts rankings.
    """

    def __init__(self, team_a: str, team_b: str, outcome: Outcome) -> None:
        team_a, team_b = str(team_a).strip(), str(team_b).strip()
        if problem := _bad_name(team_a) or _bad_name(team_b):
            raise ValueError(problem)
        if team_a == team_b:
            raise ValueError(_self_play(team_a))
        if not isinstance(outcome, Outcome):
            raise TypeError(f"outcome must be an Outcome, got {type(outcome).__name__}")
        object.__setattr__(self, "team_a", team_a)
        object.__setattr__(self, "team_b", team_b)
        object.__setattr__(self, "outcome", outcome)


class TeamIndex(_Record):
    """Bijection between team names (unique, non-blank, trimmed, no line break or NUL) and dense indices 0..n-1."""

    def __init__(self, names: tuple[str, ...]) -> None:
        names = tuple(str(name) for name in names)
        pos: dict[str, int] = {}
        for i, name in enumerate(names):
            if problem := _bad_name(name):
                raise ValueError(problem)
            if name in pos:
                raise ValueError(f"duplicate team name: {name!r}")
            pos[name] = i
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_pos", pos)  # no field: equal indexes have equal names

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


class AdjacencyMatrix(_Record, eq=False):
    """Square weight matrix over a TeamIndex, its entries finite and nonnegative.

    Entry (i, j) holds the points team i has conceded toward team j.
    The diagonal is identically zero since a team never plays itself.
    Each instance holds its own checked copy, one ``array('d')`` a team;
    ``w``, a read-only float64 array of those rows, is built on first read.
    """

    def __init__(self, index: TeamIndex, w: np.typing.ArrayLike) -> None:
        n, sequence = len(index), (list, tuple)
        if not (isinstance(w, sequence) and len(w) == n and all(isinstance(r, sequence) and len(r) == n for r in w)):
            import numpy as np  # any other array-like, or rows of another shape, which numpy names

            try:
                w = np.array(w, dtype=np.float64)
            except (TypeError, ValueError, OverflowError) as exc:  # an object array of huge ints overflows
                raise ValueError(f"matrix values must be numeric: {exc}") from None
            if w.shape != (n, n) and not (n == 0 and w.size == 0):  # an empty list of rows has ambiguous shape
                raise ValueError(f"matrix shape {w.shape} does not match {n} teams")
            w = [row.tobytes() for row in w.reshape(n, n)]  # which array("d", ...) reads as they are
        rows = [_floats(row, "matrix values") for row in w]
        if bad := _bad_entry(rows):
            raise ValueError(bad[2])
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_rows", rows)

    @cached_property
    def w(self) -> np.typing.NDArray[np.float64]:
        import numpy as np

        return np.frombuffer(b"".join(self._rows)).reshape(self.n, self.n)  # read-only, as bytes are

    @property
    def n(self) -> int:
        return len(self.index)


# an outcome column holds i for _OUTCOMES[i], seen from the home side
# (team_a); a match list writes it as the letter i of _CODE
_OUTCOMES = tuple(Outcome)
_CODE = {"H": 0, "A": 1, "D": 2}
_LETTER = dict(zip(_OUTCOMES, _CODE))


class _Columns(NamedTuple):
    """Matches as columns: teams in first-appearance order, then home, away and outcome code per match."""

    index: TeamIndex
    home: list[int]
    away: list[int]
    code: list[int]


def _record_rows(matches: Iterable[MatchRecord]) -> Iterator[tuple[str, str, str]]:
    """The (team_a, team_b, outcome letter) row of each record, for ``_encode``.

    Raises:
        TypeError: if an element of ``matches`` is not a MatchRecord.
    """
    for rec in matches:
        if not isinstance(rec, MatchRecord):
            raise TypeError(f"expected MatchRecord, got {type(rec).__name__}")
        yield rec.team_a, rec.team_b, _LETTER[rec.outcome]


def _encode(
    rows: Iterable[Sequence[str]],
    error: Callable[[str, int], Exception] = lambda message, row: ValueError(f"match {row}: {message}"),
) -> _Columns:
    """The columns of (home, away, outcome letter) rows, checked row by row in order.

    The one encoder of matches: match-list text (``io``) and MatchRecords
    (``_record_rows``) both reach the team index and outcome codes here.
    Each row is checked for its field count, outcome letter, names and
    self-play, in that order, so the first broken row is the one
    reported: ``_encode`` raises ``error(message, row)``, rows counted
    from 1, a ValueError unless ``io`` makes it a ParseError of its line.
    Fields are trimmed; a name is checked when it is first seen.
    """
    pos: dict[str, int] = {}  # trimmed name -> team index
    team: dict[str, int] = {}  # field as read -> team index
    outcome: dict[str, int] = {}  # field as read -> outcome code
    home: list[int] = []
    away: list[int] = []
    code: list[int] = []

    def team_of(field: str, row_no: int) -> int:
        name = field.strip()
        if name not in pos:
            if problem := _bad_name(name):
                raise error(problem, row_no)
            pos[name] = len(pos)
        team[field] = pos[name]
        return pos[name]

    for row_no, row in enumerate(rows, start=1):
        if len(row) != 3:
            raise error(f"expected 3 fields, got {len(row)}", row_no)
        h, a, c = row
        if (k := outcome.get(c)) is None:
            letter = c.strip()
            if letter not in _CODE:
                raise error(f"unknown outcome {letter!r}, expected H, A or D", row_no)
            k = outcome[c] = _CODE[letter]
        if (i := team.get(h)) is None:
            i = team_of(h, row_no)
        if (j := team.get(a)) is None:
            j = team_of(a, row_no)
        if i == j:
            raise error(_self_play(h.strip()), row_no)
        home.append(i)
        away.append(j)
        code.append(k)
    return _Columns(TeamIndex(tuple(pos)), home, away, code)


def _adjacency(columns: _Columns, win_weight: float, draw_weight: float) -> tuple[TeamIndex, list[list[float]]]:
    """The team index and loser-to-winner rows of match columns, for weights already checked.

    The one accumulator: each match adds its points to its cells in file
    order, a win ``win_weight`` at (loser, winner) and a draw
    ``draw_weight`` at (away, home) and then at (home, away), so each
    cell sums its terms in match order.

    Raises:
        ValueError: if a sum overflows the float range.
    """
    n = len(columns.index)
    rows = [[0.0] * n for _ in range(n)]
    home_win, away_win = _CODE["H"], _CODE["A"]
    for i, j, k in zip(*columns[1:]):
        if k == home_win:  # the commonest outcome first
            rows[j][i] += win_weight
        elif k == away_win:
            rows[i][j] += win_weight
        else:
            rows[j][i] += draw_weight
            rows[i][j] += draw_weight
    # with nonnegative finite terms, a row holding an inf cell sums to inf
    if any(math.inf in row for row in rows if sum(row) == math.inf):
        raise ValueError("matrix entries must be finite, got inf")
    return columns.index, rows


def _alphabetical(index: TeamIndex, rows: Sequence[Sequence[float]]) -> tuple[TeamIndex, list[list[float]]]:
    """The team index and rows with teams, rows and columns alike, in name order."""
    names = index.names
    order = sorted(range(len(names)), key=names.__getitem__)
    return TeamIndex(tuple(names[i] for i in order)), [[row[j] for j in order] for row in map(rows.__getitem__, order)]


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
        win_weight: points granted to the winner.
        draw_weight: points granted to both sides of a draw.

    Raises:
        TypeError: if a weight is not a real number (``numbers.Real``, not
            a bool), or an element of ``matches`` is not a MatchRecord.
        ValueError: if a weight is negative or not finite as a float, or
            a cell's sum overflows the float range.
    """
    win_weight = _checked("win_weight", win_weight, 0)
    draw_weight = _checked("draw_weight", draw_weight, 0)
    return AdjacencyMatrix(*_adjacency(_encode(_record_rows(matches)), win_weight, draw_weight))


def transpose(m: AdjacencyMatrix) -> AdjacencyMatrix:
    """Reverse every edge, keeping the same team index."""
    return AdjacencyMatrix(m.index, list(zip(*m._rows)))


def from_named_matrix(names: Sequence[str], values: np.typing.ArrayLike) -> AdjacencyMatrix:
    """Wrap pre-aggregated weights verbatim under the given team names.

    Use this for weight matrices whose aggregation rule is external to
    this library; nothing is derived or rescaled.

    Raises:
        ValueError: on duplicate or blank names, a line break or NUL in a name,
            a dimension mismatch, or a broken entry (see ``AdjacencyMatrix``).
    """
    return AdjacencyMatrix(TeamIndex(tuple(str(name).strip() for name in names)), values)


def sort_teams(m: AdjacencyMatrix) -> AdjacencyMatrix:
    """Reorder rows and columns so team names are alphabetical.

    Useful for byte-stable output when the input match order varies.
    """
    return AdjacencyMatrix(*_alphabetical(m.index, m._rows))
