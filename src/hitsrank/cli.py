"""Command-line interface: rank, points, matrix and compare commands.

Tables go to stdout, diagnostics and warnings to stderr, so output is
pipe-safe; identical invocations produce byte-identical output, on any
core count when run through ``hitsrank.__main__``, which keeps BLAS on
one thread. Error paths write nothing to stdout.

Exit codes: 0 success, 2 usage error (bad flags, unreadable file,
mismatched team sets), 3 parse error, 4 degenerate graph (no edges),
5 non-convergence when --strict-convergence is set (otherwise it is a
warning on stderr). A converged run whose top eigenvalue is tied warns
on stderr too.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

from hitsrank.graph import TeamIndex, _adjacency, _alphabetical, _checked, _Columns
from hitsrank.io import (
    _MAX_DECIMALS,
    ParseError,
    TableFormat,
    _lines,
    _match_columns,
    _matrix_csv,
    _matrix_rows,
    emit_comparison,
    emit_table,
    parse_table,
    table_object,
)
from hitsrank.rank import HubOrder, _points, compare_rankings, rank_authority, rank_hub

if TYPE_CHECKING:
    from hitsrank.hits import HitsResult

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DEGENERATE = 4
EXIT_NO_CONVERGENCE = 5

_T = TypeVar("_T")

_HUB_ORDERS = {"best-first": HubOrder.BEST_TEAM_FIRST, "raw-desc": HubOrder.RAW_DESC}


class CliError(Exception):
    """A failure that ends the command: ``message`` goes to stderr, ``exit_code`` is returned."""

    def __init__(self, message: str, exit_code: int = EXIT_USAGE):
        super().__init__(message)
        self.message = message
        self.exit_code = exit_code


def _number(
    kind: type, name: str, minimum: int, strict: bool = False, maximum: int | None = None
) -> Callable[[str], float]:
    """argparse type: ``kind`` (int or float) of the text, checked as the parameter ``name``."""

    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            noun = "a number" if kind is float else "an integer"
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        try:
            return _checked(name, value, minimum, strict, integer=kind is int, maximum=maximum)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("text", "csv", "json"),
        default="text",
        help="output format (default text)",
    )
    p.add_argument(
        "--decimals",
        type=_number(int, "decimals", 0, maximum=_MAX_DECIMALS),
        default=3,
        metavar="N",
        help=f"score decimals in text/csv output, 0 to {_MAX_DECIMALS} (default 3; json keeps full precision)",
    )


class _MatchOnly(argparse.Action):
    # "store" ("store_true" with nargs=0) that notes a flag rank refuses on a matrix
    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True if self.nargs == 0 else values)
        namespace.match_only = True


def _add_weight_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--win-weight",
        action=_MatchOnly,
        type=_number(float, "win_weight", 0),
        default=3.0,
        metavar="W",
        help="points a win hands the winner (default 3)",
    )
    p.add_argument(
        "--draw-weight",
        action=_MatchOnly,
        type=_number(float, "draw_weight", 0),
        default=1.0,
        metavar="W",
        help="points a draw hands each side (default 1)",
    )


def _add_match_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--sort-teams",
        action=_MatchOnly,
        nargs=0,
        default=False,
        help="index teams alphabetically instead of by first appearance",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hitsrank",
        description=(
            "Rank round-robin competition teams by hub/authority link analysis "
            "of a weighted match-outcome graph."
        ),
    )
    parser.set_defaults(match_only=False)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    rank = sub.add_parser(
        "rank",
        help="rank teams by authority and/or hub weight",
        description=(
            "Load matches or a pre-built weight matrix, run the mutually "
            "reinforcing iteration and print rank tables. Authority ranks "
            "descending; hub ranks ascending by default because a small hub "
            "weight marks a strong team."
        ),
    )
    rank.add_argument("--input", required=True, metavar="PATH", help="input file")
    rank.add_argument(
        "--input-kind",
        required=True,
        choices=("matches", "matrix"),
        help="whether the input file holds match results or a weight matrix",
    )
    rank.add_argument(
        "--which",
        choices=("authority", "hub", "both"),
        default="both",
        help="which table(s) to print (default both)",
    )
    rank.add_argument(
        "--hub-order",
        choices=tuple(_HUB_ORDERS),
        default="best-first",
        help="hub table order: best-first (ascending weight) or raw-desc",
    )
    rank.add_argument(
        "--tol",
        type=_number(float, "tolerance", 0, strict=True),
        default=1e-12,
        metavar="T",
        help="convergence tolerance on the successive change and the relative residual (default 1e-12)",
    )
    rank.add_argument(
        "--max-iters",
        type=_number(int, "max_iterations", 1),
        default=10000,
        metavar="N",
        help="iteration cap (default 10000)",
    )
    rank.add_argument(
        "--strict-convergence",
        action="store_true",
        help="exit 5 if the iteration cap is hit (default: warn on stderr)",
    )
    rank.add_argument("--verbose", action="store_true", help="solver diagnostics on stderr")
    _add_weight_flags(rank)
    _add_match_input_flags(rank)
    _add_output_flags(rank)
    rank.set_defaults(handler=_cmd_rank)

    points = sub.add_parser(
        "points",
        help="conventional points table from match results",
        description="Print the points standings (3 per win, 1 per draw by default).",
    )
    points.add_argument("--input", required=True, metavar="PATH", help="matches CSV file")
    _add_weight_flags(points)
    _add_output_flags(points)
    points.set_defaults(handler=_cmd_points)

    matrix = sub.add_parser(
        "matrix",
        help="print the adjacency matrix built from match results",
        description=(
            "Build the loser-to-winner weight matrix from a matches CSV and "
            "print it as matrix CSV at full precision."
        ),
    )
    matrix.add_argument("--input", required=True, metavar="PATH", help="matches CSV file")
    _add_weight_flags(matrix)
    _add_match_input_flags(matrix)
    matrix.set_defaults(handler=_cmd_matrix)

    compare = sub.add_parser(
        "compare",
        help="compare two rank tables",
        description=(
            "Read two rank table files (CSV or JSON) over the same team set "
            "and print per-team displacement plus Kendall tau-b. Displacement "
            "is rank in the second table minus rank in the first: positive "
            "means the team sits lower in the second."
        ),
    )
    compare.add_argument("table_a", metavar="TABLE_A", help="first rank table file")
    compare.add_argument("table_b", metavar="TABLE_B", help="second rank table file")
    _add_output_flags(compare)
    compare.set_defaults(handler=_cmd_compare)

    return parser


def _read(path: str) -> str:
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise CliError(f"file not found: {path}", EXIT_USAGE) from None
    except IsADirectoryError:
        raise CliError(f"not a file: {path}", EXIT_USAGE) from None
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_USAGE) from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _decode_error(exc) from None


def _decode_error(exc: UnicodeDecodeError) -> ParseError:
    # the sentinel stands for the bad byte, so the last line always exists
    # and its length is the byte's 1-based column
    lines = _lines(exc.object[: exc.start].decode("utf-8") + "?")
    bad = exc.object[exc.start]
    return ParseError(f"byte 0x{bad:02x} is not valid UTF-8", line=len(lines), column=len(lines[-1]))


def _parse(path: str, parser: Callable[[str], _T]) -> _T:
    try:
        return parser(_read(path))
    except ParseError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE) from None


def _format(args: argparse.Namespace) -> TableFormat:
    return TableFormat[args.format.upper()]


def _summed(total: Callable[[_Columns, float, float], _T], args: argparse.Namespace) -> _T:
    """``total`` (``_adjacency`` or ``_points``) of the matches file at ``--input``, under the weight flags."""
    columns = _parse(args.input, _match_columns)
    try:
        return total(columns, args.win_weight, args.draw_weight)
    except ValueError as exc:  # a sum beyond the float range
        raise CliError(f"--win-weight/--draw-weight too large for {args.input}: {exc}") from None


def _match_rows(args: argparse.Namespace) -> tuple[TeamIndex, list[list[float]]]:
    """The team index and weight rows of the matches file at ``--input``, sorted by name under ``--sort-teams``."""
    index, rows = _summed(_adjacency, args)
    return _alphabetical(index, rows) if args.sort_teams else (index, rows)


def _run_hits(rows: list[list[float]], args: argparse.Namespace) -> HitsResult:
    # only rank loads the solver; it loads numpy only for a league of more
    # than hits._LIST_TEAMS teams, or for the dense eigensolve
    from hitsrank.hits import DegenerateInputError, SolverConfig, _solve

    cfg = SolverConfig(tolerance=args.tol, max_iterations=args.max_iters)
    try:
        result = _solve(rows, cfg)
    except DegenerateInputError as exc:
        raise CliError(str(exc), EXIT_DEGENERATE) from None
    if args.verbose:
        print(f"iterations: {result.iterations}", file=sys.stderr)
        print(f"eigenvalue: {result.authority_eigenvalue!r}", file=sys.stderr)
        print(f"converged: {result.converged}", file=sys.stderr)
        print(f"stalled: {result.stalled}", file=sys.stderr)
    if not result.converged:
        message = f"did not converge within {cfg.max_iterations} iterations"
        if result.stalled:
            message += " (stalled: near-degenerate principal eigenspace)"
        if args.strict_convergence:
            raise CliError(message, EXIT_NO_CONVERGENCE)
        print(f"warning: {message}", file=sys.stderr)
    elif result.stalled:
        message = "the weights are not unique; these project W^T 1 onto the tied eigenspace"
        print(f"warning: tied top eigenvalue: {message}", file=sys.stderr)
    return result


def _cmd_rank(args: argparse.Namespace) -> str:
    if args.input_kind == "matches":
        index, rows = _match_rows(args)
    elif args.match_only:
        raise CliError("--win-weight, --draw-weight and --sort-teams apply only to --input-kind matches")
    else:
        index, rows = _parse(args.input, _matrix_rows)
    result = _run_hits(rows, args)
    fmt = _format(args)
    tables = []
    if args.which in ("authority", "both"):
        tables.append(("authority", rank_authority(result.authority, index)))
    if args.which in ("hub", "both"):
        tables.append(("hub", rank_hub(result.hub, index, _HUB_ORDERS[args.hub_order])))
    if len(tables) == 1:
        return emit_table(tables[0][1], fmt, args.decimals)
    if fmt is TableFormat.JSON:
        import json

        return json.dumps({name: table_object(t) for name, t in tables}, indent=2) + "\n"
    blocks = [f"# {name}\n{emit_table(t, fmt, args.decimals)}" for name, t in tables]
    return "\n".join(blocks)


def _cmd_points(args: argparse.Namespace) -> str:
    return emit_table(_summed(_points, args), _format(args), args.decimals)


def _cmd_matrix(args: argparse.Namespace) -> str:
    index, rows = _match_rows(args)
    return _matrix_csv(index.names, rows)


def _cmd_compare(args: argparse.Namespace) -> str:
    tables = [_parse(path, parse_table) for path in (args.table_a, args.table_b)]
    try:
        report = compare_rankings(tables[0], tables[1])
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    return emit_comparison(report, _format(args), args.decimals)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        output = args.handler(args)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(output)
    return EXIT_OK

