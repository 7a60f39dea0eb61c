"""The exit-code contract of ``hitsrank`` on random weight matrices and match lists.

Every call ends in a documented exit code and never lets an exception
out of ``main``; exit 4 means the matrix has no nonzero entry, and a
successful call prints finite, unit-norm weights. The matrix cases span
entry scales from 1e-300 to 1e300 (normal floats only: a subnormal entry
has lost digits before the solver sees it), tolerances from 1e-300 to
1e300 and iteration caps from 1 to 10,000. The match-list cases run
``rank --input-kind matches``, ``points`` and ``matrix`` on random and
byte-mutated lists under weights from 0 to near the float maximum. The
file cases run ``rank --input-kind matrix`` and ``compare`` on
byte-mutated copies of the matrix and rank-table files in ``data/``,
``compare`` under random ``--format`` and ``--decimals`` values.
"""

import contextlib
import io
import json
import math
import random
import warnings

from conftest import DATA_DIR, match_list_text, mutate

from hitsrank import (
    ParseError,
    TableFormat,
    build_adjacency,
    compare_rankings,
    emit_comparison,
    emit_matrix,
    emit_table,
    from_named_matrix,
    hits,
    parse_matches,
    parse_matrix,
    parse_table,
    points_table,
    rank_authority,
    sort_teams,
)
from hitsrank.cli import EXIT_DEGENERATE, EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main

EXIT_CODES = {EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_DEGENERATE, EXIT_NO_CONVERGENCE}


def random_matrix(rnd: random.Random) -> list[list[float]]:
    n = rnd.randint(1, 6)
    scale = 10.0 ** rnd.uniform(-300.0, 300.0)
    density = rnd.random()
    return [
        [scale * 10.0 ** rnd.uniform(-3.0, 0.0) if i != j and rnd.random() < density else 0.0 for j in range(n)]
        for i in range(n)
    ]


def matrix_text(w: list[list[float]]) -> str:
    names = [f"t{i}" for i in range(len(w))]
    rows = [",".join(names)] + [",".join([name] + [repr(x) for x in row]) for name, row in zip(names, w)]
    return "\n".join(rows) + "\n"


def call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    # a warning would reach stderr ahead of the error line, so it fails the case
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_unit_norm_weights(out: str, context: str) -> None:
    tables = json.loads(out)
    for kind in ("authority", "hub"):
        scores = [row["score"] for row in tables[kind]["rows"]]
        assert all(math.isfinite(s) and s >= 0.0 for s in scores), context
        assert abs(math.sqrt(sum(s * s for s in scores)) - 1.0) <= 1e-9, context


def test_rank_matrix_exit_codes(tmp_path):
    rnd = random.Random(20131018)
    path = tmp_path / "matrix.csv"
    seen = {code: 0 for code in EXIT_CODES}
    for case in range(600):
        w = random_matrix(rnd)
        path.write_text(matrix_text(w))
        argv = [
            "rank", "--input", str(path), "--input-kind", "matrix", "--format", "json",
            "--tol", repr(10.0 ** rnd.uniform(-300.0, 300.0)),
            "--max-iters", str(int(10.0 ** rnd.uniform(0.0, 4.0))),
        ]
        if rnd.random() < 0.5:
            argv.append("--strict-convergence")
        code, out, err = call(argv)
        context = f"case {case}: {argv} on {w}"
        assert code in EXIT_CODES, context
        seen[code] += 1
        assert (code == EXIT_DEGENERATE) == (not any(any(row) for row in w)), context
        if code != EXIT_OK:
            assert out == "", context
            assert err.startswith(("error:", "usage:")), context
            continue
        assert_unit_norm_weights(out, context)
    # the draw reaches every outcome the solver can give
    assert seen[EXIT_OK] and seen[EXIT_DEGENERATE] and seen[EXIT_NO_CONVERGENCE], seen


def random_weight(rnd: random.Random) -> float:
    # the last choice makes a repeated fixture's sum overflow
    return rnd.choice([0.0, 1.0, 3.0, rnd.uniform(0.0, 5.0), 10.0 ** rnd.uniform(-300.0, 308.0), rnd.uniform(0.5, 1.0) * 1.7e308])


def library_output(command: str, data: bytes, win: float, draw: float, sort: bool) -> tuple[int, str | None]:
    """The exit code the CLI owes, and for points and matrix the stdout, from the public record path."""
    try:
        records = parse_matches(data.decode("utf-8"))
    except (UnicodeDecodeError, ParseError):
        return EXIT_PARSE, None
    try:
        if command == "points":
            return EXIT_OK, emit_table(points_table(records, win, draw), TableFormat.CSV)
        m = build_adjacency(records, win, draw)
    except ValueError:  # a sum beyond the float range
        return EXIT_USAGE, None
    if command == "matrix":
        return EXIT_OK, emit_matrix(sort_teams(m) if sort else m)
    return (EXIT_OK if m.w.any() else EXIT_DEGENERATE), None


def test_match_list_exit_codes(tmp_path):
    rnd = random.Random(20131020)
    mini = (DATA_DIR / "mini_league_matches.csv").read_bytes()
    path = tmp_path / "matches.csv"
    seen = {code: 0 for code in EXIT_CODES}
    for case in range(600):
        data = mini if rnd.random() < 0.3 else match_list_text(rnd).encode()
        if rnd.random() < 0.6:
            data = mutate(rnd, data)
        path.write_bytes(data)
        command = rnd.choice(["rank", "points", "matrix"])
        win, draw = random_weight(rnd), random_weight(rnd)
        sort = command != "points" and rnd.random() < 0.5
        argv = [command, "--input", str(path), "--win-weight", repr(win), "--draw-weight", repr(draw)]
        argv += ["--sort-teams"] * sort
        argv += {"rank": ["--input-kind", "matches", "--format", "json"], "points": ["--format", "csv"]}.get(command, [])
        code, out, err = call(argv)
        context = f"case {case}: {argv} on {data[:300]!r}"
        assert code in EXIT_CODES, context
        seen[code] += 1
        expected, expected_out = library_output(command, data, win, draw, sort)
        assert code == expected, context
        if code != EXIT_OK:
            assert out == "", context
            assert err.startswith(("error:", "usage:")), context
        elif expected_out is not None:
            # the CLI's columns give the bits of the public record path
            assert out == expected_out, context
        else:
            assert_unit_norm_weights(out, context)
    assert seen[EXIT_OK] and seen[EXIT_USAGE] and seen[EXIT_PARSE] and seen[EXIT_DEGENERATE], seen


def parsed(parser, data: bytes):
    """``parser`` of the file's text, or None where the CLI owes a parse error."""
    try:
        return parser(data.decode("utf-8"))
    except (UnicodeDecodeError, ParseError):
        return None


def random_decimals(rnd: random.Random) -> tuple[str, int | None]:
    """A ``--decimals`` text and the value it gives, None for a usage error."""
    # past 2**31 the format itself refuses the precision
    value = rnd.choice([rnd.randint(0, 20)] * 3 + [rnd.randint(1070, 1080), int(10.0 ** rnd.uniform(9.5, 30.0)), -1])
    text = rnd.choice([str(value)] * 6 + ["1.5", "x", ""])
    return text, (value if text == str(value) and 0 <= value <= 1074 else None)


def compare_output(data_a: bytes, data_b: bytes, fmt: str, decimals: int) -> tuple[int, str | None]:
    """The exit code and stdout ``compare`` owes, from the public calls."""
    tables = [parsed(parse_table, data) for data in (data_a, data_b)]
    if None in tables:
        return EXIT_PARSE, None
    try:
        report = compare_rankings(*tables)
    except ValueError:  # team sets differ
        return EXIT_USAGE, None
    return EXIT_OK, emit_comparison(report, TableFormat[fmt.upper()], decimals)


def test_data_file_exit_codes(tmp_path):
    rnd = random.Random(20131022)
    league = (DATA_DIR / "epl_2010_11_adjacency.csv").read_bytes()
    m = parse_matrix(league.decode())
    authority = rank_authority(hits(m).authority, m.index)
    # the same teams with no results, so the draw reaches exit 4
    matrices = [league, emit_matrix(from_named_matrix(m.index.names, 0.0 * m.w)).encode()]
    tables = [
        (DATA_DIR / "epl_2010_11_official_points.csv").read_bytes(),
        emit_table(authority, TableFormat.JSON).encode(),
        emit_table(authority, TableFormat.CSV).encode(),
    ]
    paths = [tmp_path / "a", tmp_path / "b"]
    seen = {code: 0 for code in EXIT_CODES}
    for case in range(600):
        if rnd.random() < 0.4:
            data = rnd.choice(matrices)
            data = mutate(rnd, data) if rnd.random() < 0.7 else data
            paths[0].write_bytes(data)
            argv = ["rank", "--input", str(paths[0]), "--input-kind", "matrix", "--format", "json"]
            matrix = parsed(parse_matrix, data)
            expected = EXIT_PARSE if matrix is None else EXIT_OK if matrix.w.any() else EXIT_DEGENERATE
            expected_out, context = None, f"case {case}: {argv} on {data[:300]!r}"
        else:
            pair = [rnd.choice(tables) for _ in paths]
            pair = [mutate(rnd, data) if rnd.random() < 0.4 else data for data in pair]
            for path, data in zip(paths, pair):
                path.write_bytes(data)
            fmt = rnd.choice(["text", "csv", "json"] * 3 + ["xml"])
            decimals_text, decimals = random_decimals(rnd)
            argv = ["compare", *map(str, paths), "--format", fmt, "--decimals", decimals_text]
            if fmt == "xml" or decimals is None:
                expected, expected_out = EXIT_USAGE, None
            else:
                expected, expected_out = compare_output(*pair, fmt, decimals)
            context = f"case {case}: {argv} on {pair[0][:200]!r} and {pair[1][:200]!r}"
        code, out, err = call(argv)
        assert code in EXIT_CODES, context
        seen[code] += 1
        assert code == expected, context
        if code != EXIT_OK:
            assert out == "", context
            assert err.startswith(("error:", "usage:")), context
        elif expected_out is not None:
            assert out == expected_out, context
        else:
            assert_unit_norm_weights(out, context)
    assert seen[EXIT_OK] and seen[EXIT_USAGE] and seen[EXIT_PARSE] and seen[EXIT_DEGENERATE], seen
