"""End-to-end command line behavior: outputs, diagnostics and exit codes."""

import ast
import contextlib
import csv
import io
import json
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import DATA_DIR, awkward_names, ladder, random_matches, random_weights

import hitsrank
from hitsrank import Outcome, build_adjacency, emit_matrix, from_named_matrix, sort_teams
from hitsrank.cli import (
    EXIT_DEGENERATE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    CliError,
    build_parser,
    main,
)

MINI = str(DATA_DIR / "mini_league_matches.csv")
LEAGUE = str(DATA_DIR / "epl_2010_11_adjacency.csv")
OFFICIAL = str(DATA_DIR / "epl_2010_11_official_points.csv")
SRC = str(DATA_DIR.parent / "src")
# a field one character past the csv module's limit, and the error it gives
LONG_FIELD = "x" * (csv.field_size_limit() + 1)
FIELD_LIMIT_ERROR = f"field larger than field limit ({csv.field_size_limit()})"
TIE_WARNING = "warning: tied top eigenvalue: the weights are not unique; these project W^T 1 onto the tied eigenspace\n"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env() -> dict[str, str]:
    """This environment with the package source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def tied_matrix_file(tmp_path) -> str:
    """A 7-team matrix whose tied top eigenvalue the dense eigensolve finds and the run converges on."""
    # two blocks share the top singular value c, and the next one, 1,
    # keeps the sweeps slow until the dense eigensolve finds the tie
    c = 1.0 + 1e-7
    w = np.zeros((7, 7))
    w[0, 1], w[1, 0] = c, 1.0
    w[3:, 2] = c / 2.0
    path = tmp_path / "tied.csv"
    path.write_text(emit_matrix(from_named_matrix([f"t{i}" for i in range(7)], w)))
    return str(path)


class TestRankCommand:
    def test_both_tables_by_default(self, capsys):
        code, out, err = run(
            capsys, "rank", "--input", MINI, "--input-kind", "matches"
        )
        assert code == EXIT_OK
        assert out.startswith("# authority\n")
        assert "\n# hub\n" in out
        assert err == ""

    def test_authority_only_text(self, capsys):
        code, out, _ = run(
            capsys,
            "rank", "--input", MINI, "--input-kind", "matches", "--which", "authority",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == ["rank", "team", "score"]
        assert lines[1].split() == ["1", "A", "0.737"]
        assert lines[2].split() == ["2", "D", "0.591"]
        assert lines[3].split() == ["3", "B", "0.328"]
        assert lines[4].split() == ["4", "C", "0.000"]

    def test_hub_best_team_first(self, capsys):
        code, out, _ = run(
            capsys,
            "rank", "--input", MINI, "--input-kind", "matches", "--which", "hub",
            "--format", "csv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[1].startswith("1,D,")

    def test_hub_raw_descending(self, capsys):
        code, out, _ = run(
            capsys,
            "rank", "--input", MINI, "--input-kind", "matches", "--which", "hub",
            "--hub-order", "raw-desc", "--format", "csv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[1].startswith("1,B,")

    def test_matrix_input_league_authority_leader(self, capsys):
        code, out, _ = run(
            capsys,
            "rank", "--input", LEAGUE, "--input-kind", "matrix",
            "--which", "authority", "--format", "csv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[1].startswith("1,Manchester City,0.34")

    def test_matrix_input_league_hub_leader(self, capsys):
        code, out, _ = run(
            capsys,
            "rank", "--input", LEAGUE, "--input-kind", "matrix",
            "--which", "hub", "--format", "csv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[1] == "1,Manchester United,0.008"

    def test_json_both_holds_two_tables(self, capsys):
        code, out, _ = run(
            capsys,
            "rank", "--input", MINI, "--input-kind", "matches", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"authority", "hub"}
        assert doc["authority"]["kind"] == "authority"
        assert doc["hub"]["ordering"] == "asc_score"
        # full precision in json regardless of --decimals
        assert doc["authority"]["rows"][0]["score"] == pytest.approx(
            0.7369762290994177, abs=1e-15
        )

    def test_decimals_affect_text_not_json(self, capsys):
        _, text_out, _ = run(
            capsys,
            "rank", "--input", MINI, "--input-kind", "matches",
            "--which", "authority", "--decimals", "1",
        )
        assert "0.7\n" in text_out or " 0.7" in text_out
        _, json_out, _ = run(
            capsys,
            "rank", "--input", MINI, "--input-kind", "matches",
            "--which", "authority", "--format", "json", "--decimals", "1",
        )
        doc = json.loads(json_out)
        assert doc["rows"][0]["score"] != 0.7

    def test_custom_weights_change_scores(self, capsys, tmp_path):
        # wins and draws must be weighted differently for the flag to bite
        f = tmp_path / "mixed.csv"
        f.write_text("home,away,outcome\nA,B,H\nB,C,D\nC,A,D\n")
        _, out_default, _ = run(
            capsys,
            "rank", "--input", str(f), "--input-kind", "matches", "--which", "authority",
            "--format", "csv", "--decimals", "6",
        )
        _, out_flat, _ = run(
            capsys,
            "rank", "--input", str(f), "--input-kind", "matches", "--which", "authority",
            "--format", "csv", "--decimals", "6", "--win-weight", "1",
        )
        assert out_default != out_flat

    def test_verbose_reports_solver_diagnostics(self, capsys):
        code, out, err = run(
            capsys,
            "rank", "--input", MINI, "--input-kind", "matches", "--verbose",
        )
        assert code == EXIT_OK
        assert "iterations:" in err
        assert "eigenvalue:" in err
        assert "converged: True" in err
        assert "stalled: False" in err
        _, quiet_out, quiet_err = run(
            capsys, "rank", "--input", MINI, "--input-kind", "matches"
        )
        assert quiet_err == ""
        assert out == quiet_out

    def test_verbose_reports_a_tied_top_eigenvalue(self, capsys, tmp_path):
        argv = ("rank", "--input", tied_matrix_file(tmp_path), "--input-kind", "matrix", "--format", "json")
        code, out, err = run(capsys, *argv, "--verbose")
        assert code == EXIT_OK
        assert "converged: True\nstalled: True\n" in err
        assert err.endswith(f"\n{TIE_WARNING}")
        assert out == run(capsys, *argv)[1]

    def test_a_converged_tie_warns_in_one_line(self, capsys, tmp_path):
        argv = ("rank", "--input", tied_matrix_file(tmp_path), "--input-kind", "matrix")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, TIE_WARNING)
        # stdout is the same as under --verbose
        assert out == run(capsys, *argv, "--verbose")[1]
        # a run stopped at the sweep that found the tie keeps its one unconverged message
        unconverged = "did not converge within 50 iterations (stalled: near-degenerate principal eigenspace)\n"
        assert run(capsys, *argv, "--max-iters", "50")[::2] == (EXIT_OK, f"warning: {unconverged}")
        strict = run(capsys, *argv, "--max-iters", "50", "--strict-convergence")
        assert strict == (EXIT_NO_CONVERGENCE, "", f"error: {unconverged}")

    @pytest.mark.parametrize(
        "block",
        [random_weights(np.random.default_rng(3), 6), ladder(60)],
        ids=["conference", "ladder"],
    )
    def test_a_tie_the_sweeps_settle_warns(self, capsys, tmp_path, block):
        # two unlinked copies of one conference, which the sweeps settle before sweep 50
        k = len(block)
        z = np.zeros((k, k))
        path = tmp_path / "twins.csv"
        names = [f"t{i:03d}" for i in range(2 * k)]
        path.write_text(emit_matrix(from_named_matrix(names, np.block([[block, z], [z, block]]))))
        argv = ("rank", "--input", str(path), "--input-kind", "matrix", "--format", "json")
        code, out, err = run(capsys, *argv, "--verbose")
        assert code == EXIT_OK
        assert "converged: True\nstalled: True\n" in err
        assert err.endswith(f"\n{TIE_WARNING}")
        assert run(capsys, *argv) == (EXIT_OK, out, TIE_WARNING)
        # stdout holds the weights alone, and each team scores as its copy does
        scores = {row["team"]: row["score"] for row in json.loads(out)["authority"]["rows"]}
        for i in range(k):
            assert scores[names[i]] == pytest.approx(scores[names[i + k]], rel=0.0, abs=1e-15)

    def test_deterministic_output(self, capsys):
        args = ("rank", "--input", LEAGUE, "--input-kind", "matrix", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_library_and_cli_weights_are_the_same_bits(self, capsys):
        # one solver: hits() sweeps a small league on m.w.tolist(), as rank sweeps its rows
        with open(LEAGUE, encoding="utf-8") as f:
            m = hitsrank.parse_matrix(f.read())
        result = hitsrank.hits(m)
        _, out, _ = run(capsys, "rank", "--input", LEAGUE, "--input-kind", "matrix", "--format", "json")
        tables = json.loads(out)
        for name, weights in (("authority", result.authority), ("hub", result.hub)):
            scores = {row["team"]: row["score"] for row in tables[name]["rows"]}
            assert scores == dict(zip(m.index.names, weights.values.tolist()))

    def test_unconverged_warns_but_succeeds(self, capsys):
        code, out, err = run(
            capsys,
            "rank", "--input", MINI, "--input-kind", "matches", "--max-iters", "1",
        )
        assert code == EXIT_OK
        assert "did not converge" in err
        assert out != ""

    @pytest.mark.parametrize("tol", ["1e-2", "1.5", "1e300"])
    @pytest.mark.parametrize("source", [(MINI, "matches"), (LEAGUE, "matrix")])
    def test_loose_tolerance_succeeds(self, capsys, tol, source):
        # the eigenvalue estimates must still agree before the run counts as converged
        code, out, err = run(capsys, "rank", "--input", source[0], "--input-kind", source[1], "--tol", tol)
        assert code == EXIT_OK
        assert out != ""
        assert err == ""

    def test_near_tie_output_does_not_depend_on_the_cap(self, capsys, tmp_path):
        # two copies of a 10-team league, the second 0.9999 as strong:
        # lambda2/lambda1 = 0.9998, and the principal vector is 0 on the
        # weaker copy
        league = random_weights(np.random.default_rng(5), 10)
        w = np.zeros((20, 20))
        w[:10, :10] = league
        w[10:, 10:] = 0.9999 * league
        path = tmp_path / "twin.csv"
        path.write_text(emit_matrix(from_named_matrix([f"t{i}" for i in range(20)], w)))
        outputs = []
        for cap in ("10000", "100000"):
            code, out, err = run(
                capsys, "rank", "--input", str(path), "--input-kind", "matrix", "--format", "json", "--max-iters", cap
            )
            assert (code, err) == (EXIT_OK, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]
        rows = json.loads(outputs[0])["authority"]["rows"]
        assert max(r["score"] for r in rows if int(r["team"][1:]) >= 10) <= 1e-8

    def test_strict_convergence_fails(self, capsys):
        code, out, err = run(
            capsys,
            "rank", "--input", MINI, "--input-kind", "matches",
            "--max-iters", "1", "--strict-convergence",
        )
        assert code == EXIT_NO_CONVERGENCE
        assert out == ""
        assert "did not converge" in err

    def test_degenerate_graph_exit_code(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("home,away,outcome\n")
        code, out, err = run(
            capsys, "rank", "--input", str(empty), "--input-kind", "matches"
        )
        assert code == EXIT_DEGENERATE
        assert out == ""
        assert "error:" in err

    def test_parse_error_exit_code_names_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("home,away,outcome\nX,X,D\n")
        code, out, err = run(
            capsys, "rank", "--input", str(bad), "--input-kind", "matches"
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert str(bad) in err
        assert "line 2" in err

    def test_non_utf8_input_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("home,away,outcome\nA,Kö,H\n".encode("latin-1"))
        code, out, err = run(capsys, "points", "--input", str(bad))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error: {bad}: line 2, column 4: byte 0xf6 is not valid UTF-8\n"

    def test_bad_byte_after_form_feed_counts_only_newlines(self, capsys, tmp_path):
        bad = tmp_path / "ff.csv"
        bad.write_bytes(b"home,away,outcome\nA,B,H\nX\x0cY,\xff,H\n")
        code, out, err = run(capsys, "points", "--input", str(bad))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error: {bad}: line 3, column 5: byte 0xff is not valid UTF-8\n"

    def test_matrix_field_past_the_csv_limit_is_a_parse_error(self, capsys, tmp_path):
        f = tmp_path / "long.csv"
        f.write_text(f"A,B\nA,0,1\nB,{LONG_FIELD},0\n")
        code, out, err = run(capsys, "rank", "--input", str(f), "--input-kind", "matrix")
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error: {f}: line 3: {FIELD_LIMIT_ERROR}\n"

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "rank", "--input", str(tmp_path / "nope.csv"), "--input-kind", "matches",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "not found" in err

    def test_directory_input_rejected(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "rank", "--input", str(tmp_path), "--input-kind", "matches"
        )
        assert code == EXIT_USAGE
        assert out == ""

    def test_path_through_a_regular_file_cannot_be_read(self, capsys):
        bad = f"{MINI}/x"
        code, out, err = run(capsys, "rank", "--input", bad, "--input-kind", "matches")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: cannot read {bad}: ")

    def test_usage_errors(self, capsys):
        code, _, _ = run(capsys, "rank", "--input-kind", "matches")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "rank", "--input", MINI)
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "rank", "--input", MINI, "--input-kind", "nonsense")
        assert code == EXIT_USAGE
        code, _, _ = run(
            capsys, "rank", "--input", MINI, "--input-kind", "matches", "--tol", "-1"
        )
        assert code == EXIT_USAGE
        code, _, _ = run(
            capsys,
            "rank", "--input", MINI, "--input-kind", "matches", "--decimals", "-2",
        )
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "no-such-command")
        assert code == EXIT_USAGE
        for flag in (["--win-weight", "2"], ["--draw-weight", "1"], ["--sort-teams"]):
            code, out, err = run(
                capsys, "rank", "--input", LEAGUE, "--input-kind", "matrix", *flag
            )
            assert code == EXIT_USAGE
            assert out == ""
            assert "apply only to --input-kind matches" in err


# flag, text, the value parsed, or the error argparse reports (exit 2)
FLAG_CASES = [
    ("--tol", "1e400", "tolerance must be finite and > 0, got inf"),
    ("--tol", "1_0", 10.0),
    ("--tol", "-0.0", "tolerance must be finite and > 0, got -0.0"),
    ("--tol", "nan", "tolerance must be finite and > 0, got nan"),
    ("--tol", "x", "not a number: 'x'"),
    ("--max-iters", "1e400", "not an integer: '1e400'"),
    ("--max-iters", "1_0", 10),
    ("--max-iters", "-0.0", "not an integer: '-0.0'"),
    ("--max-iters", "nan", "not an integer: 'nan'"),
    ("--max-iters", "0", "max_iterations must be finite and >= 1, got 0"),
    ("--max-iters", "9" * 5000, "not an integer: '999"),
    ("--max-iters", "9" * 400, "max_iterations must be finite and >= 1, got inf"),
    ("--win-weight", "1e400", "win_weight must be finite and >= 0, got inf"),
    ("--win-weight", "1_0", 10.0),
    ("--win-weight", "-0.0", -0.0),
    ("--win-weight", "nan", "win_weight must be finite and >= 0, got nan"),
    ("--draw-weight", "-1", "draw_weight must be finite and >= 0, got -1.0"),
    ("--decimals", "1e400", "not an integer: '1e400'"),
    ("--decimals", "1_0", 10),
    ("--decimals", "-0.0", "not an integer: '-0.0'"),
    ("--decimals", "nan", "not an integer: 'nan'"),
    ("--decimals", "1.5", "not an integer: '1.5'"),
    ("--decimals", "1074", 1074),
    ("--decimals", "2147483648", "decimals must be finite and >= 0 and <= 1074, got 2147483648"),
]


class TestNumberFlags:
    @pytest.mark.parametrize(
        "flag, text, expected", FLAG_CASES, ids=[f"{flag}={text[:10]}" for flag, text, _ in FLAG_CASES]
    )
    def test_case_table(self, capsys, flag, text, expected):
        argv = ["rank", "--input", MINI, "--input-kind", "matches", flag, text]
        if isinstance(expected, str):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == EXIT_USAGE
            assert f"argument {flag}: {expected}" in capsys.readouterr().err
        else:
            value = getattr(build_parser().parse_args(argv), flag[2:].replace("-", "_"))
            assert value == expected and type(value) is type(expected)


class TestPointsCommand:
    def test_mini_league_csv(self, capsys):
        code, out, _ = run(capsys, "points", "--input", MINI, "--format", "csv")
        assert code == EXIT_OK
        assert out == "rank,team,score\n1,A,6\n1,D,6\n3,B,3\n3,C,3\n"

    def test_text_has_tie_note(self, capsys):
        code, out, _ = run(capsys, "points", "--input", MINI)
        assert code == EXIT_OK
        assert out.splitlines()[-1].startswith("# ties share the smaller rank")

    def test_custom_win_points(self, capsys, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("home,away,outcome\nA,B,H\n")
        code, out, _ = run(
            capsys, "points", "--input", str(f), "--win-weight", "2", "--format", "csv"
        )
        assert code == EXIT_OK
        assert out.splitlines()[1] == "1,A,2"


    def test_field_past_the_csv_limit_is_a_parse_error(self, capsys, tmp_path):
        f = tmp_path / "long.csv"
        f.write_text(f"home,away,outcome\nA,B,H\n{LONG_FIELD},B,H\n")
        code, out, err = run(capsys, "points", "--input", str(f))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error: {f}: line 3: {FIELD_LIMIT_ERROR}\n"

    def test_total_past_the_float_range_is_a_usage_error(self, capsys, tmp_path):
        f = tmp_path / "two.csv"
        f.write_text("home,away,outcome\nX,Y,H\nY,X,A\n")
        code, out, err = run(capsys, "points", "--input", str(f), "--win-weight", "1e308")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: --win-weight/--draw-weight too large for {f}: score must be finite, got inf\n"


class TestMatrixCommand:
    def test_sum_past_the_float_range_is_a_usage_error(self, capsys, tmp_path):
        f = tmp_path / "two.csv"
        f.write_text("home,away,outcome\nX,Y,H\nY,X,A\n")
        for argv in (["matrix"], ["rank", "--input-kind", "matches"]):
            code, out, err = run(capsys, *argv, "--input", str(f), "--win-weight", "1e308")
            assert code == EXIT_USAGE
            assert out == ""
            assert err == f"error: --win-weight/--draw-weight too large for {f}: matrix entries must be finite, got inf\n"

    def test_mini_league_bytes(self, capsys):
        code, out, _ = run(capsys, "matrix", "--input", MINI)
        assert code == EXIT_OK
        assert out == (
            "A,B,C,D\n"
            "A,0,0,0,3\n"
            "B,3,0,0,3\n"
            "C,3,3,0,0\n"
            "D,0,0,3,0\n"
        )

    def test_sort_teams(self, capsys, tmp_path):
        f = tmp_path / "rev.csv"
        f.write_text("home,away,outcome\nZeta,Alpha,H\n")
        _, unsorted_out, _ = run(capsys, "matrix", "--input", str(f))
        assert unsorted_out.splitlines()[0] == "Zeta,Alpha"
        _, sorted_out, _ = run(capsys, "matrix", "--input", str(f), "--sort-teams")
        assert sorted_out.splitlines()[0] == "Alpha,Zeta"

    def test_repeated_fixture_accumulates(self, capsys, tmp_path):
        f = tmp_path / "two.csv"
        f.write_text("home,away,outcome\nX,Y,H\nY,X,A\n")
        _, out, _ = run(capsys, "matrix", "--input", str(f))
        assert out == "X,Y\nX,0,0\nY,6,0\n"

    @pytest.mark.parametrize("win, draw", [(0.1, 1 / 3), (1 / 3, 0.1)])
    @pytest.mark.parametrize("sort", [False, True])
    def test_same_text_as_the_library(self, capsys, tmp_path, win, draw, sort):
        rng = np.random.default_rng(29)
        letter = {Outcome.A_WINS: "H", Outcome.B_WINS: "A", Outcome.DRAW: "D"}
        f = tmp_path / "matches.csv"
        # the last list is empty, so its file holds only the header
        for records in [random_matches(rng, max_teams=7, max_matches=80) for _ in range(10)] + [[]]:
            f.write_text("home,away,outcome\n" + "".join(f"{r.team_a},{r.team_b},{letter[r.outcome]}\n" for r in records))
            m = build_adjacency(records, win, draw)
            argv = ["matrix", "--input", str(f), "--win-weight", repr(win), "--draw-weight", repr(draw)]
            expected = emit_matrix(sort_teams(m) if sort else m)
            assert run(capsys, *argv, *(["--sort-teams"] if sort else [])) == (EXIT_OK, expected, "")

    def test_no_matches_gives_header_only(self, capsys, tmp_path):
        f = tmp_path / "none.csv"
        f.write_text("home,away,outcome\n")
        code, out, _ = run(capsys, "matrix", "--input", str(f))
        assert code == EXIT_OK
        assert out == "\n"

    def test_round_trip_through_rank(self, capsys, tmp_path):
        _, matrix_out, _ = run(capsys, "matrix", "--input", MINI)
        saved = tmp_path / "m.csv"
        saved.write_text(matrix_out)
        _, from_matrix, _ = run(
            capsys,
            "rank", "--input", str(saved), "--input-kind", "matrix", "--format", "json",
        )
        _, from_matches, _ = run(
            capsys,
            "rank", "--input", MINI, "--input-kind", "matches", "--format", "json",
        )
        assert from_matrix == from_matches

    @pytest.mark.parametrize("ch", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_name_with_non_newline_break_round_trips(self, capsys, tmp_path, ch):
        name = f"A{ch}X"
        matches = tmp_path / "matches.csv"
        matches.write_bytes(f"home,away,outcome\n{name},B,H\nB,C,D\nC,{name},A\n".encode())
        code, matrix_out, _ = run(capsys, "matrix", "--input", str(matches))
        assert code == EXIT_OK
        saved = tmp_path / "m.csv"
        saved.write_bytes(matrix_out.encode())
        code, from_matrix, _ = run(
            capsys,
            "rank", "--input", str(saved), "--input-kind", "matrix", "--format", "json",
        )
        assert code == EXIT_OK
        _, from_matches, _ = run(
            capsys,
            "rank", "--input", str(matches), "--input-kind", "matches", "--format", "json",
        )
        assert from_matrix == from_matches
        assert {row["team"] for row in json.loads(from_matrix)["authority"]["rows"]} == {
            name, "B", "C"
        }


class TestMatrixRoundTrip:
    def test_matrix_output_ranks_as_its_match_list(self, capsys, tmp_path):
        rnd = random.Random(2503)
        matches, matrix = tmp_path / "matches.csv", tmp_path / "matrix.csv"
        for case in range(16):
            names = awkward_names(rnd, rnd.randint(2, 8))
            if case % 2 == 0:  # the matrix text starts with a BOM that is part of the first name
                names[0] = "\ufeff" + names[0]
            rows = [["home", "away", "outcome"], [names[0], names[1], rnd.choice("HAD")]]
            rows += [[*rnd.sample(names, 2), rnd.choice("HAD")] for _ in range(rnd.randint(0, 30))]
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows(rows)
            matches.write_bytes(buffer.getvalue().encode())
            code, text, _ = run(capsys, "matrix", "--input", str(matches))
            assert code == EXIT_OK
            matrix.write_bytes(text.encode())
            for fmt in ("text", "json"):
                direct = run(capsys, "rank", "--input", str(matches), "--input-kind", "matches", "--format", fmt)
                assert run(capsys, "rank", "--input", str(matrix), "--input-kind", "matrix", "--format", fmt) == direct


class TestCompareCommand:
    def test_identical_tables(self, capsys, tmp_path):
        _, table, _ = run(capsys, "points", "--input", MINI, "--format", "csv")
        f = tmp_path / "t.csv"
        f.write_text(table)
        code, out, _ = run(capsys, "compare", str(f), str(f))
        assert code == EXIT_OK
        assert "kendall tau-b: 1.000" in out

    def test_official_against_authority(self, capsys, tmp_path):
        _, authority_csv, _ = run(
            capsys,
            "rank", "--input", LEAGUE, "--input-kind", "matrix",
            "--which", "authority", "--format", "csv",
        )
        f = tmp_path / "authority.csv"
        f.write_text(authority_csv)
        code, out, _ = run(capsys, "compare", OFFICIAL, str(f))
        assert code == EXIT_OK
        lines = out.splitlines()
        by_team = {}
        for line in lines[1:]:
            parts = line.split()
            if not parts or parts[0].startswith("kendall"):
                continue
            by_team[" ".join(parts[:-3])] = parts[-1]
        assert by_team["Manchester United"] == "+2"
        assert by_team["Arsenal"] == "0"
        assert by_team["Manchester City"] == "-2"

    def test_compare_json(self, capsys, tmp_path):
        _, table, _ = run(capsys, "points", "--input", MINI, "--format", "csv")
        f = tmp_path / "t.csv"
        f.write_text(table)
        code, out, _ = run(capsys, "compare", str(f), str(f), "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kendall_tau_b"] == pytest.approx(1.0)
        assert all(row["displacement"] == 0 for row in doc["rows"])

    def test_team_set_mismatch(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("rank,team,score\n1,A,2\n2,B,1\n")
        b.write_text("rank,team,score\n1,A,2\n2,C,1\n")
        code, out, err = run(capsys, "compare", str(a), str(b))
        assert code == EXIT_USAGE
        assert out == ""
        assert "team sets differ" in err

    def test_malformed_table_names_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("rank,team,score\n1,A,1\n2,B,9\n3,C,2\n")
        good = tmp_path / "good.csv"
        good.write_text("rank,team,score\n1,A,2\n2,B,1\n3,C,0\n")
        code, out, err = run(capsys, "compare", str(bad), str(good))
        assert code == EXIT_PARSE
        assert str(bad) in err

    def test_field_past_the_csv_limit_is_a_parse_error(self, capsys, tmp_path):
        good = tmp_path / "good.csv"
        good.write_text("rank,team,score\n1,A,2\n2,B,1\n")
        long = tmp_path / "long.csv"
        long.write_text(f"rank,team,score\n1,A,2\n2,{LONG_FIELD},1\n")
        code, out, err = run(capsys, "compare", str(good), str(long))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error: {long}: line 3: {FIELD_LIMIT_ERROR}\n"

    def test_score_too_large_for_a_float_is_a_parse_error(self, capsys, tmp_path):
        huge = tmp_path / "huge.json"
        huge.write_text('{"rows": [{"rank": 1, "team": "A", "score": 1' + "0" * 400 + "}]}")
        code, out, err = run(capsys, "compare", str(huge), str(huge))
        assert code == EXIT_PARSE
        assert out == ""
        assert f"{huge}: row 1: " in err
        assert "Traceback" not in err

    def test_team_with_line_break_is_a_parse_error(self, capsys, tmp_path):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"rows": [{"rank": 1, "team": "A\nB", "score": 1.0}]}))
        code, out, err = run(capsys, "compare", str(table), str(table))
        assert code == EXIT_PARSE
        assert out == ""
        assert f"{table}: row 1: team names must not hold a line break" in err

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("big.csv", f"rank,team,score\n1,A,2\n{10**309},B,1\n", "line 3, column 1"),
            ("big.json", json.dumps({"rows": [{"rank": 1, "team": "A", "score": 2}, {"rank": 10**400, "team": "B", "score": 1}]}), "row 2"),
        ],
        ids=["csv", "json"],
    )
    def test_rank_beyond_the_float_range_is_a_parse_error(self, capsys, tmp_path, name, text, where):
        table = tmp_path / name
        table.write_text(text)
        code, out, err = run(capsys, "compare", str(table), str(table))
        assert (code, out, err) == (EXIT_PARSE, "", f"error: {table}: {where}: rank must be finite, got inf\n")

    # rank and score fields at the edges of int, float and the digits Python converts
    EDGES = ["1e308", "1e309", str(10**308), str(10**309), str(10**400), "nan", "inf", "-0", "9" * 4299, "9" * 4301]

    @pytest.mark.parametrize("field", ["rank", "score"])
    @pytest.mark.parametrize("edge", EDGES, ids=lambda edge: edge if len(edge) < 10 else f"{len(edge)}_digits")
    def test_numeric_edges_exit_0_2_or_3(self, capsys, tmp_path, field, edge):
        row = {"rank": "1", "score": "1"}
        row[field] = edge
        other = tmp_path / "other.csv"
        other.write_text("rank,team,score\n1,A,1\n2,B,0\n")
        json_edge = {"nan": "NaN", "inf": "Infinity"}.get(edge, edge)
        tables = {
            "edge.csv": f"rank,team,score\n{row['rank']},A,{row['score']}\n2,B,0\n",
            "edge.json": '{"rows": [{"rank": %s, "team": "A", "score": %s}, {"rank": 2, "team": "B", "score": 0}]}'
            % (json_edge if field == "rank" else 1, json_edge if field == "score" else 1),
        }
        for name, text in tables.items():
            table = tmp_path / name
            table.write_text(text)
            for argv in ([str(table), str(other)], [str(other), str(table)]):
                code, out, err = run(capsys, "compare", *argv)
                assert code in (EXIT_OK, EXIT_USAGE, EXIT_PARSE), (name, argv, err)
                if code != EXIT_OK:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


PUBLIC_API = [
    "AdjacencyMatrix", "ComparisonReport", "ComparisonRow", "DegenerateGraphError", "DegenerateInputError",
    "HitsResult", "HubOrder", "MatchRecord", "Ordering", "Outcome", "ParseError", "RankRow", "RankTable",
    "SolverConfig", "TableFormat", "TableKind", "TeamIndex", "VectorKind", "WeightVector", "authority_gram",
    "build_adjacency", "compare_rankings", "emit_comparison", "emit_matrix", "emit_table", "from_named_matrix",
    "hits", "hub_gram", "parse_matches", "parse_matrix", "parse_table", "points_table", "rank_authority",
    "rank_hub", "sort_teams", "table_object", "transpose",
]
# OpenBLAS takes its thread count from the first of these it finds set
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def unthreaded_env(**blas: str) -> dict[str, str]:
    """``child_env()`` with the BLAS thread variables set to ``blas`` alone."""
    env = {k: v for k, v in child_env().items() if k not in BLAS_THREAD_VARS}
    return env | blas


def python(*args: str, env: dict[str, str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr
    return proc


class TestEntryPoints:
    def test_module_invocation_matches_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hitsrank", "points", "--input", MINI,
             "--format", "csv"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout == "rank,team,score\n1,A,6\n1,D,6\n3,B,3\n3,C,3\n"

    def test_cli_import_pulls_in_no_scipy(self):
        # scipy costs about a second of start-up and the package needs none of it
        code = (
            "import hitsrank.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout == "[]\n"

    def test_modules_import_no_scipy_and_numpy_only_in_hits(self):
        # scipy, numpy.typing, dataclasses and json cost start-up time, so no module
        # imports them when it loads; only rank loads numpy and the solver, so no module
        # but hits.py imports either outside a function or a type checker's block
        def imports(node, checking=False):
            """(name, under ``if TYPE_CHECKING:``) of each import outside a function body."""
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Import):
                    yield from ((alias.name, checking) for alias in child.names)
                elif isinstance(child, ast.ImportFrom):
                    yield from ((f"{child.module}.{alias.name}", checking) for alias in child.names)
                elif isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                    yield from imports(ast.Module(child.body, []), True)
                    yield from imports(ast.Module(child.orelse, []), checking)
                elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    yield from imports(child, checking)

        bad = [
            f"{path.name}: {name}"
            for path in sorted((DATA_DIR.parent / "src" / "hitsrank").glob("*.py"))
            for name, checking in imports(ast.parse(path.read_text()))
            if re.match(r"(scipy|numpy\.typing|dataclasses|json)(\.|$)", name)
            or (path.name != "hits.py" and not checking and re.match(r"(numpy|hitsrank\.hits)(\.|$)", name))
        ]
        assert bad == []

    def test_package_import_loads_no_numpy(self):
        # so python -m hitsrank can choose BLAS threads before numpy loads
        proc = python("-c", "import hitsrank, sys; print('numpy' in sys.modules)", env=child_env())
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("read", ["built.w", "solved[0][1].hub.values"], ids=["w", "values"])
    def test_library_builds_writes_and_reorders_matrices_without_numpy(self, read):
        # an AdjacencyMatrix holds rows of floats and a WeightVector holds floats, so the library
        # builds, ranks and writes a league of up to 32 teams without numpy, which loads when
        # w or values is first read
        code = (
            "import sys; from hitsrank import *; "
            f"built = build_adjacency(parse_matches(open({MINI!r}).read())); "
            f"league = parse_matrix(open({LEAGUE!r}).read()); "
            "texts = [emit_matrix(m) for m in (league, sort_teams(built), "
            "transpose(built), from_named_matrix(['B', 'A'], [[0, 1.5], ['3', 0]]))]; "
            "solved = [(m, hits(m)) for m in (league, built)]; "
            "tables = [emit_table(t, f) for m, r in solved for t in (rank_authority(r.authority, m.index), "
            "rank_hub(r.hub, m.index)) for f in TableFormat]; "
            "print('numpy' in sys.modules, texts[-1] == 'B,A\\nB,0,1.5\\nA,3,0\\n', len(tables), end=' '); "
            f"{read}; print('numpy' in sys.modules)"
        )
        proc = python("-c", code, env=child_env())
        assert (proc.stdout, proc.stderr) == ("False True 12 True\n", "")

    def test_package_lookup(self):
        # the public names load on first use; any other name is an AttributeError
        with pytest.raises(AttributeError, match="^module 'hitsrank' has no attribute 'nope'$"):
            hitsrank.nope
        assert set(hitsrank.__all__) <= set(dir(hitsrank))

    @pytest.mark.parametrize(
        "command",
        [
            "points", "matrix", "matrix-sorted", "compare-csv", "compare-json",
            "rank-league", "rank-league-json", "rank-mini", "rank-mini-json", "rank-32-teams", "rank-33-teams",
        ],
    )
    def test_points_and_compare_load_no_numpy(self, capsys, tmp_path, command):
        # only rank loads the solver, and only a league of more than 32 teams
        # (or one that needs the dense eigensolve) pays numpy's start-up
        for fmt in ("csv", "json"):
            table = run(capsys, "rank", "--input", LEAGUE, "--input-kind", "matrix", "--which", "authority", "--format", fmt)[1]
            (tmp_path / f"authority.{fmt}").write_text(table)
        for n in (32, 33):
            names = [f"t{i:02d}" for i in range(n)]
            (tmp_path / f"ladder{n}.csv").write_text(emit_matrix(from_named_matrix(names, ladder(n))))
        argv = {
            "points": ["points", "--input", MINI],
            "matrix": ["matrix", "--input", MINI],
            "matrix-sorted": ["matrix", "--input", MINI, "--sort-teams"],
            "compare-csv": ["compare", OFFICIAL, str(tmp_path / "authority.csv"), "--format", "csv"],
            "compare-json": ["compare", OFFICIAL, str(tmp_path / "authority.json"), "--format", "json"],
            "rank-league": ["rank", "--input", LEAGUE, "--input-kind", "matrix"],
            "rank-league-json": ["rank", "--input", LEAGUE, "--input-kind", "matrix", "--format", "json"],
            "rank-mini": ["rank", "--input", MINI, "--input-kind", "matches"],
            "rank-mini-json": ["rank", "--input", MINI, "--input-kind", "matches", "--format", "json"],
            "rank-32-teams": ["rank", "--input", str(tmp_path / "ladder32.csv"), "--input-kind", "matrix"],
            "rank-33-teams": ["rank", "--input", str(tmp_path / "ladder33.csv"), "--input-kind", "matrix"],
        }[command]
        # hitsrank itself loads neither dataclasses nor inspect, and json only for a JSON file
        watched = ("numpy", "hitsrank.hits", "dataclasses", "inspect", "json")
        loaded = {"hitsrank.hits"} if command.startswith("rank") else set()
        if command.endswith("-json"):
            loaded.add("json")
        if command == "rank-33-teams":  # numpy, and what it brings (numpy 2 imports inspect)
            probe = f"import numpy, sys; print(*(m for m in {watched} if m in sys.modules))"
            loaded |= set(python("-c", probe, env=child_env()).stdout.split())
        code = (
            "import sys; from hitsrank.__main__ import main; code = main(); "
            f"print([m for m in {watched} if m in sys.modules], file=sys.stderr); sys.exit(code)"
        )
        proc = python("-c", code, *argv, env=child_env())
        assert (proc.returncode, proc.stderr) == (EXIT_OK, f"{[m for m in watched if m in loaded]}\n")
        assert proc.stdout

    @pytest.mark.parametrize("first", ["hitsrank.io", "hitsrank.rank", "hitsrank.cli", "hitsrank.hits"])
    def test_hits_is_the_solver_in_every_import_order(self, first):
        # loading the submodule hitsrank.hits must not cover the function hitsrank.hits
        code = (
            f"import {first}, hitsrank, importlib; from hitsrank import hits; "
            "print(callable(hits), hits is hitsrank.hits, importlib.import_module('hitsrank.hits').hits is hits, "
            "sorted(hitsrank.__all__))"
        )
        proc = python("-c", code, env=child_env())
        assert proc.stdout == f"True True True {PUBLIC_API}\n"

    @pytest.mark.parametrize(
        "caller, expected",
        [
            ({}, ["1", None, None]),
            ({"OPENBLAS_NUM_THREADS": "2"}, ["2", None, None]),
            ({"GOTO_NUM_THREADS": "2"}, [None, "2", None]),
            ({"OMP_NUM_THREADS": "2"}, [None, None, "2"]),
        ],
    )
    def test_cli_runs_one_blas_thread_unless_the_caller_chose(self, caller, expected):
        # what the console script runs, then the variables as the run left them
        code = (
            "import json, os, sys; from hitsrank.__main__ import main; "
            "assert 'numpy' not in sys.modules; code = main(); "
            f"print(json.dumps([os.environ.get(v) for v in {BLAS_THREAD_VARS}]), file=sys.stderr); sys.exit(code)"
        )
        proc = python("-c", code, "rank", "--input", LEAGUE, "--input-kind", "matrix", env=unthreaded_env(**caller))
        assert proc.stdout.startswith("# authority\n")
        assert json.loads(proc.stderr) == expected

    def test_output_does_not_depend_on_the_callers_blas_threads(self, tmp_path):
        # two 200-team conferences, the second 0.9995 as strong and sparsely
        # linked: the gap sends the solve to the dense eigensolve, whose
        # last bits follow the BLAS thread count
        rng = np.random.default_rng(400)
        a, b = random_weights(rng, 200), random_weights(rng, 200)
        b *= 0.9995 * np.linalg.norm(a, 2) / np.linalg.norm(b, 2)
        links = 0.05 * (rng.random((2, 200, 200)) < 0.02)
        w = np.block([[a, links[0]], [links[1], b]])
        path = tmp_path / "league.csv"
        path.write_text(emit_matrix(from_named_matrix([f"t{i:03d}" for i in range(400)], w)))
        argv = ("-m", "hitsrank", "rank", "--input", str(path), "--input-kind", "matrix", "--format", "json")
        default = python(*argv, env=unthreaded_env()).stdout
        assert default == python(*argv, env=unthreaded_env(OPENBLAS_NUM_THREADS="1")).stdout


def test_cli_error_takes_a_traceback_and_notes():
    # a context manager sets __traceback__ on an exception leaving it
    # (Python 3.11+), and add_note sets __notes__; neither may turn an
    # exit 2-5 into a traceback
    @contextlib.contextmanager
    def stage():
        yield

    with pytest.raises(CliError) as caught:
        with stage():
            raise CliError("bad input", EXIT_PARSE)
    assert (caught.value.message, caught.value.exit_code) == ("bad input", EXIT_PARSE)
    if sys.version_info >= (3, 11):
        caught.value.add_note("while reading")
        assert caught.value.__notes__ == ["while reading"]
