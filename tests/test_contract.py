"""The exit-code contract of ``hitsrank rank`` on random weight matrices.

Every call ends in a documented exit code and never lets an exception
out of ``main``; exit 4 means the matrix has no nonzero entry, and a
successful call prints finite, unit-norm weights. The cases span entry
scales from 1e-300 to 1e300 (normal floats only: a subnormal entry has
lost digits before the solver sees it), tolerances from 1e-300 to
1e300 and iteration caps from 1 to 10,000.
"""

import contextlib
import io
import json
import math
import random

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
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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
        tables = json.loads(out)
        for kind in ("authority", "hub"):
            scores = [row["score"] for row in tables[kind]["rows"]]
            assert all(math.isfinite(s) and s >= 0.0 for s in scores), context
            assert abs(math.sqrt(sum(s * s for s in scores)) - 1.0) <= 1e-9, context
    # the draw reaches every outcome the solver can give
    assert seen[EXIT_OK] and seen[EXIT_DEGENERATE] and seen[EXIT_NO_CONVERGENCE], seen
