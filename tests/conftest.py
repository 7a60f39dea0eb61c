"""Shared test helpers: independent oracles, generators and known matrices."""

from __future__ import annotations

import ctypes
import math
import random
from pathlib import Path

import numpy as np
import pytest

from hitsrank import MatchRecord, Outcome

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def pytest_report_header() -> str:
    # the golden EPL JSON digits hold on one OpenBLAS kernel only, so a failure there should say which ran
    return f"numpy {np.__version__}, OpenBLAS: {_openblas_config()}"


def _openblas_config() -> str:
    """The config string, kernel included, of the OpenBLAS in numpy's wheel, or ``unknown``."""
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        # numpy 2.x wheels bundle scipy-openblas, 1.x wheels OpenBLAS under its own 64-bit-index names
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_"):
            get_config = getattr(lib, symbol, None)
            if get_config is not None:
                get_config.argtypes = []
                get_config.restype = ctypes.c_char_p
                config = get_config()
                return config.decode(errors="replace") if config else "unknown"
    return "unknown"


# four-node toy graphs and their expected weights, printed to 2 decimals
FOUR_TEAM = np.array(
    [
        [0, 0, 1, 0],
        [1, 0, 1, 0],
        [0, 0, 0, 1],
        [0, 1, 0, 0],
    ],
    dtype=float,
)
FOUR_TEAM_AUTHORITY = [0.52, 0.0, 0.85, 0.0]
FOUR_TEAM_HUB = [0.52, 0.85, 0.0, 0.0]

FOUR_TEAM_EXTRA = np.array(
    [
        [0, 0, 1, 1],
        [1, 0, 1, 0],
        [0, 0, 0, 1],
        [0, 1, 0, 0],
    ],
    dtype=float,
)
FOUR_TEAM_EXTRA_AUTHORITY = [0.32, 0.0, 0.73, 0.59]
FOUR_TEAM_EXTRA_HUB = [0.73, 0.59, 0.32, 0.0]

MINI_MATRIX = np.array(
    [
        [0, 0, 0, 3],
        [3, 0, 0, 3],
        [3, 3, 0, 0],
        [0, 0, 3, 0],
    ],
    dtype=float,
)
MINI_AUTHORITY = [0.73, 0.32, 0.0, 0.59]
MINI_HUB = [0.32, 0.73, 0.59, 0.0]
MINI_POINTS = {"A": 6.0, "B": 3.0, "C": 3.0, "D": 6.0}


def mini_matches() -> list[MatchRecord]:
    """The six fixtures behind MINI_MATRIX, first appearance order A,B,C,D."""
    return [
        MatchRecord("A", "B", Outcome.A_WINS),
        MatchRecord("A", "C", Outcome.A_WINS),
        MatchRecord("A", "D", Outcome.B_WINS),
        MatchRecord("B", "C", Outcome.A_WINS),
        MatchRecord("B", "D", Outcome.B_WINS),
        MatchRecord("C", "D", Outcome.A_WINS),
    ]


def principal_eigh(g: np.ndarray) -> tuple[float, np.ndarray]:
    """Principal eigenpair via the dense symmetric eigensolver (oracle).

    The eigenvector sign is fixed so its largest-magnitude entry is
    positive, matching the nonnegative solver output.
    """
    vals, vecs = np.linalg.eigh(g)
    i = int(np.argmax(vals))
    v = vecs[:, i]
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v
    return float(vals[i]), v


def gram_spectrum_ratio(w: np.ndarray) -> float:
    """lambda2/lambda1 of w w^T, 1.0 when the top eigenvalue is not positive."""
    vals = np.linalg.eigvalsh(w @ w.T)
    if len(vals) < 2 or vals[-1] <= 0.0:
        return 1.0
    return float(vals[-2] / vals[-1])


def random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Nonnegative zero-diagonal matrix with random magnitude and sparsity."""
    w = rng.uniform(0.0, 1.0, (n, n))
    w *= rng.random((n, n)) < rng.uniform(0.3, 1.0)
    np.fill_diagonal(w, 0.0)
    return w


def ladder(n: int) -> np.ndarray:
    """A league of n teams in which team j lost to teams j-1 and j-2, and team 1 lost to team 0 by 100.

    Row j holds columns j-1 and j-2, so the teams that won a match form
    one component of the tie test, a path n - 2 links long.
    """
    w = np.zeros((n, n))
    for j in range(1, n):
        w[j, max(j - 2, 0) : j] = 3.0
    w[1, 0] = 100.0
    return w


def random_matches(
    rng: np.random.Generator, max_teams: int = 8, max_matches: int = 30
) -> list[MatchRecord]:
    n = int(rng.integers(2, max_teams + 1))
    names = [f"T{i}" for i in range(n)]
    outcomes = (Outcome.A_WINS, Outcome.B_WINS, Outcome.DRAW)
    records = []
    for _ in range(int(rng.integers(0, max_matches + 1))):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n - 1))
        if j >= i:
            j += 1
        records.append(MatchRecord(names[i], names[j], outcomes[int(rng.integers(0, 3))]))
    return records


def match_list_text(rnd: random.Random, max_teams: int = 6, max_matches: int = 30) -> str:
    """A matches CSV drawn with stdlib ``random``: padded and quoted names, one row in 50 a self-play."""
    names = ["A", "B", " C ", '"D, FC"', "Eé", "F"][: rnd.randint(2, max_teams)]
    rows = ["home,away,outcome"]
    for _ in range(rnd.randint(0, max_matches)):
        home, away = rnd.sample(names, 2)
        if rnd.random() < 0.02:
            away = home
        rows.append(f"{home},{away},{rnd.choice('HHHAAD')}")
    return "\n".join(rows) + "\n"


# what a name may hold that a writer or reader could get wrong: a BOM, breaks
# that end no line, quotes, a comma, a comment mark and a tab
AWKWARD = "\ufeff\x0c\x1c\x85\u2028\"',#\t"


def awkward_names(rnd: random.Random, n: int) -> list[str]:
    """n distinct valid team names drawn from AWKWARD; each may start with a BOM, a quote, a comma or #."""
    names = []
    for i in range(n):
        body = "".join(rnd.choice(AWKWARD) for _ in range(rnd.randint(0, 4)))
        # neither end is whitespace, and the digits at the end are i alone
        names.append(rnd.choice("\ufeff\",#T") + body + str(i))
    return names


# a field past the csv module's default field limit of 131,072 characters
_LONG_PAD = 131_073


def mutate(rnd: random.Random, data: bytes) -> bytes:
    """One to three byte mutations: truncate, flip a bit, insert a quote, BOM, CR, NUL, blank line or padding."""
    for _ in range(rnd.randint(1, 3)):
        op = rnd.choice(("truncate", "flip", "quote", "bom", "cr", "nul", "blank", "pad"))
        at = rnd.randint(0, len(data))
        if op == "truncate":
            data = data[:at]
        elif op == "flip":
            if data:
                i = rnd.randrange(len(data))
                data = data[:i] + bytes([data[i] ^ (1 << rnd.randrange(8))]) + data[i + 1 :]
        else:
            pad = b" " * (_LONG_PAD if rnd.random() < 0.02 else rnd.randint(1, 20))
            insert = {"quote": b'"', "bom": "\ufeff".encode(), "cr": b"\r", "nul": b"\0", "blank": b"\n", "pad": pad}
            data = data[:at] + insert[op] + data[at:]
    return data


def tau_b_reference(x: list[int], y: list[int]) -> float:
    """Tie-adjusted Kendall correlation by brute-force pair counting."""
    n = len(x)
    n0 = n * (n - 1) // 2
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx != 0 and dy != 0:
                if (dx > 0) == (dy > 0):
                    concordant += 1
                else:
                    discordant += 1
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0.0:
        return math.nan
    return (concordant - discordant) / denom


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR
