"""Seeded inputs and invocation mixes for the hitsrank benchmark.

Each workload is a list of input files, written into a work directory
from ``--seed`` alone, plus a fixed mix of ``hitsrank`` invocations that
the benchmark cycles through. The program sees only the files written
here. Alongside each file the generator keeps what the output checker
needs to judge the program independently: team names in index order
and the weight matrix the file encodes.

Run on its own to write one workload's inputs and print their shapes:

    python3 perfbench/workloads.py --workload bulk_ingest --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FIXTURES = Path(__file__).resolve().parent / "fixtures"
EPL_MATRIX = "epl_2010_11_adjacency.csv"
EPL_OFFICIAL = "epl_2010_11_official_points.csv"
# EPL 2010-11 authority weights as published with the method
EPL_AUTHORITY = {
    "Manchester City": 0.342, "Chelsea": 0.328, "Manchester United": 0.303,
    "Arsenal": 0.296, "Tottenham Hotspur": 0.267, "Newcastle United": 0.231,
    "Sunderland": 0.226, "Blackpool": 0.211, "Fulham": 0.210, "Everton": 0.204,
    "Aston Vila": 0.200, "Wigan Athletics": 0.197, "Blackburn Rovers": 0.179,
    "Liverpool": 0.176, "Birmingham City": 0.166, "Wolverhampton Wanderers": 0.164,
    "West Bromwich Albion": 0.163, "West Ham United": 0.148, "Stoke City": 0.146,
    "Bolton Wanderers": 0.139,
}

# The n=200 league needs about 26,000 sweeps, past the CLI's default cap of
# 10,000; a user who sees "did not converge" raises the cap like this.
SOLVER_STRESS_MAX_ITERS = 100_000

WHY = {
    "season_cli": (
        "everyday subcommands on 20-team seasons: start-up is nearly all of the wall "
        "time, so import work shows and ingest or solver work should not"
    ),
    "bulk_ingest": (
        "one n=500 double round robin (249,500 rows) read as text and as its emitted "
        "matrix: text-to-matrix ingest dominates and the solver barely runs"
    ),
    "solver_stress": (
        "two-conference leagues, n=200..500, lambda2/lambda1 0.997..1 (one exact tie), as matrix "
        "input under a raised sweep cap: up to 26,000 power-iteration sweeps a solve"
    ),
}


@dataclass
class Input:
    """One generated file plus the reference data the checker uses.

    ``names`` and ``w`` are the team index and weight matrix the file
    encodes (for a match list: first-appearance order, 3 points a win,
    1 a draw). ``rows`` holds (rank, team) pairs for a rank table.
    """

    file: str
    kind: str  # matches | matrix | table
    names: list[str] = field(default_factory=list)
    w: np.ndarray | None = None
    rows: list[tuple[int, str]] = field(default_factory=list)
    data_rows: int = 0
    note: str = ""
    published: dict[str, float] | None = None  # published authority weights, by team


@dataclass(frozen=True)
class Invocation:
    """One CLI call of the mix.

    ``inputs`` names files in the work directory; ``stdout_file`` keeps
    the output under that name so a later invocation can read it.
    Outputs of invocations that share a ``same_as`` group must be
    byte-identical.
    """

    command: str
    inputs: tuple[str, ...]
    input_kind: str | None = None
    fmt: str = "text"
    hub_order: str = "best-first"
    sort_teams: bool = False
    max_iters: int | None = None
    stdout_file: str | None = None
    same_as: str | None = None

    def argv(self, work: Path) -> list[str]:
        paths = [str(work / name) for name in self.inputs]
        if self.command == "compare":
            return ["compare", *paths, "--format", self.fmt]
        out = [self.command, "--input", paths[0]]
        if self.command == "rank":
            out += ["--input-kind", self.input_kind or "matches"]
            out += ["--hub-order", self.hub_order]
            if self.max_iters is not None:
                out += ["--max-iters", str(self.max_iters)]
        if self.command in ("rank", "points"):
            out += ["--format", self.fmt]
        if self.sort_teams:
            out.append("--sort-teams")
        return out


@dataclass
class Workload:
    name: str
    seed: int
    work: Path
    inputs: dict[str, Input]
    mix: list[Invocation]

    def manifest(self) -> dict:
        files = {}
        for key, inp in self.inputs.items():
            path = self.work / inp.file
            entry = {
                "kind": inp.kind,
                "bytes": path.stat().st_size if path.exists() else None,
                "teams": len(inp.names) if inp.kind != "table" else len(inp.rows),
                "rows": inp.data_rows,
            }
            if inp.w is not None:
                entry["lambda2_over_lambda1"] = gram_ratio(inp.w)
            if inp.note:
                entry["note"] = inp.note
            files[key] = entry
        return {"workload": self.name, "seed": self.seed, "why": WHY[self.name], "inputs": files}


def gram_ratio(w: np.ndarray) -> float:
    """lambda2/lambda1 of W^T W, the per-sweep contraction of the solver."""
    vals = np.linalg.eigvalsh(w.T @ w)
    if len(vals) < 2 or vals[-1] <= 0.0:
        return 1.0
    return float(vals[-2] / vals[-1])


def _team_names(rng: np.random.Generator, n: int, width: int) -> list[str]:
    letters = np.array(list("ABCDEFGHIJKLMNOPQRSTUVWXYZ"))
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < n:
        name = "".join(rng.choice(letters, width)).capitalize() + " FC"
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _double_round_robin(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ordered pair plays once at home, in random order.

    Returns home and away team numbers and outcome codes 0=H, 1=A, 2=D,
    drawn from seeded team strengths with a home advantage.
    """
    home, away = np.nonzero(~np.eye(n, dtype=bool))
    order = rng.permutation(home.size)
    home, away = home[order], away[order]
    strength = rng.normal(0.0, 0.7, n)
    p_home = 1.0 / (1.0 + np.exp(-(strength[home] - strength[away] + 0.3)))
    u = rng.random(home.size)
    draw = u < 0.26
    code = np.where(draw, 2, np.where(rng.random(home.size) < p_home, 0, 1))
    return home, away, code


def _first_appearance(home: np.ndarray, away: np.ndarray, n: int) -> np.ndarray:
    """Position of each team number in first-appearance index order."""
    seq = np.stack([home, away], axis=1).ravel()
    _, first = np.unique(seq, return_index=True)
    pos = np.empty(n, dtype=np.int64)
    pos[np.argsort(first)] = np.arange(n)
    return pos


def _match_weights(home, away, code, pos, n, win=3.0, draw=1.0) -> np.ndarray:
    w = np.zeros((n, n))
    h, a = pos[home], pos[away]
    np.add.at(w, (a[code == 0], h[code == 0]), win)
    np.add.at(w, (h[code == 1], a[code == 1]), win)
    np.add.at(w, (h[code == 2], a[code == 2]), draw)
    np.add.at(w, (a[code == 2], h[code == 2]), draw)
    return w


def write_matches(work: Path, file: str, rng: np.random.Generator, n: int, width: int) -> Input:
    team = _team_names(rng, n, width)
    home, away, code = _double_round_robin(rng, n)
    letters = np.array(["H", "A", "D"])
    names = np.array(team)
    lines = np.char.add(np.char.add(np.char.add(names[home], ","), np.char.add(names[away], ",")), letters[code])
    (work / file).write_text("home,away,outcome\n" + "\n".join(lines.tolist()) + "\n", encoding="utf-8")
    pos = _first_appearance(home, away, n)
    index_names = [""] * n
    for t, p in enumerate(pos):
        index_names[p] = team[t]
    w = _match_weights(home, away, code, pos, n)
    return Input(file, "matches", index_names, w, data_rows=int(home.size))


def write_matrix(work: Path, file: str, names: list[str], w: np.ndarray, note: str = "") -> Input:
    lines = [",".join(names)]
    for name, row in zip(names, w):
        lines.append(",".join([name] + [_number(v) for v in row]))
    (work / file).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Input(file, "matrix", list(names), w, data_rows=len(names), note=note)


def _number(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    names = [s.strip() for s in lines[0].split(",")]
    w = np.array([[float(x) for x in line.split(",")[1:]] for line in lines[1:]])
    return names, w


def read_table(path: Path) -> list[tuple[int, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [(int(r), t.strip()) for r, t, _ in (line.split(",") for line in lines)]


def _table_input(work: Path, file: str) -> Input:
    rows = read_table(work / file)
    return Input(file, "table", rows=rows, data_rows=len(rows))


def _competition_table(names: list[str], scores: np.ndarray, decimals: int = 3) -> str:
    order = sorted(range(len(names)), key=lambda i: (-scores[i], names[i]))
    lines = ["rank,team,score"]
    rank = 0
    prev = None
    for position, i in enumerate(order, start=1):
        if prev is None or scores[i] != prev:
            rank, prev = position, scores[i]
        lines.append(f"{rank},{names[i]},{scores[i]:.{decimals}f}")
    return "\n".join(lines) + "\n"


def _principal_vector(g: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(g)
    v = vecs[:, -1]
    return -v if v.sum() < 0 else v


# --- workloads ---------------------------------------------------------------


def _season_cli(work: Path, rng: np.random.Generator) -> tuple[dict[str, Input], list[Invocation]]:
    inputs: dict[str, Input] = {}
    shutil.copyfile(FIXTURES / EPL_MATRIX, work / "epl.csv")
    shutil.copyfile(FIXTURES / EPL_OFFICIAL, work / "official.csv")
    names, w = read_matrix(work / "epl.csv")
    inputs["epl.csv"] = Input(
        "epl.csv", "matrix", names, w, data_rows=len(names), note="EPL 2010-11", published=EPL_AUTHORITY
    )
    inputs["official.csv"] = _table_input(work, "official.csv")
    # the authority table is the eigensolver's, written the way `rank --format csv` writes it
    auth = _principal_vector(w.T @ w)
    (work / "authority.csv").write_text(_competition_table(names, auth), encoding="utf-8")
    inputs["authority.csv"] = _table_input(work, "authority.csv")
    seasons = [write_matches(work, f"season{k}.csv", rng, 20, 7) for k in range(2)]
    inputs.update({season.file: season for season in seasons})
    # four entries, so that a run samples each of them several times
    return inputs, [
        Invocation("rank", ("epl.csv",), "matrix"),
        Invocation("compare", ("official.csv", "authority.csv")),
        Invocation("rank", (seasons[0].file,), "matches", fmt="json", hub_order="raw-desc"),
        Invocation("matrix", (seasons[1].file,), sort_teams=True),
    ]


def _bulk_ingest(work: Path, rng: np.random.Generator) -> tuple[dict[str, Input], list[Invocation]]:
    league = write_matches(work, "league.csv", rng, 500, 6)
    emitted = Input("emitted.csv", "matrix", league.names, league.w, data_rows=500, note="written by `matrix`")
    inputs = {"league.csv": league, "emitted.csv": emitted}
    # `matrix` writes the file the last entry reads
    mix = [
        Invocation("rank", ("league.csv",), "matches", same_as="league-rank"),
        Invocation("points", ("league.csv",), fmt="csv"),
        Invocation("matrix", ("league.csv",), stdout_file="emitted.csv"),
        Invocation("rank", ("emitted.csv",), "matrix", same_as="league-rank"),
    ]
    return inputs, mix


def _conference(rng: np.random.Generator, m: int) -> np.ndarray:
    home, away, code = _double_round_robin(rng, m)
    return _match_weights(home, away, code, np.arange(m), m)


def _two_conference(rng: np.random.Generator, n: int, target: float | None, offset: float) -> np.ndarray:
    """Two conferences of n/2 teams joined by sparse interleague results.

    The second conference is rescaled so its top singular value is
    ``offset`` times the first's. With ``offset`` 1 the conferences are
    equally strong and the interleague coupling alone separates the top
    two eigenvalues of W^T W; its strength is then tuned so that
    lambda2/lambda1 lands on ``target``. With ``target`` None the
    coupling is fixed and the offset separates them, unless ``offset``
    is 1: the second conference is then a relabelled copy of the first
    with no coupling, so the top eigenvalue is exactly tied.
    """
    m = n // 2
    a = _conference(rng, m)
    if target is None and offset == 1.0:
        return np.block([[a, np.zeros((m, m))], [np.zeros((m, m)), a]])
    b = _conference(rng, m)
    b *= offset * np.linalg.norm(a, 2) / np.linalg.norm(b, 2)
    e = _interleague(rng, m)
    f = _interleague(rng, m)

    def league(eps: float) -> np.ndarray:
        return np.block([[a, eps * e], [eps * f, b]])

    if target is None:
        return league(0.05)

    # lambda2/lambda1 falls about linearly in the coupling near 0; secant steps settle it
    def miss(eps: float) -> float:
        return gram_ratio(league(eps)) - target

    x0, x1 = 1e-3, 2e-3
    f0, f1 = miss(x0), miss(x1)
    for _ in range(12):
        if f1 == f0 or abs(f1) < 1e-9 * (1.0 - target):
            break
        x0, x1 = x1, max(x1 - f1 * (x1 - x0) / (f1 - f0), 1e-9)
        f0, f1 = f1, miss(x1)
    return league(x1)


def _interleague(rng: np.random.Generator, m: int) -> np.ndarray:
    return np.where(rng.random((m, m)) < 4.0 / m, rng.choice([1.0, 3.0], (m, m)), 0.0)


def _solver_stress(work: Path, rng: np.random.Generator) -> tuple[dict[str, Input], list[Invocation]]:
    # (teams, target lambda2/lambda1, second conference strength, note)
    leagues = [
        (200, 0.9995, 1.0, "weakly linked conferences"),
        (400, None, 0.9995, "strength-offset conferences"),
        (400, None, 1.0, "exactly symmetric conferences, tied top eigenvalue"),
        (500, 0.998, 1.0, "weakly linked conferences"),
    ]
    inputs: dict[str, Input] = {}
    mix = []
    for k, (n, target, offset, note) in enumerate(leagues):
        w = _two_conference(rng, n, target, offset)
        perm = rng.permutation(n)
        file = f"league{k}.csv"
        inputs[file] = write_matrix(work, file, _team_names(rng, n, 6), w[np.ix_(perm, perm)], note=note)
        mix.append(Invocation("rank", (file,), "matrix", fmt="json", max_iters=SOLVER_STRESS_MAX_ITERS))
    return inputs, mix


GENERATORS = {"season_cli": _season_cli, "bulk_ingest": _bulk_ingest, "solver_stress": _solver_stress}


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's inputs into ``work`` and return its mix."""
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(GENERATORS)}")
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(GENERATORS).index(name)])
    inputs, mix = GENERATORS[name](work, rng)
    return Workload(name, seed, work, inputs, mix)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs into")
    args = parser.parse_args()
    wl = build(args.workload, args.seed, Path(args.out))
    print(json.dumps(wl.manifest(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
