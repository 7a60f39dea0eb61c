"""Output checker for the hitsrank benchmark, independent of the package.

It judges each invocation from the generator's reference data alone:
the weight matrix an input encodes, numpy's dense symmetric
eigensolver, and a brute-force Kendall tau-b. Nothing here imports
``hitsrank``.

A failure is *disclosed* when the only fault is an accuracy miss on a
solve the program itself reported as unconverged (its stderr warning);
any other failure, such as a crash, a wrong exit code, a malformed
table, or a silently wrong number, is *undisclosed*.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from workloads import Input, Invocation

# the acceptance gate's bars
VECTOR_TOL = 1e-8
PUBLISHED_TOL = 0.01
TIE_GAP = 1e-10  # relative gap below which the top eigenvalue counts as tied

UNCONVERGED = "did not converge"


class CheckFailure(Exception):
    pass


@dataclass
class Reference:
    """Principal eigenpair of one Gram matrix, or its tied eigenvalue."""

    gram: np.ndarray
    value: float
    vector: np.ndarray | None  # None when the top eigenvalue is tied


def _reference(gram: np.ndarray) -> Reference:
    vals, vecs = np.linalg.eigh(gram)
    top = float(vals[-1])
    if len(vals) > 1 and top - vals[-2] <= TIE_GAP * top:
        return Reference(gram, top, None)
    v = vecs[:, -1]
    return Reference(gram, top, -v if v.sum() < 0 else v)


@dataclass
class Verdict:
    ok: bool
    disclosed: bool = False
    reason: str = ""


@dataclass
class Checker:
    """Judges invocations and keeps the tally for the run's result line."""

    inputs: dict[str, Input]
    attempted: int = 0
    failed: int = 0
    undisclosed: int = 0
    reasons: list[str] = field(default_factory=list)
    _refs: dict[tuple[str, str], Reference] = field(default_factory=dict)
    _cache: dict[tuple, Verdict] = field(default_factory=dict)
    _same_as: dict[str, bytes] = field(default_factory=dict)

    def check(
        self, inv: Invocation, exit_code: int, stdout: bytes, stderr: bytes, replicas: tuple[bytes, ...] = ()
    ) -> bool:
        """Judge one invocation; ``replicas`` are rebuilt outputs that must equal ``stdout``."""
        verdict = self._verdict(inv, exit_code, stdout, stderr)
        if verdict.ok and any(r != stdout for r in replicas):
            verdict = Verdict(False, reason=f"replica stdout differs from the CLI's for {inv.command}")
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.undisclosed += not verdict.disclosed
            self.reasons.append(verdict.reason)
        return verdict.ok

    def _verdict(self, inv: Invocation, exit_code: int, stdout: bytes, stderr: bytes) -> Verdict:
        if inv.same_as is not None:
            first = self._same_as.setdefault(inv.same_as, stdout)
            if first != stdout:
                return Verdict(False, reason=f"output differs from the rest of group {inv.same_as}")
        # identical outputs share one verdict
        key = (inv, exit_code, stdout, stderr)
        if key not in self._cache:
            self._cache[key] = self._judge(inv, exit_code, stdout, stderr)
        return self._cache[key]

    def _judge(self, inv: Invocation, exit_code: int, stdout: bytes, stderr: bytes) -> Verdict:
        err = stderr.decode("utf-8", "replace")
        if exit_code != 0:
            return Verdict(False, reason=f"exit code {exit_code}: {err.strip()[-200:]}")
        if "Traceback" in err:
            return Verdict(False, reason="traceback on stderr")
        try:
            text = stdout.decode("utf-8")
            getattr(self, f"_check_{inv.command}")(inv, text)
        except AccuracyMiss as exc:
            return Verdict(False, disclosed=UNCONVERGED in err, reason=str(exc))
        except (CheckFailure, ValueError, KeyError, IndexError, TypeError) as exc:
            return Verdict(False, reason=f"{type(exc).__name__}: {exc}")
        return Verdict(True)

    # --- rank -------------------------------------------------------------

    def _ref(self, key: str, kind: str) -> Reference:
        if (key, kind) not in self._refs:
            w = self.inputs[key].w
            self._refs[(key, kind)] = _reference(w.T @ w if kind == "authority" else w @ w.T)
        return self._refs[(key, kind)]

    def _check_rank(self, inv: Invocation, text: str) -> None:
        key = inv.inputs[0]
        names = self.inputs[key].names
        kinds = ["authority", "hub"]
        tables = _parse_tables(text, inv.fmt, kinds)
        for kind in kinds:
            rows = tables[kind]
            descending = kind == "authority" or inv.hub_order == "raw-desc"
            exact = inv.fmt == "json"
            _check_order(rows, descending, exact)
            scores = _scores_by_team(rows, names)
            ref = self._ref(key, kind)
            _check_weights(scores, ref, exact)
            published = self.inputs[key].published
            if kind == "authority" and published:
                got = {t: s for _, t, s in rows}
                slack = 0.0 if exact else 5e-4
                worst = max(abs(got[t] - v) for t, v in published.items())
                if worst > PUBLISHED_TOL + slack:
                    raise CheckFailure(f"authority off the published weights by {worst:.4f}")

    # --- points and matrix --------------------------------------------------

    def _check_points(self, inv: Invocation, text: str) -> None:
        inp = self.inputs[inv.inputs[0]]
        rows = _parse_tables(text, inv.fmt, ["points"])["points"]
        _check_order(rows, descending=True, exact=True)
        got = _scores_by_team(rows, inp.names)
        expected = inp.w.sum(axis=0)  # a team's points are the column sum of its matrix
        if not np.array_equal(got, expected):
            bad = int(np.argmax(got != expected))
            raise CheckFailure(f"{inp.names[bad]} has {got[bad]} points, column sum is {expected[bad]}")

    def _check_matrix(self, inv: Invocation, text: str) -> None:
        inp = self.inputs[inv.inputs[0]]
        rows = list(csv.reader(StringIO(text)))
        names = rows[0]
        expected_names = sorted(inp.names) if inv.sort_teams else inp.names
        if names != expected_names:
            raise CheckFailure("matrix header is not the expected team order")
        if [r[0] for r in rows[1:]] != names:
            raise CheckFailure("matrix rows do not follow the header order")
        got = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        pos = {t: i for i, t in enumerate(inp.names)}
        order = [pos[t] for t in names]
        if not np.array_equal(got, inp.w[np.ix_(order, order)]):
            raise CheckFailure("matrix entries differ from the match list")

    # --- compare ------------------------------------------------------------

    def _check_compare(self, inv: Invocation, text: str) -> None:
        rank_a = {t: r for r, t in self.inputs[inv.inputs[0]].rows}
        rank_b = {t: r for r, t in self.inputs[inv.inputs[1]].rows}
        expected = sorted((rank_a[t], t, rank_b[t], rank_b[t] - rank_a[t]) for t in rank_a)
        lines = text.splitlines()
        if not lines[-1].startswith("kendall tau-b: "):
            raise CheckFailure("missing kendall tau-b line")
        got = []
        for line in lines[1:-1]:
            parts = line.split()
            got.append((int(parts[-3]), " ".join(parts[:-3]), int(parts[-2]), int(parts[-1])))
        if got != expected:
            raise CheckFailure("displacement rows differ from the two tables")
        teams = sorted(rank_a)
        tau = tau_b([rank_a[t] for t in teams], [rank_b[t] for t in teams])
        shown = float(lines[-1].split(": ")[1])
        if abs(shown - tau) > 5e-4 + 1e-12:
            raise CheckFailure(f"kendall tau-b {shown} but pair count gives {tau:.6f}")


class AccuracyMiss(CheckFailure):
    """A weight vector misses the eigensolver's by more than the gate allows."""


def tau_b(x: list[int], y: list[int]) -> float:
    """Tie-adjusted Kendall correlation by brute-force pair counting."""
    n = len(x)
    n0 = n * (n - 1) // 2
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = x[i] - x[j], y[i] - y[j]
            ties_x += dx == 0
            ties_y += dy == 0
            if dx and dy:
                if (dx > 0) == (dy > 0):
                    concordant += 1
                else:
                    discordant += 1
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    return math.nan if denom == 0 else (concordant - discordant) / denom


def _parse_tables(text: str, fmt: str, kinds: list[str]) -> dict[str, list[tuple[int, str, float]]]:
    """Rank tables of one output as (rank, team, score) rows, by kind."""
    if fmt == "json":
        obj = json.loads(text)
        objs = {kinds[0]: obj} if len(kinds) == 1 else {k: obj[k] for k in kinds}
        out = {}
        for kind, t in objs.items():
            if kind != "points" and t["kind"] != kind:
                raise CheckFailure(f"table kind {t['kind']!r}, expected {kind!r}")
            out[kind] = [(r["rank"], r["team"], float(r["score"])) for r in t["rows"]]
        return out
    blocks = {kinds[0]: text}
    if len(kinds) > 1:
        blocks = {}
        for chunk in text.split("# ")[1:]:
            head, _, body = chunk.partition("\n")
            blocks[head.strip()] = body
    out = {}
    for kind in kinds:
        lines = [line for line in blocks[kind].splitlines() if line and not line.startswith("#")]
        if fmt == "csv":
            rows = list(csv.reader(lines))
            if rows[0] != ["rank", "team", "score"]:
                raise CheckFailure(f"bad csv header {rows[0]}")
            out[kind] = [(int(r), t, float(s)) for r, t, s in rows[1:]]
        else:
            if lines[0].split() != ["rank", "team", "score"]:
                raise CheckFailure(f"bad text header {lines[0]!r}")
            parsed = []
            for line in lines[1:]:
                parts = line.split()
                parsed.append((int(parts[0]), " ".join(parts[1:-1]), float(parts[-1])))
            out[kind] = parsed
    return out


def _check_order(rows: list[tuple[int, str, float]], descending: bool, exact: bool) -> None:
    """Sorted by score, exact ties by name, with competition ranks."""
    for i, (rank, team, score) in enumerate(rows):
        if i == 0:
            if rank != 1:
                raise CheckFailure("first rank is not 1")
            continue
        prev_rank, prev_team, prev = rows[i - 1]
        if (score > prev) if descending else (score < prev):
            raise CheckFailure(f"row {i + 1} breaks the score order")
        if exact:
            tied = score == prev
            if rank != (prev_rank if tied else i + 1) or (tied and team < prev_team):
                raise CheckFailure(f"row {i + 1} breaks competition ranking")
        elif rank not in (prev_rank, i + 1):
            raise CheckFailure(f"row {i + 1} has rank {rank}")


def _scores_by_team(rows: list[tuple[int, str, float]], names: list[str]) -> np.ndarray:
    got = {team: score for _, team, score in rows}
    if len(got) != len(rows) or set(got) != set(names):
        raise CheckFailure("table does not list each team exactly once")
    return np.array([got[t] for t in names])


def _check_weights(v: np.ndarray, ref: Reference, exact: bool) -> None:
    if np.any(v < 0.0):
        raise CheckFailure("negative weight")
    if not exact:
        # text and csv show rounded scores; compare within the rounding
        if ref.vector is not None:
            worst = float(np.max(np.abs(v - ref.vector)))
            if worst > 5e-4 + VECTOR_TOL:
                raise CheckFailure(f"rounded weights off the eigensolver by {worst:.2e}")
        return
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
        raise CheckFailure("weights are not unit-norm")
    if ref.vector is not None:
        worst = float(np.max(np.abs(v - ref.vector)))
        if worst > VECTOR_TOL:
            raise AccuracyMiss(f"weights off the eigensolver by {worst:.2e} (gate {VECTOR_TOL:g})")
    else:
        residual = float(np.linalg.norm(ref.gram @ v - ref.value * v))
        if residual > VECTOR_TOL * ref.value:
            raise AccuracyMiss(
                f"tied top eigenvalue: residual {residual / ref.value:.2e} of lambda (gate {VECTOR_TOL:g})"
            )
