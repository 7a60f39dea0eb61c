"""Hub and authority weights via the mutually reinforcing iteration.

The authority vector is the principal eigenvector of A^T A and the hub
vector is the principal eigenvector of A A^T. Alternating the updates
a <- A^T h and h <- A a with L2 normalization after each step is power
iteration on those Gram matrices. Starting from the uniform vector
guarantees a nonzero overlap with the principal eigenvector, which for
a nonnegative matrix can always be chosen nonnegative, so every iterate
stays nonnegative.

One loop (``_solve``), with one convergence test, one handover to the
dense eigensolve and one tie test (``_tied``), serves leagues of every
size and returns a ``HitsResult``. The weights are lists of floats until
then, and every O(n) step (``_dot``, ``_norm``, ``_div``, ``_sub``)
exists once: each sum is a ``math.fsum`` of products rounded one by one,
correctly rounded. Only the matrix comes in two forms. Up to
``_LIST_TEAMS`` teams it is rows of floats (``_Rows``), whose products
are ``_dot`` too, so the weights' bits depend on neither the BLAS kernel
nor the Python version, and numpy loads only if the dense eigensolve
runs; above, a numpy array (``_Array``) with BLAS products. Importing
this module loads no numpy.
"""

from __future__ import annotations

import enum
import math
import operator
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from hitsrank.graph import AdjacencyMatrix, _checked, _floats, _Record

if TYPE_CHECKING:
    import numpy as np

# Sweeps run before the solver judges whether power iteration will finish soon.
_WARMUP = 50
# Top eigenvalues of A^T A within this relative gap of the largest count as tied.
_TIE_GAP = 1e-10
# Leagues of at most this many teams keep the matrix as row lists
# (``_Rows``) and load no numpy. A sweep on row lists costs O(n^2) Python
# steps, about 0.2 ms at 32 teams on a 2-core x86-64 VM, so even the 50
# sweeps before the dense handover cost far less than numpy's 0.07-0.13 s
# start-up there.
_LIST_TEAMS = 32


class VectorKind(enum.Enum):
    AUTHORITY = "AUTHORITY"
    HUB = "HUB"


class DegenerateInputError(ValueError):
    """The input admits no normalized fixed point (identically zero)."""


class DegenerateGraphError(DegenerateInputError):
    """The match graph has no edges, so hub and authority weights are undefined."""


class SolverConfig(_Record):
    """Iteration controls.

    ``tolerance`` bounds the L2 change between successive normalized
    vectors, which the authority and hub sequences must both clear on the
    same sweep, and the relative residual ||A^T A a - lambda a|| / lambda
    of the authority vector.

    Raises:
        TypeError: unless ``tolerance`` is a real number (``numbers.Real``)
            and ``max_iterations`` an integer (``numbers.Integral``), neither a bool.
        ValueError: unless ``tolerance`` > 0 and ``max_iterations`` >= 1, both finite.
    """

    def __init__(self, tolerance: float = 1e-12, max_iterations: int = 10000) -> None:
        object.__setattr__(self, "tolerance", _checked("tolerance", tolerance, 0, strict=True))
        object.__setattr__(self, "max_iterations", _checked("max_iterations", max_iterations, 1, integer=True))


class WeightVector(_Record, eq=False):
    """L2-normalized nonnegative per-team weights, held as 8-byte floats.

    Any vector with a positive entry satisfies sum(values**2) == 1; the
    constructor checks that loosely (the solver normalizes every sweep,
    so its outputs are unit-norm to machine precision). A list or tuple
    is read as an ``AdjacencyMatrix`` row is, without numpy; any other
    input as ``np.array(values, dtype=np.float64)`` reads it. ``values``,
    a read-only float64 array of the weights, is built on first read.
    """

    def __init__(self, values: np.typing.ArrayLike, kind: VectorKind) -> None:
        if not isinstance(kind, VectorKind):
            raise TypeError(f"kind must be a VectorKind, got {type(kind).__name__}")
        if not isinstance(values, (list, tuple)):
            import numpy as np

            v = np.array(values, dtype=np.float64)
            if v.ndim != 1:
                raise ValueError(f"values must be a 1-D vector, got shape {v.shape}")
            values = v.tobytes()
        weights = _floats(values, "weights")
        if not all(map(math.isfinite, weights)):
            raise ValueError("weights must be finite")
        if weights and min(weights) < 0.0:
            raise ValueError("weights must be nonnegative")
        if weights and max(weights) > 0.0:
            try:
                norm = _norm(weights)
            except OverflowError:  # fsum's sum of squares passed the float range
                norm = math.inf
            if abs(norm - 1.0) > 1e-6:
                raise ValueError(f"weights must be L2-normalized, got norm {norm}")
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "kind", kind)

    @cached_property
    def values(self) -> np.typing.NDArray[np.float64]:
        import numpy as np

        return np.frombuffer(self._weights.tobytes())  # read-only, as bytes are

    def __len__(self) -> int:
        return len(self._weights)


class HitsResult(_Record, eq=False):
    """Weights plus solver diagnostics: the one result of the solver, for ``hits`` and ``hitsrank rank`` alike.

    ``authority_eigenvalue`` and ``hub_eigenvalue`` are the Rayleigh
    quotients of the returned vectors on their Gram matrices; both
    estimate the squared top singular value of the adjacency matrix and
    agree to a relative 1e-9 whenever the run converged (the agreement
    check is skipped for best-effort results returned at the iteration
    cap). One beyond the float range reads ``inf`` (or 0 below it).
    ``stalled`` marks a tied top eigenvalue, one whose principal
    eigenvector is not unique; the weights then follow the convention
    that ``hits`` documents. A run that reaches the dense eigensolve sets
    it when a second eigenvalue of A^T A lies within a relative 1e-10 of
    the largest. A run the sweeps settle alone sets it only for a second
    connected component of A^T A whose top eigenvalue comes that close:
    a near tie inside one component is not looked for there.
    """

    def __init__(
        self,
        authority: WeightVector,
        hub: WeightVector,
        authority_eigenvalue: float,
        hub_eigenvalue: float,
        iterations: int,
        converged: bool,
        stalled: bool = False,
    ) -> None:
        values = (authority, hub, authority_eigenvalue, hub_eigenvalue, iterations, converged, stalled)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        if self.authority.kind is not VectorKind.AUTHORITY:
            raise ValueError("authority vector has the wrong kind")
        if self.hub.kind is not VectorKind.HUB:
            raise ValueError("hub vector has the wrong kind")
        if len(self.authority) != len(self.hub):
            raise ValueError("authority and hub vectors differ in length")
        for name in ("authority_eigenvalue", "hub_eigenvalue"):
            if getattr(self, name) != math.inf:
                _checked(name, getattr(self, name), 0)
        _checked("iterations", self.iterations, 1, integer=True)
        if self.converged and _disagree(self.authority_eigenvalue, self.hub_eigenvalue):
            raise ValueError(
                "authority and hub eigenvalue estimates disagree: "
                f"{self.authority_eigenvalue!r} vs {self.hub_eigenvalue!r}"
            )


def _disagree(lam_a: float, lam_h: float) -> bool:
    """Whether two eigenvalue estimates differ by more than a relative 1e-9."""
    return abs(lam_a - lam_h) > 1e-9 * max(lam_a, lam_h)


def _dot(x: list[float], y: list[float]) -> float:
    """x.y as one ``math.fsum`` of products rounded one by one: correctly rounded (Shewchuk 1997)."""
    return math.fsum(map(operator.mul, x, y))


def _norm(x: list[float]) -> float:
    return math.sqrt(_dot(x, x))


def _div(x: list[float], c: float) -> list[float]:
    return [v / c for v in x]


def _sub(x: list[float], y: list[float]) -> list[float]:
    return list(map(operator.sub, x, y))


class _Rows:
    """A checked matrix as rows of floats, each product entry a ``_dot``, so no bit depends on the CPU or BLAS."""

    def __init__(self, rows: Sequence[Sequence[float]]) -> None:
        self.w = rows

    def scaled(self, exponent: int) -> tuple[_Rows, _Rows]:
        """w * 2**exponent and its transpose."""
        w = [[math.ldexp(x, exponent) for x in row] for row in self.w]
        return _Rows(w), _Rows([list(column) for column in zip(*w)])

    def largest(self) -> float:
        return max(map(max, self.w), default=0.0)

    def product(self, x: list[float]) -> list[float]:
        return [_dot(row, x) for row in self.w]

    def linked(self, columns: set[int], seen: set[int]) -> set[int]:
        """The rows of w, outside ``seen``, with a positive entry in one of ``columns``."""
        return {i for i, row in enumerate(self.w) if i not in seen and any(row[j] > 0.0 for j in columns)}


class _Array:
    """The members of ``_Rows`` on a numpy array, products from BLAS."""

    def __init__(self, rows: Sequence[Sequence[float]]) -> None:
        import numpy as np

        self.w = np.array(rows, dtype=np.float64)

    def scaled(self, exponent: int) -> tuple[_Array, _Array]:
        import numpy as np

        w, wt = object.__new__(_Array), object.__new__(_Array)  # not through __init__, which reads rows
        w.w = np.ldexp(self.w, exponent)
        wt.w = w.w.T
        return w, wt

    def largest(self) -> float:
        return float(self.w.max())

    def product(self, x: list[float]) -> list[float]:
        return (self.w @ x).tolist()

    def linked(self, columns: set[int], seen: set[int]) -> set[int]:
        return set((self.w[:, list(columns)] > 0.0).any(axis=1).nonzero()[0].tolist()) - seen


def _eigenvalues(norm_h: float, tt: float, exponent: int) -> tuple[float, float]:
    """a.(A^T A)a and h.(A A^T)h, or inf past the float range, from ||w a|| and (w^T h).(w^T h), A = w * 2**exponent."""
    lam_a, lam_h = (
        math.ldexp(x, 2 * exponent) if math.frexp(x)[1] + 2 * exponent <= 1024 else math.inf
        for x in (norm_h * norm_h, tt)
    )
    return lam_a, lam_h


def _step(
    w: _Rows | _Array, wt: _Rows | _Array, ta: list[float]
) -> tuple[list[float], list[float], float, list[float]]:
    """One sweep from ta (w^T h): a = ta / ||ta||, h = w a / ||w a||; returns a, h, ||w a|| and w^T h."""
    norm_a = _norm(ta)
    if norm_a == 0.0:
        # unreachable for a nonzero matrix: in a sweep, h lies in range(A),
        # which is orthogonal to null(A^T); kept as a defensive guard
        raise DegenerateGraphError("iteration collapsed to the zero vector")
    a = _div(ta, norm_a)
    th = w.product(a)
    norm_h = _norm(th)
    if norm_h == 0.0:
        raise DegenerateGraphError("iteration collapsed to the zero vector")
    h = _div(th, norm_h)
    return a, h, norm_h, wt.product(h)


def authority_gram(m: AdjacencyMatrix) -> np.typing.NDArray[np.float64]:
    """A^T A: symmetric positive semidefinite, couples teams by shared victims."""
    return m.w.T @ m.w


def hub_gram(m: AdjacencyMatrix) -> np.typing.NDArray[np.float64]:
    """A A^T: symmetric positive semidefinite, couples teams by shared conquerors."""
    return m.w @ m.w.T


def hits(m: AdjacencyMatrix, cfg: SolverConfig | None = None) -> HitsResult:
    """Compute authority and hub weights for a result graph.

    Alternates a <- A^T h and h <- A a with L2 normalization, starting
    both vectors uniform. The run converges once the successive change
    of both vectors and the relative residual of ``a`` are at most
    ``cfg.tolerance`` and the eigenvalue estimates agree as
    ``HitsResult`` requires; at the iteration cap the last iterate is
    returned with ``converged=False``. The sweep runs on A scaled by the
    power of two just above its largest entry: exact, so the weights do
    not depend on the scale of A, and no sum leaves the float range.

    If after 50 sweeps the contraction seen so far would need more than
    n further sweeps (a small gap under the top eigenvalue), one dense
    eigensolve of A^T A replaces them: ``a`` jumps to its projection onto
    the top eigenspace, the limit the sweep approaches, and the sweep
    resumes from there. Eigenvalues within a relative 1e-10 of the
    largest count as tied; then ``stalled`` is set, and the weights are
    that projection of the authority iterate begun from a uniform hub.
    A run the sweeps settle alone is tested for a tie by ``_tied``.
    Deterministic for a fixed input and configuration, and bit for bit
    what ``hitsrank rank`` gives, as both sweep the same rows. numpy
    loads only for a league of more than 32 teams or the dense eigensolve.

    Raises:
        DegenerateGraphError: if the matrix has no nonzero entry, since
            no normalized fixed point exists for an edgeless graph.
    """
    return _solve(m._rows, cfg or SolverConfig())


def _solve(w: Sequence[Sequence[float]], cfg: SolverConfig) -> HitsResult:
    """``hits`` of a checked matrix given as rows of floats: the one sweep loop, on ``_Rows`` or ``_Array``."""
    n = len(w)
    w = _Rows(w) if n <= _LIST_TEAMS else _Array(w)
    largest = w.largest()
    if largest == 0.0:  # entries are nonnegative, so none is nonzero
        raise DegenerateGraphError("the graph has no edges; hub and authority weights are undefined")
    # a power of two scales exactly, so the weights keep every bit they
    # have unscaled; dividing by the largest entry would round them
    exponent = math.frexp(largest)[1]
    w, wt = w.scaled(-exponent)
    tol = cfg.tolerance

    a = h = [1.0 / math.sqrt(n)] * n
    # w^T h: the next sweep's product, and w^T w a / norm_h for the residual
    ta = wt.product(h)
    delta = math.inf
    converged = stalled = dense = False
    for iterations in range(1, cfg.max_iterations + 1):
        a_next, h_next, norm_h, ta = _step(w, wt, ta)
        prev_delta, delta = delta, max(_norm(_sub(a_next, a)), _norm(_sub(h_next, h)))
        a, h = a_next, h_next
        if delta <= tol:
            # ||A^T A a - lambda a|| / lambda, with lambda = norm_h**2 on the scale of w
            residual = _norm(_sub(ta, [v * norm_h for v in a])) / norm_h
            if residual <= tol and not _disagree(*_eigenvalues(norm_h, _dot(ta, ta), exponent)):
                converged = True
                break
        elif iterations == _WARMUP and (
            math.log(tol) - math.log(delta) < n * (math.log(delta) - math.log(prev_delta))
        ):
            # at the contraction delta / prev_delta seen so far, the
            # log(tol / delta) / log(contraction) sweeps to go exceed n
            import numpy as np

            dense = True
            dense_w = np.asarray(w.w)
            vals, vecs = np.linalg.eigh(dense_w.T @ dense_w)
            top = vecs[:, vals[-1] - vals <= _TIE_GAP * vals[-1]]
            a, h, norm_h, ta = _step(w, wt, np.maximum(top @ (top.T @ np.asarray(a)), 0.0).tolist())
            stalled = top.shape[1] > 1

    if converged and not dense:
        stalled = _tied(w, wt, a, norm_h * norm_h)
    authority_eigenvalue, hub_eigenvalue = _eigenvalues(norm_h, _dot(ta, ta), exponent)
    authority, hub = WeightVector(a, VectorKind.AUTHORITY), WeightVector(h, VectorKind.HUB)
    return HitsResult(authority, hub, authority_eigenvalue, hub_eigenvalue, iterations, converged, stalled)


def _tied(w: _Rows | _Array, wt: _Rows | _Array, a: list[float], lam: float) -> bool:
    """Whether lam, the top eigenvalue of w^T w that ``a`` converged to, is tied.

    Link two columns of w when some row holds both. On each connected
    component of that graph the top eigenvalue of w^T w is simple
    (Perron-Frobenius), so a tie needs a second component whose top
    eigenvalue reaches lam. The component of a's largest entry grows
    from its newest columns to the rows they reach and back, over the
    pattern of w's positive entries, so each row and column of that
    pattern is read once, whatever the component's diameter. Once it
    stops growing, the rest of ``a`` has a Rayleigh quotient at most the
    top eigenvalue of the components it covers, so a quotient within a
    relative ``_TIE_GAP`` of lam is a tie.
    """
    part: set[int] = set()  # the component's columns
    held: set[int] = set()  # the rows that hold them
    new = {a.index(max(a))}
    while new:
        part |= new
        rows = w.linked(new, held)
        held |= rows
        new = wt.linked(rows, part)
    rest = [0.0 if i in part else v for i, v in enumerate(a)]
    top = max(rest)
    if top == 0.0:
        return False
    rest = _div(rest, top)  # where the iterate has all but died out, its square would underflow
    wr = w.product(rest)
    return _dot(wr, wr) >= (1.0 - _TIE_GAP) * lam * _dot(rest, rest)
