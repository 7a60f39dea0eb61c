"""Hub and authority weights via the mutually reinforcing iteration.

The authority vector is the principal eigenvector of A^T A and the hub
vector is the principal eigenvector of A A^T. Alternating the updates
a <- A^T h and h <- A a with L2 normalization after each step is power
iteration on those Gram matrices. Starting from the uniform vector
guarantees a nonzero overlap with the principal eigenvector, which for
a nonnegative matrix can always be chosen nonnegative, so every iterate
stays nonnegative.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from hitsrank.graph import AdjacencyMatrix, _checked

# Sweeps run before the solver judges whether power iteration will finish soon.
_WARMUP = 50
# Top eigenvalues of A^T A within this relative gap of the largest count as tied.
_TIE_GAP = 1e-10


class VectorKind(enum.Enum):
    AUTHORITY = "AUTHORITY"
    HUB = "HUB"


class DegenerateInputError(ValueError):
    """The input admits no normalized fixed point (identically zero)."""


class DegenerateGraphError(DegenerateInputError):
    """The match graph has no edges, so hub and authority weights are undefined."""


@dataclass(frozen=True)
class SolverConfig:
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

    tolerance: float = 1e-12
    max_iterations: int = 10000

    def __post_init__(self) -> None:
        object.__setattr__(self, "tolerance", _checked("tolerance", self.tolerance, 0, strict=True))
        iterations = _checked("max_iterations", self.max_iterations, 1, integer=True)
        object.__setattr__(self, "max_iterations", iterations)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """L2-normalized nonnegative per-team weights.

    Any vector with a positive entry satisfies sum(values**2) == 1; the
    constructor checks that loosely (the solver normalizes every sweep,
    so its outputs are unit-norm to machine precision). The underlying
    array is read-only.
    """

    values: np.typing.NDArray[np.float64]
    kind: VectorKind

    def __post_init__(self) -> None:
        if not isinstance(self.kind, VectorKind):
            raise TypeError(f"kind must be a VectorKind, got {type(self.kind).__name__}")
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError(f"values must be a 1-D vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("weights must be finite")
        if v.size and float(np.min(v)) < 0.0:
            raise ValueError("weights must be nonnegative")
        if v.size and np.any(v > 0.0):
            norm = float(np.linalg.norm(v))
            if abs(norm - 1.0) > 1e-6:
                raise ValueError(f"weights must be L2-normalized, got norm {norm}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True, eq=False)
class HitsResult:
    """Weights plus solver diagnostics.

    ``authority_eigenvalue`` and ``hub_eigenvalue`` are the Rayleigh
    quotients of the returned vectors on their Gram matrices; both
    estimate the squared top singular value of the adjacency matrix and
    agree to a relative 1e-9 whenever the run converged (the agreement
    check is skipped for best-effort results returned at the iteration
    cap). One beyond the float range reads ``inf`` (or 0 below it).
    ``stalled`` marks a tied top eigenvalue: more than one eigenvalue of
    A^T A lies within a relative 1e-10 of the largest, so the principal
    eigenvector is not unique and the weights follow the convention that
    ``hits`` documents.
    """

    authority: WeightVector
    hub: WeightVector
    authority_eigenvalue: float
    hub_eigenvalue: float
    iterations: int
    converged: bool
    stalled: bool = False

    def __post_init__(self) -> None:
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


def _norm(x: np.typing.NDArray[np.float64]) -> float:
    """np.linalg.norm of a real vector, by its own formula, without its per-call overhead."""
    return math.sqrt(x.dot(x))


def _eigenvalues(norm_h: float, ta: np.typing.NDArray[np.float64], exponent: int) -> tuple[float, float]:
    """a.(A^T A)a and h.(A A^T)h, or inf past the float range, from ||w a|| and w^T h, A = w * 2**exponent."""
    lam_a, lam_h = (
        math.ldexp(x, 2 * exponent) if math.frexp(x)[1] + 2 * exponent <= 1024 else math.inf
        for x in (norm_h * norm_h, float(ta.dot(ta)))
    )
    return lam_a, lam_h


def _step(w: np.ndarray, ta: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """One sweep from ta (w^T h): a = ta / ||ta||, h = w a / ||w a||; returns a, h, ||w a|| and w^T h."""
    norm_a = _norm(ta)
    if norm_a == 0.0:
        # unreachable for a nonzero matrix: in a sweep, h lies in range(A),
        # which is orthogonal to null(A^T); kept as a defensive guard
        raise DegenerateGraphError("iteration collapsed to the zero vector")
    a = ta / norm_a
    th = w @ a
    norm_h = _norm(th)
    if norm_h == 0.0:
        raise DegenerateGraphError("iteration collapsed to the zero vector")
    h = th / norm_h
    return a, h, norm_h, w.T @ h


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
    Deterministic for a fixed input and configuration.

    Raises:
        DegenerateGraphError: if the matrix has no nonzero entry, since
            no normalized fixed point exists for an edgeless graph.
    """
    if cfg is None:
        cfg = SolverConfig()
    n = m.w.shape[0]
    if n == 0 or not m.w.any():
        raise DegenerateGraphError("the graph has no edges; hub and authority weights are undefined")
    # a power of two scales exactly, so the weights keep every bit they
    # have unscaled; dividing by the largest entry would round them
    exponent = math.frexp(float(m.w.max()))[1]
    w = np.ldexp(m.w, -exponent)
    tol = cfg.tolerance

    a = h = np.full(n, 1.0 / math.sqrt(n))
    # w^T h: the next sweep's product, and w^T w a / norm_h for the residual
    ta = w.T @ h
    delta = math.inf
    converged = stalled = dense = False
    for iterations in range(1, cfg.max_iterations + 1):
        a_next, h_next, norm_h, ta = _step(w, ta)
        prev_delta, delta = delta, max(_norm(a_next - a), _norm(h_next - h))
        a, h = a_next, h_next
        if delta <= tol:
            # ||A^T A a - lambda a|| / lambda, with lambda = norm_h**2 on the scale of w
            residual = _norm(ta - norm_h * a) / norm_h
            if residual <= tol and not _disagree(*_eigenvalues(norm_h, ta, exponent)):
                converged = True
                break
        elif iterations == _WARMUP and (
            math.log(tol) - math.log(delta) < n * (math.log(delta) - math.log(prev_delta))
        ):
            # at the contraction delta / prev_delta seen so far, the
            # log(tol / delta) / log(contraction) sweeps to go exceed n
            dense = True
            vals, vecs = np.linalg.eigh(w.T @ w)
            top = vecs[:, vals[-1] - vals <= _TIE_GAP * vals[-1]]
            a, h, norm_h, ta = _step(w, np.maximum(top @ (top.T @ a), 0.0))
            stalled = top.shape[1] > 1

    if converged and not dense:
        stalled = _tied(w, a, norm_h * norm_h)
    authority_eigenvalue, hub_eigenvalue = _eigenvalues(norm_h, ta, exponent)
    return HitsResult(
        authority=WeightVector(a, VectorKind.AUTHORITY),
        hub=WeightVector(h, VectorKind.HUB),
        authority_eigenvalue=authority_eigenvalue,
        hub_eigenvalue=hub_eigenvalue,
        iterations=iterations,
        converged=converged,
        stalled=stalled,
    )


def _tied(w: np.typing.NDArray[np.float64], a: np.typing.NDArray[np.float64], lam: float) -> bool:
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
    positive = w > 0.0
    part = held = np.zeros(len(a), dtype=bool)  # the component's columns, and the rows that hold them
    new = np.arange(len(a)) == a.argmax()
    while new.any():
        part = part | new
        rest = a * ~part
        if not rest.any():
            return False
        rows = positive[:, new].any(axis=1) & ~held
        held = held | rows
        new = positive[rows].any(axis=0) & ~part
    rest /= rest.max()  # where the iterate has all but died out, its square would underflow
    wr = w @ rest
    return wr.dot(wr) >= (1.0 - _TIE_GAP) * lam * rest.dot(rest)
