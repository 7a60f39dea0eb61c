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
import numpy.typing as npt

from hitsrank.graph import AdjacencyMatrix, _checked

# Contraction slower than this per sweep at the iteration cap is treated
# as a stalled (near-degenerate) principal eigenspace.
_STALL_RATIO = 0.999


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

    ``tolerance`` is the L2 change between successive normalized vectors
    below which the iteration is considered converged; the authority and
    hub sequences must both clear it on the same sweep.

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

    values: npt.NDArray[np.float64]
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
    agree to high relative accuracy whenever the run converged (the
    agreement check is skipped for best-effort results returned at the
    iteration cap). ``stalled`` marks capped runs whose successive
    change had stopped contracting while the eigenvalue estimate was
    already stable, the signature of a (near-)degenerate principal
    eigenspace.
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
            _checked(name, getattr(self, name), 0)
        _checked("iterations", self.iterations, 1, integer=True)
        if self.converged:
            lam_max = max(self.authority_eigenvalue, self.hub_eigenvalue)
            if abs(self.authority_eigenvalue - self.hub_eigenvalue) > 1e-9 * lam_max:
                raise ValueError(
                    "authority and hub eigenvalue estimates disagree: "
                    f"{self.authority_eigenvalue!r} vs {self.hub_eigenvalue!r}"
                )


def authority_gram(m: AdjacencyMatrix) -> npt.NDArray[np.float64]:
    """A^T A: symmetric positive semidefinite, couples teams by shared victims."""
    return m.w.T @ m.w


def hub_gram(m: AdjacencyMatrix) -> npt.NDArray[np.float64]:
    """A A^T: symmetric positive semidefinite, couples teams by shared conquerors."""
    return m.w @ m.w.T


def hits(m: AdjacencyMatrix, cfg: SolverConfig | None = None) -> HitsResult:
    """Compute authority and hub weights for a result graph.

    Alternates a <- A^T h and h <- A a with L2 normalization, starting
    both vectors uniform, and stops once the successive change of both
    vectors is at most ``cfg.tolerance`` (or at the iteration cap, in
    which case the best iterate is returned with ``converged=False``).
    Deterministic for a fixed input and configuration.

    Raises:
        DegenerateGraphError: if the matrix has no nonzero entry, since
            no normalized fixed point exists for an edgeless graph.
    """
    if cfg is None:
        cfg = SolverConfig()
    w = m.w
    n = w.shape[0]
    if n == 0 or not w.any():
        raise DegenerateGraphError("the graph has no edges; hub and authority weights are undefined")

    a = np.full(n, 1.0 / math.sqrt(n))
    h = np.full(n, 1.0 / math.sqrt(n))
    delta_a = delta_h = math.inf
    prev_delta_a = prev_delta_h = math.inf
    lam_a = prev_lam_a = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        ta = w.T @ h
        norm_a = float(np.linalg.norm(ta))
        if norm_a == 0.0:
            # unreachable for a nonzero matrix: h lies in range(A), which
            # is orthogonal to null(A^T); kept as a defensive guard
            raise DegenerateGraphError("iteration collapsed to the zero vector")
        a_next = ta / norm_a
        th = w @ a_next
        norm_h = float(np.linalg.norm(th))
        if norm_h == 0.0:
            raise DegenerateGraphError("iteration collapsed to the zero vector")
        h_next = th / norm_h

        prev_delta_a, prev_delta_h = delta_a, delta_h
        delta_a = float(np.linalg.norm(a_next - a))
        delta_h = float(np.linalg.norm(h_next - h))
        a, h = a_next, h_next
        prev_lam_a, lam_a = lam_a, norm_h * norm_h
        if delta_a <= cfg.tolerance and delta_h <= cfg.tolerance:
            converged = True
            break

    # Rayleigh quotients of the returned vectors: a.(A^T A)a and h.(A A^T)h
    authority_eigenvalue = lam_a
    hub_eigenvalue = float(np.linalg.norm(w.T @ h) ** 2)

    stalled = False
    if not converged and iterations >= 2:
        ratio = 0.0
        if math.isfinite(prev_delta_a) and prev_delta_a > 0.0:
            ratio = max(ratio, delta_a / prev_delta_a)
        if math.isfinite(prev_delta_h) and prev_delta_h > 0.0:
            ratio = max(ratio, delta_h / prev_delta_h)
        lam_stable = abs(lam_a - prev_lam_a) <= 1e-6 * max(lam_a, prev_lam_a)
        stalled = ratio >= _STALL_RATIO and lam_stable

    return HitsResult(
        authority=WeightVector(a, VectorKind.AUTHORITY),
        hub=WeightVector(h, VectorKind.HUB),
        authority_eigenvalue=authority_eigenvalue,
        hub_eigenvalue=hub_eigenvalue,
        iterations=iterations,
        converged=converged,
        stalled=stalled,
    )
