"""The alternating hub/authority solver and its contracts."""

import math
import random
import sys

import numpy as np
import pytest
from conftest import (
    FOUR_TEAM,
    FOUR_TEAM_AUTHORITY,
    FOUR_TEAM_HUB,
    FOUR_TEAM_EXTRA,
    FOUR_TEAM_EXTRA_AUTHORITY,
    FOUR_TEAM_EXTRA_HUB,
    MINI_AUTHORITY,
    MINI_HUB,
    MINI_MATRIX,
    gram_spectrum_ratio,
    ladder,
    mini_matches,
    principal_eigh,
    random_weights,
)

from hitsrank import (
    AdjacencyMatrix,
    DegenerateGraphError,
    DegenerateInputError,
    HitsResult,
    SolverConfig,
    TeamIndex,
    VectorKind,
    WeightVector,
    authority_gram,
    build_adjacency,
    hits,
    hub_gram,
)


def adj(w: np.ndarray) -> AdjacencyMatrix:
    names = tuple(f"n{i + 1}" for i in range(w.shape[0]))
    return AdjacencyMatrix(TeamIndex(names), np.asarray(w, dtype=float))


class TestGramMatrices:
    def test_four_node_authority_gram_by_hand(self):
        expected = [
            [1, 0, 1, 0],
            [0, 1, 0, 0],
            [1, 0, 2, 0],
            [0, 0, 0, 1],
        ]
        assert np.array_equal(authority_gram(adj(FOUR_TEAM)), expected)

    def test_four_node_hub_gram_by_hand(self):
        expected = [
            [1, 1, 0, 0],
            [1, 2, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
        assert np.array_equal(hub_gram(adj(FOUR_TEAM)), expected)

    def test_grams_are_symmetric_and_psd(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            w = random_weights(rng, int(rng.integers(1, 7)))
            for g in (authority_gram(adj(w)), hub_gram(adj(w))):
                assert np.array_equal(g, g.T)
                assert np.linalg.eigvalsh(g).min() >= -1e-10

    def test_symmetric_adjacency_gives_equal_grams(self):
        w = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert np.array_equal(authority_gram(adj(w)), hub_gram(adj(w)))

    def test_zero_matrix(self):
        m = adj(np.zeros((3, 3)))
        assert np.array_equal(authority_gram(m), np.zeros((3, 3)))
        assert np.array_equal(hub_gram(m), np.zeros((3, 3)))


class TestPowerIteration:
    """The sweep is power iteration on the Gram matrices; check it as such."""

    def test_diagonal_matrix(self):
        # authority Gram diag(2, 1)
        res = hits(adj(np.array([[0.0, 1.0], [math.sqrt(2.0), 0.0]])))
        assert res.converged
        assert res.authority_eigenvalue == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(res.authority.values, [1.0, 0.0], atol=1e-5)

    def test_four_node_authority_gram(self):
        # principal eigenvalue of the 2x2 dominant block [[1,1],[1,2]]
        # is (3 + sqrt(5)) / 2; eigenvector direction (1, (1+sqrt(5))/2)
        res = hits(adj(FOUR_TEAM))
        assert res.converged
        assert res.authority_eigenvalue == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-9)
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        expected = np.array([1.0, 0.0, phi, 0.0]) / math.sqrt(1.0 + phi * phi)
        assert np.allclose(res.authority.values, expected, atol=1e-9)

    def test_all_ones(self):
        # all ones off the diagonal: both Grams are I + J, top eigenpair (4, uniform)
        res = hits(adj(np.ones((3, 3)) - np.eye(3)))
        assert res.converged
        assert res.authority_eigenvalue == pytest.approx(4.0, rel=1e-12)
        assert res.hub_eigenvalue == pytest.approx(4.0, rel=1e-12)
        for vec in (res.authority.values, res.hub.values):
            assert np.allclose(vec, [math.sqrt(1.0 / 3.0)] * 3, atol=1e-12)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            w = random_weights(rng, int(rng.integers(2, 8)))
            if not w.any():
                continue
            res = hits(adj(w))
            ref_lam, ref_vec = principal_eigh(w @ w.T)
            assert res.hub_eigenvalue == pytest.approx(ref_lam, rel=1e-9, abs=1e-12)
            if res.converged and gram_spectrum_ratio(w) <= 0.9:
                assert np.allclose(res.hub.values, ref_vec, atol=1e-7)

    def test_unit_norm_output(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            w = random_weights(rng, 5)
            if not w.any():
                continue
            res = hits(adj(w))
            for vec in (res.authority.values, res.hub.values):
                assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
                assert vec.min() >= 0.0

    def test_zero_matrix_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            hits(adj(np.zeros((3, 3))))

    def test_empty_matrix_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            hits(adj(np.zeros((0, 0))))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            hits(adj(np.array([[0.0, -0.5], [-0.5, 0.0]])))

    def test_iteration_cap_reported(self):
        cfg = SolverConfig(tolerance=1e-15, max_iterations=1)
        res = hits(adj(FOUR_TEAM), cfg)
        assert not res.converged
        assert math.isfinite(res.authority_eigenvalue)
        assert abs(np.linalg.norm(res.authority.values) - 1.0) <= 1e-12


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tolerance == 1e-12
        assert cfg.max_iterations == 10000

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(tolerance=-1e-9)
        with pytest.raises(ValueError):
            SolverConfig(tolerance=float("nan"))

    def test_invalid_max_iterations(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        with pytest.raises(TypeError):
            SolverConfig(max_iterations=2.5)


# k equal entries of 1 / sqrt(k) make a unit vector whose bits every entry kind keeps
UNIT_ENTRIES = {1: 1.0, 4: 0.5, 16: 0.25, 64: 0.125}
# entry kinds: a function of (value, rnd) giving the entry a list holds
VECTOR_ENTRIES = {
    "float": lambda v, rnd: v,
    "int": lambda v, rnd: int(v),
    "bool": lambda v, rnd: bool(v),
    "numpy scalar": lambda v, rnd: rnd.choice([np.float64, np.float32, np.float16])(v),
    "numpy integer": lambda v, rnd: rnd.choice([np.int64, np.uint64])(int(v)),
    "numeric string": lambda v, rnd: rnd.choice([repr, lambda x: f" {x} ", lambda x: f"{x:e}"])(v),
}
WHOLE_KINDS = {"int", "bool", "numpy integer", np.int64, np.uint64, np.bool_}
VECTOR_DTYPES = [np.float64, np.float32, np.float16, np.int64, np.uint64, np.bool_]
VECTOR_BREAKS = ["negative", "nan", "inf", "unnormalized", "2-D", "scalar", "ragged", "none", "text"]


def vector_case(rnd: random.Random) -> object:
    """One pool input: 0 to 64 weights of one input kind, unit-norm or zero, 3 in 5 of the lists broken."""
    n = rnd.randint(0, 64)
    kind = rnd.choice([*VECTOR_ENTRIES, *VECTOR_DTYPES])
    whole = kind in WHOLE_KINDS
    values = [rnd.choice([0.0] if whole else [0.0, -0.0, 5e-324]) for _ in range(n)]
    sizes = [k for k in UNIT_ENTRIES if k <= n and (k == 1 or not whole)]
    if sizes and rnd.random() < 0.9:
        k = rnd.choice(sizes)
        for i in rnd.sample(range(n), k):
            values[i] = UNIT_ENTRIES[k]
        if kind in ("float", np.float64) and rnd.random() < 0.5:  # any unit vector, not only one of equal entries
            values = [v * rnd.uniform(0.5, 2.0) if v >= 1e-300 else v for v in values]
            norm = math.sqrt(math.fsum(v * v for v in values))
            values = [v / norm if v >= 1e-300 else v for v in values]
    if kind in VECTOR_DTYPES:
        w = np.array(values, dtype=kind)
        if rnd.random() < 0.2:
            w = w.reshape(1, n) if rnd.random() < 0.5 else np.array(values[0] if n else 0.5)  # 2-D, or a scalar
        return w
    values = [VECTOR_ENTRIES[kind](v, rnd) for v in values]
    if rnd.random() < 0.6:
        problem = rnd.choice(VECTOR_BREAKS)
        i = rnd.randrange(n) if n else 0
        if problem == "unnormalized":
            values.append(2.0)
        elif problem == "2-D":
            values = [values]
        elif problem == "scalar":
            return values[0] if n else 0.5
        elif problem == "ragged":
            values = [values, values[:-1] or [0.0]]
        elif n:
            values[i] = {"negative": -1.0, "nan": math.nan, "inf": math.inf, "none": None, "text": "x"}[problem]
    return tuple(values) if rnd.random() < 0.5 else values


def numpy_vector_reading(values: object) -> np.ndarray | None:
    """The weights as ``np.array(values, dtype=np.float64)`` reads them, or None if the weight rules refuse them."""
    try:
        v = np.array(values, dtype=np.float64)
    except (TypeError, ValueError):
        return None
    if v.ndim != 1 or not np.isfinite(v).all() or (v < 0).any():
        return None
    if (v > 0).any() and abs(np.linalg.norm(v) - 1.0) > 1e-6:
        return None
    return v


class TestWeightVector:
    def test_reads_vectors_as_numpy_does(self):
        # lists and tuples of numbers are read without numpy: each accepted
        # vector keeps np.array's bits, and each refused one is a ValueError
        rnd = random.Random(2701)
        seen = {"accepted": 0, "refused": 0}
        for case in range(1000):
            values = vector_case(rnd)
            expected = numpy_vector_reading(values)
            if expected is None:
                with pytest.raises(ValueError):
                    WeightVector(values, VectorKind.HUB)
                seen["refused"] += 1
                continue
            v = WeightVector(values, VectorKind.HUB)
            assert v.values.tobytes() == expected.tobytes() and len(v) == len(expected), case
            seen["accepted"] += 1
        assert min(seen.values()) > 250, seen

    def test_valid(self):
        v = WeightVector(np.array([0.6, 0.8]), VectorKind.AUTHORITY)
        assert len(v) == 2
        with pytest.raises(ValueError):
            v.values[0] = 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([-0.6, 0.8]), VectorKind.HUB)

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.eye(2), r"values must be a 1-D vector, got shape \(2, 2\)"),
            (np.float64(1.0), r"values must be a 1-D vector, got shape \(\)"),
            (np.array([0.6, math.nan]), "weights must be finite"),
            (np.array([0.0, math.inf]), "weights must be finite"),
            ([10**400], "weights must be finite"),  # an int beyond the float range reads as inf
            ((0, -(10**400)), "weights must be finite"),
        ],
    )
    def test_rejects_wrong_shape_or_non_finite(self, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WeightVector(values, VectorKind.AUTHORITY)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0, 1.0]), VectorKind.HUB)
        with pytest.raises(ValueError, match="^weights must be L2-normalized, got norm inf$"):  # squares past the float range
            WeightVector([1.3e154, 1.3e154], VectorKind.HUB)

    def test_rejects_bad_kind(self):
        with pytest.raises(TypeError):
            WeightVector(np.array([1.0]), "authority")


class TestHitsExamples:
    def test_four_node_win_graph(self):
        res = hits(adj(FOUR_TEAM))
        assert res.converged
        assert np.allclose(res.authority.values, FOUR_TEAM_AUTHORITY, atol=0.01)
        assert np.allclose(res.hub.values, FOUR_TEAM_HUB, atol=0.01)

    def test_four_node_win_graph_against_eigensolver(self):
        res = hits(adj(FOUR_TEAM))
        ref_lam, ref_auth = principal_eigh(authority_gram(adj(FOUR_TEAM)))
        _, ref_hub = principal_eigh(hub_gram(adj(FOUR_TEAM)))
        assert np.allclose(res.authority.values, ref_auth, atol=1e-9)
        assert np.allclose(res.hub.values, ref_hub, atol=1e-9)
        assert res.authority_eigenvalue == pytest.approx(ref_lam, rel=1e-12)

    def test_four_node_graph_with_extra_edge(self):
        res = hits(adj(FOUR_TEAM_EXTRA))
        assert res.converged
        assert np.allclose(res.authority.values, FOUR_TEAM_EXTRA_AUTHORITY, atol=0.01)
        assert np.allclose(res.hub.values, FOUR_TEAM_EXTRA_HUB, atol=0.01)

    def test_mini_league(self):
        res = hits(build_adjacency(mini_matches()))
        assert res.converged
        assert np.allclose(res.authority.values, MINI_AUTHORITY, atol=0.01)
        assert np.allclose(res.hub.values, MINI_HUB, atol=0.01)
        assert np.array_equal(build_adjacency(mini_matches()).w, MINI_MATRIX)

    def test_single_edge(self):
        res = hits(adj(np.array([[0.0, 1.0], [0.0, 0.0]])))
        assert res.converged
        assert np.allclose(res.authority.values, [0.0, 1.0], atol=1e-12)
        assert np.allclose(res.hub.values, [1.0, 0.0], atol=1e-12)
        assert res.authority_eigenvalue == pytest.approx(1.0, rel=1e-12)

    def test_random_matrices_against_eigensolver(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 25:
            w = random_weights(rng, 6)
            if not w.any():
                continue
            vals = np.linalg.eigvalsh(w @ w.T)
            if vals[-1] <= 0 or abs(vals[-2] - vals[-1]) <= 1e-10 * vals[-1]:
                continue
            res = hits(adj(w))
            _, ref_auth = principal_eigh(authority_gram(adj(w)))
            _, ref_hub = principal_eigh(hub_gram(adj(w)))
            assert np.allclose(res.authority.values, ref_auth, atol=1e-8)
            assert np.allclose(res.hub.values, ref_hub, atol=1e-8)
            checked += 1


class TestHitsContracts:
    def test_zero_matrix_raises(self):
        with pytest.raises(DegenerateGraphError):
            hits(adj(np.zeros((4, 4))))

    def test_empty_matrix_raises(self):
        with pytest.raises(DegenerateGraphError):
            hits(build_adjacency([]))

    def test_degenerate_error_is_degenerate_input(self):
        # one except clause can cover both the solver and raw-vector paths
        with pytest.raises(DegenerateInputError):
            hits(adj(np.zeros((2, 2))))

    def test_converged_result_invariants(self):
        res = hits(adj(FOUR_TEAM_EXTRA))
        assert res.converged
        assert not res.stalled
        assert 1 <= res.iterations <= SolverConfig().max_iterations
        assert abs(np.linalg.norm(res.authority.values) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(res.hub.values) - 1.0) <= 1e-12
        lam_max = max(res.authority_eigenvalue, res.hub_eigenvalue)
        assert abs(res.authority_eigenvalue - res.hub_eigenvalue) <= 1e-9 * lam_max

    def test_iteration_cap_without_stall(self):
        cfg = SolverConfig(max_iterations=3)
        res = hits(adj(FOUR_TEAM), cfg)
        assert not res.converged
        assert not res.stalled
        assert res.iterations == 3
        assert abs(np.linalg.norm(res.authority.values) - 1.0) <= 1e-12

    def test_near_tie_converges_to_top_eigenvector(self):
        # lambda2/lambda1 = 1 - 2e-7: power iteration alone would need
        # millions of sweeps; the dense eigensolve finishes well inside 500
        w = np.array([[0.0, 1.0], [1.0 + 1e-7, 0.0]])
        res = hits(adj(w), SolverConfig(max_iterations=500))
        assert res.converged
        assert not res.stalled
        assert np.allclose(res.authority.values, [1.0, 0.0], atol=1e-12)
        assert np.allclose(res.hub.values, [0.0, 1.0], atol=1e-12)
        assert res.authority_eigenvalue == pytest.approx((1.0 + 1e-7) ** 2, rel=1e-12)

    def test_stall_flag_on_tied_spectrum(self):
        # two blocks with the same top singular value c tie the top
        # eigenvalue; the next one, 1, sits close enough below c**2 to
        # keep power iteration slow, so the dense eigensolve decides
        c = 1.0 + 1e-7
        w = np.zeros((7, 7))
        w[0, 1], w[1, 0] = c, 1.0
        w[3:, 2] = c / 2.0  # one team took c/2 off each of four others
        res = hits(adj(w), SolverConfig(max_iterations=500))
        assert res.converged
        assert res.stalled
        g = authority_gram(adj(w))
        lam = res.authority_eigenvalue
        a = res.authority.values
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
        assert a.min() >= 0.0
        assert np.linalg.norm(g @ a - lam * a) <= 1e-8 * lam
        # the tie convention: the projection onto the tied eigenspace of
        # A^T 1, the authority iterate begun from a uniform hub vector,
        # which is the limit power iteration reaches on an exact tie
        vals, vecs = np.linalg.eigh(g)
        top = vecs[:, vals[-1] - vals <= 1e-10 * vals[-1]]
        assert top.shape[1] == 2
        expected = top @ (top.T @ w.sum(axis=0))
        assert np.allclose(a, expected / np.linalg.norm(expected), atol=1e-8)
        assert np.allclose(res.hub.values, w @ a / np.linalg.norm(w @ a), atol=1e-12)

    @pytest.mark.parametrize(
        "block",
        [random_weights(np.random.default_rng(3), 6), ladder(60)],
        ids=["conference", "ladder"],
    )
    def test_stall_flag_on_a_tie_the_sweeps_settle(self, block):
        # two unlinked copies of one conference tie the top eigenvalue
        # exactly, and the sweeps settle before sweep 50, where the dense
        # eigensolve would run; the ladder's component is 58 links long
        k = len(block)
        z = np.zeros((k, k))
        res = hits(adj(np.block([[block, z], [z, block]])))
        assert res.converged and res.iterations < 50
        assert res.stalled
        # W^T 1 splits evenly between the copies, and so do the weights
        assert np.allclose(res.authority.values[:k], res.authority.values[k:], rtol=0.0, atol=1e-15)
        # one copy, or a weaker second copy, leaves the top eigenvalue simple
        assert not hits(adj(block)).stalled
        weaker = hits(adj(np.block([[block, z], [z, 0.5 * block]])))
        assert weaker.converged and not weaker.stalled

    def test_deterministic(self):
        a = hits(adj(FOUR_TEAM_EXTRA))
        b = hits(adj(FOUR_TEAM_EXTRA))
        assert np.array_equal(a.authority.values, b.authority.values)
        assert np.array_equal(a.hub.values, b.hub.values)
        assert a.iterations == b.iterations
        assert a.authority_eigenvalue == b.authority_eigenvalue

    def test_result_rejects_swapped_kinds(self):
        v = WeightVector(np.array([1.0]), VectorKind.HUB)
        with pytest.raises(ValueError):
            HitsResult(
                authority=v,
                hub=v,
                authority_eigenvalue=1.0,
                hub_eigenvalue=1.0,
                iterations=1,
                converged=True,
            )

    @pytest.mark.parametrize(
        "hub_kind, hub_values, message",
        [
            (VectorKind.AUTHORITY, [1.0], "hub vector has the wrong kind"),
            (VectorKind.HUB, [0.6, 0.8], "authority and hub vectors differ in length"),
        ],
    )
    def test_result_rejects_a_wrong_hub(self, hub_kind, hub_values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            HitsResult(
                authority=WeightVector(np.array([1.0]), VectorKind.AUTHORITY),
                hub=WeightVector(np.array(hub_values), hub_kind),
                authority_eigenvalue=1.0,
                hub_eigenvalue=1.0,
                iterations=1,
                converged=True,
            )

    def test_result_rejects_eigenvalue_disagreement_when_converged(self):
        a = WeightVector(np.array([1.0]), VectorKind.AUTHORITY)
        h = WeightVector(np.array([1.0]), VectorKind.HUB)
        with pytest.raises(ValueError):
            HitsResult(
                authority=a,
                hub=h,
                authority_eigenvalue=1.0,
                hub_eigenvalue=2.0,
                iterations=5,
                converged=True,
            )


class TestHitsProperties:
    """Structural invariants on random inputs (small seeded samples).

    The full-size randomized gate lives in the acceptance suite; these
    runs keep the same generators so a regression is caught here first.
    """

    def test_duality(self):
        # hub weights of m equal authority weights of the transpose; pairs
        # with a clear spectral gap keep iteration error well under 2*tol
        rng = np.random.default_rng(7)
        tol = SolverConfig().tolerance
        checked = 0
        while checked < 100:
            w = random_weights(rng, int(rng.integers(2, 7)))
            if not w.any() or gram_spectrum_ratio(w) > 0.5:
                continue
            m = adj(w)
            t = adj(w.T)
            res = hits(m)
            dual = hits(t)
            assert np.allclose(res.hub.values, dual.authority.values, atol=2 * tol)
            assert np.allclose(res.authority.values, dual.hub.values, atol=2 * tol)
            checked += 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(21)
        tol = SolverConfig().tolerance
        checked = 0
        while checked < 60:
            w = random_weights(rng, int(rng.integers(2, 7)))
            if not w.any() or gram_spectrum_ratio(w) > 0.5:
                continue
            base = hits(adj(w))
            for c in (0.5, 3.0, 10.0):
                scaled = hits(adj(c * w))
                assert np.allclose(scaled.authority.values, base.authority.values, atol=2 * tol)
                assert np.allclose(scaled.hub.values, base.hub.values, atol=2 * tol)
                assert scaled.authority_eigenvalue == pytest.approx(
                    c * c * base.authority_eigenvalue, rel=1e-9
                )
            checked += 1

    def test_scale_invariance_across_the_float_range(self):
        # the sweep runs on the matrix prescaled by a power of two, so a
        # power-of-two scale changes no bit of the weights and any other
        # normal-float scale leaves them within the tolerance
        rng = np.random.default_rng(29)
        tol = SolverConfig().tolerance
        checked = 0
        while checked < 300:
            w = random_weights(rng, int(rng.integers(2, 8)))
            if not w.any() or gram_spectrum_ratio(w) > 0.5:
                continue
            c = 10.0 ** rng.uniform(-300.0, 300.0)
            k = int(rng.integers(-1000, 1000))
            if min((c * w[w > 0]).min(), np.ldexp(w[w > 0], k).min()) < np.finfo(float).tiny:
                continue  # a subnormal entry has lost digits before the solver sees it
            base = hits(adj(w))
            scaled = hits(adj(c * w))
            assert scaled.converged
            assert np.allclose(scaled.authority.values, base.authority.values, atol=2 * tol)
            assert np.allclose(scaled.hub.values, base.hub.values, atol=2 * tol)
            expected = c * c * base.authority_eigenvalue
            if 1e-300 < expected < 1e300:
                assert scaled.authority_eigenvalue == pytest.approx(expected, rel=1e-9)
            exact = hits(adj(np.ldexp(w, k)))
            assert np.array_equal(exact.authority.values, base.authority.values)
            assert np.array_equal(exact.hub.values, base.hub.values)
            checked += 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        tol = SolverConfig().tolerance
        checked = 0
        while checked < 60:
            n = int(rng.integers(2, 7))
            w = random_weights(rng, n)
            if not w.any() or gram_spectrum_ratio(w) > 0.5:
                continue
            perm = rng.permutation(n)
            base = hits(adj(w))
            shuffled = hits(adj(w[np.ix_(perm, perm)]))
            assert np.allclose(shuffled.authority.values, base.authority.values[perm], atol=2 * tol)
            assert np.allclose(shuffled.hub.values, base.hub.values[perm], atol=2 * tol)
            checked += 1

    def test_zero_column_team_has_zero_authority(self):
        # a team that never gained points from anyone has authority 0,
        # exactly: every update leaves that coordinate at 0
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            w = random_weights(rng, n)
            j = int(rng.integers(0, n))
            w[:, j] = 0.0
            if not w.any():
                continue
            res = hits(adj(w))
            assert res.authority.values[j] == 0.0

    def test_zero_row_team_has_zero_hub(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            w = random_weights(rng, n)
            i = int(rng.integers(0, n))
            w[i, :] = 0.0
            if not w.any():
                continue
            res = hits(adj(w))
            assert res.hub.values[i] == 0.0

    def test_fixed_point_residual(self):
        # at convergence, G a - lambda a is bounded by tolerance * lambda
        rng = np.random.default_rng(3)
        tol = SolverConfig().tolerance
        for _ in range(100):
            w = random_weights(rng, int(rng.integers(2, 8)))
            if not w.any():
                continue
            res = hits(adj(w))
            if not res.converged:
                continue
            g = authority_gram(adj(w))
            a = res.authority.values
            residual = np.linalg.norm(g @ a - res.authority_eigenvalue * a)
            assert residual <= tol * res.authority_eigenvalue


class TestSweepForms:
    """The row-list and the array matrix drive the one sweep loop to the same weights."""

    @pytest.mark.parametrize("n", [2, 7, 20, 32])
    def test_lists_and_arrays_agree(self, monkeypatch, n):
        solver = sys.modules["hitsrank.hits"]  # hitsrank.hits is the function
        w = random_weights(np.random.default_rng(n), n)
        w[0, 1] = 1.0  # at least one edge
        lists = solver._solve(w.tolist(), SolverConfig())
        monkeypatch.setattr(solver, "_LIST_TEAMS", 0)
        products = []
        array_product = solver._Array.product
        monkeypatch.setattr(solver._Array, "product", lambda m, x: products.append(x) or array_product(m, x))
        arrays = solver._solve(w, SolverConfig())
        assert products  # the array form ran
        for s in (lists, arrays):
            assert isinstance(s, HitsResult)
        assert (lists.converged, lists.stalled) == (arrays.converged, arrays.stalled) == (True, False)
        assert abs(lists.iterations - arrays.iterations) <= 1
        tol = SolverConfig().tolerance
        assert np.allclose(lists.authority.values, arrays.authority.values, rtol=0.0, atol=2 * tol)
        assert np.allclose(lists.hub.values, arrays.hub.values, rtol=0.0, atol=2 * tol)
        assert lists.authority_eigenvalue == pytest.approx(arrays.authority_eigenvalue, rel=1e-12)

    def test_small_leagues_keep_their_bits_when_teams_are_reordered(self):
        # up to 32 teams every sum is a correctly rounded math.fsum, which
        # does not depend on the order of its terms; so before the dense
        # eigensolve at sweep 50, reordering the teams reorders the weights
        solver = sys.modules["hitsrank.hits"]
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 40:
            n = int(rng.integers(2, 33))
            w = random_weights(rng, n) * 10.0 ** rng.integers(-300, 300)
            if not w.any():
                continue
            base = solver._solve(w.tolist(), SolverConfig())
            if not base.converged or base.iterations >= 50:
                continue
            perm = rng.permutation(n)
            shuffled = solver._solve(w[np.ix_(perm, perm)].tolist(), SolverConfig())
            assert np.array_equal(shuffled.authority.values, base.authority.values[perm])
            assert np.array_equal(shuffled.hub.values, base.hub.values[perm])
            assert shuffled._values()[2:] == base._values()[2:]  # eigenvalues, iterations and flags
            checked += 1

    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_mirror_image_halves_get_bit_equal_weights(self, k):
        # teams i and i + k play as mirror images, so swapping the halves
        # leaves W as it is, and every pair's weights are bit-equal
        solver = sys.modules["hitsrank.hits"]
        rng = np.random.default_rng(k)
        inner, outer = rng.uniform(0.0, 1.0, (2, k, k))
        np.fill_diagonal(inner, 0.0)
        w = np.block([[inner, outer], [outer, inner]])
        s = solver._solve(w.tolist(), SolverConfig())
        assert s.converged and s.iterations < 50
        assert np.array_equal(s.authority.values[:k], s.authority.values[k:])
        assert np.array_equal(s.hub.values[:k], s.hub.values[k:])
