"""Dominance, Pareto extraction and the evolutionary optimizer."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mace import demo
from mace.demo import (
    ARCHIVE_CAP,
    SCALE_FACTOR,
    DemoConfig,
    ParetoSet,
    _dedup_indices,
    _domination_matrix,
    _reflect_unit,
    _truncate,
    _update_archive,
    crowding_distance,
    demo_optimize,
    dominates,
    fast_non_dominated_fronts,
    non_dominated_mask,
    pareto_front,
)
from mace.errors import DimensionMismatchError, EvaluatorFaultError

vec3 = st.lists(st.integers(0, 4), min_size=3, max_size=3).map(np.array)

# Small integer grids force ties; the float pool puts infinities next to finite values.
grid_values = st.integers(0, 3).map(float)
float_values = st.one_of(
    st.sampled_from([-np.inf, np.inf, 0.0, -0.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
)


@st.composite
def objective_matrix(draw, m=None):
    """(n, m) objectives, m in {1, 2, 3, 6}, with some rows repeated verbatim."""
    if m is None:
        m = draw(st.sampled_from([1, 2, 3, 6]))
    values = draw(st.sampled_from([grid_values, float_values]))
    F = np.array(draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=1, max_size=12)))
    repeats = draw(st.lists(st.integers(0, F.shape[0] - 1), max_size=3))
    return np.vstack([F, F[repeats]])


def brute_force_front(F):
    """Plain O(n^2) definition: keep i iff no j dominates it."""
    n = len(F)
    keep = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if j == i:
                continue
            if np.all(F[j] <= F[i]) and np.any(F[j] < F[i]):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return set(keep)


class TestDominates:
    def test_strict_improvement(self):
        assert dominates(np.array([1.0, 2.0]), np.array([2.0, 3.0]))

    def test_mutually_non_dominated(self):
        a, b = np.array([1.0, 3.0]), np.array([2.0, 2.0])
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_irreflexive(self):
        a = np.array([1.0, 2.0])
        assert not dominates(a, a)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dominates(np.array([1.0]), np.array([1.0, 2.0]))

    @settings(max_examples=80, deadline=None)
    @given(vec3, vec3, vec3)
    def test_strict_partial_order(self, a, b, c):
        assert not dominates(a, a)
        if dominates(a, b):
            assert not dominates(b, a)
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestParetoFront:
    def test_singleton(self):
        assert set(pareto_front([np.array([1.0, 1.0])])) == {0}

    def test_third_point_dominated(self):
        F = [np.array([1.0, 2.0]), np.array([2.0, 1.0]), np.array([2.0, 2.0])]
        assert set(pareto_front(F)) == {0, 1}

    def test_duplicates_of_front_member_all_retained(self):
        F = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 3.0]])
        assert set(pareto_front(F)) == {0, 1}

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        F = rng.integers(0, 10, size=(200, 3)).astype(float)  # ints force ties
        assert set(pareto_front(F)) == brute_force_front(F)

    def test_matches_brute_force_continuous(self):
        rng = np.random.default_rng(1)
        F = rng.random((150, 4))
        assert set(pareto_front(F)) == brute_force_front(F)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pareto_front(np.zeros((0, 2)))


class TestDominationKernel:
    @settings(max_examples=300, deadline=None)
    @given(objective_matrix())
    def test_matches_pairwise_dominates(self, F):
        D = _domination_matrix(F)
        n = F.shape[0]
        assert D.shape == (n, n) and D.dtype == bool
        for i in range(n):
            for j in range(n):
                assert D[i, j] == dominates(F[i], F[j]), (i, j, F[i], F[j])

    def test_nan_rows_neither_dominate_nor_are_dominated(self):
        F = np.array([[0.0, 0.0], [np.nan, 1.0], [2.0, 2.0]])
        D = _domination_matrix(F)
        assert not D[1].any() and not D[:, 1].any()
        assert D[0, 2]


def brute_force_fronts(F):
    """Full peel by the plain definition: each front is the brute-force front of the rows left."""
    left, fronts = np.arange(len(F)), []
    while left.size:
        front = left[sorted(brute_force_front(F[left]))]
        fronts.append(front)
        left = np.setdiff1d(left, front)
    return fronts


class TestFronts:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_size_stops_at_the_shortest_covering_prefix(self, data):
        F = data.draw(objective_matrix(m=data.draw(st.sampled_from([2, 3, 6]))))
        full = fast_non_dominated_fronts(F)
        assert [f.tolist() for f in full] == [f.tolist() for f in brute_force_fronts(F)]
        size = data.draw(st.integers(1, F.shape[0]))
        fronts = fast_non_dominated_fronts(F, size)
        assert [f.tolist() for f in fronts] == [f.tolist() for f in full[:len(fronts)]]
        assert sum(f.size for f in fronts) >= size > sum(f.size for f in fronts[:-1])

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(range(12)), st.integers(1, 12))
    def test_total_order_ranks_one_row_per_front(self, keys, size):
        # Rows [k, 0, 0] are totally ordered by k, as on a collapsed branin front.
        F = np.zeros((12, 3))
        F[:, 0] = keys
        by_key = np.argsort(F[:, 0]).tolist()
        fronts = fast_non_dominated_fronts(F, size)
        assert [f.tolist() for f in fronts] == [[i] for i in by_key[:size]]
        X, G = _truncate(np.arange(12.0)[:, None], F, size)
        assert X[:, 0].astype(int).tolist() == sorted(by_key[:size])
        assert np.array_equal(G, F[sorted(by_key[:size])])


class TestTruncate:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_full_peel_reference(self, data):
        F = data.draw(objective_matrix(m=data.draw(st.sampled_from([2, 3, 6]))))
        size = data.draw(st.integers(1, F.shape[0]))
        # Reference: whole fronts while they fit, then the most crowded-apart rows of the next.
        kept = []
        for front in brute_force_fronts(F):
            if len(kept) + front.size > size:
                order = np.argsort(-crowding_distance(F[front]), kind="stable")
                kept.extend(front[order[:size - len(kept)]])
                break
            kept.extend(front)
        ids = np.arange(F.shape[0], dtype=float)[:, None]
        X, G = _truncate(ids, F, size)
        assert X[:, 0].astype(int).tolist() == sorted(kept)
        assert np.array_equal(G, F[sorted(kept)])


class TestReflectUnit:
    def test_scale_factor_below_one(self):
        # One reflection lands a mutant in [0, 1] only because F < 1.
        assert 0 < SCALE_FACTOR < 1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda d: st.lists(st.lists(st.floats(0, 1), min_size=d, max_size=d), min_size=3, max_size=3)))
    def test_one_reflection_keeps_mutants_in_the_cube(self, abc):
        a, b, c = np.array(abc)
        v = _reflect_unit(a + SCALE_FACTOR * (b - c))
        assert np.all((v >= 0) & (v <= 1)), v


class TestUpdateArchive:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_below_cap_is_front_of_union(self, data):
        m = data.draw(st.sampled_from([1, 2, 3, 6]))
        pool = data.draw(objective_matrix(m=m))
        arch_f = pool[sorted(brute_force_front(pool))]
        # New rows include copies of archive rows: equal vectors, which neither side dominates.
        copies = data.draw(st.lists(st.integers(0, arch_f.shape[0] - 1), max_size=3))
        new_f = np.vstack([data.draw(objective_matrix(m=m)), arch_f[copies]])
        new_f = new_f[data.draw(st.permutations(range(new_f.shape[0])))]
        # Point rows carry an id, so the result names which union rows survived.
        union_f = np.vstack([arch_f, new_f])
        ids = np.arange(union_f.shape[0], dtype=float)[:, None]
        na = arch_f.shape[0]
        X, F = _update_archive(ids[:na], arch_f, ids[na:], new_f, cap=union_f.shape[0] + 1)
        kept = X[:, 0].astype(int)
        assert set(kept) == brute_force_front(union_f)
        assert kept.size == len(set(kept))
        assert np.array_equal(F, union_f[kept])

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_above_cap_prunes_by_crowding(self, m):
        # Rows on the plane sum(f) = 1 are mutually non-dominated; shifted copies are dominated.
        rng = np.random.default_rng(m)
        arch_f = rng.dirichlet(np.ones(m), 30)
        new_f = np.vstack([rng.dirichlet(np.ones(m), 30), arch_f[:10] + 0.5])
        union_f = np.vstack([arch_f, new_f])
        ids = np.arange(union_f.shape[0], dtype=float)[:, None]
        cap = 40
        X, F = _update_archive(ids[:30], arch_f, ids[30:], new_f, cap=cap)
        kept = X[:, 0].astype(int)
        assert kept.size == cap
        assert np.all(np.diff(kept) > 0)  # union order
        assert np.array_equal(F, union_f[kept])
        assert brute_force_front(F) == set(range(cap))
        front = np.array(sorted(brute_force_front(union_f)))
        assert front.size == 60
        for j in range(m):
            assert front[np.argmin(union_f[front, j])] in kept
            assert front[np.argmax(union_f[front, j])] in kept


class TestCrowding:
    def test_boundaries_infinite(self):
        F = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        d = crowding_distance(F)
        assert np.isinf(d[0]) and np.isinf(d[3])
        assert np.isfinite(d[1]) and np.isfinite(d[2])

    def test_infinite_column_ends_give_no_nan(self):
        # Column 1 has an infinite end and column 2 is all infinite: neither
        # adds interior gaps, so the interior rows keep column 0's distances.
        F = np.array([[0.0, np.inf, np.inf], [1.0, 2.0, np.inf], [2.0, 1.0, np.inf], [3.0, 0.0, np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = crowding_distance(F)
            d2 = crowding_distance(F[:, :2])
        assert not np.isnan(d).any()
        np.testing.assert_array_equal(d, [np.inf, 2 / 3, 2 / 3, np.inf])
        np.testing.assert_array_equal(d2, d)


def counting(fn):
    calls = {"points": 0}

    def wrapped(X):
        calls["points"] += len(np.atleast_2d(X))
        return fn(X)

    return wrapped, calls


class TestDemoOptimize:
    def test_single_objective_sphere(self):
        bests = []
        for seed in range(10):
            ps = demo_optimize(lambda X: np.sum(X**2, axis=1, keepdims=True), 5, DemoConfig(), seed=seed)
            bests.append(ps.objectives.min())
        assert np.median(bests) <= 1e-2

    def test_segment_coverage(self):
        ps = demo_optimize(lambda X: np.column_stack([X[:, 0], 1.0 - X[:, 0]]), 1, DemoConfig(), seed=0)
        span = ps.objectives[:, 0].max() - ps.objectives[:, 0].min()
        assert span >= 0.9

    def test_deterministic(self):
        fn = lambda X: np.column_stack([X[:, 0] ** 2, (X[:, 0] - 1) ** 2, X[:, 1]])
        a = demo_optimize(fn, 2, DemoConfig(), seed=7)
        b = demo_optimize(fn, 2, DemoConfig(), seed=7)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.objectives, b.objectives)

    def test_budget_exact(self):
        fn, calls = counting(lambda X: np.column_stack([X[:, 0], 1.0 - X[:, 0]]))
        cfg = DemoConfig(population_size=30, max_evaluations=95)
        demo_optimize(fn, 2, cfg, seed=1)
        assert calls["points"] == 30 + 95  # initial population plus exactly the budget

    def test_objective_rows_must_match_points(self):
        with pytest.raises(DimensionMismatchError, match="one row per point"):
            demo_optimize(lambda X: np.zeros((X.shape[0] - 1, 2)), 2, DemoConfig(), seed=0)

    def test_result_points_pairwise_distinct(self):
        # Population members that also sit in the archive are returned once.
        rng = np.random.default_rng(5)
        A = rng.random((3, 2))

        def fn(X):
            return np.column_stack([np.sum((X - a) ** 2, axis=1) for a in A])

        ps = demo_optimize(fn, 2, DemoConfig(), seed=0)
        assert np.unique(ps.points, axis=0).shape[0] == len(ps)
        assert _dedup_indices(ps.points).size == len(ps)

    def test_result_mutually_non_dominated_and_in_cube(self):
        rng = np.random.default_rng(5)
        A = rng.random((3, 4))

        def fn(X):
            return np.column_stack([np.sum((X - a) ** 2, axis=1) for a in A])

        ps = demo_optimize(fn, 4, DemoConfig(population_size=40, max_evaluations=400), seed=2)
        assert np.all(ps.points >= 0) and np.all(ps.points <= 1)
        F = ps.objectives
        assert brute_force_front(F) == set(range(len(F)))

    def test_initial_points_seed_population(self):
        target = np.array([[0.123, 0.456]])

        def fn(X):
            return np.sum((X - target) ** 2, axis=1, keepdims=True)

        cfg = DemoConfig(population_size=20, max_evaluations=20)
        ps = demo_optimize(fn, 2, cfg, seed=0, initial_points=target)
        # the seeded optimum is in the initial population, so the front holds it
        assert ps.objectives.min() <= 1e-12

    def test_initial_points_clipped_and_deterministic(self):
        fn = lambda X: np.column_stack([X[:, 0], 1.0 - X[:, 0]])
        seeds = np.array([[1.7, -0.2], [0.5, 0.5]])
        cfg = DemoConfig(population_size=10, max_evaluations=20)
        a = demo_optimize(fn, 2, cfg, seed=3, initial_points=seeds)
        b = demo_optimize(fn, 2, cfg, seed=3, initial_points=seeds)
        assert np.all(a.points >= 0) and np.all(a.points <= 1)
        assert np.array_equal(a.points, b.points)

    def test_initial_points_nan_rejected_inf_clipped(self):
        fn = lambda X: np.column_stack([X[:, 0], 1.0 - X[:, 0]])
        cfg = DemoConfig(population_size=10, max_evaluations=20)
        with pytest.raises(ValueError, match="initial_points"):
            demo_optimize(fn, 2, cfg, seed=3, initial_points=[[np.nan, 0.5]])
        seen = []

        def recording(X):
            seen.append(X.copy())
            return fn(X)

        demo_optimize(recording, 2, cfg, seed=3, initial_points=[[np.inf, -np.inf]])
        assert seen[0][0].tolist() == [1.0, 0.0]

    def test_initial_points_dimension_checked(self):
        fn = lambda X: np.sum(X, axis=1, keepdims=True)
        with pytest.raises(DimensionMismatchError):
            demo_optimize(fn, 2, DemoConfig(population_size=5, max_evaluations=5),
                          initial_points=np.zeros((2, 3)))

    def test_empty_initial_points_seed_nothing(self):
        fn = lambda X: np.column_stack([X[:, 0], 1.0 - X[:, 0] + X[:, 1]])
        cfg = DemoConfig(population_size=10, max_evaluations=20)
        a = demo_optimize(fn, 2, cfg, seed=3, initial_points=None)
        b = demo_optimize(fn, 2, cfg, seed=3, initial_points=[])
        assert a.points.tobytes() == b.points.tobytes()
        assert a.objectives.tobytes() == b.objectives.tobytes()
        with pytest.raises(DimensionMismatchError):
            demo_optimize(fn, 2, cfg, seed=3, initial_points=[[0.5]])

    @pytest.mark.parametrize("capped", [False, True])
    def test_merge_matches_union_mask(self, monkeypatch, capped):
        # The plain definition of the merge: the front of the stacked union, split at the archive's length.
        def union_mask(arch_f, new_f):
            keep = non_dominated_mask(np.vstack([arch_f, new_f]))
            return keep[:arch_f.shape[0]], keep[arch_f.shape[0]:]

        fn = lambda X: np.column_stack([X[:, 0], 1.0 - X[:, 0] + X[:, 1]])
        if capped:
            # Crowding prunes the archive at the cap, so it can take in rows that population members dominate.
            cfg, seeds = DemoConfig(population_size=100, max_evaluations=4000), None
        else:
            # Repeated seeds put copies of archive members, and of each other, in the population.
            cfg, seeds = DemoConfig(population_size=12, max_evaluations=24), np.repeat(
                np.random.default_rng(1).random((4, 2)), 3, axis=0)
        calls = []
        survivors = demo._survivors

        def recording(arch_f, new_f):
            keep_arch, keep_new = survivors(arch_f, new_f)
            calls.append((arch_f.shape[0], new_f.shape[0], keep_arch, keep_new))
            return keep_arch, keep_new

        monkeypatch.setattr(demo, "_survivors", recording)
        a = demo_optimize(fn, 2, cfg, seed=0, initial_points=seeds)
        n_arch, n_pop, keep_arch, _ = calls[-1]  # the final merge
        if capped:
            assert max(c[0] for c in calls) == ARCHIVE_CAP
            assert not keep_arch.all()
        else:
            assert n_pop < cfg.population_size
            assert n_arch < calls[-2][2].sum() + calls[-2][3].sum()  # the archive after its last update
        monkeypatch.setattr(demo, "_survivors", union_mask)
        b = demo_optimize(fn, 2, cfg, seed=0, initial_points=seeds)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.objectives.tobytes() == b.objectives.tobytes()

    def test_nan_aborts(self):
        def fn(X):
            out = np.sum(X, axis=1, keepdims=True)
            out[0] = np.nan
            return out

        with pytest.raises(EvaluatorFaultError):
            demo_optimize(fn, 2, DemoConfig(population_size=10, max_evaluations=10), seed=0)

    def test_archive_never_exceeds_cap(self, monkeypatch):
        # Every point is non-dominated under (x0, 1 - x0), so a population above
        # the cap fills an archive past it unless its admission prunes too.
        sizes = []
        update = demo._update_archive

        def recording(arch_x, arch_f, new_x, new_f, cap):
            X, F = update(arch_x, arch_f, new_x, new_f, cap)
            sizes.extend([arch_x.shape[0], X.shape[0]])
            return X, F

        monkeypatch.setattr(demo, "_update_archive", recording)
        demo_optimize(lambda X: np.column_stack([X[:, 0], 1 - X[:, 0]]), 2, DemoConfig(700, 700))
        assert sizes and max(sizes) <= ARCHIVE_CAP

    @pytest.mark.parametrize("dim", [0, -1, 2.5, True])
    def test_dim_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match="^dim must be"):
            demo_optimize(lambda X: X, dim, DemoConfig(population_size=10, max_evaluations=10))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DemoConfig(population_size=3)
        with pytest.raises(ValueError):
            DemoConfig(population_size=10, max_evaluations=5)
        with pytest.raises(ValueError, match="^population_size must be at least 4$"):
            DemoConfig(population_size=3, max_evaluations=10)
        with pytest.raises(ValueError, match="^max_evaluations must be at least 10$"):
            DemoConfig(population_size=10, max_evaluations=9)
        assert DemoConfig(population_size=4, max_evaluations=10).population_size == 4
        assert DemoConfig(population_size=10, max_evaluations=10).max_evaluations == 10

    @pytest.mark.parametrize("field", ["population_size", "max_evaluations"])
    @pytest.mark.parametrize("value", [40.5, 400.0, "400", None])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            DemoConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = DemoConfig(population_size=np.int64(40), max_evaluations=np.int32(400))
        assert (cfg.population_size, cfg.max_evaluations) == (40, 400)


class TestParetoSet:
    def test_shape_checks(self):
        with pytest.raises(DimensionMismatchError):
            ParetoSet(np.zeros((2, 1)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="at least one member"):
            ParetoSet(np.empty((0, 2)), np.empty((0, 3)))

    @pytest.mark.parametrize("points", [[[np.nan, 0.5], [0.2, 0.3]], [[1.7, -3.0]], [[0.5, 0.5], [0.2, 1.1]]])
    def test_points_outside_unit_cube_raise(self, points):
        with pytest.raises(ValueError, match="unit cube"):
            ParetoSet(points, np.zeros((len(points), 2)))

    def test_near_duplicates_keep_first_row_and_its_objectives(self):
        a, b = np.array([0.5, 0.5]), np.array([0.25, 0.75])
        ps = ParetoSet(np.vstack([a, a + 1e-12, b, a + 2e-13]), np.arange(4.0)[:, None])
        assert np.array_equal(ps.points, np.vstack([a, b]))
        assert np.array_equal(ps.objectives, [[0.0], [2.0]])
